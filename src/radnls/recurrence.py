"""Discrete space-time norms, the high-band norm sequence on shrinking
windows, and a brute-force verifier for the dyadic bootstrap bound.

The bootstrap upgrades a recurrence

    A_N <= C1 M0^s N^(-s) + sum over dyadic M0 < M <= 2 beta' N of (M/N)^s A_M,
    A_N <= A,

into A_N <= 2 C1 M0^s N^(-s+gamma) for all N >= M0, provided beta' is small
enough.  The admissibility threshold uses the explicit dyadic-sum constant
C(s) = 1 / (1 - 2^(1-s)) (an upper bound for sum_{k>=0} 2^(-k(s-1))):

    (beta')^(s-1) < 1 / (100 C(s) A)   and   (beta')^gamma < 1 / (100 C(s)).

The verifier never trusts the bootstrap algebra: it replays the induction
numerically (iterate_induction) and checks the conclusion directly per scale.
It runs on Python floats, one O(L) pass over an L-rung ladder per recurrence
sum, so a verify loads no numpy; the extraction half imports numpy, core and
bands inside its functions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # the verifier runs on floats alone; extraction imports these when it runs
    import numpy as np

    from .core import RadialGrid
    from .evolution import Trajectory

CONCLUSION_SLACK = 1e-12


@dataclass(frozen=True)
class RecurrenceParams:
    """Parameters (s, gamma, C1, M0, beta', A) of the dyadic bootstrap."""

    s: float
    gamma: float
    c1: float
    m0: float
    beta_prime: float
    a_bound: float

    def __post_init__(self):
        if not self.s > 1:
            raise ValueError("need s > 1")
        if not self.gamma > 0:
            raise ValueError("need gamma > 0")
        if not self.s - self.gamma > 1:
            raise ValueError("need s - gamma > 1")
        if not self.c1 > 0:
            raise ValueError("need C1 > 0")
        if not self.m0 >= 1:
            raise ValueError("need M0 >= 1")
        if not 0 < self.beta_prime < 1:
            raise ValueError("need beta' in (0, 1)")
        if not self.a_bound > 0:
            raise ValueError("need A > 0")


def dyadic_sum_constant(s: float) -> float:
    """C(s) = 1 / (1 - 2^(1-s)), the closed dyadic-sum bound used throughout."""
    return 1.0 / (1.0 - 2.0 ** (1.0 - s))


def admissibility(params: RecurrenceParams) -> dict:
    """Margins of beta' against the two bootstrap constraints.

    Returns the computed threshold c(s, gamma, A) = min of the two per-constraint
    caps; 'admissible' is True when beta' is strictly below both.
    """
    cs = dyadic_sum_constant(params.s)
    cap_base = (1.0 / (100.0 * cs * params.a_bound)) ** (1.0 / (params.s - 1.0))
    cap_step = (1.0 / (100.0 * cs)) ** (1.0 / params.gamma)
    return {
        "c_of_s": cs,
        "cap_base_case": cap_base,
        "cap_induction_step": cap_step,
        "threshold": min(cap_base, cap_step),
        "beta_prime": params.beta_prime,
        "admissible": params.beta_prime < min(cap_base, cap_step),
        "violated": [name for name, cap in
                     (("base_case", cap_base), ("induction_step", cap_step))
                     if params.beta_prime >= cap],
    }


@dataclass(frozen=True)
class ASequence:
    """Values A_N over a contiguous dyadic ladder."""

    scales: tuple
    values: tuple
    provenance: str  # "extracted-from-trajectory" | "synthetic"

    def __post_init__(self):
        if len(self.scales) != len(self.values):
            raise ValueError("scales/values length mismatch")
        if len(self.scales) == 0:
            raise ValueError("empty sequence")
        if not all(0 < N < math.inf for N in self.scales):
            raise ValueError("scales must be finite and positive")
        for a, b in zip(self.scales, self.scales[1:]):
            if abs(b - 2.0 * a) > 1e-9 * b:
                raise ValueError("scales must be a contiguous dyadic ladder (sequence gap)")
        if any(v < 0 or not math.isfinite(v) for v in self.values):
            raise ValueError("values must be finite and nonnegative")


# ---------------------------------------------------------------------------
# space-time norms
# ---------------------------------------------------------------------------

def _window(traj: Trajectory, t0: float, t1: float) -> np.ndarray:
    """Mask of the snapshots with t0 <= t <= t1 (inclusive, fuzzy ends)."""
    if traj.config.cadence != 1:
        raise ValueError("space-time norms need a dense-cadence trajectory (cadence 1)")
    sel = (traj.times >= t0 - 1e-12) & (traj.times <= t1 + 1e-12)
    times = traj.times[sel]
    if len(times) < 2:
        raise ValueError("interval shorter than one snapshot spacing")
    if times[0] > t0 + traj.config.dt / 2 or times[-1] < t1 - traj.config.dt * 1.5:
        raise ValueError(f"trajectory does not cover [{t0}, {t1}]")
    return sel


def _s_norm(grid: RadialGrid, times: np.ndarray, values: np.ndarray) -> float:
    """max of sup_t ||u||_2 and the trapezoid L^2_t L^{2d/(d-2)}_x norm over the rows of values."""
    import numpy as np

    from .core import _power_sum

    d = grid.d
    if d < 3:
        raise ValueError("the admissible-pair norm needs d >= 3")
    sup_l2 = math.sqrt(float(np.max(_power_sum(grid, values, 2))))
    q = 2.0 * d / (d - 2.0)
    integrand = (_power_sum(grid, values, q) ** (1.0 / q)) ** 2
    return max(sup_l2, math.sqrt(float(np.trapezoid(integrand, times))))


def strichartz_norm(traj: Trajectory, interval: tuple[float, float]) -> float:
    """max of sup_t ||u||_2 and the L^2_t L^{2d/(d-2)}_x norm on the interval."""
    sel = _window(traj, *interval)
    return _s_norm(traj.grid, traj.times[sel], traj.values[sel])


def extract_A_sequence(traj: Trajectory, Ns) -> ASequence:
    """A_N = || P_{>=N} u ||_S on the shrinking window [t0, t0 + N^(-1/2)].

    P_{>=N} u is one product for the window's snapshots.  Its support, rho > N/2,
    is wider than one kernel block, so the product reads the whole kernel.
    """
    from .bands import high_symbol
    from .core import _multiplier_inverse, validate_scale

    Ns = sorted(float(N) for N in Ns)
    grid = traj.grid
    t0 = traj.times[0]
    values = []
    for N in Ns:
        validate_scale(grid, N)
        sel = _window(traj, t0, t0 + N ** (-0.5))
        high = _multiplier_inverse(grid, high_symbol(grid, N), traj.coeffs[sel])
        values.append(_s_norm(grid, traj.times[sel], high))
    return ASequence(tuple(Ns), tuple(values), provenance="extracted-from-trajectory")


# ---------------------------------------------------------------------------
# recurrence inequality and bootstrap verification
# ---------------------------------------------------------------------------

def _window_sums(scales, values, params: RecurrenceParams) -> tuple[list[float], list[int]]:
    """Per rung N_k of an increasing ladder, the sum of (M_i/N_k)^s values[i] over
    M0 < M_i <= 2 beta' N_k (inclusive up to a relative 1e-12), and the number of
    rungs in that window.

    The window's lower end is the first M_i > M0 and its upper end only moves up the
    ladder, so each row carries the last row's total by (N_{k-1}/N_k)^s and adds the
    rungs that enter: one O(L) pass.
    """
    s, count = params.s, len(scales)
    first = top = next((i for i, M in enumerate(scales) if M > params.m0), count)
    total, sums, sizes = 0.0, [], []
    for k, N in enumerate(scales):
        if total:
            total *= (scales[k - 1] / N) ** s
        edge = 2.0 * params.beta_prime * N * (1.0 + 1e-12)
        while top < count and scales[top] <= edge:
            total += (scales[top] / N) ** s * values[top]
            top += 1
        sums.append(total)
        sizes.append(top - first)
    return sums, sizes


def _base_terms(scales, params: RecurrenceParams) -> list[float]:
    """M0^s N^(-s) per scale; raises if it is subnormal or 0 (the ladder is too long)."""
    base = [params.m0**params.s * float(N) ** (-params.s) for N in scales]
    tiny = [N for N, b in zip(scales, base) if b < sys.float_info.min]
    if tiny:
        raise ValueError("base term M0^s N^(-s) underflows below the smallest normal float "
                         f"at N = {tiny[0]:g}")
    return base


@dataclass(frozen=True)
class RecurrenceReport:
    params: RecurrenceParams
    # (N, A_N, sum_term, rhs_with_given_c1, slack, c1_needed, window_rungs)
    rows: tuple
    minimal_c1: float
    holds_with_given_c1: bool

    @property
    def nonempty_windows(self) -> int:
        """Rows whose window holds a rung; at 0 the recurrence was vacuous: every
        sum_term is 0 and the check rests on A_N <= C1 M0^s N^(-s) alone."""
        return sum(1 for r in self.rows if r[6])

    def to_json_obj(self) -> dict:
        return {
            "minimal_c1": self.minimal_c1,
            "holds_with_given_c1": self.holds_with_given_c1,
            "nonempty_windows": self.nonempty_windows,
            "rows": [dict(zip(("N", "A_N", "sum_term", "rhs", "slack", "c1_needed",
                               "window_rungs"), r))
                     for r in self.rows],
        }


def check_recurrence(seq: ASequence, params: RecurrenceParams) -> RecurrenceReport:
    """Evaluate the recurrence inequality per scale N >= M0 and the smallest workable C1."""
    if seq.scales[0] > params.m0 * 2.0:
        raise ValueError("sequence must cover the ladder from M0 up (sequence gap)")
    kept = [(float(N), float(a)) for N, a in zip(seq.scales, seq.values) if N >= params.m0]
    if not kept:
        raise ValueError("no scales at or above M0 in the sequence")
    scales, a = zip(*kept)
    rows = []
    for N, a_n, ssum, rungs, base in zip(scales, a, *_window_sums(scales, a, params),
                                         _base_terms(scales, params)):
        rhs = params.c1 * base + ssum
        rows.append((N, a_n, ssum, rhs, rhs - a_n, max(0.0, (a_n - ssum) / base), rungs))
    holds = all(slack >= -CONCLUSION_SLACK * max(1.0, a_n) for _, a_n, _, _, slack, *_ in rows)
    return RecurrenceReport(params=params, rows=tuple(rows),
                            minimal_c1=max(r[5] for r in rows), holds_with_given_c1=holds)


@dataclass(frozen=True)
class InductionTable:
    """Bound table B_j(N) = 2 C1 M0^s N^(-s+gamma) + (beta')^j with step checks."""

    params: RecurrenceParams
    scales: tuple
    js: tuple
    bounds: tuple        # bounds[i][k] = B_{js[i]}(scales[k])
    steps_verified: tuple

    @property
    def all_steps_verified(self) -> bool:
        return all(self.steps_verified)

    def limit_bound(self, N: float) -> float:
        p = self.params
        return 2.0 * p.c1 * p.m0**p.s * N ** (-p.s + p.gamma)


def iterate_induction(params: RecurrenceParams, scales) -> InductionTable:
    """Replay the bootstrap induction numerically over the ladder's scales N >= M0.

    Row j tabulates the claimed bound B_j(N); each step is verified by
    plugging min(B_j, A) into the recurrence right-hand side and checking it
    lands at or below B_{j+1}(N).  Iteration stops once (beta')^j is below
    1e-12 of the limiting bound, so the table exhibits the monotone
    convergence to 2 C1 M0^s N^(-s+gamma).

    The replay substitutes and checks each step directly, so a table whose
    steps all verify proves the bound for the tabulated ladder even when the
    (very conservative) closed-form admissibility caps are not met; the caps
    remain the published applicability gate for verify_recursive_control.
    """
    p = params
    scales = [float(N) for N in scales if N >= p.m0]
    if not scales:
        raise ValueError("empty ladder: no scale at or above M0")
    limit = [2.0 * p.c1 * p.m0**p.s * N ** (-p.s + p.gamma) for N in scales]
    base = [p.c1 * b for b in _base_terms(scales, p)]
    floor = 1e-12 * min(limit)
    js, bounds, verified = [], [], []
    j = 1
    while True:
        beta_j = p.beta_prime**j
        bound = [lim + beta_j for lim in limit]
        sums, _ = _window_sums(scales, [min(b, p.a_bound) for b in bound], p)
        nxt = [lim + p.beta_prime ** (j + 1) for lim in limit]
        js.append(j)
        bounds.append(tuple(bound))
        verified.append(all(b + ssum <= n + CONCLUSION_SLACK * max(1.0, n)
                            for b, ssum, n in zip(base, sums, nxt)))
        if beta_j < floor or j > 100000:
            break
        j += 1
    return InductionTable(params=params, scales=tuple(scales), js=tuple(js),
                          bounds=tuple(bounds), steps_verified=tuple(verified))


@dataclass(frozen=True)
class ControlReport:
    """Outcome of the bootstrap verification on a concrete sequence."""

    params: RecurrenceParams
    applicable: bool
    violated: tuple            # names of failed hypotheses / admissibility caps
    admissibility: dict
    induction_steps: int
    induction_verified: bool
    conclusion_rows: tuple     # (N, A_N, bound, pass)
    overall_pass: bool | None  # None when inapplicable
    recurrence: RecurrenceReport  # the check it ran; not part of its JSON

    def to_json_obj(self) -> dict:
        return {
            "applicable": self.applicable,
            "violated": list(self.violated),
            "admissibility": self.admissibility,
            "induction_steps": self.induction_steps,
            "induction_verified": self.induction_verified,
            "overall_pass": self.overall_pass,
            "rows": [dict(zip(("N", "A_N", "bound", "pass"), r)) for r in self.conclusion_rows],
        }


def verify_recursive_control(seq: ASequence, params: RecurrenceParams) -> ControlReport:
    """Check hypotheses, admissibility, the replayed induction, and the conclusion.

    Inadmissible beta' or failed hypotheses yield applicable=False with the
    violated constraint named (the bound is then not claimed either way).  The
    induction replays the sequence's own scales N >= M0, which the conclusion
    rows check.
    """
    violated = []
    adm = admissibility(params)
    if not adm["admissible"]:
        violated.extend(f"admissibility:{name}" for name in adm["violated"])
    tol = CONCLUSION_SLACK
    if any(v > params.a_bound * (1.0 + tol) for v in seq.values):
        violated.append("trivial_bound")
    rec = check_recurrence(seq, params)
    if not rec.holds_with_given_c1:
        violated.append("recurrence_with_given_c1")

    if violated:
        return ControlReport(params=params, applicable=False, violated=tuple(violated),
                             admissibility=adm, induction_steps=0, induction_verified=False,
                             conclusion_rows=(), overall_pass=None, recurrence=rec)

    table = iterate_induction(params, seq.scales)
    rows = []
    overall = table.all_steps_verified
    for N, a in zip(seq.scales, seq.values):
        if N < params.m0:
            continue
        bound = table.limit_bound(N)
        ok = a <= bound * (1.0 + tol) + tol
        overall = overall and ok
        rows.append((N, a, bound, ok))
    return ControlReport(params=params, applicable=True, violated=(),
                         admissibility=adm, induction_steps=len(table.js),
                         induction_verified=table.all_steps_verified,
                         conclusion_rows=tuple(rows), overall_pass=overall,
                         recurrence=rec)
