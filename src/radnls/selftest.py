"""Fast invariant suites for every module, runnable from the CLI.

Each suite returns (name, ok, detail) tuples; the CLI prints one line per
check and exits nonzero when anything fails.  All six take about 0.22 s, grid build
and Q's solve included: 0.18-0.25 s in 7 fresh processes with one BLAS thread, after
0.13-0.16 s of import, on a 2-CPU host shared with other jobs.  The check_*
functions here are the one implementation of each verdict that the suites and
the acceptance suite share: each takes its data and returns (ok, value), or a
dict of them by name, with ok a bool against the check's one bound.  Q's
certificate and the solitary-wave check live beside Q, in groundstate, which
the ground-state and evolve commands judge through without loading this
module.  The virial identity is judged as diagnose judges it, by
diagnostics.virial_residual against diagnostics.VIRIAL_TOL, here on a focusing
run from 2 e^(-r^2).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import bands, core, diagnostics, evolution, groundstate, recurrence

SEED = 20260808


def _rel(a: core.RadialField, b: core.RadialField) -> float:
    """Relative L^2 distance ||a - b|| / ||b||."""
    return math.sqrt(core.mass(a - b) / core.mass(b))


def check_partition(fields) -> tuple[bool, float]:
    """Worst relative error of P_{<=N_min} f plus every dyadic band P_N f against f."""
    def rebuilt(f):
        low, *rest = core.dyadic_scales(f.grid)
        return sum((bands.project_band(f, N) for N in rest), bands.project_low(f, low))

    worst = max(_rel(rebuilt(f), f) for f in fields)
    return worst < 1e-8, worst


def check_fat_idempotent(fields, N: float) -> tuple[bool, float]:
    """Worst relative error of P_N P_fat(N) f against P_N f."""
    worst = max(_rel(bands.project_band(bands.project_fat(f, N), N), bands.project_band(f, N))
                for f in fields)
    return worst < 1e-10, worst


def check_in_out_complete(fields) -> tuple[bool, float]:
    """Worst relative error of P^+ f + P^- f against f."""
    worst = max(_rel(bands.in_out(f, "+") + bands.in_out(f, "-"), f) for f in fields)
    return worst < 1e-3, worst


def check_mismatch_norm(grid: core.RadialGrid) -> tuple[bool, tuple[float, float]]:
    """||A(R, N)|| = mismatch_norm depends on N R alone, ||A(4, 16)|| / ||A(8, 8)|| - 1,
    and decays in it, ||A(8, 16)|| / ||A(8, 8)|| (N R 64 -> 128).  The Dirichlet wall at
    r_max reflects A's slow tail, less for smaller R, hence the scaling bound 2e-2: at
    r_max 15 (n = 640) (8, 8) reads 0.145421 and (4, 16) 0.146489, against 0.146968 on
    R^d; at r_max 30 and 60 (n = 1280) (8, 8) reads 0.146474 and 0.146964."""
    nr64 = bands.mismatch_norm(grid, 8.0, 8.0)
    scaling = bands.mismatch_norm(grid, 4.0, 16.0) / nr64 - 1.0
    decay = bands.mismatch_norm(grid, 8.0, 16.0) / nr64
    return abs(scaling) < 2e-2 and decay < 0.7, (scaling, decay)


def check_recurrence_cases() -> dict[str, tuple[bool, float]]:
    """Three verifier cases whose answers are known without it, at the admissible
    s = 2.5, gamma = 1, beta' = 5e-3, C1 = M0 = A = 1, on the ladder N = 2^k, k < 40, where
    the window M0 < M <= 2 beta' N of N = 2^k holds the rungs 2^1 ... 2^(k-7).

    saturating: A_N = min(A, C1 N^-s + the window's sum), built rung by rung, meets every
      hypothesis, so the verifier must apply and pass it.  Value: A_N N^s / C1 at the top
      rung, above 1 by what the windows added.
    planted_violation: A_N = min(A, 5 N^(-s+gamma)) breaks A_N <= 2 C1 N^(-s+gamma), so
      it must not pass.  Value: its worst A_N / (2 C1 N^(-s+gamma)).
    geometric_sum: for A_M = 1/M, each sum_term against the closed geometric sum
      N^-s r (r^(k-7) - 1) / (r - 1), r = 2^(s-1).  Value: the worst relative gap.
    """
    p = recurrence.RecurrenceParams(s=2.5, gamma=1.0, c1=1.0, m0=1.0, beta_prime=5e-3,
                                    a_bound=1.0)
    ladder = tuple(2.0**k for k in range(40))

    def passes(values):
        rep = recurrence.verify_recursive_control(
            recurrence.ASequence(ladder, tuple(values), "synthetic"), p)
        return rep.applicable and rep.overall_pass

    saturating = []
    for N in ladder:
        window = sum((M / N) ** p.s * a for M, a in zip(ladder, saturating)
                     if p.m0 < M <= 2.0 * p.beta_prime * N)
        saturating.append(min(p.a_bound, p.c1 * N**-p.s + window))
    gain = saturating[-1] * ladder[-1] ** p.s / p.c1
    planted = [min(p.a_bound, 5.0 * N ** (p.gamma - p.s)) for N in ladder]
    worst = max(a / (2.0 * p.c1 * N ** (p.gamma - p.s)) for N, a in zip(ladder, planted))

    rows = recurrence.check_recurrence(
        recurrence.ASequence(ladder, tuple(1.0 / N for N in ladder), "synthetic"), p).rows
    r = 2.0 ** (p.s - 1.0)
    gap = 0.0
    for k, (N, _, ssum, *_) in enumerate(rows):
        closed = N**-p.s * r * (r ** max(0, k - 7) - 1.0) / (r - 1.0)
        if ssum != closed:
            gap = max(gap, abs(ssum - closed) / closed if closed else math.inf)
    return {"saturating": (passes(saturating) and gain > 1.0, gain),
            "planted_violation": (not passes(planted) and worst > 1.0, worst),
            "geometric_sum": (gap < 1e-13, gap)}


@functools.cache
def _grid():
    return core.make_radial_grid(4, 15.0, 384)


@functools.cache
def _ground():
    return groundstate.solve_ground_state(_grid(), tol=1e-8)


def _line(name: str, result: tuple, fmt: str) -> tuple[str, bool, str]:
    ok, value = result
    return name, ok, fmt.format(value)


def suite_core() -> list[tuple[str, bool, str]]:
    g = _grid()
    f = core.field_from_function(g, lambda r: np.exp(-(r**2)))
    err = _rel(core.transform_inverse(core.transform_forward(f)), f)
    m = core.mass(f)
    pl = abs(core.sobolev_norm(f, 0.0) ** 2 - m) / m
    rng = np.random.default_rng(SEED)
    # the five fields rescale as one (5, n) stack, one kernel per lam
    fields = np.array([core.random_smooth_field(g, rng).values for _ in range(5)])
    m0 = core._power_sum(g, fields, 2)
    k0 = np.sqrt(core._kinetic_sum(g, g._forward_values(fields)))
    errs = []
    for lam in (0.5, 2.0):
        scaled = core._rescaled_values(g, fields, lam)
        errs += [np.abs(core._power_sum(g, scaled, 2) - m0) / m0,
                 np.abs(np.sqrt(core._kinetic_sum(g, g._forward_values(scaled))) / k0 - lam) / lam]
    worst = float(np.max(errs))
    return [("core.roundtrip", err < 1e-9, f"rel err {err:.2e}"),
            ("core.gaussian_mass", abs(m - (math.pi / 2) ** 2) < 1e-8 * m, f"{m:.12g}"),
            ("core.plancherel", pl < 1e-8, f"rel {pl:.2e}"),
            ("core.scaling", worst < 1e-6, f"worst {worst:.2e}")]


def suite_groundstate() -> list[tuple[str, bool, str]]:
    g = _grid()
    q = _ground()
    cert = groundstate.check_ground_state(q)
    rng = np.random.default_rng(SEED + 1)
    jmax = max(groundstate.gn_ratio(core.random_smooth_field(g, rng), q) for _ in range(25))
    return [_line("groundstate.residual", cert["residual"], "{:.2e}"),
            _line("groundstate.shooting", cert["shooting"], "rel {:.2e}"),
            _line("groundstate.pohozaev", cert["pohozaev"], "{:.8f}"),
            _line("groundstate.sharp_ratio", cert["sharp_ratio"], "{:.6f}"),
            _line("groundstate.energy", cert["energy"], "E/K {:.2e}"),
            _line("groundstate.positivity", cert["positivity"], "min/max {:.2e}"),
            _line("groundstate.monotonicity", cert["monotonicity"], "rise/Q(0) {:.2e}"),
            ("groundstate.ratio_below_one", jmax <= 1.0 + 1e-3, f"max {jmax:.6f}")]


def suite_bands() -> list[tuple[str, bool, str]]:
    g = _grid()
    rng = np.random.default_rng(SEED + 2)
    *fields, f = (core.random_smooth_field(g, rng) for _ in range(6))
    scales = core.dyadic_scales(g)
    return [_line("bands.partition", check_partition(fields), "worst {:.2e}"),
            _line("bands.fat_idempotent",
                  check_fat_idempotent([f], scales[len(scales) // 2]), "{:.2e}"),
            _line("bands.in_out_complete", check_in_out_complete([f]), "{:.2e}"),
            _line("bands.mismatch_norm", check_mismatch_norm(g),
                  "scaling {0[0]:.2e} decay {0[1]:.4f}")]


def suite_evolution() -> list[tuple[str, bool, str]]:
    g = _grid()
    q = _ground()
    cfg = evolution.SimulationConfig(dimension=4, mu=-1, r_max=15.0, n=384,
                                     dt=1e-3, t_final=0.2, cadence=10)
    traj = evolution.evolve(cfg, q.profile)
    f = core.field_from_function(g, lambda r: np.exp(-(r**2)))
    u = evolution.free_propagate(f, 0.3)
    exact = (1 + 4j * 0.3) ** (-2) * np.exp(-g.r**2 / (1 + 4j * 0.3))
    ferr = math.sqrt(float(core._power_sum(g, u.values - exact, 2)) / core.mass(f))
    run = groundstate.check_solitary_wave(traj, q, 0.0)
    return [_line("evolution.solitary_wave", run["solitary_wave"], "L2 err {:.2e}"),
            _line("evolution.mass", run["mass"], "drift {:.2e}"),
            ("evolution.free_gaussian", ferr < 1e-6, f"{ferr:.2e}")]


def suite_diagnostics() -> list[tuple[str, bool, str]]:
    g = _grid()
    f = core.field_from_function(g, lambda r: 2 * np.exp(-(r**2)))
    cfg = evolution.SimulationConfig(dimension=4, mu=-1, r_max=15.0, n=384,
                                     dt=1e-3, t_final=0.1, cadence=1)
    traj = evolution.evolve(cfg, f)
    residual = float(diagnostics.virial_residual(traj, traj.times[2:-2]).max())
    c_x, c_xi = map(float, diagnostics.concentration_radii(
        g, f.values, g._forward_values(f.values), 0.5 * core.mass(f)))
    return [("diagnostics.virial_identity", residual <= diagnostics.VIRIAL_TOL,
             f"rel {residual:.2e}"),
            ("diagnostics.concentration", 0.5 < c_x < 1.5 and 1.0 < c_xi < 3.0,
             f"c_x={c_x:.3f} c_xi={c_xi:.3f}")]


def suite_recurrence() -> list[tuple[str, bool, str]]:
    cases = check_recurrence_cases()
    return [_line("recurrence.saturating", cases["saturating"], "top A_N N^s/C1 {:.6g}"),
            _line("recurrence.planted_violation", cases["planted_violation"],
                  "A_N/bound {:.3f}"),
            _line("recurrence.geometric_sum", cases["geometric_sum"], "rel {:.2e}")]


ALL_SUITES = (suite_core, suite_groundstate, suite_bands, suite_evolution, suite_diagnostics,
              suite_recurrence)


def run_all() -> list[tuple[str, bool, str]]:
    return [result for suite in ALL_SUITES for result in suite()]
