"""Reference values for the benchmark's output checks, computed without radnls.

The ground state Q of  Q'' + (d-1)/r Q' = Q - Q^(1+4/d)  comes from a
scipy.integrate.solve_bvp collocation solve, which shares no code with the
program's fixed-point solver or its shooting cross-check.  Everything else
here (the Bessel-zero nodes a snapshot is sampled on, their quadrature
weights, the radial Fourier transform and the frozen cutoff bump) is
rewritten from the formulas the program documents, so a check fails when the
program and these formulas disagree.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np
from scipy import special
from scipy.integrate import quad, solve_bvp

SNAPSHOT_MAGIC = b"RNLSFLD1"


def sphere_area(d: int) -> float:
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


class GroundProfile:
    """Q on [0, r_end] from a collocation solve, with its mass and kinetic energy."""

    def __init__(self, d: int = 4, r_end: float = 40.0):
        self.d = d
        p = 1.0 + 4.0 / d
        # decaying solutions satisfy Q' ~ -(1 + (d-1)/(2r)) Q far out
        k_end = 1.0 + (d - 1) / (2.0 * r_end)
        r = np.linspace(0.0, r_end, 400)
        guess = 6.0 / np.cosh(r) ** 2
        sol = solve_bvp(
            lambda x, y: np.vstack([y[1], y[0] - np.abs(y[0]) ** p]),
            lambda ya, yb: np.array([ya[1], yb[1] + k_end * yb[0]]),
            r, np.vstack([guess, np.gradient(guess, r)]),
            S=np.array([[0.0, 0.0], [0.0, -(d - 1.0)]]), tol=1e-9, max_nodes=100000)
        if sol.status != 0 or not sol.sol(0.0)[0] > 0:
            raise RuntimeError(f"ground-state collocation failed: {sol.message}")
        self._sol = sol
        self.r_end = r_end
        self.mass = self.integral(d - 1)
        self.kinetic = self.integral(d - 1, derivative=True)

    def integral(self, power: int, derivative: bool = False, lo: float = 0.0,
                 weight=None) -> float:
        """|S^{d-1}| * Integral_lo^inf weight(r) Q(r)^2 r^power dr, or with Q' in place of Q."""
        comp = 1 if derivative else 0
        return sphere_area(self.d) * quad(
            lambda x: (1.0 if weight is None else weight(x)) * self._sol.sol(x)[comp] ** 2
            * x**power, lo, self.r_end, limit=400, epsabs=1e-10, epsrel=1e-12)[0]

    def pc_virial(self, t: float, R: float) -> float:
        """Integral phi(|x|/R) |x|^2 |u(t)|^2 dx for the pseudo-conformal solution u.

        |u(t, x)|^2 = |t|^{-d} Q(x/|t|)^2, so this is t^2 Integral phi(|t||y|/R) |y|^2 Q(y)^2 dy.
        """
        return t * t * self.integral(self.d + 1, weight=lambda y: float(bump(abs(t) * y / R)))

    def q(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        return np.where(r <= self.r_end, self._sol.sol(np.minimum(r, self.r_end))[0], 0.0)

    def tail_radius(self, share: float, kinetic: bool = False) -> float:
        """Radius R with share of the mass (or of ||grad Q||^2) beyond R, by bisection."""
        total = self.kinetic if kinetic else self.mass
        lo, hi = 0.0, self.r_end
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if self.integral(self.d - 1, kinetic, mid) > share * total:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


class Nodes:
    """Bessel-zero nodes r_k = j_k r_max / j_{n+1} of J_{d/2-1}, and quadrature weights."""

    def __init__(self, d: int, n: int, r_max: float):
        self.d, self.n, self.r_max = d, n, r_max
        self.nu = d // 2 - 1
        zeros = special.jn_zeros(self.nu, n + 1)
        j, edge = zeros[:n], zeros[n]
        self.r = j * r_max / edge
        self.rho = j / r_max
        jn1sq = special.jv(self.nu + 1, j) ** 2
        # Integral_0^R h(r) r dr ~ sum w1 h(r_k); the rho side is the same rule on [0, edge/R]
        self.w1 = 2.0 * r_max**2 / (edge**2 * jn1sq)
        self.wrho1 = 2.0 / (r_max**2 * jn1sq)
        area = sphere_area(d)
        self.w = area * self.r ** (d - 2) * self.w1
        self.wrho = area * self.rho ** (d - 2) * self.wrho1
        self._kernel = None

    def mass(self, vals: np.ndarray) -> float:
        return float(np.sum(self.w * np.abs(vals) ** 2))

    def lp(self, vals: np.ndarray, p: float) -> float:
        return float(np.sum(self.w * np.abs(vals) ** p)) ** (1.0 / p)

    def cell(self, r: float) -> float:
        """Node spacing around radius r."""
        k = int(np.clip(np.searchsorted(self.r, r), 1, self.n - 1))
        return float(self.r[k] - self.r[k - 1])

    def project_high(self, vals: np.ndarray, N: float) -> np.ndarray:
        """P_{>=N}: multiply the radial Fourier transform by 1 - phi(2 rho / N)."""
        if self._kernel is None:
            self._kernel = special.jv(self.nu, np.outer(self.rho, self.r))
        kern = self._kernel
        fhat = self.rho ** (-self.nu) * (kern @ (self.w1 * vals * self.r**self.nu))
        fhat = fhat * (1.0 - bump(2.0 * self.rho / N))
        return self.r ** (-self.nu) * (kern.T @ (self.wrho1 * fhat * self.rho**self.nu))


def bump(x: np.ndarray) -> np.ndarray:
    """The documented cutoff: 1 on [0, 1], 0 beyond 25/24, exp(-1/t) partition between."""
    x = np.abs(np.asarray(x, dtype=np.float64))
    t = np.clip((25.0 / 24.0 - x) * 24.0, 0.0, 1.0)
    with np.errstate(divide="ignore"):
        a = np.where(t > 0, np.exp(-1.0 / np.where(t > 0, t, 1.0)), 0.0)
        b = np.where(t < 1, np.exp(-1.0 / np.where(t < 1, 1.0 - t, 1.0)), 0.0)
    return a / (a + b)


def read_snapshot(path) -> tuple[int, int, float, np.ndarray]:
    """(d, n, r_max, samples) of a binary snapshot, read from its documented layout."""
    blob = Path(path).read_bytes()
    if blob[:8] != SNAPSHOT_MAGIC:
        raise ValueError(f"{path}: bad snapshot magic")
    d, n, r_max = struct.unpack("<IQd", blob[8:28])
    vals = np.frombuffer(blob[28:], dtype="<c16")
    if vals.shape != (n,):
        raise ValueError(f"{path}: {vals.size} samples, header says {n}")
    return d, n, r_max, vals


def sw_exact(gp: GroundProfile, nodes: Nodes, t: float) -> np.ndarray:
    """The solitary wave e^{it} Q on the nodes."""
    return np.exp(1j * t) * gp.q(nodes.r)


def pc_exact(gp: GroundProfile, nodes: Nodes, t: float) -> np.ndarray:
    """|t|^{-d/2} e^{i(r^2 - 4)/(4t)} Q(r/|t|), the pseudo-conformal blowup solution."""
    r = nodes.r
    return abs(t) ** (-gp.d / 2.0) * np.exp(1j * (r**2 - 4.0) / (4.0 * t)) * gp.q(r / abs(t))


def rel_l2(nodes: Nodes, vals: np.ndarray, ref: np.ndarray) -> float:
    return math.sqrt(nodes.mass(vals - ref) / nodes.mass(ref))


def a_sequence_from_q(q: np.ndarray, nodes: Nodes, Ns, dt: float, n_steps: int) -> dict:
    """A_N of e^{it}Q on [0, N^-1/2], which is exact because |P_{>=N} e^{it}Q| is constant in t.

    With a constant integrand the trapezoid rule over the stored times in
    the window gives the window length times the integrand.
    """
    exp_q = 2.0 * nodes.d / (nodes.d - 2.0)
    out = {}
    for N in Ns:
        hi = nodes.project_high(q, N)
        t1 = N ** -0.5
        last = max(k * dt for k in range(n_steps + 1) if k * dt <= t1 + 1e-12)
        out[float(N)] = max(math.sqrt(nodes.mass(hi)), math.sqrt(last * nodes.lp(hi, exp_q) ** 2))
    return out


def synthetic_ladder(params: dict, exponent: float, ladder: int) -> tuple[float, bool]:
    """Minimal C1 and the bootstrap verdict for A_N = min(A, N^-exponent), N = M0 2^j.

    Uses the closed geometric sums for the recurrence right-hand side
    sum_{M0 < M <= 2 beta' N} (M/N)^s A_M.  They hold when M0 = 1 and, for
    M >= 2, both A_M and the limiting bound 2 C1 M^(gamma-s) sit below the
    trivial bound A, so that no term is capped.
    """
    s, gam, c1 = params["s"], params["gamma"], params["c1"]
    beta, a_bound = params["beta_prime"], params["a_bound"]
    if params["m0"] != 1.0 or max(2.0 ** -exponent, 2.0 * c1 * 2.0 ** (gam - s)) >= a_bound:
        raise ValueError("closed form needs M0 = 1 and no term capped at A for M >= 2")
    ks = range(ladder)

    def geo(x: float, top: int) -> float:
        """sum_{k=1}^{top} 2^{k x}."""
        if top < 1:
            return 0.0
        return float(top) if x == 0.0 else 2.0**x * (2.0 ** (top * x) - 1.0) / (2.0**x - 1.0)

    def top(k: int) -> int:
        """Largest j with 2^j <= 2 beta' 2^k, capped at the ladder top."""
        return min(ladder - 1, math.floor(math.log2(2.0 * beta) + k + 1e-12))

    a = [min(a_bound, 2.0 ** (-k * exponent)) for k in ks]
    minimal = max(max(0.0, (a[k] - 2.0 ** (-k * s) * geo(s - exponent, top(k)))
                      / 2.0 ** (-k * s)) for k in ks)
    cs = 1.0 / (1.0 - 2.0 ** (1.0 - s))
    admissible = (beta < (1.0 / (100.0 * cs * a_bound)) ** (1.0 / (s - 1.0))
                  and beta < (1.0 / (100.0 * cs)) ** (1.0 / gam))
    if not (admissible and c1 >= minimal):
        return minimal, False
    # the induction: plugging B_j = limit + beta^j into the right-hand side must land
    # below B_{j+1}, with the program's slack of 1e-12 * max(1, B_{j+1})
    limit = [2.0 * c1 * 2.0 ** (k * (gam - s)) for k in ks]
    j = 1
    while True:
        bj = beta**j
        for k in ks:
            rhs = 2.0 ** (-k * s) * (c1 + 2.0 * c1 * geo(gam, top(k)) + bj * geo(s, top(k)))
            nxt = limit[k] + beta ** (j + 1)
            if rhs > nxt + 1e-12 * max(1.0, nxt):
                return minimal, False
        if bj < 1e-12 * min(limit):
            break
        j += 1
    return minimal, all(a[k] <= limit[k] * (1.0 + 1e-12) + 1e-12 for k in ks)
