"""The benchmark's workloads: one radnls CLI session each, with its config.

Both workloads use d = 4, mu = -1, r_max = 15.  The seed picks only inputs
that leave the work unchanged: the solitary wave's phase and a small shift
of the pseudo-conformal start time.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# beta' sits below both admissibility caps for s = 1.25, gamma = 0.2, A = 1, so a
# synthetic ladder reaches the verifier.  A from_trajectory run raises M0 to half
# its first scale, since the recurrence must cover the ladder from M0 up.
LEMMA_PARAMS = {"s": 1.25, "gamma": 0.2, "c1": 1.0, "m0": 1.0,
                "beta_prime": 1e-16, "a_bound": 1.0}
ETA_FRACTION = 1e-2

DIAGNOSTIC_SPECS = {
    "virial": {"kind": "virial", "R": 8.0},
    "kinetic_localization": {"kind": "kinetic_localization", "eta_fraction": ETA_FRACTION},
    "concentration": {"kind": "concentration", "eta_fraction": ETA_FRACTION},
    "frequency_decay": {"kind": "frequency_decay", "shell_cut": 1.0, "Ns": [4, 8, 16, 32]},
    "spatial_decay": {"kind": "spatial_decay", "N_range": [4, 16], "Rs": [2.0, 3.0, 4.5]},
}


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    dt: float
    T: float
    cadence: int
    initial: str                   # radnls initial kind: "sw", "pc_ground_state", "gaussian"
    diagnostics: tuple             # diagnostic kinds run by `diagnose`
    lemma_Ns: tuple | None = None  # from_trajectory scales; None: synthetic ladder
    ladder: int = 0
    commands: tuple = ("ground-state", "evolve", "diagnose", "lemma", "selftest")

    @property
    def steps(self) -> int:
        return round(self.T / self.dt)

    @property
    def snapshots(self) -> int:
        return self.steps // self.cadence + 1

    def start(self, seed: int) -> float:
        """Seed-derived start parameter: the sw phase, or the pc start time."""
        u = random.Random(seed).random()
        return -1.0 - 0.02 * u if self.initial == "pc_ground_state" else 2.0 * math.pi * u

    def config(self, seed: int, out_dir: str) -> dict:
        """The radnls config of one session writing into out_dir."""
        params = LEMMA_PARAMS
        if self.lemma_Ns is None:
            seq = {"kind": "synthetic_power", "exponent": LEMMA_PARAMS["s"],
                   "ladder": self.ladder}
        else:
            seq = {"kind": "from_trajectory", "path": f"{out_dir}/trajectory",
                   "Ns": list(self.lemma_Ns)}
            params = LEMMA_PARAMS | {"m0": self.lemma_Ns[0] / 2.0}
        return {
            "dimension": 4, "mu": -1,
            "grid": {"r_max": 15.0, "n": self.n},
            "time": {"dt": self.dt, "T": self.T, "cadence": self.cadence},
            "initial": {"kind": self.initial, "params": {"t": self.start(seed)}},
            "diagnostics": [DIAGNOSTIC_SPECS[k] for k in self.diagnostics],
            "lemma": {"params": params, "sequence": seq},
            "output_dir": out_dir,
            "seed": seed,
        }


# Per-snapshot transforms in diagnose and lemma dominate sw_dense.  In pc_n1280,
# stepping on the 13 MB n=1280 kernel makes evolve the largest command, diagnose
# does little, and lemma exercises the recurrence verifier instead of
# extract_A_sequence.
# The run lengths (T) are cut from T=1 (sw_dense) and T=0.5 (pc_n1280) so that
# one run holds a warm-up and two or three measured sessions in about a minute.
WORKLOADS = {
    "sw_dense": Workload(
        name="sw_dense", n=640, dt=1e-3, T=0.25, cadence=1, initial="sw",
        diagnostics=("virial", "kinetic_localization", "concentration",
                     "frequency_decay", "spatial_decay"),
        lemma_Ns=(16.0, 32.0)),
    "pc_n1280": Workload(
        name="pc_n1280", n=1280, dt=5e-4, T=0.15, cadence=15, initial="pc_ground_state",
        diagnostics=("virial", "concentration"), ladder=600),
}

# Discarded warm-up: a short Gaussian run on a small grid, which needs no ground state.
WARMUP = Workload(name="warmup", n=128, dt=1e-3, T=0.02, cadence=1, initial="gaussian",
                  diagnostics=("virial",), ladder=12, commands=("evolve", "diagnose", "lemma"))


def session_commands(w: Workload, config_path: str, out_dir: str) -> list[tuple[str, list]]:
    """(name, radnls arguments) of the session's commands, in order."""
    base = ["--config", config_path]
    extra = {"diagnose": [f"{out_dir}/trajectory"]}
    return [(name, base + [name] + extra.get(name, [])) for name in w.commands]
