"""On-disk formats: binary snapshots, trajectory directories, and the
certified ground-state cache.

Binary snapshot layout (little endian):

    8 bytes   magic b"RNLSFLD1"
    u32       dimension d
    u64       node count n
    f64       r_max
    16n bytes complex128 samples

A load takes the grid the caller expects and checks the header's
(d, n, r_max), which determines a grid exactly, against it; a load-save cycle
is bit-exact on the samples and metadata.

A trajectory directory holds manifest.json, one snapshot file per stored time
under snapshots/, and coeffs.rfb: the snapshot header followed by the T rows
of the (T, n) complex128 stack of the snapshots' spectral coefficients, which
evolve computed for its energy log.  The manifest stores samples_sha256 and
coeffs_sha256, the sha256 of each (T, n) stack, and a load whose files hash
otherwise is refused.  So is one whose stored coefficient 0 of a snapshot
differs from the one a single kernel row recomputes from its samples, so the
two stacks come from the same run; diagnose then reads the spectra without
building the grid's kernel.

evolution is imported inside load_trajectory and groundstate inside
load_ground_state, the functions that build their classes, so ground-state
loads no evolution, and diagnose and a lemma on a stored trajectory load no
groundstate.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import struct
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__, config_hash
from .core import RadialField, RadialGrid, _frozen_values

if TYPE_CHECKING:
    from .evolution import Trajectory
    from .groundstate import GroundState

MAGIC = b"RNLSFLD1"


def _field_bytes(grid: RadialGrid, values: np.ndarray) -> bytes:
    """The binary snapshot of the complex128 samples values on grid."""
    header = MAGIC + struct.pack("<IQd", grid.d, grid.n, grid.r_max)
    return header + np.ascontiguousarray(values).tobytes()


def save_field_binary(grid: RadialGrid, values, path) -> None:
    """Write the (n,) samples values on grid, checked as load_field_binary checks them."""
    Path(path).write_bytes(_field_bytes(grid, _frozen_values(grid, values, "sample")))


def _samples(path, blob: bytes, grid: RadialGrid, rows: int | None = None) -> np.ndarray:
    """The samples of the binary snapshot blob read from path, after checking that its
    header names grid; with rows, a (rows, n) stack of them after one header."""
    if blob[:8] != MAGIC:
        raise ValueError(f"{path}: not a radnls binary snapshot")
    if len(blob) < 28:
        raise ValueError(f"{path}: truncated snapshot")
    d, n, r_max = struct.unpack("<IQd", blob[8:28])
    if len(blob) != 28 + 16 * n * (1 if rows is None else rows):
        raise ValueError(f"{path}: truncated snapshot")
    if grid.key != (d, n, r_max):
        raise ValueError(f"{path}: snapshot metadata does not match the supplied grid")
    values = np.frombuffer(blob[28:], dtype=np.complex128)
    return values if rows is None else values.reshape(rows, n)


def load_field_binary(path, grid: RadialGrid) -> np.ndarray:
    """The snapshot's read-only (n,) samples; ValueError unless it is of grid and finite."""
    return _frozen_values(grid, _samples(path, Path(path).read_bytes(), grid), "sample")


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def _stack_sha256(values: np.ndarray) -> str:
    """sha256 of a (T, n) complex128 stack, row after row."""
    return hashlib.sha256(np.ascontiguousarray(values).data).hexdigest()


def save_trajectory(traj: Trajectory, out_dir) -> Path:
    out = Path(out_dir)
    (out / "snapshots").mkdir(parents=True, exist_ok=True)
    paths = [out / "snapshots" / f"{i:06d}.rfb" for i in range(len(traj))]
    for row, path in zip(traj.values, paths):  # rows the Trajectory checked and froze
        path.write_bytes(_field_bytes(traj.grid, row))
    for stale in set((out / "snapshots").glob("*.rfb")).difference(paths):  # an earlier run's
        stale.unlink()
    (out / "coeffs.rfb").write_bytes(_field_bytes(traj.grid, traj.coeffs))
    manifest = {
        "artifact_version": __version__,
        "config_hash": config_hash(vars(traj.config)),
        "config": vars(traj.config),
        "times": traj.times.tolist(),
        "mass_log": list(traj.mass_log),
        "energy_log": list(traj.energy_log),
        "guard_event": traj.guard_event,
        "warnings": list(traj.warnings),
        "samples_sha256": _stack_sha256(traj.values),
        "coeffs_sha256": _stack_sha256(traj.coeffs),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return out


# a stored coefficient 0 may differ from its recomputation by this much of the largest
# |uhat_k| of its snapshot: a run's own stack reads at most 3.5e-15 (pc blowup, n = 1280)
# and 3.0e-15 (sw, n = 640), the stack of the same run times i 1.41
COEFFS_CHECK_TOL = 1e-12


def _check_coeffs(out: Path, grid: RadialGrid, values: np.ndarray, coeffs: np.ndarray) -> None:
    """ValueError unless coefficient 0 of every row of coeffs matches its recomputation
    from values by the kernel's first row, the one row this builds."""
    row = grid._symmetric_kernel(grid.nu, 1.0, 1)[0, :grid.n] * grid._fwd_in
    gap = np.abs(values @ row / grid._rho_nu[0] - coeffs[:, 0])
    largest = np.max(np.abs(coeffs), axis=1)
    bad = np.flatnonzero(~(gap <= COEFFS_CHECK_TOL * largest))
    if bad.size:
        i = bad[0]
        raise ValueError(f"{out}: coeffs.rfb does not match the snapshots: coefficient 0 of "
                         f"snapshot {i} differs from its recomputation by {gap[i]:.3e}, "
                         f"against a largest |uhat| of {largest[i]:.3e}")


def _numbers(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)


# each key load_trajectory reads from the manifest, with the JSON type it must have
_MANIFEST_KEYS = {
    "config": ("an object", lambda value: isinstance(value, dict)),
    "config_hash": ("a string", lambda value: isinstance(value, str)),
    "times": ("a list of numbers", _numbers),
    "mass_log": ("a list of numbers", _numbers),
    "energy_log": ("a list of numbers", _numbers),
    "guard_event": ("null or an object", lambda value: value is None or isinstance(value, dict)),
    "warnings": ("a list of strings",
                 lambda value: isinstance(value, list) and all(isinstance(x, str) for x in value)),
    "samples_sha256": ("a string", lambda value: isinstance(value, str)),
    "coeffs_sha256": ("a string", lambda value: isinstance(value, str)),
}


def load_trajectory(path) -> Trajectory:
    """Read a trajectory directory; ValueError if its manifest, snapshots and coefficient
    stack disagree, or its times are not the run's snapshot times.

    The grid is constructed without its kernel, which only a product that needs
    it builds and certifies.
    """
    from .evolution import SimulationConfig, Trajectory

    out = Path(path)
    manifest = json.loads((out / "manifest.json").read_text())
    bad = [f"{key} ({kind})" for key, (kind, fits) in _MANIFEST_KEYS.items()
           if not isinstance(manifest, dict) or not fits(manifest.get(key))]
    if bad:
        raise ValueError(f"{out}: manifest.json must be an object with {', '.join(bad)}")
    config = manifest["config"]
    try:
        cfg = SimulationConfig(**config)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{out}: manifest config does not fit SimulationConfig: {exc}") from exc
    if config_hash(config) != manifest["config_hash"]:
        raise ValueError(f"{out}: manifest config_hash does not match its config")
    times = manifest["times"]
    if len(manifest["energy_log"]) != len(times) or not manifest["mass_log"]:
        raise ValueError(f"{out}: manifest needs an energy_log entry per time and a mass_log")
    # evolve stores step k's snapshot at k * dt, bit for bit; a guard trip ends the list early
    if times != [k * cfg.dt for k in range(0, cfg.n_steps + 1, cfg.cadence)[:len(times)]]:
        raise ValueError(f"{out}: manifest times are not the run's snapshot times k * dt, "
                         "k = 0, cadence, 2 cadence, ... up to n_steps")
    names = [f"{i:06d}.rfb" for i in range(len(times))]
    if sorted(p.name for p in (out / "snapshots").iterdir()) != names:
        raise ValueError(f"{out}: snapshots/ must hold exactly the {len(names)} files "
                         "000000.rfb, 000001.rfb, ... named by the manifest's times")
    grid = RadialGrid(cfg.dimension, cfg.r_max, cfg.n)
    values = np.empty((len(times), grid.n), dtype=np.complex128)
    for row, path in zip(values, (out / "snapshots" / name for name in names)):
        row[:] = _samples(path, path.read_bytes(), grid)
    if _stack_sha256(values) != manifest["samples_sha256"]:
        raise ValueError(f"{out}: snapshot samples do not match the manifest's samples_sha256")
    coeffs_path = out / "coeffs.rfb"
    if not coeffs_path.is_file():
        raise ValueError(f"{out}: coeffs.rfb is missing")
    coeffs = _samples(coeffs_path, coeffs_path.read_bytes(), grid, len(times))
    if _stack_sha256(coeffs) != manifest["coeffs_sha256"]:
        raise ValueError(f"{out}: coeffs.rfb does not match the manifest's coeffs_sha256")
    _check_coeffs(out, grid, values, coeffs)
    return Trajectory(cfg, grid, times, values, manifest["mass_log"], manifest["energy_log"],
                      manifest.get("guard_event"), tuple(manifest["warnings"]), coeffs)


# ---------------------------------------------------------------------------
# ground-state cache
# ---------------------------------------------------------------------------

def ground_state_key(grid: RadialGrid, tol: float) -> str:
    h = hashlib.sha256()
    h.update(grid.hash_hex().encode())
    h.update(struct.pack("<d", tol))
    return h.hexdigest()[:24]


def _replace_atomically(path: Path, write) -> None:
    """write(tmp) to a temporary file beside path, then rename it over path.

    A crash leaves either the old file or the new one, never a torn one, and a
    failed write removes its temporary file.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_ground_state(gs: GroundState, cache_dir, tol: float) -> Path:
    """Cache the profile as {key}.rfb, and GroundState's other fields, the sha256 of the
    .rfb and the artifact version as {key}.json.

    The profile is written first and each file replaced atomically, so a
    visible .json always means a complete pair.
    """
    cache = Path(cache_dir)
    cache.mkdir(parents=True, exist_ok=True)
    key = ground_state_key(gs.grid, tol)
    blob = _field_bytes(gs.grid, gs.profile.values)
    _replace_atomically(cache / f"{key}.rfb", lambda tmp: tmp.write_bytes(blob))
    meta = {f.name: getattr(gs, f.name) for f in dataclasses.fields(gs) if f.name != "profile"}
    meta.update(tol=tol, sha256=hashlib.sha256(blob).hexdigest(), artifact_version=__version__)
    text = json.dumps(meta, sort_keys=True, indent=1) + "\n"
    _replace_atomically(cache / f"{key}.json", lambda tmp: tmp.write_text(text))
    return cache / f"{key}.rfb"


def load_ground_state(cache_dir, grid: RadialGrid, tol: float) -> GroundState | None:
    """The cached ground state, or None on a miss.

    An entry whose .json is unreadable or incomplete, was written by another
    artifact version, or whose .rfb does not match the stored sha256 is a
    miss too, reported with one line on stderr; the caller solves again and
    rewrites it.  Keys the .json holds beyond GroundState's fields, such as
    the invariants that earlier entries stored, are ignored.
    """
    from .groundstate import GroundState

    key = ground_state_key(grid, tol)
    cache = Path(cache_dir)
    fld, meta = cache / f"{key}.rfb", cache / f"{key}.json"
    if not (fld.exists() and meta.exists()):
        return None
    blob = fld.read_bytes()
    try:
        info = json.loads(meta.read_text())
        fields = {f.name: info[f.name] for f in dataclasses.fields(GroundState)
                  if f.name != "profile"}
        stored = (info["artifact_version"], info["sha256"])
    except (ValueError, TypeError, KeyError) as exc:
        problem = f"unreadable or incomplete ({type(exc).__name__}: {exc})"
    else:
        problem = (None if stored == (__version__, hashlib.sha256(blob).hexdigest())
                   else "from another artifact version, or its .rfb does not match its sha256")
    if problem is not None:
        print(f"ground-state cache entry {meta}: {problem}; solving again", file=sys.stderr)
        return None
    return GroundState(profile=RadialField(grid, _samples(fld, blob, grid)), **fields)
