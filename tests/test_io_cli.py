import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import radnls
from radnls import (cli, core, diagnostics, errors, evolution, fieldio, groundstate, recurrence,
                    selftest)


class TestFieldFormats:
    def test_binary_round_trip_bit_exact(self, grid, corpus, tmp_path):
        f = corpus[0]
        path = tmp_path / "f.rfb"
        fieldio.save_field_binary(f, path)
        back = fieldio.load_field_binary(path, grid)
        assert np.array_equal(back.values, f.values)
        assert back.grid.key == f.grid.key

    def test_binary_rejects_garbage(self, grid, tmp_path):
        p = tmp_path / "junk.rfb"
        p.write_bytes(b"not a snapshot")
        with pytest.raises(ValueError):
            fieldio.load_field_binary(p, grid)

    def test_binary_rejects_another_grid(self, grid, grid20, corpus, tmp_path):
        path = tmp_path / "f.rfb"
        fieldio.save_field_binary(corpus[0], path)
        with pytest.raises(ValueError, match="does not match"):
            fieldio.load_field_binary(path, grid20)

    def test_trajectory_round_trip(self, grid, tmp_path):
        f = core.field_from_function(grid, lambda r: np.exp(-(r**2)))
        cfg = evolution.SimulationConfig(dimension=4, mu=0, r_max=grid.r_max,
                                         n=grid.n, dt=1e-3, t_final=0.01, cadence=5)
        traj = evolution.evolve(cfg, f)
        fieldio.save_trajectory(traj, tmp_path / "run")
        back = fieldio.load_trajectory(tmp_path / "run")
        assert np.array_equal(back.times, traj.times)
        assert back.mass_log == traj.mass_log
        assert np.array_equal(back.values, traj.values)
        # the stored spectra come back bit for bit, read-only, and without a kernel build
        assert np.array_equal(back.coeffs, traj.coeffs) and not back.coeffs.flags.writeable
        assert back.grid._kernel_store is None

    def test_ground_state_cache(self, ground, tmp_path):
        fieldio.save_ground_state(ground, tmp_path, 1e-8)
        again = fieldio.load_ground_state(tmp_path, ground.grid, 1e-8)
        assert again is not None
        assert again.mass == ground.mass
        assert np.array_equal(again.profile.values, ground.profile.values)
        assert fieldio.load_ground_state(tmp_path, ground.grid, 1e-6) is None
        # beside the profile the .json holds the fields only the solve knows
        meta = tmp_path / f"{fieldio.ground_state_key(ground.grid, 1e-8)}.json"
        assert sorted(json.loads(meta.read_text())) == [
            "artifact_version", "iterations", "residual", "sha256", "tol"]

    def test_ground_state_cache_with_the_old_keys_loads(self, ground, tmp_path):
        # an entry written when the .json also held the invariants still loads, and its
        # invariants come from the profile, not from those keys
        fieldio.save_ground_state(ground, tmp_path, 1e-8)
        meta = tmp_path / f"{fieldio.ground_state_key(ground.grid, 1e-8)}.json"
        info = json.loads(meta.read_text())
        info |= {"dimension": 4, "mass": 1.0, "kinetic": 1.0, "mass_shooting": 1.0}
        meta.write_text(json.dumps(info, sort_keys=True, indent=1) + "\n")
        again = fieldio.load_ground_state(tmp_path, ground.grid, 1e-8)
        assert (again.residual, again.iterations) == (ground.residual, ground.iterations)
        assert np.array_equal(again.profile.values, ground.profile.values)
        assert (again.mass, again.kinetic) == (ground.mass, ground.kinetic)

    def test_torn_ground_state_cache_write_is_not_trusted(self, ground, tmp_path, monkeypatch):
        def torn_write(path, text):
            Path.write_bytes(path, text[: len(text) // 2].encode())
            raise OSError("disk full")
        monkeypatch.setattr(Path, "write_text", torn_write)
        with pytest.raises(OSError, match="disk full"):
            fieldio.save_ground_state(ground, tmp_path, 1e-8)
        monkeypatch.undo()
        assert fieldio.load_ground_state(tmp_path, ground.grid, 1e-8) is None
        key = fieldio.ground_state_key(ground.grid, 1e-8)
        assert [p.name for p in tmp_path.iterdir()] == [f"{key}.rfb"]


def pohozaev_fails(check):
    """The certificate check with its Pohozaev ratio read as 0.1."""
    return lambda gs: check(gs) | {"pohozaev": (False, 0.1)}


@pytest.fixture()
def out_env(tmp_path, monkeypatch):
    monkeypatch.setenv("RADNLS_OUTPUT_ROOT", str(tmp_path))
    return tmp_path


def write_cfg(tmp_path, payload):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(payload))
    return str(p)


SMALL_GRID = {"r_max": 15.0, "n": 384}
LEMMA_PARAMS = {"s": 1.25, "gamma": 0.2, "c1": 1.0, "m0": 1.0, "beta_prime": 1e-16, "a_bound": 1.0}

# (exception a command raises, error kind, exit code): each entry of cli.ERRORS,
# and subclasses that fall under an entry
EXIT_CASES = [
    (ValueError("boom"), "invalid_input", 2),
    (cli.ConfigError("boom"), "invalid_input", 2),
    (core.GridResolutionError("boom"), "invalid_input", 2),
    (evolution.ResolutionLossError("boom"), "numerical_guard", 4),
    (errors.NumericalFailure("boom"), "numerical_failure", 4),
    (cli.CheckFailed("boom"), "check_failed", 1),
    (groundstate.GroundStateError("boom"), "certification_failed", 1),
    (OSError("boom"), "io_error", 3),
    (FileNotFoundError("boom"), "io_error", 3),
]


class TestCli:
    def test_ground_state_certification(self, out_env, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"grid": SMALL_GRID, "output_dir": "gs"})
        rc = cli.main(["--config", cfg, "ground-state"])
        assert rc == 0
        cert = json.loads((out_env / "gs" / "ground_state_certification.json").read_text())
        assert cert["residual"] < 1e-8
        assert abs(cert["pohozaev_kinetic_ratio"] - 2 / 3) < 1e-4
        assert abs(cert["energy_over_kinetic"]) < 1e-4
        assert abs(cert["gn_ratio"] - 1.0) < 1e-3
        assert cert["mass_agreement"] < 1e-4
        assert "config_hash" in cert and "artifact_version" in cert
        # the grid's own certificate, measured on the certification Gaussian
        grid = core.make_radial_grid(4, SMALL_GRID["r_max"], SMALL_GRID["n"])
        assert cert["grid_roundtrip_error"] == grid.roundtrip_error
        assert cert["grid_quadrature_error"] == grid.quadrature_error
        assert 0 < cert["grid_roundtrip_error"] <= core.ROUNDTRIP_TOL
        assert 0 <= cert["grid_quadrature_error"] <= core.QUADRATURE_TOL

    def test_ground_state_certifies_dimension_6(self, out_env, tmp_path, capsys):
        # a dimension other than the default 4, with Q(0) ~ 44
        cfg = write_cfg(tmp_path, {"output_dir": "gs6"})
        assert cli.main(["--config", cfg, "--dimension", "6", "--n", "384", "ground-state"]) == 0
        cert = json.loads((out_env / "gs6" / "ground_state_certification.json").read_text())
        assert cert["dimension"] == 6
        assert cert["mass_agreement"] < 1e-4
        assert abs(cert["pohozaev_kinetic_ratio"] - 3 / 4) < 1e-4

    @pytest.mark.parametrize("r_max, n, tol", [
        # the residual stalls at 1.19e-10 (n = 640) and 9.0e-10 (n = 1280): 1e-10 would
        # run all MAX_ITER steps and exit 4
        pytest.param(15.0, 640, 1e-10, id="640"),
        pytest.param(15.0, 1280, 1e-10, id="1280"),
        # the stalls themselves, 0.21-0.24 times EPS rho_max^3: not reliably reached
        pytest.param(15.0, 384, 2.78e-11, id="r15-n384-stall"),
        pytest.param(15.0, 640, 1.19e-10, id="r15-n640-stall"),
        pytest.param(15.0, 1280, 9.04e-10, id="r15-n1280-stall"),
        pytest.param(30.0, 1280, 1.21e-10, id="r30-n1280-stall"),
        pytest.param(45.0, 768, 8.4e-12, id="r45-n768-stall")])
    def test_tol_under_the_round_off_floor_exits_2_at_once(self, out_env, tmp_path, capsys,
                                                           monkeypatch, r_max, n, tol):
        steps = []
        fixed_point = groundstate._fixed_point
        monkeypatch.setattr(groundstate, "_fixed_point",
                            lambda *args: steps.append(args) or fixed_point(*args))
        cfg = write_cfg(tmp_path, {"grid": {"r_max": r_max, "n": n}, "output_dir": "gs"})
        assert cli.main(["--config", cfg, "--tol", repr(tol), "ground-state"]) == 2
        assert steps == []
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "invalid_input" and "round-off floor" in error["detail"]

    def test_tol_above_the_round_off_floor_certifies(self, out_env, tmp_path, capsys):
        # at n = 384 the residual stalls at 2.8e-11, under 1e-10
        cfg = write_cfg(tmp_path, {"grid": SMALL_GRID, "output_dir": "gs"})
        assert cli.main(["--config", cfg, "--tol", "1e-10", "ground-state"]) == 0
        cert = json.loads((out_env / "gs" / "ground_state_certification.json").read_text())
        assert cert["residual"] < 1e-10

    def test_failed_certificate_exits_1_and_is_not_cached(self, out_env, tmp_path, capsys,
                                                          monkeypatch):
        # the artifacts stay for inspection; only a certified Q enters the cache
        cfg = write_cfg(tmp_path, {"grid": {"r_max": 15.0, "n": 128}, "output_dir": "gs"})
        with monkeypatch.context() as patch:
            patch.setattr(groundstate, "check_ground_state",
                          pohozaev_fails(groundstate.check_ground_state))
            assert cli.main(["--config", cfg, "ground-state"]) == 1
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "certification_failed" and "pohozaev" in error["detail"]
        out = out_env / "gs"
        assert (out / "ground_state.rfb").exists()
        assert json.loads((out / "ground_state_certification.json").read_text())[
            "pohozaev_kinetic_ratio"] == 0.1
        assert not (out / "ground_state_cache").exists()
        assert cli.main(["--config", cfg, "ground-state"]) == 0
        assert len(list((out / "ground_state_cache").glob("*.json"))) == 1

    def test_shooting_gap_fails_certification_not_the_solve(self, out_env, tmp_path, capsys,
                                                             monkeypatch):
        # the gap is judged by check_ground_state alone, after the artifacts are written
        cfg = write_cfg(tmp_path, {"grid": {"r_max": 15.0, "n": 128}, "output_dir": "gs"})
        shooting = groundstate.shooting_mass
        monkeypatch.setattr(groundstate, "shooting_mass", lambda d: 1.01 * shooting(d))
        assert cli.main(["--config", cfg, "ground-state"]) == 1
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "certification_failed" and "shooting" in error["detail"]
        out = out_env / "gs"
        assert (out / "ground_state.rfb").exists()
        cert = json.loads((out / "ground_state_certification.json").read_text())
        assert abs(cert["mass_agreement"] - 1e-2) < 1e-4
        assert not (out / "ground_state_cache").exists()

    def test_non_positive_profile_fails_certification_not_the_solve(self, out_env, tmp_path,
                                                                     capsys, monkeypatch):
        # a Q whose last node dips to -1e-6 Q(0), far below the round-off floor, is
        # written with its certificate, and refused by the certificate alone
        cfg = write_cfg(tmp_path, {"grid": {"r_max": 15.0, "n": 128}, "output_dir": "gs"})
        fixed_point = groundstate._fixed_point

        def dipped(grid, q, tol):
            q, residual, steps = fixed_point(grid, q, tol)
            q = q.copy()
            q[-1] = -1e-6 * q[0]
            return q, residual, steps

        monkeypatch.setattr(groundstate, "_fixed_point", dipped)
        assert cli.main(["--config", cfg, "ground-state"]) == 1
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "certification_failed"
        assert error["detail"] == "certificate checks failed: ['positivity']"
        out = out_env / "gs"
        assert (out / "ground_state.rfb").exists()
        cert = json.loads((out / "ground_state_certification.json").read_text())
        assert abs(cert["min_over_max"] + 1e-6) < 1e-12
        assert not (out / "ground_state_cache").exists()

    def test_evolve_caches_only_a_certified_ground_state(self, out_env, tmp_path, capsys,
                                                          monkeypatch):
        # evolve solves Q on a cache miss and must refuse it as ground-state would
        cfg = write_cfg(tmp_path, {"grid": {"r_max": 15.0, "n": 128},
                                   "time": {"dt": 1e-3, "T": 0.01, "cadence": 1},
                                   "initial": {"kind": "sw"}, "output_dir": "run"})
        monkeypatch.setattr(groundstate, "check_ground_state",
                            pohozaev_fails(groundstate.check_ground_state))
        assert cli.main(["--config", cfg, "evolve"]) == 1
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "certification_failed" and "pohozaev" in error["detail"]
        cache = out_env / "run" / "ground_state_cache"
        assert not cache.exists() or not any(cache.iterdir())

    def test_dimension_out_of_range_exits_2(self, out_env, capsys):
        rc = cli.main(["--dimension", "1", "ground-state"])
        assert rc == 2

    def test_unwritable_output_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("RADNLS_OUTPUT_ROOT", raising=False)
        cfg = write_cfg(tmp_path, {"grid": SMALL_GRID,
                                   "output_dir": "/proc/radnls-denied/out"})
        rc = cli.main(["--config", cfg, "ground-state"])
        assert rc == 3

    def test_evolve_and_diagnose(self, out_env, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "grid": SMALL_GRID,
            "time": {"dt": 1e-3, "T": 0.05, "cadence": 1},
            "initial": {"kind": "sw"},
            "diagnostics": [{"kind": "concentration"}, {"kind": "virial", "R": 8.0}],
            "output_dir": "run"})
        assert cli.main(["--config", cfg, "evolve"]) == 0
        summary = json.loads((out_env / "run" / "evolve_summary.json").read_text())
        assert summary["mass_drift"] < 1e-8
        assert summary["sw_final_l2_error"] < 1e-4
        # the certificate of the grid that computed the stored spectra
        grid = core.make_radial_grid(4, SMALL_GRID["r_max"], SMALL_GRID["n"])
        assert summary["grid_roundtrip_error"] == grid.roundtrip_error
        assert summary["grid_quadrature_error"] == grid.quadrature_error
        assert cli.main(["--config", cfg, "diagnose",
                         str(out_env / "run" / "trajectory")]) == 0
        assert (out_env / "run" / "diagnose_summary.json").exists()

    def test_zero_mass_evolve_reports_no_drift(self, out_env, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "grid": SMALL_GRID, "time": {"dt": 1e-3, "T": 0.01, "cadence": 1},
            "initial": {"kind": "gaussian", "params": {"amplitude": 0.0}},
            "output_dir": "zero"})
        assert cli.main(["--config", cfg, "evolve"]) == 0
        summary = json.loads((out_env / "zero" / "evolve_summary.json").read_text())
        assert summary["mass_drift"] == 0.0
        # the default virial diagnostic reads a residual of 0 where grad u = 0
        assert cli.main(["--config", cfg, "diagnose", str(out_env / "zero" / "trajectory")]) == 0

    def test_sw_evolve_reads_the_ground_state_once(self, out_env, tmp_path, monkeypatch,
                                                   capsys):
        cfg = write_cfg(tmp_path, {"grid": SMALL_GRID,
                                   "time": {"dt": 1e-3, "T": 0.01, "cadence": 1},
                                   "initial": {"kind": "sw"}, "output_dir": "sw1"})
        assert cli.main(["--config", cfg, "ground-state"]) == 0
        load = fieldio.load_ground_state
        calls = []
        monkeypatch.setattr(fieldio, "load_ground_state",
                            lambda *args: calls.append(args) or load(*args))
        assert cli.main(["--config", cfg, "evolve"]) == 0
        assert len(calls) == 1
        summary = json.loads((out_env / "sw1" / "evolve_summary.json").read_text())
        assert summary["sw_final_l2_error"] < 1e-4

    @pytest.mark.parametrize("corrupt", [
        pytest.param(lambda rfb, meta: _edit_json(meta, lambda m: m.pop("residual")),
                     id="json_missing_key"),
        pytest.param(lambda rfb, meta: meta.write_text(meta.read_text()[:40]),
                     id="truncated_json"),
        pytest.param(lambda rfb, meta: _edit_json(meta, lambda m: m.update(
            artifact_version="0.0.0")), id="other_version"),
        # a bit of Q(r_1)'s mantissa, 28 header bytes in: Q moves by 2^-12 relative there
        pytest.param(lambda rfb, meta: _flip_bit(rfb, 28 + 5), id="flipped_rfb_byte"),
    ])
    def test_bad_ground_state_cache_is_solved_again(self, ground, out_env, tmp_path, capsys,
                                                    corrupt):
        cache = out_env / "cache" / "ground_state_cache"
        fieldio.save_ground_state(ground, cache, 1e-8)
        key = fieldio.ground_state_key(ground.grid, 1e-8)
        rfb, meta = cache / f"{key}.rfb", cache / f"{key}.json"
        saved = {rfb: rfb.read_bytes(), meta: meta.read_bytes()}
        corrupt(rfb, meta)
        cfg = write_cfg(tmp_path, {"time": {"dt": 1e-3, "T": 1e-3, "cadence": 1},
                                   "initial": {"kind": "sw"}, "output_dir": "cache"})
        assert cli.main(["--config", cfg, "evolve"]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "ground-state cache entry" in err[0]
        # the entry is solved again and rewritten as it was
        assert {path: path.read_bytes() for path in saved} == saved

    def test_free_flow_virial_diagnose(self, out_env, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "grid": SMALL_GRID, "mu": 0,
            "time": {"dt": 1e-3, "T": 0.06, "cadence": 1},
            "initial": {"kind": "gaussian"},
            "diagnostics": [{"kind": "virial"}],
            "output_dir": "free"})
        assert cli.main(["--config", cfg, "evolve"]) == 0
        assert cli.main(["--config", cfg, "diagnose",
                         str(out_env / "free" / "trajectory")]) == 0
        summary = json.loads((out_env / "free" / "diagnose_summary.json").read_text())
        assert summary["results"]["virial"]["passed"]
        assert summary["results"]["virial"]["identity_residual"] <= diagnostics.VIRIAL_TOL

    def test_virial_identity_fails_a_too_strong_nonlinearity(self, out_env, tmp_path,
                                                            monkeypatch, capsys):
        # each nonlinear half-phase of the step turned from 0.5 dt into 0.51 dt: the run
        # still conserves mass, but V'' no longer meets 16 E
        step = evolution.step

        def mutated(grid, values, dt, mu):
            def kick(values):
                return values * np.exp(-1j * mu * 0.01 * dt * np.abs(values) ** (4.0 / grid.d))

            return kick(step(grid, kick(values), dt, mu))

        monkeypatch.setattr(evolution, "step", mutated)
        cfg = write_cfg(tmp_path, {
            "grid": SMALL_GRID, "time": {"dt": 1e-3, "T": 0.05, "cadence": 1},
            "initial": {"kind": "gaussian", "params": {"amplitude": 2.0}},
            "output_dir": "mutated"})
        assert cli.main(["--config", cfg, "evolve"]) == 0
        assert cli.main(["--config", cfg, "diagnose",
                         str(out_env / "mutated" / "trajectory")]) == 1
        summary = json.loads((out_env / "mutated" / "diagnose_summary.json").read_text())
        assert "virial" in summary["failures"]
        assert summary["results"]["virial"]["identity_residual"] > 10 * diagnostics.VIRIAL_TOL

    def test_shorter_rerun_leaves_no_stale_snapshots(self, out_env, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"grid": SMALL_GRID,
                                   "time": {"dt": 1e-3, "T": 0.02, "cadence": 1},
                                   "output_dir": "rerun"})
        run = out_env / "rerun" / "trajectory"
        assert cli.main(["--config", cfg, "evolve"]) == 0
        assert len(list((run / "snapshots").iterdir())) == 21
        assert cli.main(["--config", cfg, "--T", "0.01", "evolve"]) == 0
        assert sorted(p.name for p in (run / "snapshots").iterdir()) == [
            f"{i:06d}.rfb" for i in range(11)]
        assert cli.main(["--config", cfg, "diagnose", str(run)]) == 0

    def test_initial_file_shorter_than_header_exits_2(self, out_env, tmp_path, capsys):
        snapshot = tmp_path / "short.rfb"
        snapshot.write_bytes(fieldio.MAGIC + b"\0\0")
        cfg = write_cfg(tmp_path, {"grid": SMALL_GRID,
                                   "time": {"dt": 1e-3, "T": 0.01, "cadence": 1},
                                   "initial": {"kind": "file", "params": {"path": str(snapshot)}},
                                   "output_dir": "short"})
        assert cli.main(["--config", cfg, "evolve"]) == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error == {"error": "invalid_input", "detail": f"{snapshot}: truncated snapshot"}

    def test_missing_trajectory_exits_3(self, out_env, tmp_path):
        cfg = write_cfg(tmp_path, {"output_dir": "x"})
        rc = cli.main(["--config", cfg, "diagnose", str(out_env / "nowhere")])
        assert rc == 3

    def test_unknown_diagnostic_exits_2(self, out_env, tmp_path):
        run_cfg = write_cfg(tmp_path, {
            "grid": SMALL_GRID, "time": {"dt": 1e-3, "T": 0.01, "cadence": 1},
            "output_dir": "run2"})
        assert cli.main(["--config", run_cfg, "evolve"]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"grid": SMALL_GRID, "output_dir": "run2",
                                   "diagnostics": [{"kind": "nope"}]}))
        rc = cli.main(["--config", str(bad), "diagnose",
                       str(out_env / "run2" / "trajectory")])
        assert rc == 2

    def test_repeated_decay_scale_exits_2(self, out_env, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "grid": SMALL_GRID, "time": {"dt": 1e-3, "T": 0.01, "cadence": 1},
            "diagnostics": [{"kind": "frequency_decay", "Ns": [4, 4, 8, 16]}],
            "output_dir": "dup"})
        assert cli.main(["--config", cfg, "evolve"]) == 0
        assert cli.main(["--config", cfg, "diagnose", str(out_env / "dup" / "trajectory")]) == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "invalid_input" and "strictly increasing" in error["detail"]

    def test_guard_trip_exits_4(self, out_env, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "grid": SMALL_GRID,
            "time": {"dt": 1e-3, "T": 1.0, "cadence": 10},
            "initial": {"kind": "gaussian", "params": {"amplitude": 20.0, "width": 1.0}},
            "output_dir": "blow"})
        rc = cli.main(["--config", cfg, "evolve"])
        assert rc == 4
        manifest = json.loads((out_env / "blow" / "trajectory" / "manifest.json").read_text())
        assert manifest["guard_event"]["kind"] == "resolution_loss"
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "numerical_guard"

    @pytest.mark.parametrize("amplitude, detail", [
        pytest.param(1e160, "non-finite spectral mass", id="mass_overflows"),
        pytest.param(1e110, "energy is not finite", id="energy_overflows")])
    def test_overflowing_initial_condition_exits_2(self, out_env, tmp_path, amplitude, detail):
        # at 1e160 the spectral mass is inf, so its tail fraction read 0 and passed; at
        # 1e110 the mass is finite but |u|^3 overflows E(u0).  Run as its own process, so
        # stderr holds exactly what a user sees: the JSON error line, no numpy warning
        cfg = write_cfg(tmp_path, {
            "grid": {"r_max": 15.0, "n": 128},
            "time": {"dt": 1e-3, "T": 0.01, "cadence": 1},
            "initial": {"kind": "gaussian", "params": {"amplitude": amplitude}},
            "output_dir": "huge"})
        src = str(Path(radnls.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-m", "radnls.cli", "--config", cfg, "evolve"],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 2
        (line,) = run.stderr.splitlines()
        error = json.loads(line)
        assert error["error"] == "invalid_input" and detail in error["detail"]
        assert not any((out_env / "huge").iterdir())

    def test_lemma_reports(self, out_env, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "lemma": {"params": {"s": 1.25, "gamma": 0.2, "c1": 1.0, "m0": 1.0,
                                 "beta_prime": 1e-16, "a_bound": 1.0}},
            "output_dir": "lem", "format": "csv"})
        assert cli.main(["--config", cfg, "lemma"]) == 0
        report = json.loads((out_env / "lem" / "lemma_report.json").read_text())
        assert report["control"]["applicable"] is True
        assert report["control"]["overall_pass"] is True
        assert (out_env / "lem" / "lemma_table.csv").exists()

    @pytest.mark.parametrize("beta_prime, vacuous", [(1e-16, True), (0.5, False)])
    def test_lemma_says_when_the_recurrence_is_vacuous(self, out_env, tmp_path, capsys,
                                                      beta_prime, vacuous):
        # the default 12-rung ladder: at beta' = 1e-16 no window M0 < M <= 2 beta' N
        # holds a rung; at 0.5 each row N holds the rungs 1 < M <= N
        cfg = write_cfg(tmp_path, {
            "lemma": {"params": {"s": 1.25, "gamma": 0.2, "c1": 1.0, "m0": 1.0,
                                 "beta_prime": beta_prime, "a_bound": 10.0}},
            "output_dir": "vac"})
        assert cli.main(["--config", cfg, "lemma"]) == 0
        report = json.loads((out_env / "vac" / "lemma_report.json").read_text())["recurrence"]
        rungs = [row["window_rungs"] for row in report["rows"]]
        assert rungs == ([0] * 12 if vacuous else list(range(12)))
        assert report["nonempty_windows"] == (0 if vacuous else 11)
        line = capsys.readouterr().out.strip()
        assert line.startswith("lemma: ")
        assert line.endswith("; recurrence vacuous: every window is empty") == vacuous

    def test_lemma_checks_the_recurrence_once(self, out_env, tmp_path, monkeypatch):
        check = recurrence.check_recurrence
        calls = []
        monkeypatch.setattr(recurrence, "check_recurrence",
                            lambda *args: calls.append(args) or check(*args))
        cfg = write_cfg(tmp_path, {
            "lemma": {"params": {"s": 1.25, "gamma": 0.2, "c1": 1.0, "m0": 1.0,
                                 "beta_prime": 1e-16, "a_bound": 1.0}},
            "output_dir": "lem1"})
        assert cli.main(["--config", cfg, "lemma"]) == 0
        assert len(calls) == 1
        report = json.loads((out_env / "lem1" / "lemma_report.json").read_text())
        assert report["recurrence"] == json.loads(json.dumps(check(*calls[0]).to_json_obj()))

    def test_selftest_solves_the_ground_state_once(self, monkeypatch, capsys):
        calls = []

        def counted(name):
            fn = getattr(groundstate, name)
            return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

        for name in ("solve_ground_state", "shooting_mass"):
            monkeypatch.setattr(groundstate, name, counted(name))
        selftest._ground.cache_clear()
        assert cli.main(["selftest"]) == 0
        assert calls == ["solve_ground_state", "shooting_mass"]

    def test_selftest_verdicts_are_bools_under_fixed_names(self):
        # the printed names are what users and the benchmark's checks read
        results = selftest.run_all()
        assert all(type(ok) is bool for _, ok, _ in results)
        names = [name for name, _, _ in results]
        assert len(set(names)) == len(names)
        assert names == [
            "core.roundtrip", "core.gaussian_mass", "core.plancherel", "core.scaling",
            "groundstate.shooting", "groundstate.pohozaev", "groundstate.monotonicity",
            "groundstate.ratio_below_one",
            "bands.in_out_complete", "bands.mismatch_norm",
            "evolution.solitary_wave", "evolution.mass", "evolution.free_gaussian",
            "diagnostics.virial_identity", "diagnostics.concentration",
            "recurrence.saturating", "recurrence.planted_violation",
            "recurrence.geometric_sum"]

    def test_lemma_inapplicable_is_not_failure(self, out_env, tmp_path):
        cfg = write_cfg(tmp_path, {
            "lemma": {"params": {"s": 1.25, "gamma": 0.2, "c1": 1.0, "m0": 1.0,
                                 "beta_prime": 0.5, "a_bound": 10.0}},
            "output_dir": "lem2"})
        assert cli.main(["--config", cfg, "lemma"]) == 0
        report = json.loads((out_env / "lem2" / "lemma_report.json").read_text())
        assert report["control"]["applicable"] is False

    @pytest.mark.parametrize("sequence, detail", [
        pytest.param({"rows": "1.0,1.0\n2.0,0.5\ninf,0.25\n"}, "finite and positive",
                     id="inf_scale"),
        pytest.param({"rows": "1.0,1.0\nnan,0.5\n4.0,0.25\n"}, "finite and positive",
                     id="nan_scale"),
        pytest.param({"rows": "0.0,1.0\n0.0,0.5\n"}, "finite and positive", id="zero_scale"),
        pytest.param({"rows": "1.0,1.0\n2.0\n4.0,0.25\n"}, "line 3", id="missing_column"),
        pytest.param({"kind": "synthetic_power", "ladder": 900},
                     "underflows below the smallest normal float",
                     id="underflowing_base_term"),
        # OverflowError, at 2.0**1024 or at N^800, has no exit code of its own in the CLI
        pytest.param({"kind": "synthetic_power", "ladder": 1100}, "overflows a float",
                     id="overflowing_scale"),
        pytest.param({"kind": "synthetic_power", "exponent": -800.0, "ladder": 10},
                     "overflows a float", id="overflowing_term"),
    ])
    def test_bad_lemma_sequence_exits_2(self, out_env, tmp_path, capsys, sequence, detail):
        if "rows" in sequence:
            (tmp_path / "seq.csv").write_text("N,A_N\n" + sequence["rows"])
            sequence = {"kind": "file", "path": str(tmp_path / "seq.csv")}
        cfg = write_cfg(tmp_path, {
            "lemma": {"params": {"s": 1.25, "gamma": 0.2, "c1": 1.0, "m0": 1.0,
                                 "beta_prime": 1e-16, "a_bound": 1.0},
                      "sequence": sequence},
            "output_dir": "lem_bad"})
        assert cli.main(["--config", cfg, "lemma"]) == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "invalid_input" and detail in error["detail"]

    @pytest.mark.parametrize("params, detail", [
        pytest.param(LEMMA_PARAMS | {"gama": 0.2}, "unexpected keyword argument 'gama'",
                     id="unknown_key"),
        pytest.param({k: v for k, v in LEMMA_PARAMS.items() if k != "s"}, "missing",
                     id="missing_key"),
        pytest.param(LEMMA_PARAMS | {"s": 0.5}, "need s > 1", id="bad_value"),
        pytest.param(5, "must be a mapping", id="not_an_object"),
    ])
    def test_bad_lemma_params_exit_2(self, out_env, tmp_path, capsys, params, detail):
        # lemma.params is RecurrenceParams' to check, when lemma runs
        cfg = write_cfg(tmp_path, {"lemma": {"params": params}, "output_dir": "lem_params"})
        assert cli.main(["--config", cfg, "lemma"]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "invalid_input"
        assert error["detail"].startswith("bad lemma.params") and detail in error["detail"]

    def test_unknown_config_key_exits_2(self, out_env, tmp_path):
        cfg = write_cfg(tmp_path, {"no_such_key": 1})
        assert cli.main(["--config", cfg, "ground-state"]) == 2

    @pytest.mark.parametrize("edit, detail", [
        pytest.param({"grid": {"r_max": 15.0, "nn": 128}}, "grid: unknown key(s) ['nn']",
                     id="grid_typo"),
        pytest.param({"time": {"t": 0.02}}, "time: unknown key(s) ['t']", id="time_typo"),
        pytest.param({"initial": {"kind": "sw", "params": {"tt": 0.5}}},
                     "initial.params: unknown key(s) ['tt']", id="initial_params_typo"),
        pytest.param({"diagnostics": [{"kind": "virial"},
                                      {"kind": "kinetic_localization", "eta_frac": 0.1}]},
                     "diagnostics[1]: unknown key(s) ['eta_frac']", id="diagnostic_typo"),
        pytest.param({"lemma": {"params": LEMMA_PARAMS, "sequnce": {"kind": "synthetic_power"}}},
                     "lemma: unknown key(s) ['sequnce']", id="lemma_typo"),
        pytest.param({"lemma": {"params": LEMMA_PARAMS,
                                "sequence": {"kind": "synthetic_power", "ladr": 8}}},
                     "lemma.sequence: unknown key(s) ['ladr']", id="sequence_typo"),
        pytest.param({"initial": {"kind": "file"}}, "initial: kind 'file' needs key(s) ['path']",
                     id="initial_file_without_path"),
        pytest.param({"lemma": {"params": LEMMA_PARAMS,
                                "sequence": {"kind": "from_trajectory", "Ns": [4]}}},
                     "lemma.sequence: kind 'from_trajectory' needs key(s) ['path']",
                     id="from_trajectory_without_path"),
        pytest.param({"lemma": {"params": LEMMA_PARAMS, "sequence": {"kind": "file"}}},
                     "lemma.sequence: kind 'file' needs key(s) ['path']",
                     id="sequence_file_without_path"),
        pytest.param({"grid": 5}, "grid must be an object, got 5", id="grid_not_an_object"),
        pytest.param({"initial": {"kind": ["sw"]}}, "initial: unknown kind ['sw']",
                     id="unhashable_kind"),
        pytest.param({"initial": {"kind": "gaussian", "params": {"width": "1"}}},
                     "initial.params: width must be of type float, got '1'", id="string_float"),
        pytest.param({"diagnostics": [{"kind": "spatial_decay", "Rs": 3}]},
                     "diagnostics[0]: Rs must be of type list[float], got 3", id="scalar_list"),
        pytest.param({"diagnostics": [{"kind": "spatial_decay", "Rs": [1.0, "2"]}]},
                     "diagnostics[0]: Rs must be of type list[float], got [1.0, '2']",
                     id="string_in_list"),
        pytest.param({"diagnostics": [{"kind": "frequency_decay", "Ns": 4}]},
                     "diagnostics[0]: Ns must be of type list[float], got 4", id="scalar_Ns"),
        pytest.param({"diagnostics": [{"kind": "frequency_decay", "Ns": "4816"}]},
                     "diagnostics[0]: Ns must be of type list[float], got '4816'",
                     id="string_Ns"),
        pytest.param({"diagnostics": [{"kind": "spatial_decay", "N_range": 4}]},
                     "diagnostics[0]: N_range must be of type tuple[float, float], got 4",
                     id="scalar_N_range"),
        pytest.param({"diagnostics": [{"kind": "spatial_decay", "N_range": [4]}]},
                     "diagnostics[0]: N_range must be of type tuple[float, float], got [4]",
                     id="short_N_range"),
        pytest.param({"lemma": {"params": LEMMA_PARAMS, "sequence": {
            "kind": "from_trajectory", "path": "run", "Ns": 16}}},
                     "lemma.sequence: Ns must be of type list[float], got 16",
                     id="scalar_sequence_Ns"),
        pytest.param({"lemma": {"params": LEMMA_PARAMS, "sequence": {"kind": "file", "path": 5}}},
                     "lemma.sequence: path must be of type str, got 5", id="number_path"),
        pytest.param({"initial": {"kind": "file", "params": {"path": 5}}},
                     "initial.params: path must be of type str, got 5", id="number_initial_path"),
        pytest.param({"lemma": {"params": LEMMA_PARAMS, "sequence": {
            "kind": "synthetic_power", "exponent": "1.5"}}},
                     "lemma.sequence: exponent must be of type float, got '1.5'",
                     id="string_exponent"),
        pytest.param({"grid": {"r_max": 15.0, "n": "128"}},
                     "grid: n must be of type int, got '128'", id="string_int"),
        pytest.param({"time": {"dt": 1e-3, "T": 0.02, "cadence": 1.0}},
                     "time: cadence must be of type int, got 1.0", id="float_int"),
        pytest.param({"seed": True}, "config: seed must be of type int, got True", id="bool_int"),
        pytest.param({"diagnostics": [{"kind": "virial", "R": False}]},
                     "diagnostics[0]: R must be of type float, got False", id="bool_float"),
        pytest.param({"output_dir": ["typo"]}, "config: output_dir must be of type str",
                     id="list_str"),
    ])
    def test_config_key_nothing_reads_exits_2(self, out_env, tmp_path, capsys, edit, detail):
        # every command checks the whole config before it starts, so lemma, which
        # reads neither grid, time, initial nor diagnostics, rejects them too
        payload = {"grid": {"r_max": 15.0, "n": 128}, "time": {"dt": 1e-3, "T": 0.02},
                   "lemma": {"params": LEMMA_PARAMS}, "output_dir": "typo"} | edit
        assert cli.main(["--config", write_cfg(tmp_path, payload), "lemma"]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "invalid_input" and detail in error["detail"]
        assert not (out_env / "typo" / "lemma_report.json").exists()

    def test_int_for_a_float_default_runs(self, out_env, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"grid": {"r_max": 15, "n": 384},
                                   "time": {"dt": 1e-3, "T": 0.01, "cadence": 1},
                                   "initial": {"kind": "gaussian", "params": {"width": 1}},
                                   "output_dir": "ints"})
        assert cli.main(["--config", cfg, "evolve"]) == 0

    def test_benchmark_warmup_config_runs(self, tmp_path, monkeypatch, capsys):
        # the warm-up gives a gaussian start the t that sw and pc_ground_state
        # read; initial.params may hold any initial kind's parameters
        spec = importlib.util.spec_from_file_location(
            "workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "workloads", workloads)
        spec.loader.exec_module(workloads)
        out = str(tmp_path / "warmup")
        cfg = write_cfg(tmp_path, workloads.WARMUP.config(3, out))
        for name, args in workloads.session_commands(workloads.WARMUP, cfg, out):
            assert cli.main(args) == 0, name

    def test_readme_example_config_is_valid(self, tmp_path):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = text[text.index("### Config"):]
        block = section[section.index("```json") + len("```json"):]
        cfg = cli.load_config(write_cfg(tmp_path, json.loads(block[:block.index("```")])), {})
        assert cli.kind_params("initial", cfg["initial"]) == ("sw", {"t": 0.0})
        assert [kind for kind, _ in cli.diagnostic_params(cfg)] == list(cli.DIAGNOSTIC_RUNNERS)
        assert cli.kind_params("lemma.sequence", cfg["lemma"]["sequence"])[0] == "synthetic_power"
        # and the section names every kind and parameter of the table
        for kinds in cli.PARAMS.values():
            for kind, params in kinds.items():
                assert all(f"`{name}`" in section for name in (kind, *params)), kind

    @pytest.mark.parametrize("exc, kind, code", EXIT_CASES,
                             ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
    def test_exit_code_and_error_kind(self, monkeypatch, capsys, exc, kind, code):
        def fail(cfg):
            raise exc
        monkeypatch.setitem(cli.COMMANDS, "selftest", (fail, "fails", ()))
        assert cli.main(["selftest"]) == code
        assert json.loads(capsys.readouterr().err) == {"error": kind, "detail": "boom"}

    def test_unconverged_ground_state_exits_4(self, out_env, tmp_path, capsys, monkeypatch):
        # a reachable tol that the fixed point, from 2 exp(-r^2) at n = 128, needs about
        # 66 steps for; a tol under the round-off floor is refused with exit 2 instead
        monkeypatch.setattr(groundstate, "MAX_ITER", 5)
        cfg = write_cfg(tmp_path, {"output_dir": "tight"})
        assert cli.main(["--config", cfg, "--n", "128", "ground-state"]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numerical_failure" and "no convergence" in err["detail"]

    def test_collapsed_fixed_point_exits_4(self, out_env, tmp_path, capsys, monkeypatch):
        # a start whose nonlinear pairing vanishes is a numerical failure of the solve, not
        # a failed certificate
        monkeypatch.setattr(groundstate, "_start", lambda grid, tol: np.zeros(grid.n))
        cfg = write_cfg(tmp_path, {"output_dir": "collapsed"})
        assert cli.main(["--config", cfg, "--n", "128", "ground-state"]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numerical_failure" and "collapsed" in err["detail"]

    def test_unconverged_bessel_zeros_exit_4(self, out_env, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(core, "_NEWTON_STEPS", 1)
        cfg = write_cfg(tmp_path, {"grid": SMALL_GRID, "output_dir": "zeros"})
        assert cli.main(["--config", cfg, "ground-state"]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numerical_failure" and "Bessel zeros" in err["detail"]

    def test_exit_cases_cover_every_table_entry(self):
        assert set(cli.ERRORS) <= {type(exc) for exc, _, _ in EXIT_CASES}

    @pytest.mark.parametrize("command, payload", [
        pytest.param(["lemma"], {"lemma": {"params": {
            "s": 1.5, "gamma": 0.3, "c1": 2.0, "m0": 1.0, "beta_prime": 1e-9, "a_bound": 2.0}}},
            id="lemma"),
        pytest.param(["ground-state"], {"grid": SMALL_GRID}, id="ground-state"),
        pytest.param(["evolve"], {"grid": SMALL_GRID,
                                  "time": {"dt": 1e-3, "T": 0.01, "cadence": 1}}, id="evolve"),
    ])
    def test_reproducible_outputs(self, tmp_path, monkeypatch, capsys, command, payload):
        cfg = write_cfg(tmp_path, {**payload, "output_dir": "rep", "seed": 42})
        outputs = []
        for run in ("first", "second"):
            root = tmp_path / run
            monkeypatch.setenv("RADNLS_OUTPUT_ROOT", str(root))
            assert cli.main(["--config", cfg, *command]) == 0
            outputs.append({p.relative_to(root): p.read_bytes()
                            for p in sorted(root.rglob("*")) if p.is_file()})
        assert outputs[0] and outputs[0].keys() == outputs[1].keys()
        for path, data in outputs[0].items():
            assert outputs[1][path] == data, f"{path} differs between reruns"

    def test_diagnose_artifact_set(self, out_env, tmp_path, capsys):
        headers = {"frequency_decay": "quantity,N,value", "spatial_decay": "quantity,R,value",
                   "virial": "t,d2_virial,eight_kinetic", "kinetic_localization": "t,radius",
                   "concentration": "t,c_x,c_xi"}
        decay = {"table", "exponent", "residual", "threshold", "passes", "note"}
        keys = {"frequency_decay": decay, "spatial_decay": decay,
                "virial": {"rows", "identity_residual", "identity_bound"},
                "kinetic_localization": {"rows", "spread_cells"}, "concentration": {"rows"}}
        cfg = write_cfg(tmp_path, {
            "grid": SMALL_GRID, "mu": 0,
            "time": {"dt": 1e-3, "T": 0.01, "cadence": 1},
            "diagnostics": [{"kind": kind} for kind in headers],
            "output_dir": "run", "format": "csv"})
        assert cli.main(["--config", cfg, "evolve"]) == 0
        assert cli.main(["--config", cfg, "--output-dir", "diag", "diagnose",
                         str(out_env / "run" / "trajectory")]) == 0
        out = out_env / "diag"
        assert {p.name for p in out.iterdir()} == (
            {f"{kind}.{ext}" for kind in headers for ext in ("json", "csv")}
            | {"diagnose_summary.json"})
        for kind, header in headers.items():
            assert (out / f"{kind}.csv").read_text().splitlines()[1] == header
            payload = json.loads((out / f"{kind}.json").read_text())
            assert set(payload) == {"artifact_version", "config_hash", "seed"} | keys[kind]
            if "table" in payload:
                scale = header.split(",")[1]
                assert all(set(row) == {scale, "value"} for row in payload["table"]["rows"])

    @pytest.mark.parametrize("edit, rehash", [
        pytest.param(lambda config: config.update(stepper="strang"), False, id="stepper"),
        pytest.param(lambda config: config.pop("dt"), False, id="missing_dt"),
        # with config_hash matching the edited config, SimulationConfig itself rejects it
        pytest.param(lambda config: config.update(stepper="strang"), True, id="stepper_rehashed"),
        pytest.param(lambda config: config.pop("dt"), True, id="missing_dt_rehashed"),
    ])
    def test_bad_manifest_config_exits_2(self, out_env, tmp_path, capsys, edit, rehash):
        cfg = write_cfg(tmp_path, {"grid": {"r_max": 15.0, "n": 128},
                                   "time": {"dt": 1e-3, "T": 0.01, "cadence": 1},
                                   "output_dir": "bad"})
        assert cli.main(["--config", cfg, "evolve"]) == 0
        path = out_env / "bad" / "trajectory" / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest["config"])
        if rehash:
            manifest["config_hash"] = fieldio.config_hash(manifest["config"])
        path.write_text(json.dumps(manifest))
        assert cli.main(["--config", cfg, "diagnose", str(path.parent)]) == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "invalid_input" and str(path.parent) in error["detail"]

    @pytest.mark.parametrize("key, wrong", [
        pytest.param("config", lambda m: list(m["config"].items()), id="config"),
        pytest.param("config_hash", lambda m: 5, id="config_hash"),
        pytest.param("times", lambda m: 5, id="times"),
        pytest.param("mass_log", lambda m: [str(x) for x in m["mass_log"]], id="mass_log"),
        pytest.param("energy_log", lambda m: [True] * len(m["energy_log"]), id="energy_log"),
        pytest.param("guard_event", lambda m: 7, id="guard_event"),
        pytest.param("warnings", lambda m: 5, id="warnings"),
        pytest.param("warnings", lambda m: [5], id="warning_not_a_string"),
        pytest.param("samples_sha256", lambda m: None, id="samples_sha256"),
        pytest.param("coeffs_sha256", lambda m: 5, id="coeffs_sha256"),
    ])
    def test_manifest_key_of_wrong_type_exits_2(self, out_env, tmp_path, capsys, key, wrong):
        cfg = write_cfg(tmp_path, {"grid": {"r_max": 15.0, "n": 128},
                                   "time": {"dt": 1e-3, "T": 0.01, "cadence": 1},
                                   "output_dir": "bad"})
        assert cli.main(["--config", cfg, "evolve"]) == 0
        path = out_env / "bad" / "trajectory" / "manifest.json"
        _edit_json(path, lambda m: m.update({key: wrong(m)}))
        assert cli.main(["--config", cfg, "diagnose", str(path.parent)]) == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "invalid_input" and f"with {key} (" in error["detail"]

    @pytest.mark.parametrize("corrupt", [
        pytest.param(lambda run: _edit_json(run / "manifest.json",
                                            lambda m: m["config"].update(dt=2e-3)),
                     id="edited_config"),
        pytest.param(lambda run: (run / "snapshots" / "000003.rfb").unlink(), id="deleted_snapshot"),
        pytest.param(lambda run: (run / "snapshots" / "999999.rfb").write_bytes(
            (run / "snapshots" / "000010.rfb").read_bytes()), id="extra_snapshot"),
        pytest.param(lambda run: (run / "snapshots" / "000005.rfb").write_bytes(
            (run / "snapshots" / "000005.rfb").read_bytes()[:-8]), id="truncated_rfb"),
        pytest.param(lambda run: (run / "snapshots" / "000005.rfb").write_bytes(
            fieldio.MAGIC + b"\0\0"), id="rfb_shorter_than_header"),
        pytest.param(lambda run: _edit_json(run / "manifest.json", lambda m: m.pop("times")),
                     id="missing_times"),
        pytest.param(lambda run: _edit_json(run / "manifest.json", lambda m: m.pop("mass_log")),
                     id="missing_mass_log"),
        pytest.param(lambda run: _edit_json(run / "manifest.json",
                                            lambda m: m["energy_log"].pop()),
                     id="short_energy_log"),
        pytest.param(lambda run: _edit_json(run / "manifest.json", lambda m: m["times"].reverse()),
                     id="reversed_times"),
        pytest.param(lambda run: _edit_json(run / "manifest.json", _nudge_time), id="shifted_time"),
        # the lowest mantissa bit of one sample's real part: the header still fits
        pytest.param(lambda run: _flip_bit(run / "snapshots" / "000003.rfb", 28 + 16 * 10),
                     id="flipped_sample_bit"),
        pytest.param(lambda run: _edit_json(run / "manifest.json",
                                            lambda m: m.pop("samples_sha256")),
                     id="missing_samples_sha256"),
        pytest.param(lambda run: (run / "coeffs.rfb").unlink(), id="missing_coeffs"),
        pytest.param(lambda run: (run / "coeffs.rfb").write_bytes(
            (run / "coeffs.rfb").read_bytes()[:-16]), id="truncated_coeffs"),
        pytest.param(lambda run: _rewrite_coeffs(run, header=(4, 128, 16.0)),
                     id="coeffs_of_another_grid"),
        pytest.param(lambda run: _flip_bit(run / "coeffs.rfb", 28 + 16 * 10),
                     id="flipped_coeffs_bit"),
        pytest.param(lambda run: _edit_json(run / "manifest.json",
                                            lambda m: m.pop("coeffs_sha256")),
                     id="missing_coeffs_sha256"),
        # the stack of the run from e^{i/2} u0, with the manifest's hash rewritten to fit
        pytest.param(lambda run: _rewrite_coeffs(run, factor=np.exp(0.5j)),
                     id="coeffs_of_another_run_rehashed"),
    ])
    def test_inconsistent_trajectory_exits_2(self, out_env, tmp_path, capsys, corrupt):
        # the window of N=4 is [0, 1/2], so lemma reads the whole trajectory
        seq = {"kind": "from_trajectory", "path": str(out_env / "run" / "trajectory"), "Ns": [4]}
        cfg = write_cfg(tmp_path, {"grid": {"r_max": 15.0, "n": 128},
                                   "time": {"dt": 5e-3, "T": 0.5, "cadence": 1},
                                   "lemma": {"params": {"s": 1.25, "gamma": 0.2, "c1": 1.0,
                                                        "m0": 2.0, "beta_prime": 1e-16,
                                                        "a_bound": 1.0}, "sequence": seq},
                                   "output_dir": "run"})
        assert cli.main(["--config", cfg, "evolve"]) == 0
        assert cli.main(["--config", cfg, "lemma"]) == 0
        corrupt(out_env / "run" / "trajectory")
        # the load refuses it, before any diagnostic or extraction reads the snapshots
        with pytest.raises(ValueError):
            fieldio.load_trajectory(out_env / "run" / "trajectory")
        assert cli.main(["--config", cfg, "diagnose", str(out_env / "run" / "trajectory")]) == 2
        assert cli.main(["--config", cfg, "lemma"]) == 2
        assert capsys.readouterr().err.count("invalid_input") == 2


class TestStoredSpectra:
    """diagnose reads the spectra evolve stored, and builds no kernel it does not use."""

    CONFIG = {"grid": {"r_max": 15.0, "n": 128},
              "time": {"dt": 5e-3, "T": 0.1, "cadence": 2},
              "diagnostics": [{"kind": "virial"}, {"kind": "concentration"}]}

    def test_virial_and_concentration_build_no_kernel(self, out_env, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, {**self.CONFIG, "output_dir": "run"})
        assert cli.main(["--config", cfg, "evolve"]) == 0
        run = out_env / "run" / "trajectory"
        build = core.RadialGrid._symmetric_kernel
        rows = []
        monkeypatch.setattr(core.RadialGrid, "_symmetric_kernel",
                            lambda g, *args: rows.append(args[2:]) or build(g, *args))
        names = ("virial.json", "concentration.json", "diagnose_summary.json")
        assert cli.main(["--config", cfg, "diagnose", str(run)]) == 0
        stored = {name: (out_env / "run" / name).read_bytes() for name in names}
        # the one build is the load's check, a single row; the runners make none
        assert rows == [(1,)]
        monkeypatch.setattr(core.RadialGrid, "_symmetric_kernel", build)
        # the path that recomputes the spectra from the samples writes the same bytes
        load = fieldio.load_trajectory
        monkeypatch.setattr(fieldio, "load_trajectory",
                            lambda path: dataclasses.replace(load(path)))
        assert cli.main(["--config", cfg, "diagnose", str(run)]) == 0
        for name in names:
            assert (out_env / "run" / name).read_bytes() == stored[name], name

    def test_another_runs_stack_fails_the_consistency_check(self, out_env, tmp_path):
        cfg = write_cfg(tmp_path, {**self.CONFIG, "output_dir": "run"})
        assert cli.main(["--config", cfg, "evolve"]) == 0
        run = out_env / "run" / "trajectory"
        _rewrite_coeffs(run, factor=np.exp(0.5j))
        with pytest.raises(ValueError, match="coefficient 0 of snapshot 0 differs"):
            fieldio.load_trajectory(run)


def _edit_json(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def _nudge_time(manifest):
    """Move times[3] one ulp off the time evolve writes."""
    manifest["times"][3] = math.nextafter(manifest["times"][3], math.inf)


def _rewrite_coeffs(run, header=None, factor=1.0):
    """Rewrite run's coeffs.rfb with another (d, n, r_max) header, or its stack times
    factor, and store the new stack's sha256 in the manifest."""
    blob = (run / "coeffs.rfb").read_bytes()
    stack = np.frombuffer(blob[28:], dtype=np.complex128) * factor
    head = blob[:28] if header is None else fieldio.MAGIC + struct.pack("<IQd", *header)
    (run / "coeffs.rfb").write_bytes(head + stack.tobytes())
    _edit_json(run / "manifest.json",
               lambda m: m.update(coeffs_sha256=hashlib.sha256(stack.tobytes()).hexdigest()))


def _flip_bit(path, at):
    blob = bytearray(path.read_bytes())
    blob[at] ^= 1
    path.write_bytes(bytes(blob))


def test_outputs_independent_of_blas_threads(tmp_path):
    """ground-state + evolve + diagnose + lemma write byte-identical artifacts with one and
    two BLAS threads.

    n = 128 is one row block of the kernel products; at n = 640 they run in five, and
    at n = 600 in five of the kernel zero-padded to 640."""
    src = str(Path(radnls.__file__).resolve().parents[1])
    for n in (128, 640, 600):
        work = tmp_path / f"n{n}"
        work.mkdir()
        cfg = write_cfg(work, {
            "grid": {"r_max": 15.0, "n": n},
            "time": {"dt": 1e-3, "T": 0.02, "cadence": 1},
            "initial": {"kind": "gaussian"},
            "diagnostics": [{"kind": "virial"}, {"kind": "concentration"},
                            {"kind": "spatial_decay"}, {"kind": "kinetic_localization"}],
            "lemma": {"params": {"s": 1.25, "gamma": 0.2, "c1": 1.0, "m0": 1.0,
                                 "beta_prime": 1e-16, "a_bound": 1.0},
                      "sequence": {"kind": "synthetic_power", "exponent": 1.25,
                                   "ladder": 240}},
            "output_dir": "run", "format": "csv"})
        outputs = []
        for threads in ("1", "2"):
            root = work / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, RADNLS_OUTPUT_ROOT=str(root),
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            for command in (["ground-state"], ["evolve"],
                            ["diagnose", str(root / "run" / "trajectory")], ["lemma"]):
                subprocess.run([sys.executable, "-m", "radnls.cli", "--config", cfg, *command],
                               env=env, check=True, capture_output=True, timeout=300)
            outputs.append({p.relative_to(root): p.read_bytes()
                            for p in sorted(root.rglob("*")) if p.is_file()})
        assert {p.suffix for p in outputs[0]} == {".json", ".csv", ".rfb"}
        assert Path("run", "lemma_report.json") in outputs[0]
        assert {Path("run", "ground_state.rfb"), Path("run", "ground_state_certification.json")
                } <= outputs[0].keys()
        assert any(p.parent.name == "ground_state_cache" for p in outputs[0])
        assert outputs[0].keys() == outputs[1].keys()
        for path, data in outputs[0].items():
            assert outputs[1][path] == data, f"n={n}: {path} differs between BLAS thread counts"


def test_selftest_stdout_independent_of_blas_threads():
    """selftest prints byte-identical lines with one and two BLAS threads."""
    src = str(Path(radnls.__file__).resolve().parents[1])
    stdouts = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-m", "radnls.cli", "selftest"], env=env,
                             check=True, capture_output=True, timeout=300)
        stdouts.append(run.stdout)
    assert stdouts[0].endswith(b"suites green\n")
    assert stdouts[0] == stdouts[1]
