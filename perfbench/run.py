#!/usr/bin/env python3
"""Benchmark of a radnls CLI session, end to end or traced layer by layer.

    python3 perfbench/run.py --workload sw_dense --seed 1 --seconds 45 --trace 0

Run it from the root of a checkout; it runs the program from ./src.  With
--trace 0 it runs a discarded warm-up session, then two whole sessions
(ground-state, evolve, diagnose, lemma, selftest), each command in a fresh
process.  A lone ground-state in a fresh directory follows each session, and
up to two more follow while less than --seconds have passed.  It times every
command from outside and prints the median of each; setup_s is the median
over every ground-state of the run, four to six of them.  With
--trace 1 it replays one session in-process with spans around the public
calls of each module (trace.py) and prints the per-layer figures; --seconds
plays no part there.  Every output is checked against checks.py.  The last
line of stdout is the result as JSON.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and in every program process: with
# OpenBLAS's default two threads, identical runs differed by up to 68%.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
from workloads import WARMUP, WORKLOADS, Workload, session_commands

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = HERE / "out"
COMMAND_LIMIT_S = 170.0
SESSIONS = 2
MAX_LONE_SETUPS = 4


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("RADNLS_OUTPUT_ROOT", None)
    return env


def run_process(argv: list, log: Path) -> dict:
    """Run one program process to its end; wall time, peak RSS and exit code."""
    with open(log.with_suffix(".out"), "w") as out, open(log.with_suffix(".err"), "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(COMMAND_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0, "rc": proc.returncode,
            "stdout": log.with_suffix(".out").read_text()}


def radnls(args: list) -> list:
    return [sys.executable, "-m", "radnls.cli"] + args


def run_session(w: Workload, seed: int, out_dir: Path, logs: Path, tag: str,
                names: tuple | None = None) -> dict:
    """One session in out_dir: each command of names (default all) in its own process."""
    out_dir.mkdir(parents=True)
    cfg_path = out_dir / "session.json"
    cfg_path.write_text(json.dumps(w.config(seed, str(out_dir)), indent=1))
    return {name: run_process(radnls(args), logs / f"{tag}-{name}")
            for name, args in session_commands(w, str(cfg_path), str(out_dir))
            if names is None or name in names}


def calibration() -> dict:
    """Host probe beside the metrics: a pure-Python loop and an n=1280 matvec loop."""
    def loop():
        s = 0
        for i in range(300_000):
            s += i * i
        return s

    rng = np.random.default_rng(0)
    mat = rng.standard_normal((1280, 1280))
    vec = rng.standard_normal(1280) + 1j * rng.standard_normal(1280)

    def timed(fn, reps):
        times = []
        for _ in range(reps):
            t = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t)
        return statistics.median(times) * 1e3

    return {"python_loop_ms": timed(loop, 7), "matvec_n1280_ms": timed(lambda: mat @ vec, 25)}


def record(run_dir: Path, info: dict, result: dict) -> None:
    (run_dir / "run.json").write_text(json.dumps({"info": info, "result": result}, indent=1))
    print(json.dumps(info))
    print(json.dumps(result))


def end_to_end(w: Workload, seed: int, seconds: float, run_dir: Path) -> tuple[dict, dict]:
    logs = run_dir / "logs"
    logs.mkdir()
    ref = checks.Reference(w)
    warm = run_session(WARMUP, seed, run_dir / "warmup", logs, "warmup")
    shutil.rmtree(run_dir / "warmup")
    sessions, setups = [], []  # setups: the lone ground-state runs
    start = time.perf_counter()

    def measure(tag: str, names: tuple | None) -> dict:
        out_dir = run_dir / tag
        cmds = run_session(w, seed, out_dir, logs, tag, names)
        found = checks.check_session(ref, w, out_dir, seed,
                                     cmds.get("selftest", {}).get("stdout", ""), names)
        for name, res in cmds.items():
            res["problems"] = found[name]
        shutil.rmtree(out_dir)
        return cmds

    # Each session is followed by a lone ground-state in a fresh directory, and
    # more follow while time is left: setup_s is the median of every ground-state.
    for k in range(SESSIONS):
        sessions.append(measure(f"session{k}", None))
        setups.append(measure(f"setup{k}", ("ground-state",)))
    while len(setups) < MAX_LONE_SETUPS and time.perf_counter() - start < seconds:
        setups.append(measure(f"setup{len(setups)}", ("ground-state",)))
    every = [res for cmds in sessions + setups for res in cmds.values()]
    problems = [p for res in every for p in res["problems"]]

    def med(values):
        return {"value": statistics.median(values), "unit": "s"}

    metrics = {"setup_s": med(cmds["ground-state"]["wall_s"] for cmds in sessions + setups)}
    metrics.update({metric: med(cmds[name]["wall_s"] for cmds in sessions)
                    for metric, name in (("evolve_s", "evolve"), ("diagnose_s", "diagnose"),
                                         ("lemma_s", "lemma"), ("selftest_s", "selftest"))})
    metrics["session_s"] = med(sum(res["wall_s"] for res in cmds.values()) for cmds in sessions)
    metrics["peak_rss_mb"] = {"value": max(res["rss_mb"] for res in every), "unit": "MB"}
    info = {
        "workload": w.name, "seed": seed, "sessions": len(sessions),
        "warmup_rc": [res["rc"] for res in warm.values()],
        "per_session_s": [{k: round(v["wall_s"], 4) for k, v in cmds.items()}
                          for cmds in sessions],
        "setup_s": [round(cmds["ground-state"]["wall_s"], 4) for cmds in setups],
        "measured_s": round(time.perf_counter() - start, 2),
        "problems": problems,
    }
    result = {"correct": not problems, "attempted": len(every),
              "failed": sum(1 for res in every if res["rc"] != 0 or res["problems"]),
              "metrics": metrics}
    return info, result


def traced(w: Workload, seed: int, run_dir: Path) -> tuple[dict, dict]:
    logs = run_dir / "logs"
    logs.mkdir()
    out_dir = run_dir / "session0"
    trace_path = run_dir / "trace.json"
    ref = checks.Reference(w)
    child = run_process([sys.executable, str(HERE / "trace.py"), "--workload", w.name,
                         "--seed", str(seed), "--out", str(out_dir),
                         "--trace-file", str(trace_path)], logs / "trace")
    imports = [run_process([sys.executable, "-c", "import time; t = time.perf_counter(); "
                            "import radnls.cli; print(time.perf_counter() - t)"],
                           logs / f"import{k}") for k in range(2)]
    # a failed replay fails every command of the session
    found = {name: [f"traced replay exited {child['rc']}"] for name in w.commands}
    layers = {}
    if child["rc"] == 0:
        layers = json.loads(trace_path.read_text())["layers"]
        found = checks.check_session(ref, w, out_dir, seed,
                                     (out_dir / "selftest.out").read_text())
        import_times = [layers["cli.import_s"]["value"]]
        import_times += [float(res["stdout"]) for res in imports if res["rc"] == 0]
        layers["cli.import_s"]["value"] = statistics.median(import_times)
    shutil.rmtree(out_dir / "trajectory", ignore_errors=True)
    problems = [f"{name}: {p}" for name, msgs in found.items() for p in msgs]
    info = {"workload": w.name, "seed": seed, "problems": problems,
            "traced_total_s": child["wall_s"]}
    result = {"correct": not problems, "attempted": len(found),
              "failed": sum(1 for msgs in found.values() if msgs), "metrics": layers}
    return info, result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "radnls" / "cli.py").is_file():
        print(f"no radnls source under {ROOT / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    run_dir = OUT / f"{w.name}-{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    probe_before = calibration()
    if args.trace:
        info, result = traced(w, args.seed, run_dir)
    else:
        info, result = end_to_end(w, args.seed, args.seconds, run_dir)
    info["calibration"] = {"before": probe_before, "after": calibration()}
    record(run_dir, info, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
