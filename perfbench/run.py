"""End-to-end and per-layer benchmark of the magnomech CLI.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 20 --trace 0

Run from the repository root.  One process runs the workload's seeded job
list (``workloads.py``) back to back, round after round, each job a
``magnomech.cli.run(argv)`` call timed from argv until its CSV, crossings
CSV and manifest are on disk.  A calibration sample precedes and follows
every job, and each job's time is scaled to reference seconds by the host
speed they show (``calibrate.py``).  Every job's outputs are checked
(``checks.py``).  With ``--trace 0`` the last line of output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of ``tracing.py``, from rounds traced in alternation with
untraced ones.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import calibrate
import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
THREADS_ENV = "MAGNOMECH_THREADS"
#: Minimum number of set-up processes whose median is setup_s.
SETUP_RUNS = 9
#: A run stops starting rounds after this long, so it ends within 180 s
#: even on a much slower program (the tail then has fewer jobs beyond it).
HARD_STOP_S = 120.0

_SETUP_CODE = """\
import sys
import magnomech
from magnomech.params import parse_config
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        parse_config(fh.read())
"""


def load_program():
    """Import magnomech from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "magnomech" / "__init__.py").is_file():
        raise SystemExit(f"error: no magnomech sources under {src}")
    sys.path.insert(0, str(src))
    import magnomech
    import magnomech.cli
    import magnomech.params
    if src not in Path(magnomech.__file__).resolve().parents:
        raise SystemExit(f"error: magnomech imported from {magnomech.__file__}")
    return magnomech


def program_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop(THREADS_ENV, None)
    return env


class Workspace:
    """Scratch directory inside the checkout: configs and one output slot."""

    def __init__(self, jobs):
        docs = {name: (ROOT / "docs" / f"{name}.cfg").read_text(encoding="utf-8")
                for name in ("baseline", "microscopic")}
        self.dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        self.configs = {}
        for variant in workloads.used_configs(jobs):
            path = self.dir / f"{variant}.cfg"
            path.write_text(workloads.config_text(variant, docs),
                            encoding="utf-8")
            self.configs[variant] = str(path)
        self.out = str(self.dir / "out.csv")

    def clear_outputs(self) -> None:
        for path in checks.output_paths(self.out).values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def job_argv(job, ws: Workspace) -> list[str]:
    cfg = ws.configs.get(job.cfg, "")
    return [a.replace("{cfg}", cfg) for a in job.argv] + ["--out", ws.out]


def run_job(program, job, ws: Workspace, tracer=None):
    """Run one job; return (seconds, exit code or None, stderr text)."""
    argv = job_argv(job, ws)
    ws.clear_outputs()
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.install()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            root = tracer.open("cli.run") if tracer is not None else None
            try:
                code = program.cli.run(argv)
            except Exception:   # a crash is a failed job, not a failed run
                code = None
                err.write(traceback.format_exc())
            finally:
                if tracer is not None:
                    tracer.close(root)
            elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return elapsed, code, err.getvalue()


class Tally:
    """Job outcomes of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0          # unexpected: wrong output, crash, bad exit
        self.known = 0           # failures ROADMAP documents
        self.unreached: list[str] = []   # traced run: wiring self-check
        self.problems: list[str] = []

    def add(self, job, status, problems) -> None:
        self.attempted += 1
        if status == "failed":
            self.failed += 1
            self.problems += [f"{job.key}: {p}" for p in problems]
        elif status == "known_failure":
            self.known += 1


def run_round(program, jobs, ws, reference, tally, tracer=None, spans_out=None):
    """Run and check every job once.

    Returns (wall seconds, reference seconds, points, status) of each job.
    """
    records = []
    before = calibrate.sample()
    for job in jobs:
        if tracer is not None:
            tracer.job = tally.attempted
        elapsed, code, stderr = run_job(program, job, ws, tracer)
        after = calibrate.sample()
        factor = calibrate.speed_factor(before, after)
        before = after
        status, points, problems = checks.check_job(
            job, code, stderr, ws.out, reference.get(job.key),
            program.params.parse_config)
        tally.add(job, status, problems)
        if tracer is not None:
            tracer.fold(points, spans_out)
        records.append((elapsed, elapsed * factor, points, status))
    ws.clear_outputs()
    return records


def setup_time(ws: Workspace) -> float:
    """Wall time of a fresh interpreter importing magnomech and parsing
    the workload's configs."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", _SETUP_CODE, *ws.configs.values()],
                   cwd=ROOT, env=program_env(), check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def setup_sample(ws: Workspace) -> float:
    """``setup_time`` in reference seconds, scaled by fresh numpy imports
    timed just before and just after it."""
    before = calibrate.import_sample(program_env(), ROOT)
    setup = setup_time(ws)
    after = calibrate.import_sample(program_env(), ROOT)
    return setup * calibrate.IMPORT_REFERENCE_S / ((before + after) / 2.0)


def machine_info(threads_was) -> dict:
    blas = {}
    with contextlib.suppress(Exception):   # the layout varies by numpy version
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: info.get(k) for k in ("name", "version")}
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "machine": platform.machine(),
            THREADS_ENV: "unset" if threads_was is None
            else f"removed (was {threads_was!r})"}


def end_to_end(program, jobs, ws, reference, tally, workload, seconds):
    """Timed rounds until ``seconds`` of job time and ``MIN_JOBS`` jobs.

    Job times are in reference seconds, scaled by their own speed factor;
    set-up times are scaled by their own calibration imports.  Set-up
    processes run between rounds, spaced evenly over the job time, so set-up
    time is sampled across the run rather than in one burst.
    """
    run_round(program, jobs, ws, reference, tally)           # warm-up, checked
    records, setups = [], []
    next_setup = 0.0
    wall = time.perf_counter()
    while True:
        records += run_round(program, jobs, ws, reference, tally)
        busy = sum(r[0] for r in records)
        if busy >= next_setup:
            setups.append(setup_sample(ws))
            next_setup = busy + seconds / SETUP_RUNS
        if busy >= seconds and len(records) >= workloads.MIN_JOBS[workload]:
            break
        if time.perf_counter() - wall > HARD_STOP_S:
            break
    while len(setups) < SETUP_RUNS:
        setups.append(setup_sample(ws))
    times = [r[1] for r in records]
    q = workloads.TAIL_PERCENTILE[workload]
    ok = sum(1 for r in records if r[3] == "ok")
    failed_frac = 1.0 - ok / len(records)
    info = {"jobs_timed": len(records), "rounds": len(records) // len(jobs),
            "setup_runs": len(setups), "tail_percentile": q,
            "wall_s": round(busy, 3),
            "speed_factor": round(sum(times) / busy, 4),
            "failed_frac": failed_frac, "known_failures": tally.known}
    metrics = {
        "points_per_s": (sum(r[2] for r in records) / sum(times), "1/s"),
        "job_s_p50": (float(np.percentile(times, 50)), "s"),
        "job_s_tail": (float(np.percentile(times, q)), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "ok_frac": (1.0 - failed_frac, "1"),
    }
    return metrics, info


def per_layer(program, jobs, ws, reference, tally, workload, seconds,
              spans_path=None):
    """Rounds traced in alternation with untraced ones, until ``seconds``
    of job time; traced outputs get the same check as untraced ones."""
    tracer = tracing.Tracer()
    run_round(program, jobs, ws, reference, tally)           # warm-up, checked
    busy = {False: 0.0, True: 0.0}
    rounds = 0
    wall = time.perf_counter()
    spans_out = open(spans_path, "w", encoding="utf-8") if spans_path else None
    try:
        while True:
            order = (False, True) if rounds % 2 == 0 else (True, False)
            for traced in order:
                records = run_round(program, jobs, ws, reference, tally,
                                    tracer if traced else None, spans_out)
                busy[traced] += sum(r[1] for r in records)
            rounds += 1
            if sum(busy.values()) >= seconds:
                break
            if time.perf_counter() - wall > HARD_STOP_S:
                break
    finally:
        if spans_out is not None:
            spans_out.close()
    metrics = tracer.metrics(rounds)
    metrics["trace_overhead"] = busy[True] / busy[False]
    # A wrapper never reached is bound to a dead alias, or its function is
    # no longer called: the run fails.  An absent function is only reported.
    tally.unreached = tracer.unreached(workload)
    tally.problems += [f"wrapper {name}: never reached"
                       for name in tally.unreached]
    info = {"traced_rounds": rounds, "absent": tracer.absent,
            "unreached": tally.unreached,
            "hook_errors": dict(tracer.hook_errors)}
    return {k: (v, _unit(k)) for k, v in metrics.items()}, info


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name == "trace_overhead" or name.endswith(("per_output", "max_rel_dev",
                                                  "max_residual")):
        return "1"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="with --trace 1: write every span as JSON lines")
    args = parser.parse_args(argv)

    threads_was = os.environ.pop(THREADS_ENV, None)
    program = load_program()
    jobs = workloads.job_list(args.workload, args.seed)
    reference = checks.load_reference({job.key for job in jobs})
    ws = Workspace(jobs)
    tally = Tally()
    try:
        if args.trace:
            metrics, info = per_layer(program, jobs, ws, reference, tally,
                                      args.workload, args.seconds, args.spans)
        else:
            metrics, info = end_to_end(program, jobs, ws, reference, tally,
                                       args.workload, args.seconds)
    finally:
        ws.close()

    print("machine: " + json.dumps(machine_info(threads_was)))
    print(f"workload: {args.workload} seed={args.seed} jobs/round={len(jobs)} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:.6g} {unit}")
    for problem in tally.problems:
        print("FAILED " + problem)
    result = {
        "correct": tally.failed == 0 and not tally.unreached,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
