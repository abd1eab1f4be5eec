"""Re-measure the ROADMAP "Open items" baselines with the harness's runner.

    python3 perfbench/baselines.py

Presets and validate runs are whole CLI jobs (argv to files on disk, as in
``run.py``); the spectrum and CSV lines time the library calls alone.  Each
line gives the median and the minimum of ``REPEATS`` runs, after one warm-up
call, so it can be set beside the ROADMAP's in-process best-of-N figures.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

import run
from workloads import Job

REPEATS = 7


def _stats(fn, repeats):
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), min(times)


def main() -> None:
    os.environ.pop(run.THREADS_ENV, None)
    program = run.load_program()
    from magnomech import csvio, presets, response, steady_state

    validate = [Job(key=f"validate --grid {g}", cfg="b0", grid=g, argv=(
        "validate", "--config", "{cfg}", "--grid", str(g)))
        for g in (2001, 20001)]
    jobs = [Job(key=f"preset {n}", argv=("preset", n))
            for n in ("fig2a", "fig3c", "fig5b", "fig8a", "fig8b")] + validate
    ws = run.Workspace(jobs)
    rows = []
    try:
        for job in jobs:
            med, best = _stats(lambda j=job: run.run_job(program, j, ws),
                               REPEATS)
            note = (f"{med / job.grid * 1e6:.1f} us per point"
                    if job.grid else "")
            rows.append((job.key, med, best, note))
        p = presets.get_preset("fig3c").resolve()
        state = steady_state.solve_steady_state(p)
        grid = np.linspace(0.0, 2.0 * p.omega_p, 2001)
        for name, fn in (("evaluate_spectrum, 2001 points",
                          lambda: response.evaluate_spectrum(p, state, grid)),
                         ("probe_response, 2001 points",
                          lambda: response.probe_response(p, state, grid))):
            med, best = _stats(fn, REPEATS)
            rows.append((name, med, best, ""))
        table = np.random.default_rng(0).standard_normal((200_000, 7))
        path = str(ws.dir / "rows.csv")
        med, best = _stats(lambda: csvio.write_csv(path, list("abcdefg"), table),
                           max(1, REPEATS // 3))
        rows.append(("write_csv, 200k rows x 7", med, best,
                     f"{200_000 / med:.0f} rows/s at the median"))
        setups = [run.setup_time(ws) for _ in range(run.SETUP_RUNS)]
        rows.append((f"raw set-up ({run.SETUP_RUNS} fresh processes)",
                     statistics.median(setups), min(setups), ""))
    finally:
        ws.close()
    print(f"machine: {run.machine_info(None)}")
    for name, med, best, note in rows:
        print(f"{name:48s} median {med * 1e3:9.1f} ms  min {best * 1e3:9.1f} ms"
              f"  {note}")


if __name__ == "__main__":
    main()
