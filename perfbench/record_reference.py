"""Record reference.jsonl: output summaries of every catalogued job.

    python3 perfbench/record_reference.py

Run from the repository root at the commit whose outputs define
correctness.  Each job of ``workloads.catalogue`` runs once; its exit code,
first stderr line and the column summaries of ``checks.summarize_outputs``
are stored under the job's key, one job a line after a header line.  Validate jobs need no entry: their check
is the oracle tolerance itself.
"""

from __future__ import annotations

import json
import subprocess

import checks
import run
import workloads


def main() -> None:
    program = run.load_program()
    jobs = [j for w in workloads.WORKLOADS for j in workloads.catalogue(w)]
    ws = run.Workspace(jobs)
    entries = {}
    try:
        for job in jobs:
            _, code, stderr = run.run_job(program, job, ws)
            entry = {"exit": code}
            if code == 0:
                entry["files"] = checks.summarize_outputs(ws.out)
            else:
                entry["stderr"] = (stderr.strip().splitlines() or [""])[0]
            entries[job.key] = entry
    finally:
        ws.close()
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            cwd=run.ROOT, capture_output=True, text=True)
    with open(checks.REFERENCE, "w", encoding="utf-8") as fh:
        header = {"recorded_at": commit.stdout.strip() or "unknown"}
        fh.write(json.dumps(header) + "\n")
        for key, entry in sorted(entries.items()):
            fh.write(json.dumps({"key": key, **entry},
                                separators=(",", ":")) + "\n")
    print(f"recorded {len(entries)} jobs, "
          f"{sum(e['exit'] != 0 for e in entries.values())} failing")


if __name__ == "__main__":
    main()
