"""Correctness check of one job's outputs against a compact reference.

The reference (``reference.jsonl``, written by ``record_reference.py``)
holds, per job and one job a line, a summary of every numeric column by name: with at most
``FULL_ROWS`` rows the values themselves, otherwise the count of finite
values, their sum, their absolute sum and an index-weighted sum, plus the
sum and absolute sum of every bin of ``BIN_ROWS`` contiguous rows.  A bin's
difference is measured against that bin's absolute sum, so a defect in a
few rows is measured against the local scale, not the whole column's.
Outputs are compared by column name at a per-column tolerance, never by
bytes, so declared output changes (an exact group delay, a steady-state
root column) pass while a perturbed value or a reordered grid does not.
"""

from __future__ import annotations

import json
import math
import os
import re
import warnings
from pathlib import Path

import numpy as np

FULL_ROWS = 64
BIN_ROWS = 64
#: A bin's scale is its absolute sum, but at least this share of the mean
#: bin's, so a bin of near-zero values is not held to rounding noise.
LOCAL_FLOOR = 1e-3
#: Closed-form columns: far above the last-digit changes of reordered
#: arithmetic, far below any physics change.
RTOL = 1e-8
#: tau_s: the finite-difference tau differs from the exact (resolvent)
#: derivative by up to 1.6e-3 of a bin's absolute sum, on microscopic-config
#: spectra at the default step, where the phonon line is 628 rad/s wide;
#: 5e-3 accepts either with room.
TAU_RTOL = 5e-3
#: Crossing values are bisected to 1e-4 relative resolution.
CROSSING_RTOL = 2e-4
#: Bookkeeping columns that planned changes redefine.
SKIP_COLUMNS = frozenset({"iterations", "rel_dev"})
ORACLE_TOLERANCE = 1e-9
REFERENCE = Path(__file__).resolve().parent / "reference.jsonl"
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_REL_DEV = re.compile(r"max_rel_dev=([-+0-9.eEinfa]+)")
_COMMENT = re.compile(r"^#.*$", re.MULTILINE)


def load_reference(keys=None) -> dict:
    """Reference entries by job key: those in ``keys``, or all of them.

    A line is parsed only when its key is wanted, so the run's memory
    high-water mark holds only the entries of its own jobs.
    """
    entries = {}
    with open(REFERENCE, encoding="utf-8") as fh:
        next(fh)                                # {"recorded_at": ...}
        for line in fh:
            # each line starts {"key":"<key>","exit":
            key = json.loads(line.partition(',"exit":')[0][len('{"key":'):])
            if keys is None or key in keys:
                entries[key] = json.loads(line)
                del entries[key]["key"]
    return entries


def read_csv(path):
    """(header, numeric-or-string columns by name, row count, comments).

    Numeric files are parsed by numpy's C reader, so a check adds little
    to the process's memory high-water mark.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    header = text.partition("\n")[0].split(",")
    comments = _COMMENT.findall(text)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")     # header-only files
            table = np.loadtxt(path, delimiter=",", skiprows=1, comments="#",
                               ndmin=2)
    except ValueError:                          # a text column
        cells = [ln.split(",") for ln in text.splitlines()[1:]
                 if ln and not ln.startswith("#")]
        columns = {}
        for k, name in enumerate(header):
            raw = [row[k] for row in cells]
            try:
                columns[name] = np.array(raw, dtype=float)
            except ValueError:
                columns[name] = raw
        return header, columns, len(cells), comments
    if table.size and table.shape[1] != len(header):
        raise ValueError(f"{path}: {table.shape[1]} columns, header has "
                         f"{len(header)}")
    columns = {name: (table[:, k] if table.size else np.empty(0))
               for k, name in enumerate(header)}
    return header, columns, table.shape[0] if table.size else 0, comments


def _summary(x: np.ndarray) -> list[float]:
    finite = np.isfinite(x)
    v = np.where(finite, x, 0.0)
    w = (np.arange(x.size) * _GOLDEN) % 1.0
    return [int(finite.sum()), float(v.sum()), float(np.abs(v).sum()),
            float(w @ v)]


def _bins(x: np.ndarray) -> list[list[float]]:
    """[sum, absolute sum] of the finite values of each bin, 10 digits."""
    v = np.where(np.isfinite(x), x, 0.0)
    edges = np.arange(0, v.size, BIN_ROWS)
    return [[float(f"{s:.10g}"), float(f"{a:.10g}")] for s, a in
            zip(np.add.reduceat(v, edges), np.add.reduceat(np.abs(v), edges))]


def summarize_file(path) -> dict:
    _, columns, rows, _ = read_csv(path)
    cols = {}
    for name, values in columns.items():
        if name in SKIP_COLUMNS:
            continue
        if isinstance(values, list):
            cols[name] = {"text": values}
        elif rows <= FULL_ROWS:
            cols[name] = {"values": [float(v) for v in values]}
        else:
            cols[name] = {"sum": _summary(values), "bins": _bins(values)}
    return {"rows": rows, "cols": cols}


def output_paths(out: str) -> dict[str, str]:
    return {"csv": out, "crossings": out + ".crossings.csv",
            "manifest": out + ".manifest.txt"}


def summarize_outputs(out: str) -> dict:
    paths = output_paths(out)
    files = {"csv": summarize_file(paths["csv"])}
    if os.path.exists(paths["crossings"]):
        files["crossings"] = summarize_file(paths["crossings"])
    return files


def tolerance(file: str, column: str) -> float:
    if column == "tau_s":
        return TAU_RTOL
    if file == "crossings" and column == "value":
        return CROSSING_RTOL
    return RTOL


def compare_files(ref: dict, got: dict) -> list[str]:
    """Problems found comparing output summaries with their reference."""
    problems = []
    for file, rf in ref.items():
        gf = got.get(file)
        if gf is None:
            problems.append(f"{file}: missing")
            continue
        if gf["rows"] != rf["rows"]:
            problems.append(f"{file}: {gf['rows']} rows, expected {rf['rows']}")
            continue
        for col, rc in rf["cols"].items():
            gc = gf["cols"].get(col)
            where = f"{file}:{col}"
            if gc is None or set(gc) != set(rc):
                problems.append(f"{where}: missing or of another type")
                continue
            tol = tolerance(file, col)
            if "text" in rc:
                if gc["text"] != rc["text"]:
                    problems.append(f"{where}: text differs")
            elif "values" in rc:
                a, b = np.array(gc["values"]), np.array(rc["values"])
                if not np.array_equal(np.isfinite(a), np.isfinite(b)):
                    problems.append(f"{where}: non-finite values moved")
                    continue
                f = np.isfinite(b)
                scale = max(float(np.max(np.abs(b[f]), initial=0.0)), 1e-300)
                worst = float(np.max(np.abs(a[f] - b[f]), initial=0.0)) / scale
                if worst > tol:
                    problems.append(f"{where}: deviates by {worst:.2e} "
                                    f"(tolerance {tol:g})")
            else:
                (gn, *gs), (rn, *rs) = gc["sum"], rc["sum"]
                if gn != rn:
                    problems.append(f"{where}: {gn} finite values, "
                                    f"expected {rn}")
                    continue
                scale = max(abs(rs[1]), 1e-300)
                worst = max(abs(g - r) for g, r in zip(gs, rs)) / scale
                worst = max(worst, _worst_bin(gc["bins"], rc["bins"],
                                              rs[1], gf["rows"]))
                if worst > tol:
                    problems.append(f"{where}: deviates by {worst:.2e} "
                                    f"(tolerance {tol:g})")
    return problems


def _worst_bin(got, ref, column_abs: float, rows: int) -> float:
    """Largest bin difference over that bin's (floored) absolute sum."""
    g, r = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    if g.shape != r.shape:
        return math.inf
    floor = LOCAL_FLOOR * column_abs * BIN_ROWS / rows
    scale = np.maximum(np.maximum(r[:, 1], floor), 1e-300)
    return float(np.max(np.abs(g - r).max(axis=1) / scale, initial=0.0))


def _validate_problems(job, out: str, manifest_text: str):
    """(row count, problems) of a validate job's CSV and summary."""
    _, columns, rows, comments = read_csv(out)
    problems = []
    if rows != job.grid:
        problems.append(f"validate: {rows} rows, expected {job.grid}")
    found = _MAX_REL_DEV.findall("\n".join(comments) + "\n" + manifest_text)
    if not found:
        problems.append("validate: no max_rel_dev summary")
    elif not float(found[0]) < ORACLE_TOLERANCE:
        problems.append(f"validate: max_rel_dev={found[0]} "
                        f"not below {ORACLE_TOLERANCE:g}")
    lo, hi = map(float, job.argv[job.argv.index("--range") + 1].split(":"))
    delta = columns.get("delta_over_omega_p")
    if not isinstance(delta, np.ndarray) or delta.size != rows:
        problems.append("validate: delta_over_omega_p column missing")
    elif not np.allclose(delta, np.linspace(lo, hi, rows), rtol=0.0,
                         atol=RTOL * max(abs(lo), abs(hi))):
        problems.append(f"validate: delta_over_omega_p is not the grid "
                        f"{lo:g}:{hi:g}")
    dev = columns.get("rel_dev")
    if isinstance(dev, np.ndarray) and dev.size and not np.max(dev) < ORACLE_TOLERANCE:
        problems.append(f"validate: rel_dev column reaches {np.max(dev):.3e}")
    return rows, problems


def _documented_problems(job, out: str) -> list[str]:
    """A job that failed when the reference was recorded now succeeds."""
    _, columns, _, _ = read_csv(out)
    problems = []
    m, re_n, im_n = (columns.get(k) for k in
                     ("magnon_number", "re_n2s", "im_n2s"))
    if all(isinstance(c, np.ndarray) for c in (m, re_n, im_n)):
        if not np.allclose(m, re_n ** 2 + im_n ** 2, rtol=1e-9, atol=0.0):
            problems.append("steady: magnon_number != |n2s|^2")
    if job.documented:
        row, col, value, rtol = job.documented
        got = columns.get(col)
        if not isinstance(got, np.ndarray) or got.size <= row:
            problems.append(f"{col}: missing row {row}")
        elif not abs(got[row] - value) <= rtol * abs(value):
            problems.append(f"{col}[{row}] = {got[row]:.6e}, documented "
                            f"{value:.6e}")
    return problems


def check_job(job, exit_code, stderr: str, out: str, ref: dict | None,
              parse_config):
    """Return (status, output rows, problems); status is "ok",
    "known_failure" (the failure ``job.known_failure`` documents, as the
    reference recorded it) or "failed"."""
    if exit_code != 0:
        if (job.known_failure and job.known_failure in stderr
                and ref is not None and ref.get("exit") == exit_code):
            return "known_failure", 0, []
        last = stderr.strip().splitlines()[-1:] or [""]
        return "failed", 0, [f"exit {exit_code}: {last[0]}"]

    paths = output_paths(out)
    if not os.path.exists(paths["csv"]) or not os.path.exists(paths["manifest"]):
        return "failed", 0, ["CSV or manifest missing"]
    with open(paths["manifest"], encoding="utf-8") as fh:
        manifest_text = fh.read()
    problems = []
    try:
        parse_config(manifest_text)
    except Exception as exc:   # any rejection means the manifest cannot rerun
        problems.append(f"manifest does not re-parse: {exc}")
    if job.kind == "validate":
        rows, found = _validate_problems(job, out, manifest_text)
        problems += found
    else:
        got = summarize_outputs(out)
        rows = got["csv"]["rows"]
        if ref is None:
            problems.append("no reference for this job")
        elif ref.get("exit") == 0:
            problems += compare_files(ref["files"], got)
        else:
            problems += _documented_problems(job, out)
    return ("failed" if problems else "ok"), rows, problems
