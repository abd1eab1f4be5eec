"""Run the same CLI jobs from two checkouts and report every output that
differs.

    python3 tools/compare_outputs.py OLD_CHECKOUT NEW_CHECKOUT

Each checkout runs ``python -m magnomech.cli`` from its own ``src/``, one
process per job, in its own directory, on copies of NEW_CHECKOUT's
``docs/baseline.cfg`` and ``docs/microscopic.cfg``: both sides get the
same argv.  The jobs are every preset at its default grid and, on both
configs, ``spectrum`` (default grid and 20001 points), ``steady
--brange``, ``delay --sweep f`` (8193 points, past one ladder pass) and
``--sweep G_au``, ``windows``, a two-key ``sweep`` and ``validate``.

Per job it compares the exit code, stdout, stderr and every file the job
wrote: the CSV, the crossings CSV and the manifest, whose ``argv:`` line
is skipped.  It prints each file that differs with the first lines of its
diff and exits 1 if there is one, else prints the number of files compared
and exits 0.  The outputs live in a temporary directory that is removed.
"""

from __future__ import annotations

import argparse
import difflib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIGS = ("baseline", "microscopic")
DIFF_LINES = 6  # diff lines printed per differing file


def jobs(presets):
    """(name, argv) of every job, argv relative to the job directory."""
    out = [(f"preset-{name}", ["preset", name]) for name in presets]
    for cfg in CONFIGS:
        for name, extra in (
                ("spectrum", ["spectrum"]),
                ("spectrum-20001", ["spectrum", "--grid", "20001"]),
                ("steady", ["steady", "--brange", "1e-6:1e-4",
                            "--grid", "201"]),
                ("delay-f", ["delay", "--sweep", "f", "--grid", "8193"]),
                ("delay-G_au", ["delay", "--sweep", "G_au"]),
                ("windows", ["windows"]),
                ("sweep", ["sweep", "--set", "f_hz=0,1e6",
                           "--set", "G_au_hz=0,6e6", "--grid", "2001"]),
                ("validate", ["validate", "--grid", "5001"])):
            out.append((f"{cfg}-{name}", [*extra, "--config", f"{cfg}.cfg"]))
    return [(name, [*argv, "--out", f"{name}.csv"]) for name, argv in out]


def preset_names(checkout: Path) -> list[str]:
    """The checkout's preset names; exits if its ``magnomech`` is not the
    one that ``python`` imports from its ``src/`` (an installed copy that
    shadows it would compare a checkout with itself)."""
    code = ("import magnomech; from magnomech.presets import PRESETS; "
            "print(magnomech.__file__); print(*sorted(PRESETS))")
    where, names = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, env=_env(checkout)).stdout.splitlines()
    if Path(where).resolve().parent != (checkout / "src/magnomech").resolve():
        sys.exit(f"{checkout}: python imports magnomech from {where}")
    return names.split()


def _env(checkout: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "MAGNOMECH_THREADS"}
    env["PYTHONPATH"] = str(checkout.resolve() / "src")
    return env


def run_side(checkout: Path, configs: Path, work: Path, job_list) -> None:
    """Run every job of ``job_list`` with ``checkout``'s code in ``work``;
    each job's exit code, stdout and stderr go to NAME.exit/.stdout/.stderr
    beside its outputs."""
    for cfg in CONFIGS:
        shutil.copyfile(configs / f"{cfg}.cfg", work / f"{cfg}.cfg")
    env = _env(checkout)
    for name, argv in job_list:
        done = subprocess.run([sys.executable, "-m", "magnomech.cli", *argv],
                              cwd=work, env=env, capture_output=True)
        (work / f"{name}.exit").write_text(f"{done.returncode}\n")
        (work / f"{name}.stdout").write_bytes(done.stdout)
        (work / f"{name}.stderr").write_bytes(done.stderr)


def _content(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name.endswith(".manifest.txt"):
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(b"argv:"))
    return data


def differences(old: Path, new: Path) -> tuple[list[str], int]:
    """One report per file that is missing on a side or differs (then with
    the head of its diff), and the number of files compared."""
    names = sorted({p.name for p in old.iterdir()}
                   | {p.name for p in new.iterdir()})
    out = []
    for name in names:
        a, b = old / name, new / name
        if not (a.exists() and b.exists()):
            out.append(f"{name}: only in {'old' if a.exists() else 'new'}")
        elif _content(a) != _content(b):
            diff = list(difflib.unified_diff(
                *(_content(p).decode(errors="replace").splitlines()
                  for p in (a, b)), n=0, lineterm=""))
            out.append("\n    ".join([f"{name}: differs",
                                       *diff[2:2 + DIFF_LINES]]))
    return out, len(names)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="checkout of the parent")
    parser.add_argument("new", type=Path, help="checkout of the change")
    args = parser.parse_args(argv)
    for checkout in (args.old, args.new):
        if not (checkout / "src" / "magnomech").is_dir():
            parser.error(f"{checkout}: no src/magnomech")
    preset_names(args.old)
    job_list = jobs(preset_names(args.new))
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        root = Path(tmp)
        for side, checkout in (("old", args.old), ("new", args.new)):
            (root / side).mkdir()
            run_side(checkout, args.new / "docs", root / side, job_list)
        found, compared = differences(root / "old", root / "new")
    for line in found:
        print(line)
    print(f"{len(job_list)} jobs, {compared} files compared, "
          f"{len(found)} differ")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
