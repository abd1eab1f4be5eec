"""Seeded job lists for the three benchmark workloads.

A workload is a *round*: a fixed-length list of ``magnomech`` CLI jobs that
the runner repeats back to back.  The seed picks, slot by slot, among a
finite catalogue of options (perturbed configs, grids, ranges), so every
job a seed can produce is enumerable and has a recorded reference
(``catalogue``).  Grid sizes are drawn as seeded permutations of a fixed
multiset: every seed does the same amount of work per round, which keeps
the end-to-end figures comparable across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("spectra", "validate", "coupling_sweeps")

#: Percentile reported as ``job_s_tail``: the highest one with at least ten
#: jobs beyond it at the workload's minimum job count (``MIN_JOBS``).
TAIL_PERCENTILE = {"spectra": 90, "validate": 80, "coupling_sweeps": 90}
MIN_JOBS = {w: -(-10 * 100 // (100 - q)) for w, q in TAIL_PERCENTILE.items()}

# Perturbed configs: overrides on top of docs/baseline.cfg ("b*") and
# docs/microscopic.cfg ("m*"), in config-file units.
CONFIG_VARIANTS = {
    "b0": ("baseline", {}),
    "b1": ("baseline", {"g1_hz": 1.2e6, "g2_hz": 1.8e6, "f_hz": 1.0e6}),
    "b2": ("baseline", {"G_au_hz": 4.5e6, "G_np_hz": 3.0e6, "f_hz": 1.5e6}),
    "b3": ("baseline", {"delta_n1_hz": 10.5e6, "delta_n2_hz": 9.6e6,
                        "f_hz": 0.5e6}),
    "b4": ("baseline", {"g1_hz": 1.8e6, "G_au_hz": 7.0e6, "G_np_hz": 4.0e6}),
    "m0": ("microscopic", {}),
    "m1": ("microscopic", {"g_np_hz": 5e-4, "f_hz": 1.0e6}),
    "m2": ("microscopic", {"g_np_hz": 2e-3, "G_au_hz": 4.0e6}),
    "m3": ("microscopic", {"g2_hz": 1.2e6, "delta_n2_hz": 10.2e6}),
    # ROADMAP's documented steady-state failure: at g_np_hz = 5 the fixed
    # point does not converge at B_tesla = 1e-5 (unique root 4.6525e12).
    "m-g5": ("microscopic", {"g_np_hz": 5.0}),
}
BASE_VARIANTS = ("b0", "b1", "b2", "b3", "b4")
MICRO_VARIANTS = ("m0", "m1", "m2", "m3")

SPECTRUM_PRESETS = ("fig3a", "fig3b", "fig3c", "fig4a", "fig4b", "fig4c",
                    "fig6a", "fig6b", "fig7a", "fig7b")
FIG5_PRESETS = ("fig5a", "fig5b", "fig5c")
DELTA_RANGES = ("0:2", "0.25:1.75", "0.5:1.5")
SWEEP_SETS = (("g1_hz=1e6,1.5e6", "f_hz=0,1e6,2e6"),
              ("g2_hz=1e6,1.5e6", "G_au_hz=0,3e6,6e6"),
              ("G_np_hz=2e6,3.5e6", "f_hz=0,1e6,2e6"))
DELAY_RANGES = {"f": ("0:0.3", "0:0.2"), "G_au": ("0:0.6", "0:0.4")}
DELAY_DELTAS = ("1", "0.95")
DELAY_PRESET_RANGES = {"fig8a": ("0:0.3", "0.05:0.3"),
                       "fig8b": ("0:0.6", "0.1:0.6")}
B_RANGES = ("0:5e-5", "1e-6:4e-5", "0:3e-5")


@dataclass(frozen=True)
class Job:
    """One CLI call; ``argv`` holds ``{cfg}`` where the config path goes."""

    key: str
    argv: tuple[str, ...]
    cfg: str | None = None
    grid: int | None = None          # validate jobs: expected row count
    # a failure ROADMAP documents (stderr substring), and the value a
    # fixed program must produce instead: (row, column, value, rtol)
    known_failure: str = ""
    documented: tuple = field(default=())

    @property
    def kind(self) -> str:
        return self.argv[0]


def _preset(name, grid, rng_range):
    argv = ("preset", name)
    if grid is not None:
        argv += ("--grid", str(grid))
    argv += ("--range", rng_range)
    return Job(key=" ".join(argv), argv=argv)


def _with_cfg(cfg, *argv, **kw):
    full = (argv[0], "--config", "{cfg}") + argv[1:]
    key = f"{argv[0]} cfg={cfg} " + " ".join(argv[1:])
    return Job(key=key, argv=full, cfg=cfg, **kw)


def _steady_brange(cfg, grid, brange):
    return _with_cfg(cfg, "steady", "--brange", brange, "--grid", str(grid))


G5_JOB = _with_cfg("m-g5", "steady", "--brange", "1e-5:3e-5", "--grid", "201",
                   known_failure="did not converge",
                   documented=(0, "magnon_number", 4.6525e12, 1e-4))


def _spectra(rng: random.Random) -> list[Job]:
    # six 2001-point presets: the round's median job falls inside them,
    # not on the edge between them and the sweeps
    grids = [1601] + [2001] * 6 + [2401] * 3
    rng.shuffle(grids)
    jobs = [_preset(name, g, rng.choice(DELTA_RANGES))
            for name, g in zip(SPECTRUM_PRESETS, grids)]
    jobs += [_preset(name, None, rng.choice(DELTA_RANGES))
             for name in FIG5_PRESETS]
    g = rng.sample([1601, 2401], 2)
    jobs.append(_with_cfg(rng.choice(BASE_VARIANTS), "spectrum", "--grid",
                          str(g[0]), "--range", rng.choice(DELTA_RANGES)))
    jobs.append(_with_cfg(rng.choice(MICRO_VARIANTS), "spectrum", "--grid",
                          str(g[1]), "--range", rng.choice(DELTA_RANGES)))
    g = rng.sample([1601, 2401], 2)
    for k in range(2):
        jobs.append(_with_cfg(rng.choice(BASE_VARIANTS), "windows", "--grid",
                              str(g[k]), "--range",
                              rng.choice(DELTA_RANGES[:2])))
    for _ in range(2):
        s1, s2 = rng.choice(SWEEP_SETS)
        jobs.append(_with_cfg(rng.choice(BASE_VARIANTS), "sweep", "--grid",
                              "1001", "--set", s1, "--set", s2))
    return jobs


def _spectra_catalogue() -> list[Job]:
    jobs = [_preset(n, g, r) for n in SPECTRUM_PRESETS
            for g in (1601, 2001, 2401) for r in DELTA_RANGES]
    jobs += [_preset(n, None, r) for n in FIG5_PRESETS for r in DELTA_RANGES]
    for variants in (BASE_VARIANTS, MICRO_VARIANTS):
        jobs += [_with_cfg(c, "spectrum", "--grid", str(g), "--range", r)
                 for c in variants for g in (1601, 2401) for r in DELTA_RANGES]
    jobs += [_with_cfg(c, "windows", "--grid", str(g), "--range", r)
             for c in BASE_VARIANTS for g in (1601, 2401)
             for r in DELTA_RANGES[:2]]
    jobs += [_with_cfg(c, "sweep", "--grid", "1001", "--set", s1, "--set", s2)
             for c in BASE_VARIANTS for s1, s2 in SWEEP_SETS]
    return jobs


# p80 and p50 fall mid-way into the 20001 and 5001 groups
VALIDATE_GRIDS = [20001] * 4 + [5001] * 3 + [2001] * 2 + [1001]
VALIDATE_CONFIGS = ("b1", "b2", "b3", "b4", "m1", "m2", "m3")


def _validate(rng: random.Random) -> list[Job]:
    grids = list(VALIDATE_GRIDS)
    rng.shuffle(grids)
    cfgs = ["b0", "m0"] + [rng.choice(VALIDATE_CONFIGS)
                           for _ in range(len(grids) - 2)]
    return [_with_cfg(c, "validate", "--grid", str(g), "--range",
                      rng.choice(DELTA_RANGES), grid=g)
            for c, g in zip(cfgs, grids)]


def _delay_preset(name, rng_range):
    argv = ("preset", name, "--range", rng_range)
    return Job(key=" ".join(argv), argv=argv)


def _steady_preset(name, grid, brange):
    argv = ("preset", name, "--grid", str(grid), "--brange", brange)
    return Job(key=" ".join(argv), argv=argv)


def _delay(cfg, sweep, grid, rng_range, delta):
    return _with_cfg(cfg, "delay", "--sweep", sweep, "--grid", str(grid),
                     "--range", rng_range, "--delta", delta)


def _coupling_sweeps(rng: random.Random) -> list[Job]:
    jobs = [_delay_preset(n, rng.choice(DELAY_PRESET_RANGES[n]))
            for n in ("fig8a", "fig8b")]
    # eight delay and six steady jobs, so that the median and p90 job fall
    # inside groups of similar jobs for every seed
    grids = [81, 121, 121, 161] * 2
    rng.shuffle(grids)
    for sweep, grid in zip(("f", "f", "G_au", "G_au") * 2, grids):
        jobs.append(_delay(rng.choice(BASE_VARIANTS), sweep, grid,
                           rng.choice(DELAY_RANGES[sweep]),
                           rng.choice(DELAY_DELTAS)))
    g = rng.sample([201, 401], 2)
    jobs += [_steady_preset(n, gn, rng.choice(B_RANGES))
             for n, gn in zip(("fig2a", "fig2b"), g)]
    grids = [2001, 1001, 1001] * 2
    rng.shuffle(grids)
    jobs += [_steady_brange(rng.choice(MICRO_VARIANTS), grid,
                            rng.choice(B_RANGES)) for grid in grids]
    jobs.append(G5_JOB)
    return jobs


def _coupling_sweeps_catalogue() -> list[Job]:
    jobs = [_delay_preset(n, r) for n in ("fig8a", "fig8b")
            for r in DELAY_PRESET_RANGES[n]]
    jobs += [_delay(c, s, g, r, d) for c in BASE_VARIANTS
             for s in ("f", "G_au") for g in (81, 121, 161)
             for r in DELAY_RANGES[s] for d in DELAY_DELTAS]
    jobs += [_steady_preset(n, g, b) for n in ("fig2a", "fig2b")
             for g in (201, 401) for b in B_RANGES]
    jobs += [_steady_brange(c, g, b) for c in MICRO_VARIANTS
             for g in (1001, 2001) for b in B_RANGES]
    jobs.append(G5_JOB)
    return jobs


_BUILDERS = {"spectra": _spectra, "validate": _validate,
             "coupling_sweeps": _coupling_sweeps}


def job_list(workload: str, seed: int) -> list[Job]:
    """The seeded round of jobs; the same seed always gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = _BUILDERS[workload](rng)
    rng.shuffle(jobs)
    return jobs


def catalogue(workload: str) -> list[Job]:
    """Every job ``job_list`` can produce (validate needs no reference)."""
    if workload == "spectra":
        return _spectra_catalogue()
    if workload == "coupling_sweeps":
        return _coupling_sweeps_catalogue()
    return []


def config_text(variant: str, docs: dict[str, str]) -> str:
    """docs/<base>.cfg with the variant's keys replaced or appended."""
    base, overrides = CONFIG_VARIANTS[variant]
    lines = []
    pending = dict(overrides)
    for line in docs[base].splitlines():
        key = line.split("#", 1)[0].partition("=")[0].strip()
        if key in pending:
            line = f"{key} = {pending.pop(key)!r}"
        lines.append(line)
    lines += [f"{k} = {v!r}" for k, v in pending.items()]
    return "\n".join(lines) + "\n"


def used_configs(jobs) -> list[str]:
    return sorted({j.cfg for j in jobs if j.cfg is not None})

