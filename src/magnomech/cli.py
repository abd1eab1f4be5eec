"""Command-line front end: presets, custom runs, validation, CSV output.

Exit codes: 0 success, 1 validation or residual failure, 2 usage error.
Every run writes a manifest next to its output; the manifest parses as a
config document, so re-running from it reproduces the same parameters.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, csvio, oracle, presets, response, steady_state
from .errors import SimulatorError
from .params import TWO_PI, SystemParams, apply_override, parse_config, serialize_config

SPECTRUM_HEADER = ["delta_over_omega_p", "re_eout", "im_eout",
                   "re_t", "im_t", "t2", "tau_s"]
STEADY_HEADER = ["B_tesla", "magnon_number", "re_n2s", "im_n2s",
                 "delta_n2_eff", "roots"]
WINDOWS_HEADER = ["center_delta_over_omega_p", "depth", "left_peak",
                  "right_peak", "asymmetry"]
CROSSINGS_HEADER = ["parameter", "value", "direction"]

ORACLE_TOLERANCE = 1e-9


def _range_type(text: str) -> tuple[float, float]:
    try:
        lo, _, hi = text.partition(":")
        lo_f, hi_f = float(lo), float(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected LO:HI, got {text!r}") from None
    if not (math.isfinite(lo_f) and math.isfinite(hi_f)):
        raise argparse.ArgumentTypeError(f"range bounds must be finite: {text!r}")
    if hi_f <= lo_f:
        raise argparse.ArgumentTypeError(f"range must satisfy LO < HI: {text!r}")
    return lo_f, hi_f


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


def _prominence_type(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(
            f"expected a prominence in (0, 1), got {text!r}")
    return value


def _set_type(text: str) -> tuple[str, list[float]]:
    key, sep, values = text.partition("=")
    if not sep or not values:
        raise argparse.ArgumentTypeError(
            f"expected KEY=V1,V2,..., got {text!r}")
    try:
        parsed = [float(v) for v in values.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"non-numeric sweep value in {text!r}") from None
    return key.strip(), parsed


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: each parse_args call fills a fresh
    namespace, so reusing it carries nothing from one run to the next."""
    parser = argparse.ArgumentParser(
        prog="magnomech",
        description="Probe spectroscopy of a two-cavity magnomechanical "
                    "system: spectra, steady states, group delay, windows, "
                    "and oracle validation.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp, out_required=True, sweep_range=True):
        sp.add_argument("--out", required=out_required,
                        help="output CSV path")
        sp.add_argument("--grid", type=_positive_int, default=None,
                        help="number of sweep points")
        if sweep_range:
            sp.add_argument("--range", type=_range_type, default=None,
                            dest="sweep_range", metavar="LO:HI",
                            help="sweep range in omega_p units")

    def with_config(sp, **kw):
        sp.add_argument("--config", required=True, help="config file path")
        common(sp, **kw)
        sp.add_argument("--mode", choices=["effective", "microscopic"],
                        default=None, help="override the coupling mode")

    with_config(sub.add_parser("spectrum", help="probe response over a "
                                                "detuning grid"))
    sp = sub.add_parser("steady", help="steady magnon number over a drive "
                                       "field grid")
    with_config(sp, sweep_range=False)
    sp.add_argument("--brange", type=_range_type, default=None,
                    metavar="LO:HI", help="drive field range in tesla")

    sp = sub.add_parser("delay", help="group delay along a coupling sweep "
                                      "at fixed probe detuning")
    with_config(sp)
    sp.add_argument("--sweep", choices=["f", "G_au"], required=True,
                    help="coupling to sweep")
    sp.add_argument("--delta", type=float, default=1.0,
                    help="probe detuning in omega_p units (default 1)")

    sp = sub.add_parser("windows", help="transparency-window census of the "
                                        "absorption spectrum")
    with_config(sp)
    sp.add_argument("--prominence", type=_prominence_type, default=0.1,
                    help="window prominence relative to the absorption "
                         "maximum (default 0.1)")

    sp = sub.add_parser("sweep", help="spectra over a 1- or 2-parameter "
                                      "Cartesian sweep")
    with_config(sp)
    sp.add_argument("--set", type=_set_type, action="append", required=True,
                    dest="sweep_sets", metavar="KEY=V1,V2,...",
                    help="config key and comma-separated values (file "
                         "units); repeat once for a second parameter")

    with_config(sub.add_parser("validate", help="closed form vs direct-solve "
                                                "cross-validation"),
                out_required=False)

    sp = sub.add_parser("preset", help="run a named figure preset")
    sp.add_argument("name", choices=sorted(presets.PRESETS),
                    metavar="NAME", help="preset name, e.g. fig3c")
    common(sp)
    sp.add_argument("--brange", type=_range_type, default=None,
                    metavar="LO:HI", help="drive field range in tesla "
                                          "(steady presets)")
    return parser


def _load_params(args) -> SystemParams:
    path = Path(args.config)
    p = parse_config(path.read_text(encoding="utf-8"))
    if args.mode is not None:
        p = apply_override(p, "coupling_mode", args.mode)
    return p


def _axis(args, kind, default=None) -> tuple[float, float, int]:
    """(lo, hi, points) of a run's sweep axis: the range option and --grid
    where given, else ``default``, else the kind's entry in presets.AXES."""
    lo, hi, n = default or presets.AXES[kind]
    given = args.brange if kind == "steady" else args.sweep_range
    lo, hi = given or (lo, hi)
    return lo, hi, args.grid or n


def _omega_p_grid(p: SystemParams, lo, hi, n) -> np.ndarray:
    return np.linspace(lo * p.omega_p, hi * p.omega_p, n)


def _write_manifest(out_path: str, argv, p: SystemParams, run_notes) -> None:
    lines = ["magnomech run manifest", f"argv: {' '.join(argv)}", *run_notes]
    text = "".join(f"# {line}\n" for line in lines) + serialize_config(p)
    Path(str(out_path) + ".manifest.txt").write_text(text, encoding="utf-8",
                                                     newline="")


def _write_spectra(out, p: SystemParams, tag_names, curves) -> list[str]:
    """Spectrum table of every (tags, Spectrum) curve; returns the note
    counting unreliable group-delay points over all curves."""
    curves = list(curves)
    csvio.write_csv(out, tag_names + SPECTRUM_HEADER, (
        (tags, (s.delta / p.omega_p, s.eout.real, s.eout.imag, s.t.real,
                s.t.imag, s.t2, s.tau)) for tags, s in curves))
    unreliable = sum(np.count_nonzero(~s.tau_reliable) for _, s in curves)
    return [f"spectrum: unreliable_points={unreliable}"]


def _cmd_spectrum(args, argv) -> int:
    p = _load_params(args)
    lo, hi, n = _axis(args, "spectrum")
    state = steady_state.solve_steady_state(p)
    spectrum = response.evaluate_spectrum(p, state,
                                          _omega_p_grid(p, lo, hi, n))
    notes = [f"run: spectrum grid={n} range={lo:g}:{hi:g}"]
    notes += _write_spectra(args.out, p, [], [((), spectrum)])
    _write_manifest(args.out, argv, p, notes)
    return 0


def _write_steady(out, b_grid: np.ndarray, tag_names, curves) -> list[str]:
    """Steady table of every (tags, SteadyState) curve over ``b_grid``;
    returns the monotone and residual notes over all curves."""
    curves = list(curves)
    csvio.write_csv(out, tag_names + STEADY_HEADER, (
        (tags, (b_grid, s.magnon_number, s.n2s.real, s.n2s.imag,
                s.delta_n2_eff, s.roots)) for tags, s in curves))
    increasing = b_grid.size > 1 and all(
        bool(np.all(np.diff(s.magnon_number) > 0.0)) for _, s in curves)
    bistable = sum(np.count_nonzero(s.roots == 3) for _, s in curves)
    worst = max(np.max(s.residual) for _, s in curves)
    return [f"monotone: strictly_increasing={increasing} "
            f"bistable_points={bistable}",
            f"steady: max_residual={csvio.fmt(worst)}"]


def _cmd_steady(args, argv) -> int:
    if args.grid is not None and args.brange is None:
        print("error: steady takes --grid only with --brange", file=sys.stderr)
        return 2
    p = _load_params(args)
    # without --brange: the one point at the config's drive field
    lo, hi, n = _axis(args, "steady",
                      None if args.brange else (p.B_field, p.B_field, 1))
    grid = np.linspace(lo, hi, n)
    notes = [f"run: steady points={n} brange={lo:g}:{hi:g}"]
    notes += _write_steady(args.out, grid, [], [
        ((), steady_state.magnon_number_sweep(p, grid))])
    _write_manifest(args.out, argv, p, notes)
    return 0


def _write_delays(out, p: SystemParams, parameter, tag_names, curves,
                  name=None) -> list[str]:
    """Delay table and crossings file of every (tags, CrossingReport)
    curve.  Prints each crossing, and each discarded bracket on stderr;
    a tagged curve's lines start with the preset ``name`` and its tag.
    Returns the crossing-count note over all curves."""
    blocks, crossing_blocks = [], []
    found = discarded = 0
    for tags, report in curves:
        blocks.append((tags, (report.values, report.values / p.omega_p,
                              report.tau)))
        cs = report.crossings     # each crossing in rad/s, then in Hz
        crossing_blocks.append((tags, (
            [f"{c.parameter}_{u}" for c in cs for u in ("rad_per_s", "hz")],
            [v for c in cs for v in (c.value, c.value / TWO_PI)],
            np.repeat([c.direction for c in cs], 2))))
        label = f"{name} {tag_names[0]}={csvio.fmt(tags[0])}: " if tags else ""
        for c in report.crossings:
            at = (f"{c.value:.6e} rad/s ({c.value / TWO_PI:.6e} Hz), "
                  f"{c.direction}")
            print(f"{label}{c.parameter} crossing at {at}" if tags
                  else f"crossing: {c.parameter} = {at}")
        for lo, hi, reason in report.invalid:
            print(f"warning: {label}discarded {parameter} bracket "
                  f"{lo:.6e}:{hi:.6e} rad/s: {reason}", file=sys.stderr)
        found += len(report.crossings)
        discarded += len(report.invalid)
    if not tag_names and not found:
        print("no group-delay sign crossings in the swept range")
    csvio.write_csv(out, tag_names + [f"{parameter}_rad_per_s",
                                      f"{parameter}_over_omega_p", "tau_s"],
                    blocks)
    csvio.write_csv(str(out) + ".crossings.csv",
                    tag_names + CROSSINGS_HEADER, crossing_blocks)
    return [f"crossings: found={found} discarded={discarded}"]


def _cmd_delay(args, argv) -> int:
    p = _load_params(args)
    lo, hi, n = _axis(args, "delay")
    report = analysis.delay_sign_crossings(
        p, args.sweep, _omega_p_grid(p, lo, hi, n), args.delta * p.omega_p)
    notes = [f"run: delay sweep={args.sweep} points={n} "
             f"range={lo:g}:{hi:g} delta={args.delta:g}"]
    notes += _write_delays(args.out, p, args.sweep, [], [((), report)])
    _write_manifest(args.out, argv, p, notes)
    return 0


def _cmd_windows(args, argv) -> int:
    p = _load_params(args)
    grid = _omega_p_grid(p, *_axis(args, "spectrum"))
    state = steady_state.solve_steady_state(p)
    spectrum = response.evaluate_spectrum(p, state, grid)
    report = analysis.find_windows(grid, spectrum.eout.real, args.prominence)
    rows = [(w.center_delta / p.omega_p, w.depth, w.left_peak, w.right_peak,
             analysis.fano_asymmetry(w)) for w in report.windows]
    csvio.write_csv(args.out, WINDOWS_HEADER,
                    [((), np.reshape(rows, (-1, len(WINDOWS_HEADER))).T)])
    print(f"windows: {report.count}")
    _write_manifest(args.out, argv, p,
                    [f"run: windows grid={grid.size} "
                     f"prominence={args.prominence:g} count={report.count}"])
    return 0


def _cmd_sweep(args, argv) -> int:
    p = _load_params(args)
    if len(args.sweep_sets) > 2:
        print("error: at most two --set parameters", file=sys.stderr)
        return 2
    grid = _omega_p_grid(p, *_axis(args, "spectrum"))
    keys = [key for key, _ in args.sweep_sets]
    notes = [f"run: sweep grid={grid.size} " +
             " ".join(f"{k}={','.join(csvio.fmt(v) for v in vs)}"
                      for k, vs in args.sweep_sets)]
    notes += _write_spectra(args.out, p, keys, (
        (tuple(overrides[k] for k in keys), spectrum)
        for overrides, spectrum in analysis.sweep_spectrum(
            p, args.sweep_sets, grid)))
    _write_manifest(args.out, argv, p, notes)
    return 0


def _cmd_validate(args, argv) -> int:
    p = _load_params(args)
    grid = _omega_p_grid(p, *_axis(args, "spectrum"))
    state = steady_state.solve_steady_state(p)
    report = oracle.cross_validate(p, state, grid)
    summary = (f"max_rel_dev={csvio.fmt(report.max_rel_dev)} at "
               f"delta_over_omega_p={csvio.fmt(report.argmax_delta / p.omega_p)}")
    if args.out:
        csvio.write_csv(args.out, ["delta_over_omega_p", "rel_dev"],
                        [((), (report.deltas / p.omega_p, report.rel_dev))],
                        trailing_comments=[summary])
        _write_manifest(args.out, argv, p, [
            f"run: validate grid={grid.size}", summary,
            f"oracle: max_residual={csvio.fmt(report.max_residual)} "
            f"points={report.deltas.size} failures={len(report.failures)}"])
    print(summary)
    for d, message in report.failures:
        print(f"solver failure at delta_over_omega_p="
              f"{d / p.omega_p:g}: {message}", file=sys.stderr)
    ok = report.max_rel_dev < ORACLE_TOLERANCE and not report.failures
    return 0 if ok else 1


def _cmd_preset(args, argv) -> int:
    preset = presets.get_preset(args.name)
    # steady presets sweep the drive field, the others a detuning or coupling
    unread, given = (("--range", args.sweep_range) if preset.kind == "steady"
                     else ("--brange", args.brange))
    if given is not None:
        print(f"error: {preset.kind} preset {args.name} takes no {unread}",
              file=sys.stderr)
        return 2
    base = preset.resolve()
    key, values = preset.curve_key, preset.curve_values
    # tunnelling curves are tagged in omega_p units
    tag_name = "f_over_omega_p" if key == "f_hz" else key

    def tag(value):
        return (TWO_PI * value / base.omega_p if key == "f_hz" else value,)

    lo, hi, n = _axis(args, preset.kind, preset.axis)
    notes = [f"run: preset {args.name} kind={preset.kind}",
             f"curves: {key} = {','.join(csvio.fmt(v) for v in values)}"]

    if preset.kind == "spectrum":
        spectra = analysis.sweep_spectrum(base, [(key, values)],
                                          _omega_p_grid(base, lo, hi, n))
        notes.append(f"grid={n} range={lo:g}:{hi:g}")
        notes += _write_spectra(args.out, base, [tag_name], (
            (tag(overrides[key]), s) for overrides, s in spectra))
    elif preset.kind == "steady":
        grid = np.linspace(lo, hi, n)
        notes.append(f"b_points={n} brange={lo:g}:{hi:g}")
        notes += _write_steady(args.out, grid, [tag_name], (
            (tag(v), steady_state.magnon_number_sweep(
                apply_override(base, key, v), grid)) for v in values))
    else:  # delay
        grid = _omega_p_grid(base, lo, hi, n)
        notes.append(f"sweep={preset.sweep_param} points={n} "
                     f"range={lo:g}:{hi:g} delta={preset.fixed_delta:g}")
        notes += _write_delays(
            args.out, base, preset.sweep_param, [tag_name],
            ((tag(v), analysis.delay_sign_crossings(
                apply_override(base, key, v), preset.sweep_param, grid,
                preset.fixed_delta * base.omega_p)) for v in values),
            args.name)
    _write_manifest(args.out, argv, base, notes)
    return 0


_DISPATCH = {
    "spectrum": _cmd_spectrum,
    "steady": _cmd_steady,
    "delay": _cmd_delay,
    "windows": _cmd_windows,
    "sweep": _cmd_sweep,
    "validate": _cmd_validate,
    "preset": _cmd_preset,
}


def _attach_range_values(argv: list[str]) -> list[str]:
    """``--range -1:1`` as ``--range=-1:1``: argparse takes a value that
    starts with '-' for an option unless it is a plain negative number, and
    no option name contains ':'."""
    attached: list[str] = []
    for arg in argv:
        if (attached[-1:] in (["--range"], ["--brange"])
                and arg.startswith("-") and ":" in arg):
            arg = attached.pop() + "=" + arg
        attached.append(arg)
    return attached


def run(argv) -> int:
    """Entry point with argv (no program name); returns the exit code."""
    argv = list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_range_values(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _DISPATCH[args.subcommand](args, argv)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulatorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
