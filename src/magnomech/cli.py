"""Command-line front end: presets, custom runs, validation, CSV output.

Exit codes: 0 success, 1 validation or residual failure, 2 usage error.
Every run writes a manifest next to its output; the manifest parses as a
config document, so re-running from it reproduces the same parameters.
"""

from __future__ import annotations

import argparse
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


def _build_parser() -> argparse.ArgumentParser:
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
    sp.add_argument("--prominence", type=float, default=0.1,
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


def _delta_grid(p: SystemParams, args, default_points=2001):
    lo, hi = args.sweep_range if args.sweep_range else (0.0, 2.0)
    n = args.grid if args.grid else default_points
    return np.linspace(lo * p.omega_p, hi * p.omega_p, n)


def _write_manifest(out_path: str, argv, p: SystemParams, run_notes) -> None:
    lines = ["# magnomech run manifest",
             f"# argv: {' '.join(argv)}"]
    lines.extend(f"# {note}" for note in run_notes)
    text = "\n".join(lines) + "\n" + serialize_config(p)
    Path(str(out_path) + ".manifest.txt").write_text(text, encoding="utf-8",
                                                     newline="")


def _spectrum_rows(p: SystemParams, spectrum: response.Spectrum):
    for k in range(spectrum.delta.size):
        yield (spectrum.delta[k] / p.omega_p,
               spectrum.eout[k].real, spectrum.eout[k].imag,
               spectrum.t[k].real, spectrum.t[k].imag,
               spectrum.t2[k], spectrum.tau[k])


def _cmd_spectrum(args, argv) -> int:
    p = _load_params(args)
    grid = _delta_grid(p, args)
    state = steady_state.solve_steady_state(p)
    spectrum = response.evaluate_spectrum(p, state, grid)
    csvio.write_csv(args.out, SPECTRUM_HEADER, _spectrum_rows(p, spectrum))
    _write_manifest(args.out, argv, p,
                    [f"run: spectrum grid={grid.size} "
                     f"range={grid[0] / p.omega_p:g}:{grid[-1] / p.omega_p:g}"])
    return 0


def _steady_rows(sweep: steady_state.SweepResult):
    for pt in sweep.points:
        s = pt.state
        yield (pt.B, s.magnon_number, s.n2s.real, s.n2s.imag,
               s.delta_n2_eff, s.roots)


def _cmd_steady(args, argv) -> int:
    p = _load_params(args)
    if args.brange:
        lo, hi = args.brange
        grid = np.linspace(lo, hi, args.grid if args.grid else 51)
    else:
        grid = np.array([p.B_field])
    sweep = steady_state.magnon_number_sweep(p, grid)
    bistable = sum(pt.state.roots == 3 for pt in sweep.points)
    notes = [f"run: steady points={grid.size} "
             f"brange={grid[0]:g}:{grid[-1]:g}",
             f"monotone: strictly_increasing={sweep.strictly_increasing} "
             f"bistable_points={bistable}"]
    csvio.write_csv(args.out, STEADY_HEADER, _steady_rows(sweep))
    _write_manifest(args.out, argv, p, notes)
    return 0


def _crossing_rows(crossings, tag=()):
    for c in crossings:
        yield tag + (f"{c.parameter}_rad_per_s", c.value, c.direction)
        yield tag + (f"{c.parameter}_hz", c.value / TWO_PI, c.direction)


def _cmd_delay(args, argv) -> int:
    p = _load_params(args)
    lo, hi = args.sweep_range if args.sweep_range else (0.0, 0.3)
    n = args.grid if args.grid else 121
    grid = np.linspace(lo * p.omega_p, hi * p.omega_p, n)
    fixed_delta = args.delta * p.omega_p
    report = analysis.delay_sign_crossings(p, args.sweep, grid, fixed_delta)
    header = [f"{args.sweep}_rad_per_s", f"{args.sweep}_over_omega_p", "tau_s"]
    csvio.write_csv(args.out, header,
                    ((v, v / p.omega_p, tau) for v, tau in report.samples))
    crossings_path = str(args.out) + ".crossings.csv"
    csvio.write_csv(crossings_path, CROSSINGS_HEADER,
                    _crossing_rows(report.crossings))
    for c in report.crossings:
        print(f"crossing: {c.parameter} = {c.value:.6e} rad/s "
              f"({c.value / TWO_PI:.6e} Hz), {c.direction}")
    if not report.crossings:
        print("no group-delay sign crossings in the swept range")
    _write_manifest(args.out, argv, p,
                    [f"run: delay sweep={args.sweep} points={n} "
                     f"range={lo:g}:{hi:g} delta={args.delta:g}"])
    return 0


def _cmd_windows(args, argv) -> int:
    p = _load_params(args)
    grid = _delta_grid(p, args)
    state = steady_state.solve_steady_state(p)
    spectrum = response.evaluate_spectrum(p, state, grid)
    report = analysis.find_windows(grid, spectrum.eout.real, args.prominence)
    rows = [(w.center_delta / p.omega_p, w.depth, w.left_peak, w.right_peak,
             analysis.fano_asymmetry(w)) for w in report.windows]
    csvio.write_csv(args.out, WINDOWS_HEADER, rows)
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
    grid = _delta_grid(p, args)
    keys = [key for key, _ in args.sweep_sets]
    header = keys + SPECTRUM_HEADER

    def rows():
        for overrides, spectrum in analysis.sweep_spectrum(
                p, args.sweep_sets, grid):
            tags = tuple(overrides[k] for k in keys)
            for row in _spectrum_rows(p, spectrum):
                yield tags + row

    csvio.write_csv(args.out, header, rows())
    _write_manifest(args.out, argv, p,
                    [f"run: sweep grid={grid.size} " +
                     " ".join(f"{k}={','.join(csvio.fmt(v) for v in vs)}"
                              for k, vs in args.sweep_sets)])
    return 0


def _cmd_validate(args, argv) -> int:
    p = _load_params(args)
    grid = _delta_grid(p, args)
    state = steady_state.solve_steady_state(p)
    report = oracle.cross_validate(p, state, grid)
    summary = (f"max_rel_dev={csvio.fmt(report.max_rel_dev)} at "
               f"delta_over_omega_p={csvio.fmt(report.argmax_delta / p.omega_p)}")
    if args.out:
        csvio.write_csv(args.out, ["delta_over_omega_p", "rel_dev"],
                        ((d / p.omega_p, r) for d, r in report.points),
                        trailing_comments=[summary])
        _write_manifest(args.out, argv, p,
                        [f"run: validate grid={grid.size}", summary,
                         f"oracle: max_residual="
                         f"{csvio.fmt(report.max_residual)} "
                         f"points={len(report.points)} "
                         f"failures={len(report.failures)}"])
    print(summary)
    for d, message in report.failures:
        print(f"solver failure at delta_over_omega_p="
              f"{d / p.omega_p:g}: {message}", file=sys.stderr)
    ok = report.max_rel_dev < ORACLE_TOLERANCE and not report.failures
    return 0 if ok else 1


def _curve_tag(preset: presets.Preset, p: SystemParams, value: float):
    if preset.curve_key == "f_hz":
        return "f_over_omega_p", TWO_PI * value / p.omega_p
    return "G_au_hz", value


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
    notes = [f"run: preset {args.name} kind={preset.kind}",
             f"curves: {preset.curve_key} = "
             f"{','.join(csvio.fmt(v) for v in preset.curve_values)}"]

    if preset.kind == "spectrum":
        lo, hi = args.sweep_range if args.sweep_range else (preset.lo, preset.hi)
        n = args.grid if args.grid else preset.grid
        grid = np.linspace(lo * base.omega_p, hi * base.omega_p, n)
        tag_name = _curve_tag(preset, base, 0.0)[0]
        rows = []
        for value in preset.curve_values:
            p = apply_override(base, preset.curve_key, value)
            state = steady_state.solve_steady_state(p)
            spectrum = response.evaluate_spectrum(p, state, grid)
            tag = _curve_tag(preset, p, value)[1]
            rows.extend((tag,) + row for row in _spectrum_rows(p, spectrum))
        csvio.write_csv(args.out, [tag_name] + SPECTRUM_HEADER, rows)
        notes.append(f"grid={n} range={lo:g}:{hi:g}")

    elif preset.kind == "steady":
        lo, hi = args.brange if args.brange else (preset.b_lo, preset.b_hi)
        n = args.grid if args.grid else preset.b_points
        b_grid = np.linspace(lo, hi, n)
        tag_name = _curve_tag(preset, base, 0.0)[0]
        rows = []
        for value in preset.curve_values:
            p = apply_override(base, preset.curve_key, value)
            sweep = steady_state.magnon_number_sweep(p, b_grid)
            tag = _curve_tag(preset, p, value)[1]
            rows.extend((tag,) + row for row in _steady_rows(sweep))
        csvio.write_csv(args.out, [tag_name] + STEADY_HEADER, rows)
        notes.append(f"b_points={n} brange={lo:g}:{hi:g}")

    else:  # delay
        lo, hi = args.sweep_range if args.sweep_range else (preset.sweep_lo,
                                                            preset.sweep_hi)
        n = args.grid if args.grid else preset.sweep_points
        axis = np.linspace(lo * base.omega_p, hi * base.omega_p, n)
        fixed_delta = preset.fixed_delta * base.omega_p
        tag_name = _curve_tag(preset, base, 0.0)[0]
        rows = []
        crossing_rows = []
        for value in preset.curve_values:
            p = apply_override(base, preset.curve_key, value)
            report = analysis.delay_sign_crossings(p, preset.sweep_param,
                                                   axis, fixed_delta)
            tag = _curve_tag(preset, p, value)[1]
            rows.extend((tag, v, v / p.omega_p, tau)
                        for v, tau in report.samples)
            crossing_rows.extend(_crossing_rows(report.crossings, (tag,)))
            for c in report.crossings:
                print(f"{args.name} {tag_name}={csvio.fmt(tag)}: "
                      f"{c.parameter} crossing at {c.value:.6e} rad/s "
                      f"({c.value / TWO_PI:.6e} Hz), {c.direction}")
        header = [tag_name, f"{preset.sweep_param}_rad_per_s",
                  f"{preset.sweep_param}_over_omega_p", "tau_s"]
        csvio.write_csv(args.out, header, rows)
        csvio.write_csv(str(args.out) + ".crossings.csv",
                        [tag_name] + CROSSINGS_HEADER, crossing_rows)
        notes.append(f"sweep={preset.sweep_param} points={n} "
                     f"range={lo:g}:{hi:g} delta={preset.fixed_delta:g}")

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


def run(argv) -> int:
    """Entry point with argv (no program name); returns the exit code."""
    argv = list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
