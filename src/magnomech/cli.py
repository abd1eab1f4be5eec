"""Command-line front end: presets, custom runs, validation, CSV output.

Exit codes: 0 success, 1 validation or residual failure, 2 usage error.
Every run writes a manifest next to its output; the manifest parses as a
config document, so re-running from it reproduces the same parameters.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, csvio, oracle, presets, response, steady_state
from .errors import ConfigError, SimulatorError
from .params import TWO_PI, SystemParams, apply_override, parse_config, serialize_config

SPECTRUM_HEADER = ["delta_over_omega_p", "re_eout", "im_eout",
                   "re_t", "im_t", "t2", "tau_s"]
STEADY_HEADER = ["B_tesla", "magnon_number", "re_n2s", "im_n2s",
                 "delta_n2_eff", "roots"]
WINDOWS_HEADER = ["center_delta_over_omega_p", "depth", "left_peak",
                  "right_peak", "asymmetry"]
CROSSINGS_HEADER = ["parameter", "value", "direction"]

ORACLE_TOLERANCE = 1e-9

#: most response evaluations (curves x detunings) of a sweep or preset
SWEEP_BUDGET = 10 ** 6


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


def _checked(convert, valid, expected: str):
    """An argparse type: ``convert(text)`` if ``valid`` accepts it."""
    def parse(text: str):
        try:
            if valid(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


_positive_int = _checked(int, lambda v: v > 0, "a positive integer")
_prominence = _checked(float, lambda v: 0 < v < 1, "a prominence in (0, 1)")
_finite_float = _checked(float, math.isfinite, "a finite number")


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
    sp.add_argument("--delta", type=_finite_float, default=1.0,
                    help="probe detuning in omega_p units (default 1)")

    sp = sub.add_parser("windows", help="transparency-window census of the "
                                        "absorption spectrum")
    with_config(sp)
    sp.add_argument("--prominence", type=_prominence, default=0.1,
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


def _curves(p: SystemParams, sets, detunings=0):
    """(tags, params) of every combination of the (key, values) ``sets``,
    the last key varying fastest, overridden as each curve is reached; the
    sweep budget over ``detunings`` per curve is checked first."""
    keys, value_lists = zip(*sets)
    combos = math.prod(map(len, value_lists))
    if combos * detunings > SWEEP_BUDGET:
        raise ConfigError(f"sweep budget exceeded: {combos} combinations x "
                          f"{detunings} detunings > {SWEEP_BUDGET}")
    return ((tags, functools.reduce(lambda q, kv: apply_override(q, *kv),
                                    zip(keys, tags), p))
            for tags in itertools.product(*value_lists))


def _write_spectra(out, p: SystemParams, axis, tag_names,
                   curves) -> list[str]:
    """Spectrum table of every (tags, params) curve over the detuning
    ``axis`` (omega_p units); returns its unreliable-points note."""
    grid = _omega_p_grid(p, *axis)
    spectra = [(tags, response.evaluate_spectrum(
        q, steady_state.solve_steady_state(q), grid)) for tags, q in curves]
    csvio.write_csv(out, tag_names + SPECTRUM_HEADER, (
        (tags, (s.delta / p.omega_p, s.eout.real, s.eout.imag, s.t.real,
                s.t.imag, s.t2, s.tau)) for tags, s in spectra))
    unreliable = sum(np.count_nonzero(~s.tau_reliable) for _, s in spectra)
    return [f"spectrum: unreliable_points={unreliable}"]


def _cmd_spectrum(args, argv) -> int:
    p = _load_params(args)
    lo, hi, n = _axis(args, "spectrum")
    notes = [f"run: spectrum grid={n} range={lo:g}:{hi:g}"]
    notes += _write_spectra(args.out, p, (lo, hi, n), [], [((), p)])
    _write_manifest(args.out, argv, p, notes)
    return 0


def _write_steady(out, axis, tag_names, curves) -> list[str]:
    """Steady table of every (tags, params) curve over the drive field
    ``axis`` (tesla); returns its monotone and residual notes."""
    b_grid = np.linspace(*axis)
    states = [(tags, steady_state.magnon_number_sweep(q, b_grid))
              for tags, q in curves]
    csvio.write_csv(out, tag_names + STEADY_HEADER, (
        (tags, (b_grid, s.magnon_number, s.n2s.real, s.n2s.imag,
                s.delta_n2_eff, s.roots)) for tags, s in states))
    increasing = b_grid.size > 1 and all(
        bool(np.all(np.diff(s.magnon_number) > 0.0)) for _, s in states)
    bistable = sum(np.count_nonzero(s.roots == 3) for _, s in states)
    worst = max(np.max(s.residual) for _, s in states)
    return [f"monotone: strictly_increasing={increasing} "
            f"bistable_points={bistable}",
            f"steady: max_residual={csvio.fmt(worst)}"]


def _cmd_steady(args, argv) -> int:
    if args.grid is not None and args.brange is None:
        print("error: steady takes --grid only with --brange", file=sys.stderr)
        return 2
    p = _load_params(args)
    # without --brange: the one point at the config's drive field; an
    # effective record has none, and the sweep rejects its mode
    b = 0.0 if p.B_field is None else p.B_field
    lo, hi, n = _axis(args, "steady", None if args.brange else (b, b, 1))
    notes = [f"run: steady points={n} brange={lo:g}:{hi:g}"]
    notes += _write_steady(args.out, (lo, hi, n), [], [((), p)])
    _write_manifest(args.out, argv, p, notes)
    return 0


def _write_delays(out, p: SystemParams, parameter, axis, delta, tag_names,
                  curves, name=None) -> list[str]:
    """Delay table and crossings file of every (tags, params) curve along
    the ``parameter`` axis at probe detuning ``delta`` (omega_p units).
    Prints each crossing, and each discarded bracket on stderr, as its
    curve is done; a tagged curve's lines start with the preset ``name``
    and its tag.  Returns the note counting crossings, discarded brackets
    and unreliable grid points."""
    grid = _omega_p_grid(p, *axis)
    blocks, crossing_blocks = [], []
    found = discarded = unreliable = 0
    for tags, q in curves:
        report = analysis.delay_sign_crossings(q, parameter, grid,
                                               delta * p.omega_p)
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
        unreliable += np.count_nonzero(~report.reliable)
    if not tag_names and not found:
        print("no group-delay sign crossings in the swept range")
    csvio.write_csv(out, tag_names + [f"{parameter}_rad_per_s",
                                      f"{parameter}_over_omega_p", "tau_s"],
                    blocks)
    csvio.write_csv(str(out) + ".crossings.csv",
                    tag_names + CROSSINGS_HEADER, crossing_blocks)
    return [f"crossings: found={found} discarded={discarded} "
            f"unreliable_points={unreliable}"]


def _cmd_delay(args, argv) -> int:
    p = _load_params(args)
    lo, hi, n = _axis(args, "delay")
    notes = [f"run: delay sweep={args.sweep} points={n} "
             f"range={lo:g}:{hi:g} delta={args.delta:g}"]
    notes += _write_delays(args.out, p, args.sweep, (lo, hi, n), args.delta,
                           [], [((), p)])
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
                     f"prominence={args.prominence:g} count={report.count} "
                     f"rejected={report.rejected}"])
    return 0


def _cmd_sweep(args, argv) -> int:
    p = _load_params(args)
    keys = [key for key, _ in args.sweep_sets]
    if len(keys) > 2 or len(set(keys)) < len(keys):
        print("error: --set takes one or two distinct keys", file=sys.stderr)
        return 2
    axis = _axis(args, "spectrum")
    notes = [f"run: sweep grid={axis[2]} " +
             " ".join(f"{k}={','.join(csvio.fmt(v) for v in vs)}"
                      for k, vs in args.sweep_sets)]
    notes += _write_spectra(args.out, p, axis, keys,
                            _curves(p, args.sweep_sets, axis[2]))
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
            f"points={report.deltas.size} failures={len(report.failures)} "
            f"cond={csvio.fmt(report.argmax_cond)}"])
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
    lo, hi, n = axis = _axis(args, preset.kind, preset.axis)
    notes = [f"run: preset {args.name} kind={preset.kind}",
             f"curves: {key} = {','.join(csvio.fmt(v) for v in values)}"]
    # tunnelling curves are tagged in omega_p units
    tag_names = ["f_over_omega_p" if key == "f_hz" else key]
    curves = (((TWO_PI * v / base.omega_p if key == "f_hz" else v,), q)
              for (v,), q in _curves(base, [(key, values)],
                                     n if preset.kind == "spectrum" else 0))

    if preset.kind == "spectrum":
        notes.append(f"grid={n} range={lo:g}:{hi:g}")
        notes += _write_spectra(args.out, base, axis, tag_names, curves)
    elif preset.kind == "steady":
        notes.append(f"b_points={n} brange={lo:g}:{hi:g}")
        notes += _write_steady(args.out, axis, tag_names, curves)
    else:  # delay
        notes.append(f"sweep={preset.sweep_param} points={n} "
                     f"range={lo:g}:{hi:g} delta={preset.fixed_delta:g}")
        notes += _write_delays(args.out, base, preset.sweep_param, axis,
                               preset.fixed_delta, tag_names, curves,
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


def _is_finite_number(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _attach_range_values(argv: list[str]) -> list[str]:
    """``--range -1:1`` as ``--range=-1:1`` and ``--delta -1e-3`` as
    ``--delta=-1e-3``: argparse takes a value that starts with '-' for an
    option unless it is a plain negative number without an exponent, and no
    option name contains ':' or reads as a finite number."""
    attached: list[str] = []
    for arg in argv:
        if arg.startswith("-") and (
                attached[-1:] in (["--range"], ["--brange"]) and ":" in arg
                or attached[-1:] == ["--delta"] and _is_finite_number(arg)):
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
