import csv
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from magnomech.analysis import find_windows
from magnomech.cli import run
from magnomech.params import parse_config
from magnomech.params import TWO_PI
from magnomech.presets import BASELINE_CONFIG, MICROSCOPIC_CONFIG, PRESETS

DOCS = Path(__file__).resolve().parent.parent / "docs"

@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "base.cfg"
    path.write_text(BASELINE_CONFIG)
    return str(path)


def _read_csv(path):
    with open(path, newline="") as handle:
        reader = csv.reader(row for row in handle if not row.startswith("#"))
        header = next(reader)
        rows = [[float(cell) if cell.replace(".", "").replace("-", "")
                 .replace("+", "").replace("e", "").isdigit() else cell
                 for cell in row] for row in reader]
    return header, rows


def test_spectrum_writes_spec_schema(config_path, tmp_path):
    out = tmp_path / "spec.csv"
    code = run(["spectrum", "--config", config_path, "--out", str(out),
                "--grid", "101"])
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["delta_over_omega_p", "re_eout", "im_eout",
                      "re_t", "im_t", "t2", "tau_s"]
    assert len(rows) == 101
    assert rows[0][0] == 0.0 and rows[-1][0] == 2.0


def test_spectrum_missing_config_is_usage_error(capsys):
    assert run(["spectrum", "--out", "x.csv"]) == 2
    assert "usage" in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    out = tmp_path / "x.csv"
    assert run(["spectrum", "--config", str(tmp_path / "nope.cfg"),
                "--out", str(out)]) == 2


@pytest.mark.parametrize("grid", ["0", "-5"])
@pytest.mark.parametrize("subcommand", ["steady", "spectrum", "validate",
                                        "preset"])
def test_non_positive_grid_is_usage_error(subcommand, grid, tmp_path, capsys):
    out = tmp_path / "x.csv"
    cfg = tmp_path / "micro.cfg"
    cfg.write_text(MICROSCOPIC_CONFIG)
    source = ["fig2a"] if subcommand == "preset" else ["--config", str(cfg)]
    assert run([subcommand, *source, "--out", str(out), "--grid", grid]) == 2
    assert "positive integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["preset", "fig3a", "--mode", "microscopic"],
    ["preset", "fig3c", "--prominence", "0.2"],
    ["preset", "fig3a", "--brange", "0:1e-5"],
    ["preset", "fig8a", "--brange", "0:1e-5"],
    ["preset", "fig2a", "--range", "0:1"],
    ["steady", "--config", "{micro}", "--range", "0:1"],
    ["steady", "--config", "{micro}", "--grid", "51"],
], ids=["preset-mode", "preset-prominence", "spectrum-preset-brange",
        "delay-preset-brange", "steady-preset-range", "steady-range",
        "steady-grid-without-brange"])
def test_unread_option_is_usage_error(args, tmp_path, capsys):
    cfg = tmp_path / "micro.cfg"
    cfg.write_text(MICROSCOPIC_CONFIG)
    out = tmp_path / "x.csv"
    args = [a.replace("{micro}", str(cfg)) for a in args]
    assert run(args + ["--out", str(out)]) == 2
    assert "error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("prominence", ["0", "1.5", "nan", "x"])
def test_prominence_outside_unit_interval_is_usage_error(
        prominence, config_path, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run(["windows", "--config", config_path, "--out", str(out),
                "--prominence", prominence]) == 2
    assert "prominence in (0, 1)" in capsys.readouterr().err
    assert not out.exists()


def test_invalid_config_returns_one(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(BASELINE_CONFIG.replace("kappa_a_hz = 2.1e6",
                                           "kappa_a_hz = -2.1e6"))
    code = run(["spectrum", "--config", str(bad),
                "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "kappa_a" in capsys.readouterr().err


def test_unknown_preset_is_usage_error(tmp_path, capsys):
    assert run(["preset", "fig99", "--out", str(tmp_path / "x.csv")]) == 2
    assert "fig3c" in capsys.readouterr().err


def test_bad_range_is_usage_error(config_path, tmp_path):
    out = tmp_path / "x.csv"
    for bounds in ("2:1", "nan:1", "0:nan", "-inf:1"):
        assert run(["spectrum", "--config", config_path,
                    "--out", str(out), "--range", bounds]) == 2, bounds
        assert not out.exists()


@pytest.mark.parametrize("args, code", [
    (["spectrum", "--config", "{base}", "--grid", "21", "--range", "-1:1"], 0),
    (["windows", "--config", "{base}", "--grid", "201", "--range", "-1:1"], 0),
    (["sweep", "--config", "{base}", "--set", "f_hz=0,1e6", "--grid", "21",
      "--range", "-1:1"], 0),
    (["validate", "--config", "{base}", "--grid", "21", "--range", "-1:1"], 0),
    (["delay", "--config", "{base}", "--sweep", "f", "--grid", "11",
      "--range", "-0.1:0.3"], 1),
    (["steady", "--config", "{micro}", "--grid", "6",
      "--brange", "-1e-5:1e-5"], 1),
    (["preset", "fig3c", "--grid", "21", "--range", "-1:1"], 0),
    (["preset", "fig8a", "--grid", "11", "--range", "-0.1:0.3"], 1),
    (["preset", "fig2a", "--grid", "6", "--brange", "-1e-5:1e-5"], 1),
], ids=["spectrum", "windows", "sweep", "validate", "delay", "steady",
        "spectrum-preset", "delay-preset", "steady-preset"])
def test_negative_range_bound_parses_as_equals_form(args, code, tmp_path,
                                                     capsys):
    base, micro = tmp_path / "base.cfg", tmp_path / "micro.cfg"
    base.write_text(BASELINE_CONFIG)
    micro.write_text(MICROSCOPIC_CONFIG)
    args = [a.replace("{base}", str(base)).replace("{micro}", str(micro))
            for a in args]
    spaced, equals = tmp_path / "spaced.csv", tmp_path / "equals.csv"
    assert run(args + ["--out", str(spaced)]) == code
    spaced_streams = capsys.readouterr()
    joined = args[:-2] + [f"{args[-2]}={args[-1]}"]
    assert run(joined + ["--out", str(equals)]) == code
    equals_streams = capsys.readouterr()
    assert spaced_streams == equals_streams
    if code == 0:
        assert spaced.read_bytes() == equals.read_bytes()
    else:
        assert not spaced.exists() and not equals.exists()
    if args[0] in ("steady", "preset") and "--brange" in args:
        assert "B must be non-negative" in spaced_streams.err
    if code and ("--sweep" in args or args[1:2] == ["fig8a"]):
        assert "coupling f must be non-negative" in spaced_streams.err


def test_preset_fig3c_census(tmp_path):
    out = tmp_path / "fig3c.csv"
    assert run(["preset", "fig3c", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header[0] == "f_over_omega_p"
    curves = defaultdict(list)
    for row in rows:
        curves[row[0]].append((row[1], row[2]))
    assert len(curves) == 4
    for tag, points in curves.items():
        delta = np.array([d for d, _ in points])
        absorption = np.array([a for _, a in points])
        assert find_windows(delta, absorption).count == 3, tag
    manifest = Path(str(out) + ".manifest.txt").read_text().splitlines()
    assert manifest[2:6] == ["# run: preset fig3c kind=spectrum",
                             "# curves: f_hz = 0,1000000,1500000,2000000",
                             "# grid=2001 range=0:2",
                             "# spectrum: unreliable_points=0"]


def test_preset_output_is_byte_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run(["preset", "fig3a", "--out", str(first), "--grid", "501"]) == 0
    assert run(["preset", "fig3a", "--out", str(second), "--grid", "501"]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_manifest_reproduces_run(config_path, tmp_path):
    out = tmp_path / "spec.csv"
    assert run(["spectrum", "--config", config_path, "--out", str(out),
                "--grid", "51"]) == 0
    manifest = Path(str(out) + ".manifest.txt")
    assert manifest.exists()
    # the manifest parses as a config document and carries the same params
    resolved = parse_config(manifest.read_text())
    assert resolved == parse_config(BASELINE_CONFIG)
    rerun = tmp_path / "rerun.csv"
    assert run(["spectrum", "--config", str(manifest), "--out", str(rerun),
                "--grid", "51"]) == 0
    assert rerun.read_bytes() == out.read_bytes()


def test_validate_reports_and_accepts(config_path, tmp_path, capsys):
    out = tmp_path / "val.csv"
    code = run(["validate", "--config", config_path, "--out", str(out),
                "--grid", "101"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "max_rel_dev=" in captured
    text = out.read_text()
    assert text.startswith("delta_over_omega_p,rel_dev\n")
    assert "# max_rel_dev=" in text
    assert "oracle:" not in text


def test_validate_manifest_reports_oracle(config_path, tmp_path):
    out = tmp_path / "val.csv"
    assert run(["validate", "--config", config_path, "--out", str(out),
                "--grid", "101"]) == 0
    manifest = Path(str(out) + ".manifest.txt").read_text()
    assert parse_config(manifest) == parse_config(BASELINE_CONFIG)
    lines = [ln for ln in manifest.splitlines() if ln.startswith("# oracle:")]
    assert len(lines) == 1
    fields = dict(kv.split("=") for kv in lines[0].split()[2:])
    assert set(fields) == {"max_residual", "points", "failures"}
    assert 0.0 <= float(fields["max_residual"]) < 1e-12
    assert fields["points"] == "101" and fields["failures"] == "0"
    # readers take the first max_rel_dev= in a manifest: the oracle line
    # must not repeat it
    assert manifest.count("max_rel_dev=") == 1


def test_windows_subcommand(tmp_path):
    cfg = tmp_path / "three.cfg"
    cfg.write_text(BASELINE_CONFIG
                   .replace("g1_hz = 1.5e6", "g1_hz = 1.2e6")
                   .replace("g2_hz = 1.5e6", "g2_hz = 1.2e6")
                   .replace("G_np_hz = 3.5e6", "G_np_hz = 1.2e6")
                   .replace("G_au_hz = 6e6", "G_au_hz = 0")
                   .replace("f_hz = 0", "f_hz = 2e6"))
    out = tmp_path / "win.csv"
    code = run(["windows", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["center_delta_over_omega_p", "depth", "left_peak",
                      "right_peak", "asymmetry"]
    assert len(rows) == 3


def test_steady_subcommand_schema(tmp_path):
    cfg = tmp_path / "micro.cfg"
    cfg.write_text(MICROSCOPIC_CONFIG)
    out = tmp_path / "steady.csv"
    code = run(["steady", "--config", str(cfg), "--out", str(out),
                "--brange", "0:5e-5", "--grid", "11"])
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["B_tesla", "magnon_number", "re_n2s", "im_n2s",
                      "delta_n2_eff", "roots"]
    assert len(rows) == 11
    assert rows[0][1] == 0.0
    assert rows[-1][1] > 0.0
    manifest = Path(str(out) + ".manifest.txt").read_text().splitlines()
    (note,) = [ln for ln in manifest if ln.startswith("# steady: ")]
    assert 0.0 <= float(note.partition("max_residual=")[2]) <= 1e-8


def test_steady_on_effective_config_fails(config_path, tmp_path, capsys):
    assert run(["steady", "--config", config_path,
                "--out", str(tmp_path / "x.csv")]) == 1
    # the message names the config key to change, not an internal function
    assert "coupling_mode = microscopic" in capsys.readouterr().err


def test_one_point_steady_manifest_keeps_requested_brange(tmp_path):
    out = tmp_path / "steady.csv"
    assert run(["steady", "--config", str(DOCS / "microscopic.cfg"),
                "--brange", "0:1e-5", "--grid", "1", "--out", str(out)]) == 0
    manifest = Path(str(out) + ".manifest.txt").read_text().splitlines()
    assert "# run: steady points=1 brange=0:1e-05" in manifest


def test_delay_subcommand_with_crossings(tmp_path):
    cfg = tmp_path / "delay.cfg"
    cfg.write_text(BASELINE_CONFIG
                   .replace("g1_hz = 1.5e6", "g1_hz = 0")
                   .replace("g2_hz = 1.5e6", "g2_hz = 1.2e6")
                   .replace("G_np_hz = 3.5e6", "G_np_hz = 1.2e6")
                   .replace("G_au_hz = 6e6", "G_au_hz = 0"))
    out = tmp_path / "delay.csv"
    code = run(["delay", "--config", str(cfg), "--out", str(out),
                "--sweep", "f", "--range", "0:0.3", "--grid", "31"])
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["f_rad_per_s", "f_over_omega_p", "tau_s"]
    assert len(rows) == 31
    xheader, xrows = _read_csv(str(out) + ".crossings.csv")
    assert xheader == ["parameter", "value", "direction"]
    assert [r[0] for r in xrows] == ["f_rad_per_s", "f_hz"]
    assert xrows[0][2] == "pos->neg"
    assert xrows[0][1] == pytest.approx(13.20e6, rel=0.01)
    assert xrows[1][1] == pytest.approx(xrows[0][1] / (2 * np.pi), rel=1e-12)
    manifest = Path(str(out) + ".manifest.txt").read_text().splitlines()
    assert "# crossings: found=1 discarded=0" in manifest


# two resonant bare cavities: matched tunnelling (f = kappa_a) nulls |t|
# at zero detuning, where the group delay is unreliable
DARK_CONFIG = (BASELINE_CONFIG
               .replace("g1_hz = 1.5e6", "g1_hz = 0")
               .replace("g2_hz = 1.5e6", "g2_hz = 0")
               .replace("G_np_hz = 3.5e6", "G_np_hz = 0")
               .replace("G_au_hz = 6e6", "G_au_hz = 0")
               + "delta_1_hz = 0\ndelta_2_hz = 0\n")


def test_delay_reports_discarded_brackets(tmp_path, capsys):
    # |t| vanishes at f = kappa_a, a grid point: both brackets that end
    # there are discarded, not refined
    cfg = tmp_path / "dark.cfg"
    cfg.write_text(DARK_CONFIG)
    out = tmp_path / "delay.csv"
    assert run(["delay", "--config", str(cfg), "--sweep", "f", "--range",
                "0.1:0.3", "--grid", "21", "--delta", "0",
                "--out", str(out)]) == 0
    streams = capsys.readouterr()
    assert streams.out == "no group-delay sign crossings in the swept range\n"
    warnings = streams.err.splitlines()
    assert len(warnings) == 2
    kappa_a = TWO_PI * 2.1e6
    for line in warnings:
        assert line.startswith("warning: discarded f bracket ")
        assert line.endswith(" rad/s: unreliable delay at bracket point")
        bounds = [float(v) for v in line.split()[4].split(":")]
        assert kappa_a in [pytest.approx(b, rel=1e-6) for b in bounds]
    manifest = Path(str(out) + ".manifest.txt").read_text().splitlines()
    assert "# crossings: found=0 discarded=2" in manifest
    assert len(_read_csv(out)[1]) == 21
    assert _read_csv(str(out) + ".crossings.csv")[1] == []


def test_sweep_subcommand(config_path, tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(["sweep", "--config", config_path, "--out", str(out),
                "--set", "f_hz=0,1.5e6", "--grid", "21"])
    assert code == 0
    header, rows = _read_csv(out)
    assert header[0] == "f_hz"
    assert len(rows) == 42
    assert {row[0] for row in rows} == {0.0, 1.5e6}


def test_consecutive_runs_share_nothing(config_path, tmp_path, capsys):
    # the parser is built once per process; each run parses afresh
    outs = [tmp_path / "first.csv", tmp_path / "second.csv"]
    for out, values in zip(outs, ("0,1.5e6", "2e6")):
        assert run(["sweep", "--config", config_path, "--out", str(out),
                    "--set", f"f_hz={values}", "--grid", "5"]) == 0
    assert {row[0] for row in _read_csv(outs[1])[1]} == {2e6}
    assert "# run: sweep grid=5 f_hz=2000000\n" in Path(
        str(outs[1]) + ".manifest.txt").read_text()
    assert run(["sweep", "--config", config_path, "--out", str(outs[0]),
                "--grid", "5"]) == 2
    assert "--set" in capsys.readouterr().err
    assert run(["sweep", "--config", config_path, "--out", str(outs[0]),
                "--set", "G_au_hz=1e6", "--grid", "5"]) == 0
    assert _read_csv(outs[0])[0][0] == "G_au_hz"


@pytest.mark.parametrize("args, unreliable", [
    (["spectrum"], 1),
    (["sweep", "--set", "f_hz=2.1e6,1e6,2.1e6"], 2),
], ids=["spectrum", "sweep"])
def test_manifest_counts_unreliable_delay_points(tmp_path, args, unreliable):
    # the grid -omega_p, 0, omega_p holds the dark point once per dark curve
    cfg = tmp_path / "dark.cfg"
    cfg.write_text(DARK_CONFIG.replace("\nf_hz = 0\n", "\nf_hz = 2.1e6\n"))
    out = tmp_path / "dark.csv"
    assert run(args + ["--config", str(cfg), "--out", str(out),
                       "--range", "-1:1", "--grid", "3"]) == 0
    manifest = Path(str(out) + ".manifest.txt").read_text()
    assert f"\n# spectrum: unreliable_points={unreliable}\n" in manifest
    assert parse_config(manifest) == parse_config(cfg.read_text())


def test_sweep_failing_on_a_later_curve_writes_no_csv(config_path, tmp_path,
                                                       capsys):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--config", config_path, "--out", str(out),
                "--set", "f_hz=0,-1", "--grid", "21"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
    assert not Path(str(out) + ".manifest.txt").exists()


def test_mode_override(tmp_path):
    cfg = tmp_path / "both.cfg"
    cfg.write_text(MICROSCOPIC_CONFIG + "G_np_hz = 3.5e6\n")
    out = tmp_path / "x.csv"
    code = run(["spectrum", "--config", str(cfg), "--out", str(out),
                "--grid", "11", "--mode", "effective"])
    assert code == 0


def test_mode_override_is_validated(config_path, tmp_path, capsys):
    # the effective baseline has no g_np_hz: switching it to microscopic
    # must fail like the same config file would, and write nothing
    out = tmp_path / "x.csv"
    code = run(["spectrum", "--config", config_path, "--out", str(out),
                "--grid", "11", "--mode", "microscopic"])
    assert code == 1
    assert "microscopic mode requires g_np_hz > 0" in capsys.readouterr().err
    assert not out.exists()


_DELAY_CONFIG = (BASELINE_CONFIG.replace("g1_hz = 1.5e6", "g1_hz = 0")
                 .replace("G_np_hz = 3.5e6", "G_np_hz = 1.2e6")
                 .replace("G_au_hz = 6e6", "G_au_hz = 0"))


# spectrum's manifest rerun is test_manifest_reproduces_run
@pytest.mark.parametrize("config, args", [
    (MICROSCOPIC_CONFIG + "G_np_hz = 3.5e6\n",
     ["spectrum", "--grid", "51", "--mode", "effective"]),
    (MICROSCOPIC_CONFIG, ["steady", "--brange", "0:5e-5", "--grid", "6"]),
    (_DELAY_CONFIG, ["delay", "--sweep", "f", "--grid", "16"]),
    (BASELINE_CONFIG, ["windows", "--grid", "501"]),
    (BASELINE_CONFIG, ["sweep", "--set", "f_hz=0,1.5e6", "--grid", "21"]),
    (BASELINE_CONFIG, ["validate", "--grid", "51"]),
    # an absolute frequency whose detuning had no exact Hz value
    (BASELINE_CONFIG + "omega_n2_hz = 9916974000\n",
     ["spectrum", "--grid", "2001"]),
], ids=["mode", "steady", "delay", "windows", "sweep", "validate",
        "frequency"])
def test_every_manifest_reruns(tmp_path, config, args):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    first = tmp_path / "first.csv"
    assert run(args + ["--config", str(cfg), "--out", str(first)]) == 0
    # the manifest carries the mode, so the rerun drops --mode
    rerun_args = [a for a in args if a not in ("--mode", "effective")]
    manifest = str(first) + ".manifest.txt"
    second = tmp_path / "second.csv"
    assert run(rerun_args + ["--config", manifest, "--out", str(second)]) == 0
    assert second.read_bytes() == first.read_bytes()
    if args[0] == "delay":
        assert (Path(str(second) + ".crossings.csv").read_bytes()
                == Path(str(first) + ".crossings.csv").read_bytes())


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_manifest_reparses(tmp_path, name):
    out = tmp_path / "preset.csv"
    assert run(["preset", name, "--out", str(out), "--grid", "11"]) == 0
    manifest = Path(str(out) + ".manifest.txt").read_text()
    preset = PRESETS[name]
    assert parse_config(manifest) == preset.resolve()
    header, rows = _read_csv(out)
    tunnelling = preset.curve_key == "f_hz"
    assert header[0] == ("f_over_omega_p" if tunnelling else "G_au_hz")
    scale = TWO_PI / preset.resolve().omega_p if tunnelling else 1.0
    expected = [v * scale for v in preset.curve_values]
    tags = list(dict.fromkeys(row[0] for row in rows))
    assert tags == pytest.approx(expected, rel=1e-15, abs=0.0)
    assert len(rows) == 11 * len(expected)


def test_spectrum_preset_is_bounded_by_the_sweep_budget(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run(["preset", "fig3a", "--grid", "250001", "--out", str(out)]) == 1
    assert "sweep budget exceeded" in capsys.readouterr().err
    assert not out.exists()


def test_preset_fig2a_schema(tmp_path):
    out = tmp_path / "fig2a.csv"
    assert run(["preset", "fig2a", "--out", str(out), "--grid", "6"]) == 0
    header, rows = _read_csv(out)
    assert header == ["f_over_omega_p", "B_tesla", "magnon_number",
                      "re_n2s", "im_n2s", "delta_n2_eff", "roots"]
    assert len(rows) == 24  # 4 curves x 6 field points
    manifest = Path(str(out) + ".manifest.txt").read_text()
    assert "\n# steady: max_residual=" in manifest
    # the monotone note holds over all four curves
    assert ("\n# monotone: strictly_increasing=True bistable_points=0\n"
            in manifest)


def test_preset_fig8b_crossings_file(tmp_path):
    out = tmp_path / "fig8b.csv"
    assert run(["preset", "fig8b", "--out", str(out), "--grid", "41"]) == 0
    header, rows = _read_csv(out)
    assert header == ["f_over_omega_p", "G_au_rad_per_s",
                      "G_au_over_omega_p", "tau_s"]
    xheader, xrows = _read_csv(str(out) + ".crossings.csv")
    assert xheader == ["f_over_omega_p", "parameter", "value", "direction"]
    # the uncoupled curve is crossing-free; the f = 0.3 omega_p curve
    # crosses once (reported in both unit conventions)
    tags = {row[0] for row in xrows}
    assert tags == {0.3}
    assert [row[3] for row in xrows] == ["neg->pos", "neg->pos"]
    manifest = Path(str(out) + ".manifest.txt").read_text().splitlines()
    assert "# crossings: found=1 discarded=0" in manifest


def test_every_preset_resolves():
    for name, preset in PRESETS.items():
        p = preset.resolve()
        assert p.omega_p > 0, name
