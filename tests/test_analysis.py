import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnomech import analysis
from magnomech.analysis import (Crossing, Window, _turning_points,
                                delay_sign_crossings, fano_asymmetry,
                                find_windows)
from magnomech.errors import ConfigError
from magnomech.params import parse_config
from magnomech.steady_state import solve_steady_state

from conftest import with_overrides
from oracles import (delay_sign_crossings_pointwise, find_windows_loop,
                     turning_points_loop)

ROOT = Path(__file__).resolve().parent.parent


def _lorentzian(x, center, width):
    return 1.0 / (1.0 + ((x - center) / width) ** 2)


def _doublet(n=1001, left=1.0, right=1.0):
    x = np.linspace(0.0, 10.0, n)
    y = left * _lorentzian(x, 4.0, 0.6) + right * _lorentzian(x, 6.0, 0.6)
    return x, y


def test_single_window_between_two_peaks():
    x, y = _doublet()
    report = find_windows(x, y)
    assert report.count == 1 and report.rejected == 0
    window = report.windows[0]
    assert window.center_delta == pytest.approx(5.0, abs=0.02)
    assert window.left_peak > window.depth
    assert window.right_peak > window.depth


def test_symmetric_doublet_has_zero_asymmetry():
    x, y = _doublet()
    window = find_windows(x, y).windows[0]
    assert fano_asymmetry(window) == pytest.approx(0.0, abs=1e-12)


def test_asymmetric_doublet_metric():
    x, y = _doublet(left=1.0, right=0.6)
    window = find_windows(x, y).windows[0]
    L, R = window.left_peak, window.right_peak
    assert fano_asymmetry(window) == abs(L - R) / (L + R)
    assert fano_asymmetry(window) > 0.05


def test_prominence_filters_shallow_dips():
    x = np.linspace(0.0, 10.0, 2001)
    y = _lorentzian(x, 5.0, 2.0) + 0.02 * np.cos(8.0 * x)
    deep = find_windows(x, y, prominence=0.005)
    shallow = find_windows(x, y, prominence=0.2)
    assert deep.count > 0
    assert shallow.count == 0
    # every flanked minimum is either a window or a rejected candidate
    assert shallow.rejected == deep.count + deep.rejected > 0


def test_plateau_extrema_are_collapsed():
    x = np.linspace(0.0, 8.0, 801)
    y = np.minimum(_doublet(801)[1] * 2.0, 1.2)  # flat-topped peaks
    report = find_windows(x, np.interp(x, np.linspace(0, 10, 801), y))
    assert report.count == 1


def test_census_matches_the_step_by_step_scan():
    rng = np.random.default_rng(31)
    traces = [np.ones(5), np.arange(6.0), np.array([1.0, 0.0, 1.0])]
    for _ in range(300):
        # a few integer levels held for random runs: plateaus, equal peaks
        # and dips, and extrema on the first and last points
        runs = rng.integers(1, 4, rng.integers(2, 25))
        levels = rng.integers(0, 5, runs.size).astype(float)
        traces.append(np.repeat(levels, runs) * rng.choice([1.0, 0.37]))
    traces.append(rng.random(2001))
    for y in traces:
        if y.size < 3:
            continue
        x = np.cumsum(rng.uniform(0.5, 1.5, y.size))
        maxima, minima = _turning_points(y)
        assert (maxima.tolist(), minima.tolist()) == turning_points_loop(y)
        for prominence in (0.05, 0.3, 0.9):
            assert (find_windows(x, y, prominence)
                    == find_windows_loop(x, y, prominence))


@settings(max_examples=30, deadline=None)
@given(scale=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
def test_census_is_scale_invariant(scale):
    x, y = _doublet(601, left=1.0, right=0.7)
    base = find_windows(x, y)
    scaled = find_windows(x, scale * y)
    assert scaled.count == base.count
    for a, b in zip(base.windows, scaled.windows):
        assert b.center_delta == a.center_delta
        assert fano_asymmetry(b) == pytest.approx(fano_asymmetry(a), rel=1e-9)


@pytest.mark.parametrize("x,y,match", [
    ([], [], "empty"),
    ([0.0, 1.0], [1.0, 2.0], "too short"),
    ([0.0, 2.0, 1.0], [1.0, 2.0, 1.0], "ascending"),
    ([0.0, 1.0, 2.0], [1.0, 2.0], "matching"),
])
def test_find_windows_input_validation(x, y, match):
    with pytest.raises(ConfigError, match=match):
        find_windows(np.asarray(x, float), np.asarray(y, float))


def test_find_windows_prominence_validation():
    x, y = _doublet()
    with pytest.raises(ConfigError, match="prominence"):
        find_windows(x, y, prominence=1.5)


def test_featureless_traces_have_no_windows():
    x = np.linspace(0.0, 1.0, 101)
    assert find_windows(x, np.ones_like(x)).count == 0
    assert find_windows(x, x.copy()).count == 0


def test_fano_undefined_without_flanks():
    broken = Window(center_delta=1.0, depth=0.1, left_peak=float("nan"),
                    right_peak=1.0)
    with pytest.raises(ConfigError, match="undefined"):
        fano_asymmetry(broken)


# --- delay sign crossings ---------------------------------------------------

@pytest.fixture(scope="module")
def delay_template(baseline):
    return with_overrides(baseline, g1_hz=0.0, g2_hz=1.2e6,
                          G_np_hz=1.2e6, G_au_hz=0.0)


def test_crossing_found_and_bisected(delay_template):
    wp = delay_template.omega_p
    report = delay_sign_crossings(delay_template, "f",
                                  np.linspace(0.0, 0.3 * wp, 31), wp)
    assert len(report.crossings) == 1
    crossing = report.crossings[0]
    assert crossing.direction == "pos->neg"
    assert crossing.parameter == "f"
    assert crossing.value == pytest.approx(13.20e6, rel=0.01)


def test_crossing_independent_of_grid_density(delay_template):
    wp = delay_template.omega_p
    coarse = delay_sign_crossings(delay_template, "f",
                                  np.linspace(0.0, 0.3 * wp, 16), wp)
    fine = delay_sign_crossings(delay_template, "f",
                                np.linspace(0.0, 0.3 * wp, 53), wp)
    assert len(coarse.crossings) == len(fine.crossings) == 1
    assert coarse.crossings[0].value == pytest.approx(
        fine.crossings[0].value, rel=1e-13)


def test_no_crossing_without_tunnelling(delay_template):
    wp = delay_template.omega_p
    report = delay_sign_crossings(delay_template, "G_au",
                                  np.linspace(0.0, 0.6 * wp, 21), wp)
    assert report.crossings == []
    assert report.tau.size == 21 and np.all(report.tau > 0)


def test_crossing_input_validation(delay_template):
    wp = delay_template.omega_p
    with pytest.raises(ConfigError, match="unknown sweep parameter"):
        delay_sign_crossings(delay_template, "g1", [0.0, wp], wp)
    with pytest.raises(ConfigError, match="ascending"):
        delay_sign_crossings(delay_template, "f", [wp, wp], wp)


def test_crossing_grid_must_be_1d(delay_template):
    wp = delay_template.omega_p
    grid = np.linspace(0.0, 0.3 * wp, 6)
    for bad in (grid.reshape(2, 3), grid[1]):
        with pytest.raises(ConfigError, match="1-D"):
            delay_sign_crossings(delay_template, "f", bad, wp)


def test_unreliable_bracket_is_reported(baseline):
    # matched tunnelling between two resonant bare cavities nulls |t|;
    # the delay diverges there and the bracket must be marked invalid
    p = with_overrides(baseline, g1_hz=0.0, g2_hz=0.0, G_np_hz=0.0,
                       G_au_hz=0.0, delta_1_hz=0.0, delta_2_hz=0.0)
    ka = p.kappa_a
    grid = np.linspace(0.5 * ka, 1.5 * ka, 11)  # contains f = kappa_a
    report = delay_sign_crossings(p, "f", grid, 0.0)
    assert report.crossings == []
    assert report.invalid
    assert not report.reliable[np.argmin(np.abs(grid - ka))]


@pytest.mark.parametrize("parameter, overrides, delta", [
    ("f", {}, 0.0),
    ("G_au", {"f_hz": 3e6}, 0.5),
], ids=["f", "G_au"])
def test_microscopic_sweep_matches_pointwise_loop(micro_baseline, parameter,
                                                  overrides, delta):
    # the steady state depends on the swept coupling: one batched solve
    # must give every point's own steady state
    p = with_overrides(micro_baseline, **overrides)
    grid = np.linspace(0.0, p.omega_p, 41)
    report = delay_sign_crossings(p, parameter, grid, delta * p.omega_p)
    expected, record_tau, record_ok = delay_sign_crossings_pointwise(
        p, parameter, grid, delta * p.omega_p)
    assert len(report.crossings) == 2
    assert report.crossings == expected.crossings
    assert report.invalid == expected.invalid == []
    np.testing.assert_array_equal(report.values, expected.values)
    np.testing.assert_array_equal(report.tau, expected.tau)
    np.testing.assert_array_equal(report.reliable, expected.reliable)
    # each value's own scalar record, the path of a spectrum job
    np.testing.assert_allclose(report.tau, record_tau, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(report.reliable, record_ok)


@pytest.fixture(scope="module")
def three_crossings():
    """Resonant modes at zero probe detuning: |t| vanishes at one G_au, a
    pole of the delay between two ordinary sign changes.  The record is
    the config that tools/compare_outputs.py sweeps in its pole job."""
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "tools" / "compare_outputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    p = parse_config(tool.DARK_CONFIG)
    # t = 0 where 2 kappa_a = kappa_a + g1^2/kappa_n1 + f^2/(kappa_a W6),
    # W6 = 1 + G_au^2/(kappa_a gamma_u)
    w6 = p.f ** 2 / (p.kappa_a * (p.kappa_a - p.g1 ** 2 / p.kappa_n1))
    return p, float(np.sqrt(p.kappa_a * p.gamma_u * (w6 - 1.0)))


@pytest.mark.parametrize("dark", ["grid point", "between grid points"])
def test_brackets_come_back_in_ascending_order(three_crossings, dark):
    p, g_dark = three_crossings
    wp = p.omega_p
    grid = np.linspace(0.0, 0.3 * wp, 31)
    if dark == "grid point":
        grid[np.argmin(np.abs(grid - g_dark))] = g_dark
        reason = "unreliable delay at bracket point"
    else:   # N's zero at the pole draws the refinement to |t| ~ 0
        reason = "unreliable delay during refinement"
    report = delay_sign_crossings(p, "G_au", grid, 0.0)
    expected, _, _ = delay_sign_crossings_pointwise(p, "G_au", grid, 0.0)
    assert report.crossings == expected.crossings
    assert report.invalid == expected.invalid
    np.testing.assert_array_equal(report.reliable, expected.reliable)
    # the lower crossing needs more steps to 4 ulp, so it is still open
    # when the higher one is done
    assert [c.direction for c in report.crossings] == ["pos->neg"] * 2
    lower, upper = (c.value for c in report.crossings)
    assert lower < g_dark < upper
    assert len(report.invalid) == 1
    lo, hi, why = report.invalid[0]
    assert lo <= g_dark <= hi and why == reason


def test_pole_is_discarded_on_every_grid(three_crossings):
    p, g_dark = three_crossings
    found = []
    for n in (31, 121, 1001):
        grid = np.linspace(0.0, 0.3 * p.omega_p, n)
        report = delay_sign_crossings(p, "G_au", grid, 0.0)
        assert len(report.crossings) == 2, n
        [(lo, hi, why)] = report.invalid
        assert lo < g_dark < hi
        assert why == "unreliable delay during refinement"
        found.append([c.value for c in report.crossings])
    np.testing.assert_allclose(found, [found[0]] * 3, rtol=1e-13, atol=0)


def _counting_delays(monkeypatch):
    """Count the ladder passes of every later ``delay_sign_crossings``."""
    calls = []
    delays = analysis._delays

    def counted(*args):
        calls.append(args[2].size)
        assert len(calls) < 100, "the refinement does not end"
        return delays(*args)
    monkeypatch.setattr(analysis, "_delays", counted)
    return calls


@pytest.mark.parametrize("name, passes", [("fig8a", 7), ("fig8b", 9)])
def test_preset_crossings_are_grid_independent(monkeypatch, name, passes):
    from magnomech.params import apply_override
    from magnomech.presets import AXES, get_preset

    preset = get_preset(name)
    lo, hi, _ = preset.axis or AXES["delay"]
    calls = _counting_delays(monkeypatch)
    found = []
    for n in (121, 1001, 8001):
        values = []
        for curve in preset.curve_values:
            p = apply_override(preset.resolve(), preset.curve_key, curve)
            grid = np.linspace(lo * p.omega_p, hi * p.omega_p, n)
            report = delay_sign_crossings(p, preset.sweep_param, grid,
                                          preset.fixed_delta * p.omega_p)
            assert report.invalid == []
            values += [c.value for c in report.crossings]
        found.append(values)
        if n == 121:   # one grid pass per curve, then the refinement
            assert len(calls) - len(preset.curve_values) <= passes
    assert len(found[0]) == 1
    np.testing.assert_allclose(found, [found[0]] * 3, rtol=1e-13, atol=0)


def _synthetic(monkeypatch, t_of, n_of):
    """Replace the physics by t(x) and N(x): tau = N / |t|^2, unreliable
    where |t| < 1e-12, like the ladder's delay."""
    def delays(p, parameter, values, fixed_delta):
        t2 = t_of(values) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            tau = n_of(values) / t2
        return tau, n_of(values), np.sqrt(t2) >= 1e-12
    monkeypatch.setattr(analysis, "_delays", delays)
    return _counting_delays(monkeypatch)


def test_exact_zero_of_n_ends_its_bracket(monkeypatch, delay_template):
    # the first Illinois point of [0, 4] on N = 1 - x is exactly 1
    calls = _synthetic(monkeypatch, np.ones_like, lambda x: 1.0 - x)
    report = delay_sign_crossings(delay_template, "f", [0.0, 4.0], 0.0)
    assert report.crossings == [Crossing("f", 1.0, "pos->neg")]
    assert calls == [2, 1]


def test_smooth_zero_is_refined_to_4_ulp(monkeypatch, delay_template):
    calls = _synthetic(monkeypatch, np.ones_like, lambda x: x * x - 2.0)
    report = delay_sign_crossings(delay_template, "f",
                                  np.linspace(0.0, 3.0, 4), 0.0)
    [crossing] = report.crossings
    assert crossing.direction == "neg->pos"
    assert abs(crossing.value - np.sqrt(2.0)) <= 4 * np.spacing(np.sqrt(2.0))
    assert len(calls) <= 12     # bisection would take about 50 passes


def test_pole_between_reliable_grid_points_is_discarded(monkeypatch,
                                                        delay_template):
    # tau = (t + t^3) / t^2 changes sign at t = 0 through a pole; N does
    # not, and its zero leads the refinement to where |t| ~ 0
    calls = _synthetic(monkeypatch, lambda x: x - 0.3,
                       lambda x: (x - 0.3) + (x - 0.3) ** 3)
    report = delay_sign_crossings(delay_template, "f",
                                  np.linspace(0.0, 1.0, 5), 0.0)
    assert report.reliable.all()
    assert report.crossings == []
    [(lo, hi, why)] = report.invalid
    assert lo <= 0.3 <= hi and why == "unreliable delay during refinement"
    assert len(calls) <= 10


# --- figure-level trends ------------------------------------------------------

def _preset_absorption(name, curve_value, n=2001, lo=0.0, hi=2.0):
    from magnomech.params import apply_override
    from magnomech.presets import get_preset
    from magnomech.response import evaluate_spectrum

    preset = get_preset(name)
    p = apply_override(preset.resolve(), preset.curve_key, curve_value)
    state = solve_steady_state(p)
    grid = np.linspace(lo * p.omega_p, hi * p.omega_p, n)
    return p, grid, evaluate_spectrum(p, state, grid).eout.real


def test_single_window_sits_at_the_phonon_frequency():
    p, grid, absorption = _preset_absorption("fig3a", 0.0)
    report = find_windows(grid, absorption)
    assert report.count == 1
    assert report.windows[0].center_delta == pytest.approx(p.omega_p,
                                                           rel=1e-3)


def test_absorption_peaks_fall_with_tunnelling():
    from magnomech.presets import get_preset
    maxima = [float(np.max(_preset_absorption("fig3c", v)[2]))
              for v in get_preset("fig3c").curve_values]
    assert all(b < a for a, b in zip(maxima, maxima[1:]))


def test_absorption_peaks_rise_with_atom_coupling():
    from magnomech.presets import get_preset
    for name in ("fig4a", "fig4b", "fig4c"):
        maxima = [float(np.max(_preset_absorption(name, v)[2]))
                  for v in get_preset(name).curve_values]
        assert all(b > a for a, b in zip(maxima, maxima[1:])), name


def test_drive_field_widens_phonon_windows():
    # the two dips carved around the phonon-induced revival separate and
    # deepen as the drive field (hence the built-up coupling) grows
    separations = []
    depth_contrast = []
    for name in ("fig5a", "fig5b", "fig5c"):
        p, grid, absorption = _preset_absorption(name, 0.0, n=24001,
                                                 lo=0.7, hi=1.3)
        report = find_windows(grid, absorption, prominence=0.02)
        assert report.count == 2, name
        left, right = report.windows
        separations.append(right.center_delta - left.center_delta)
        depth_contrast.append(min(left.right_peak - left.depth,
                                  right.left_peak - right.depth))
    assert separations[0] < separations[1] < separations[2]
    assert depth_contrast[0] < depth_contrast[1] < depth_contrast[2]


def test_window_census_stable_under_grid_refinement():
    from magnomech.params import apply_override
    from magnomech.presets import get_preset
    from magnomech.response import evaluate_spectrum

    for name in ("fig3a", "fig3b", "fig3c", "fig4a", "fig4b", "fig4c",
                 "fig5a", "fig5b", "fig5c", "fig6a", "fig6b",
                 "fig7a", "fig7b"):
        preset = get_preset(name)
        base = preset.resolve()
        for value in preset.curve_values:
            p = apply_override(base, preset.curve_key, value)
            state = solve_steady_state(p)
            counts = []
            for n in (501, 2001):
                grid = np.linspace(0.0, 2.0 * p.omega_p, n)
                absorption = evaluate_spectrum(p, state, grid).eout.real
                counts.append(find_windows(grid, absorption).count)
            assert counts[0] == counts[1], (name, value, counts)
