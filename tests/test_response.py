import math

import numpy as np
import pytest

from magnomech.errors import ResponseError
from magnomech.oracle import cross_validate
from magnomech.response import evaluate_spectrum
from magnomech.steady_state import solve_steady_state

from conftest import delta_grid, with_overrides
from oracles import (bare_cavity_a1m, finite_difference_group_delay,
                     resolvent_group_delay)


def test_bare_cavity_lorentzian(decoupled):
    state = solve_steady_state(decoupled)
    rng = np.random.default_rng(7)
    deltas = rng.uniform(-2, 2, size=20) * decoupled.omega_p
    a1m = evaluate_spectrum(decoupled, state, deltas).a1m
    assert np.allclose(a1m, bare_cavity_a1m(decoupled, deltas), rtol=1e-14)


def test_output_field_identities(fig3c_template):
    p = with_overrides(fig3c_template, f_hz=1.5e6, G_au_hz=6e6)
    state = solve_steady_state(p)
    grid = delta_grid(p, 101)
    spectrum = evaluate_spectrum(p, state, grid)
    assert np.all(spectrum.eout == 2.0 * p.kappa_a * spectrum.a1m)
    assert np.all(spectrum.t + spectrum.eout == 1.0)
    assert np.all(spectrum.t2 == np.abs(spectrum.t) ** 2)


def test_scalar_detuning_equals_its_grid_element(fig3c_template):
    p = with_overrides(fig3c_template, f_hz=1.5e6, G_au_hz=6e6)
    state = solve_steady_state(p)
    grid = delta_grid(p, 101)
    spectrum = evaluate_spectrum(p, state, grid)
    # exact at k = 37: pins the scalar path's rounding ...
    point = evaluate_spectrum(p, state, grid[37])
    assert point.t == spectrum.t[37]
    assert point.eout == spectrum.eout[37]
    # ... but numpy's vector complex multiply and divide round differently
    # from its scalar ones, so at other points the two paths agree to a few
    # units in the last place, not bit for bit
    for k in range(grid.size):
        point = evaluate_spectrum(p, state, float(grid[k]))
        assert point.delta.shape == point.a1m.shape == point.tau.shape == ()
        assert point.delta == grid[k]
        for name in ("a1m", "eout", "t", "t2", "tau"):
            np.testing.assert_allclose(getattr(point, name),
                                       getattr(spectrum, name)[k],
                                       rtol=1e-14, atol=0, err_msg=name)
        assert point.tau_reliable == spectrum.tau_reliable[k]
    with pytest.raises(ResponseError, match="1-D"):
        evaluate_spectrum(p, state, grid[:100].reshape(10, 10))


def test_long_grid_is_evaluated_in_chunks(fig3c_template, monkeypatch):
    import magnomech.steady_state as steady_state

    p = with_overrides(fig3c_template, f_hz=1.5e6, G_au_hz=6e6)
    state = solve_steady_state(p)
    grid = delta_grid(p, steady_state.CHUNK + 1001)
    chunked = evaluate_spectrum(p, state, grid)
    # the same bytes as one pass over the whole grid
    monkeypatch.setattr(steady_state, "CHUNK", grid.size)
    one_pass = evaluate_spectrum(p, state, grid)
    for name in ("delta", "a1m", "eout", "t", "t2", "tau", "tau_reliable"):
        assert (getattr(chunked, name).tobytes()
                == getattr(one_pass, name).tobytes()), name


def test_decoupled_resonant_output(decoupled):
    state = solve_steady_state(decoupled)
    point = evaluate_spectrum(decoupled, state, decoupled.delta_1)
    eout = complex(point.eout)
    assert abs(eout.real - 2.0) < 1e-12
    assert abs(eout.imag) < 1e-12
    t = complex(point.t)
    assert abs(t - (-1.0)) < 1e-12
    assert abs(t) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_bare_cavity_passivity(decoupled):
    state = solve_steady_state(decoupled)
    grid = delta_grid(decoupled, 2001, lo=-2.0, hi=4.0)
    absorption = np.real(evaluate_spectrum(decoupled, state, grid).eout)
    assert np.all(absorption >= 0.0)
    assert np.all(absorption <= 2.0)


def test_group_delay_bare_cavity(decoupled):
    state = solve_steady_state(decoupled)
    point = evaluate_spectrum(decoupled, state, decoupled.delta_1)
    expected = 2.0 / decoupled.kappa_a
    assert float(point.tau) == pytest.approx(expected, rel=1e-12)
    assert point.tau_reliable


def test_group_delay_step_halving(fig3c_template):
    # the exact delay against the resolvent derivative and against a
    # step-halving extrapolated central difference
    p = with_overrides(fig3c_template, f_hz=2e6)
    state = solve_steady_state(p)
    grid = delta_grid(p, 501, lo=0.5, hi=1.5)
    tau = evaluate_spectrum(p, state, grid).tau
    exact = resolvent_group_delay(p, state, grid)
    assert float(np.max(np.abs(tau - exact) / np.abs(exact))) < 1e-9
    fd = finite_difference_group_delay(p, state, grid)
    assert float(np.max(np.abs(tau - fd))) < 1e-4 * float(np.max(np.abs(tau)))


def test_group_delay_flags_dark_point(baseline):
    # two identical resonant cavities at matched tunnelling transmit
    # nothing: |t| = 0 and the phase is undefined
    p = with_overrides(baseline, g1_hz=0.0, g2_hz=0.0, G_np_hz=0.0,
                       G_au_hz=0.0, f_hz=2.1e6, delta_1_hz=0.0,
                       delta_2_hz=0.0)
    state = solve_steady_state(p)
    point = evaluate_spectrum(p, state, 0.0)
    assert abs(point.t) < 1e-12
    assert not point.tau_reliable


def test_group_delay_flags_dark_point_in_grid(baseline):
    p = with_overrides(baseline, g1_hz=0.0, g2_hz=0.0, G_np_hz=0.0,
                       G_au_hz=0.0, f_hz=2.1e6, delta_1_hz=0.0,
                       delta_2_hz=0.0)
    state = solve_steady_state(p)
    grid = np.array([-1e6, 0.0, 1e6])
    spectrum = evaluate_spectrum(p, state, grid)
    assert spectrum.tau_reliable.tolist() == [True, False, True]
    assert np.all(np.isfinite(spectrum.tau[[0, 2]]))


def test_spectrum_grid_validation(baseline):
    state = solve_steady_state(baseline)
    with pytest.raises(ResponseError, match="non-empty"):
        evaluate_spectrum(baseline, state, [])


def test_spectrum_points_view(baseline):
    state = solve_steady_state(baseline)
    grid = delta_grid(baseline, 21)
    spectrum = evaluate_spectrum(baseline, state, grid)
    assert spectrum.delta.shape == spectrum.t.shape == (21,)
    np.testing.assert_array_equal(spectrum.delta, grid)
    np.testing.assert_array_equal(spectrum.eout,
                                  2.0 * baseline.kappa_a * spectrum.a1m)
    np.testing.assert_array_equal(spectrum.t, 1.0 - spectrum.eout)
    np.testing.assert_array_equal(spectrum.t2, np.abs(spectrum.t) ** 2)


def test_non_finite_detuning_reported(baseline):
    state = solve_steady_state(baseline)
    with pytest.raises(ResponseError, match="singular"):
        evaluate_spectrum(baseline, state, math.nan)
    grid = delta_grid(baseline, 5)
    grid[2] = math.nan
    with pytest.raises(ResponseError, match=r"singular .* = nan \(1 of 5 "):
        evaluate_spectrum(baseline, state, grid)
    # overflow is silenced inside the pass (a RuntimeWarning would fail
    # this test under the tier-1 filter); the first bad detuning is named
    with pytest.raises(ResponseError, match=r"^singular probe response at "
                       r"delta = 1e\+300 \(3 of 4 points\)$"):
        evaluate_spectrum(baseline, state, [0.0, 1e300, 2e300, 3e300])


def test_closed_form_matches_oracle_effective(fig3c_template):
    p = with_overrides(fig3c_template, f_hz=1.5e6, G_au_hz=6e6)
    state = solve_steady_state(p)
    report = cross_validate(p, state, delta_grid(p, 401))
    assert report.max_rel_dev < 1e-9


def test_direct_coupling_phase_does_not_move_spectra(fig3c_template):
    """Only the magnitude of the enhanced coupling reaches the probe.

    The coupling enters the closed form squared-magnitude-wise and the
    direct solve only through products with its conjugate, so spectra for
    equal-magnitude complex values must coincide.
    """
    from magnomech.params import apply_override

    grid = delta_grid(fig3c_template, 201)
    results = []
    for value in ("1.2e6", "1.2e6j", "0.6e6+1.0392304845413263e6j"):
        p = apply_override(fig3c_template, "G_np_hz", complex(value))
        state = solve_steady_state(p)
        results.append(evaluate_spectrum(p, state, grid).a1m)
        report = cross_validate(p, state, grid[::20])
        assert report.max_rel_dev < 1e-9
    assert np.allclose(results[0], results[1], rtol=1e-12)
    assert np.allclose(results[0], results[2], rtol=1e-9)


def test_closed_form_matches_oracle_microscopic(micro_baseline):
    # the steady magnon amplitude is complex here, so this pins down the
    # squared-magnitude reading of the enhanced coupling in the ladder
    p = with_overrides(micro_baseline, f_hz=1.5e6, B_tesla=5e-5)
    state = solve_steady_state(p)
    assert abs(state.n2s.real) > 0.0 and abs(state.n2s.imag) > 0.0
    report = cross_validate(p, state, delta_grid(p, 401))
    assert report.max_rel_dev < 1e-9


def test_closed_form_matches_oracle_random_parameters(baseline):
    """Randomised couplings/detunings: the two routes must always agree."""
    from magnomech.params import apply_override

    rng = np.random.default_rng(431977)
    for _ in range(20):
        p = baseline
        for key, scale in (("g1_hz", 2e6), ("g2_hz", 2e6), ("f_hz", 4e6),
                           ("G_au_hz", 8e6), ("G_np_hz", 4e6)):
            p = apply_override(p, key, float(rng.uniform(0.0, scale)))
        for key in ("delta_1_hz", "delta_2_hz", "delta_u_hz",
                    "delta_n1_hz", "delta_n2_hz"):
            p = apply_override(p, key, float(rng.uniform(-15e6, 15e6)))
        state = solve_steady_state(p)
        deltas = rng.uniform(-1.0, 3.0, size=21) * p.omega_p
        report = cross_validate(p, state, np.sort(deltas))
        assert report.max_rel_dev < 1e-9, p


def test_near_resonant_symmetry_scaling(fig3c_template):
    """Mirror symmetry about the phonon-resonant probe is only approximate.

    The counter-rotating phonon sideband sits a distance 2 omega_p away,
    which skews the response at relative order x / omega_p.  The measured
    imbalance follows that law; it does not stay below 1e-3 across the
    0.05 omega_p neighbourhood.
    """
    state = solve_steady_state(fig3c_template)
    wp = fig3c_template.omega_p
    fractions = np.array([1e-4, 5e-4, 1e-3, 5e-3, 2e-2, 5e-2])
    plus = evaluate_spectrum(fig3c_template, state, wp + fractions * wp).eout.real
    minus = evaluate_spectrum(fig3c_template, state, wp - fractions * wp).eout.real
    rel = np.abs(plus - minus) / np.abs(minus)
    assert np.all(rel <= 2.5 * fractions + 1e-12)
    assert rel[0] < 1e-3  # symmetric to 1e-3 only very close to centre
    assert rel[-1] > 1e-2  # and measurably skewed at the window positions
