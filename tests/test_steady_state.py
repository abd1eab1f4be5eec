import math
from dataclasses import replace

import numpy as np
import pytest

from magnomech.errors import ConfigError, ConvergenceError
from magnomech.params import TWO_PI, apply_override, rabi_frequency
from magnomech.presets import get_preset
from magnomech.steady_state import (kerr_validity, magnon_number_sweep,
                                    solve_steady_state)

from conftest import with_overrides
from oracles import (magnon_population_direct, magnon_population_root,
                     steady_equation_residual)


@pytest.fixture()
def micro(micro_baseline):
    """Microscopic baseline with the drive-built coupling and 1.2 MHz magnon
    couplings (the steady-state figure's values)."""
    return with_overrides(micro_baseline, g1_hz=1.2e6, g2_hz=1.2e6)


def test_effective_mode_embedding(baseline):
    state = solve_steady_state(baseline)
    assert state.G_np_eff == baseline.G_np_direct
    assert state.delta_n2_eff == baseline.delta_n2
    assert state.magnon_number == 0.0
    assert state.iterations == 0
    for name in ("a1s", "a2s", "n1s", "n2s", "us", "ps"):
        assert getattr(state, name) == 0j


def test_undriven_system_is_empty(micro):
    state = solve_steady_state(micro, Omega=0.0)
    assert state.magnon_number == 0.0
    assert state.n2s == 0j and state.a1s == 0j and state.ps == 0j
    assert state.delta_n2_eff == micro.delta_n2
    assert state.G_np_eff == 0j


def test_single_decoupled_driven_mode(micro):
    # with every coupling off the driven magnon is a bare damped mode
    p = replace(with_overrides(micro, g1_hz=0.0, g2_hz=0.0, f_hz=0.0,
                               G_au_hz=0.0), g_np=1e-30)
    omega = 1e9
    state = solve_steady_state(p, Omega=omega)
    expected = omega / (p.kappa_n2 + 1j * p.delta_n2)
    assert state.n2s == pytest.approx(expected, rel=1e-12)
    assert state.delta_n2_eff == p.delta_n2
    assert state.a1s == 0j


def test_population_matches_direct_solve():
    # absolute populations on the fig2a grid against the 5x5 direct solve,
    # which shares none of the production chain-product algebra
    preset = get_preset("fig2a")
    base = preset.resolve()
    b_grid = np.linspace(preset.b_lo, preset.b_hi, preset.b_points)
    for value in preset.curve_values:
        p = apply_override(base, preset.curve_key, value)
        produced = [pt.state.magnon_number
                    for pt in magnon_number_sweep(p, b_grid).points]
        direct = [magnon_population_direct(p, rabi_frequency(
            b, p.sphere_diameter, p.spin_density, p.gyromagnetic_ratio))
            for b in b_grid]
        np.testing.assert_allclose(produced, direct, rtol=1e-9, atol=0)


def test_back_substitution_residual(micro):
    omega = rabi_frequency(micro.B_field, micro.sphere_diameter,
                           micro.spin_density, micro.gyromagnetic_ratio)
    state = solve_steady_state(micro)
    # residual recomputed here from the balance equations, independently
    # of the solver's own bookkeeping
    assert steady_equation_residual(micro, state, omega) < 1e-10
    assert state.residual < 1e-10


def test_fixed_point_matches_root_find(micro):
    for b in (1e-5, 3.3e-5, 5e-5):
        p = with_overrides(micro, B_tesla=b)
        omega = rabi_frequency(b, p.sphere_diameter, p.spin_density,
                               p.gyromagnetic_ratio)
        state = solve_steady_state(p)
        root = magnon_population_root(p, omega)
        assert state.magnon_number == pytest.approx(root, rel=1e-8)


def test_fixed_point_matches_root_find_random_parameters(micro):
    import numpy as np

    rng = np.random.default_rng(118999)
    for _ in range(15):
        p = micro
        for key, scale in (("g1_hz", 2e6), ("g2_hz", 2e6), ("f_hz", 4e6),
                           ("G_au_hz", 8e6)):
            p = with_overrides(p, **{key: float(rng.uniform(0.0, scale))})
        p = with_overrides(p, B_tesla=float(rng.uniform(1e-6, 1e-4)),
                           g_np_hz=float(rng.uniform(1e-4, 1e-1)))
        omega = rabi_frequency(p.B_field, p.sphere_diameter, p.spin_density,
                               p.gyromagnetic_ratio)
        state = solve_steady_state(p)
        assert steady_equation_residual(p, state, omega) < 1e-10
        root = magnon_population_root(p, omega)
        assert state.magnon_number == pytest.approx(root, rel=1e-8)


def test_effective_coupling_definition(micro):
    state = solve_steady_state(micro)
    assert state.G_np_eff == 1j * math.sqrt(2.0) * micro.g_np * state.n2s
    assert state.magnon_number == abs(state.n2s) ** 2


def test_phonon_displacement_relation(micro):
    state = solve_steady_state(micro)
    expected = -1j * micro.g_np * state.magnon_number / (
        micro.kappa_p + 1j * micro.omega_p)
    assert state.ps == pytest.approx(expected, rel=1e-12)


def test_sweep_monotone_in_drive_field(micro):
    grid = np.linspace(2e-6, 5e-5, 25)
    sweep = magnon_number_sweep(micro, grid)
    assert sweep.strictly_increasing
    assert sweep.jump_indices == []
    numbers = [pt.state.magnon_number for pt in sweep.points]
    assert all(b > a for a, b in zip(numbers, numbers[1:]))


def test_sweep_single_zero_point(micro):
    sweep = magnon_number_sweep(micro, [0.0])
    assert len(sweep.points) == 1
    assert sweep.points[0].state.magnon_number == 0.0


def test_sweep_warm_and_cold_start_agree(micro):
    grid = np.linspace(1e-5, 5e-5, 9)
    warm = magnon_number_sweep(micro, grid, warm_start=True)
    cold = magnon_number_sweep(micro, grid, warm_start=False)
    for a, b in zip(warm.points, cold.points):
        assert a.state.magnon_number == pytest.approx(
            b.state.magnon_number, rel=1e-10)


def test_sweep_requires_sorted_grid(micro):
    with pytest.raises(ConfigError, match="ascending"):
        magnon_number_sweep(micro, [1e-5, 1e-5])


def test_sweep_rejects_effective_mode(baseline):
    with pytest.raises(ConfigError, match="microscopic"):
        magnon_number_sweep(baseline, [1e-5])


def test_continuity_over_dense_grid(micro):
    # adjacent points differ by O(dB): no flagged jumps on a smooth branch
    grid = np.linspace(1e-6, 5e-5, 50)
    sweep = magnon_number_sweep(micro, grid)
    assert sweep.jump_indices == []


def test_non_convergence_reports_residual(micro):
    with pytest.raises(ConvergenceError, match="did not converge"):
        solve_steady_state(micro, max_iter=1)


def test_negative_drive_rejected(micro):
    with pytest.raises(ConfigError, match="Omega"):
        solve_steady_state(micro, Omega=-1.0)


# --- Kerr validity diagnostic ----------------------------------------------

def test_kerr_zero_coefficient(micro):
    state = solve_steady_state(micro)
    diag = kerr_validity(state, 0.0, 1e9)
    assert diag.ratio == 0.0 and diag.ok


def test_kerr_undriven(micro):
    state = solve_steady_state(micro, Omega=0.0)
    diag = kerr_validity(state, 1e-3, 0.0)
    assert diag.ratio == 0.0 and diag.ok


def test_kerr_zero_drive_with_population(micro):
    state = solve_steady_state(micro)
    diag = kerr_validity(state, 1e-3, 0.0)
    assert math.isinf(diag.ratio) and not diag.ok


def test_kerr_baseline_ratio(micro):
    # K/2pi = 10 nHz is a typical Kerr-per-magnon scale for a 250 um sphere
    omega = rabi_frequency(micro.B_field, micro.sphere_diameter,
                           micro.spin_density, micro.gyromagnetic_ratio)
    state = solve_steady_state(micro)
    K = TWO_PI * 1e-8
    diag = kerr_validity(state, K, omega)
    assert diag.ratio == pytest.approx(
        K * state.magnon_number ** 1.5 / omega, rel=1e-12)
    assert diag.ok == (diag.ratio < 0.01)


def test_kerr_rejects_negative_coefficient(micro):
    state = solve_steady_state(micro)
    with pytest.raises(ConfigError, match="non-negative"):
        kerr_validity(state, -1.0, 1.0)
