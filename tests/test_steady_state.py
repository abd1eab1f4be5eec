import math
from dataclasses import replace

import numpy as np
import pytest

from magnomech.analysis import delay_sign_crossings
from magnomech.errors import ConfigError, ConvergenceError
from magnomech.params import apply_override, rabi_frequency
from magnomech.presets import AXES, get_preset
from magnomech.steady_state import (equations_residual, magnon_number_sweep,
                                    solve_steady_state)

from conftest import with_overrides
from oracles import (magnon_population_direct, magnon_population_root,
                     magnon_population_roots_direct, steady_equation_residual)


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
    assert state.roots == 0
    for name in ("a1s", "a2s", "n1s", "n2s", "us", "ps"):
        assert getattr(state, name) == 0j


def test_undriven_system_is_empty(micro):
    state = solve_steady_state(with_overrides(micro, B_tesla=0.0))
    assert state.magnon_number == 0.0
    assert state.n2s == 0j and state.a1s == 0j and state.ps == 0j
    assert state.delta_n2_eff == micro.delta_n2
    assert state.G_np_eff == 0j


def test_single_decoupled_driven_mode(micro):
    # with every coupling off the driven magnon is a bare damped mode
    p = replace(with_overrides(micro, g1_hz=0.0, g2_hz=0.0, f_hz=0.0,
                               G_au_hz=0.0), g_np=1e-30)
    omega = rabi_frequency(p.B_field, p.sphere_diameter, p.spin_density,
                           p.gyromagnetic_ratio)
    state = solve_steady_state(p)
    expected = omega / (p.kappa_n2 + 1j * p.delta_n2)
    assert state.n2s == pytest.approx(expected, rel=1e-12)
    assert state.delta_n2_eff == p.delta_n2
    assert state.a1s == 0j


def test_population_matches_direct_solve():
    # absolute populations on the fig2a grid against the 5x5 direct solve,
    # which shares none of the production chain-product algebra
    preset = get_preset("fig2a")
    base = preset.resolve()
    assert preset.axis is None
    b_grid = np.linspace(*AXES["steady"])
    for value in preset.curve_values:
        p = apply_override(base, preset.curve_key, value)
        produced = magnon_number_sweep(p, b_grid).magnon_number
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
    assert np.all(sweep.roots == 1)
    assert np.all(np.diff(sweep.magnon_number) > 0.0)


def test_sweep_single_zero_point(micro):
    sweep = magnon_number_sweep(micro, [0.0])
    assert sweep.magnon_number.shape == (1,)
    assert sweep.magnon_number[0] == 0.0


def test_sweep_matches_pointwise_solves(micro, bistable):
    # the batched sweep and one-point solves agree to rounding: numpy's
    # vector complex arithmetic rounds differently from its scalar one
    for p, grid in ((micro, np.linspace(1e-5, 5e-5, 9)),
                    (bistable, np.linspace(1e-7, 6e-6, 9))):
        sweep = magnon_number_sweep(p, grid)
        for k, b in enumerate(grid):
            point = solve_steady_state(with_overrides(p, B_tesla=b))
            assert sweep.roots[k] == point.roots
            for name in ("a1s", "a2s", "n1s", "n2s", "us", "ps",
                         "delta_n2_eff", "G_np_eff", "magnon_number"):
                value = getattr(point, name)
                assert abs(getattr(sweep, name)[k] - value) <= (
                    1e-14 * abs(value)), (name, b)
            # the residual is rounding noise itself, so each side is only
            # held far below the 1e-8 sanity bound
            assert sweep.residual[k] < 1e-13 and point.residual < 1e-13
        assert set(sweep.roots.tolist()) == ({1} if p is micro else {1, 3})


def test_sweep_requires_sorted_grid(micro):
    for grid, message in (([1e-5, 1e-5], "ascending"),
                          ([], "non-empty 1-D"),
                          ([[1e-5, 2e-5]], "non-empty 1-D"),
                          ([-1e-5, 1e-5], "B must be non-negative")):
        with pytest.raises(ConfigError, match=message):
            magnon_number_sweep(micro, grid)


def test_sweep_rejects_effective_mode(baseline):
    with pytest.raises(ConfigError, match="microscopic"):
        magnon_number_sweep(baseline, [1e-5])


def test_continuity_over_dense_grid(micro):
    # one root at every point: a single smooth branch
    grid = np.linspace(1e-6, 5e-5, 50)
    sweep = magnon_number_sweep(micro, grid)
    assert np.all(sweep.roots == 1)


def test_non_convergence_reports_residual(micro):
    # at an absurd coupling the population overflows; the residual bound
    # must reject it rather than return NaN amplitudes
    p = with_overrides(micro, g_np_hz=1e40, B_tesla=1.0)
    with pytest.raises(ConvergenceError, match="residual inf exceeds"):
        solve_steady_state(p)
    with pytest.raises(ConvergenceError, match=r"B = 1\.0 T: .*residual"):
        magnon_number_sweep(p, [0.0, 1.0])
    # a coupling sweep solves at one drive field: the error names the
    # coupling value as well
    with pytest.raises(ConvergenceError,
                       match=r"^G_au = 1000000\.0 rad/s, B = 1\.0 T: "):
        delay_sign_crossings(p, "G_au", [1e6, 2e6], p.omega_p)


def test_nan_state_has_infinite_residual(micro):
    # a NaN amplitude must not vanish from the worst-equation fold
    state = replace(solve_steady_state(micro), n2s=complex("nan+nanj"))
    omega = rabi_frequency(micro.B_field, micro.sphere_diameter,
                           micro.spin_density, micro.gyromagnetic_ratio)
    assert equations_residual(micro, state, omega) == math.inf
    assert steady_equation_residual(micro, state, omega) == math.inf


def test_negative_drive_rejected(micro):
    with pytest.raises(ConfigError, match="B_field must be non-negative"):
        with_overrides(micro, B_tesla=-1e-6)


# --- the cubic's roots -------------------------------------------------------

def _omega(p, b):
    return rabi_frequency(b, p.sphere_diameter, p.spin_density,
                          p.gyromagnetic_ratio)


@pytest.fixture()
def bistable(micro_baseline):
    """A point where the steady cubic has three positive roots at 1 uT."""
    return with_overrides(micro_baseline, g_np_hz=1.0, delta_n2_hz=5e6)


def test_strong_coupling_single_root(micro_baseline):
    # g_np/2pi = 5 Hz: a strongly shifted but unique steady state
    p = with_overrides(micro_baseline, g_np_hz=5.0, B_tesla=1e-5)
    state = solve_steady_state(p)
    assert state.roots == 1
    (root,) = magnon_population_roots_direct(p, _omega(p, 1e-5))
    assert state.magnon_number == pytest.approx(root, rel=1e-9)
    assert state.magnon_number == pytest.approx(4.6525e12, rel=1e-4)


def test_bistable_point_reports_lowest_of_three_roots(bistable):
    p = with_overrides(bistable, B_tesla=1e-6)
    state = solve_steady_state(p)
    assert state.roots == 3
    roots = magnon_population_roots_direct(p, _omega(p, 1e-6))
    assert len(roots) == 3
    np.testing.assert_allclose(roots, [3.8195e11, 2.0798e13, 2.662e13],
                               rtol=1e-4)
    assert state.magnon_number == pytest.approx(roots[0], rel=1e-9)


def test_ascending_sweep_jumps_once_where_the_branch_ends(bistable):
    grid = np.linspace(1e-7, 6e-6, 60)
    sweep = magnon_number_sweep(bistable, grid)
    roots = sweep.roots.tolist()
    runs = [r for k, r in enumerate(roots) if k == 0 or r != roots[k - 1]]
    assert runs == [1, 3, 1]
    # the population per unit drive power changes slowly along a branch and
    # at least doubles where the lower branch ends
    chi = (sweep.magnon_number / grid ** 2).tolist()
    jumps = [k for k in range(1, len(chi)) if chi[k] > 2.0 * chi[k - 1]]
    assert jumps == [roots.index(1, roots.index(3))]
    for k in (0, len(grid) // 2, jumps[0], len(grid) - 1):
        lowest = magnon_population_roots_direct(
            bistable, _omega(bistable, grid[k]))[0]
        assert sweep.magnon_number[k] == pytest.approx(
            lowest, rel=1e-9)
