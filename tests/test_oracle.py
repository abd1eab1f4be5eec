import numpy as np
import pytest

from magnomech.errors import OracleError
import magnomech.oracle as oracle_module
from magnomech.oracle import (CHUNK, ORDERING, FluctuationSystem,
                              build_fluctuation_matrix, cross_validate,
                              solve_fluctuations)
from magnomech.response import evaluate_spectrum
from magnomech.steady_state import solve_steady_state

from conftest import delta_grid, with_overrides
from oracles import bare_cavity_a1m

_MINUS_ROWS = [i for i, name in enumerate(ORDERING) if name.endswith("_minus")]
_PLUS_ROWS = [i for i, name in enumerate(ORDERING) if name.endswith("_plus_conj")]


def test_rhs_carries_only_the_probe(decoupled):
    state = solve_steady_state(decoupled)
    system = build_fluctuation_matrix(decoupled, state, 0.3 * decoupled.omega_p,
                                      eps_d=2.5)
    assert system.rhs[0] == 2.5
    assert np.all(system.rhs[1:] == 0.0)


def test_decoupled_matrix_is_diagonal(decoupled):
    state = solve_steady_state(decoupled)
    delta = 0.7 * decoupled.omega_p
    system = build_fluctuation_matrix(decoupled, state, delta)
    off_diagonal = system.matrix - np.diag(np.diag(system.matrix))
    assert np.all(off_diagonal == 0.0)
    # the a1 row carries the bare-cavity denominator
    assert system.matrix[0, 0] == decoupled.kappa_a + 1j * (
        decoupled.delta_1 - delta)


def test_decoupled_solution_is_bare_lorentzian(decoupled):
    state = solve_steady_state(decoupled)
    for frac in (0.0, 0.5, 1.0, 1.7):
        delta = frac * decoupled.omega_p
        sol = solve_fluctuations(
            build_fluctuation_matrix(decoupled, state, delta))
        assert sol.a1m == pytest.approx(
            complex(bare_cavity_a1m(decoupled, delta)), rel=1e-13)


def test_counter_rotating_blocks_vanish_without_drive(fig3c_template):
    p = with_overrides(fig3c_template, G_np_hz=0.0, f_hz=1.5e6,
                       G_au_hz=6e6)
    state = solve_steady_state(p)
    system = build_fluctuation_matrix(p, state, 1.1 * p.omega_p)
    # no coupling between the lower-sideband and conjugated upper-sideband
    # sectors: the system splits into two independent 6x6 blocks
    assert np.all(system.matrix[np.ix_(_MINUS_ROWS, _PLUS_ROWS)] == 0.0)
    assert np.all(system.matrix[np.ix_(_PLUS_ROWS, _MINUS_ROWS)] == 0.0)
    sol = solve_fluctuations(system)
    assert np.all(sol.amplitudes[_PLUS_ROWS] == 0.0)


def test_driven_system_upper_sideband_is_sourced(fig3c_template):
    p = with_overrides(fig3c_template, f_hz=1.5e6)
    state = solve_steady_state(p)
    system = build_fluctuation_matrix(p, state, p.omega_p)
    assert np.any(system.matrix[np.ix_(_MINUS_ROWS, _PLUS_ROWS)] != 0.0)
    sol = solve_fluctuations(system)
    assert abs(sol.amplitudes[ORDERING.index("p_plus_conj")]) > 0.0


def test_random_systems_meet_residual_bound():
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        matrix = (rng.standard_normal((12, 12))
                  + 1j * rng.standard_normal((12, 12))
                  + 12.0 * np.eye(12))
        rhs = np.zeros(12, complex)
        rhs[0] = 1.0
        system = FluctuationSystem(matrix=matrix, rhs=rhs, ordering=ORDERING,
                                   delta=0.0, eps_d=1.0)
        sol = solve_fluctuations(system)
        assert sol.residual < 1e-12


def test_singular_matrix_reports_delta(decoupled):
    state = solve_steady_state(decoupled)
    system = build_fluctuation_matrix(decoupled, state, 0.25 * decoupled.omega_p)
    broken = FluctuationSystem(matrix=np.zeros((12, 12), complex),
                               rhs=system.rhs, ordering=ORDERING,
                               delta=system.delta, eps_d=1.0)
    with pytest.raises(OracleError, match="singular"):
        solve_fluctuations(broken)

    grid = delta_grid(decoupled, 4)
    stack = build_fluctuation_matrix(decoupled, state, grid)
    stack.matrix[2] = 0.0
    with pytest.raises(OracleError, match="singular .* 4 detunings in"):
        solve_fluctuations(stack)


def test_nan_residual_breaks_the_bound():
    matrix = np.eye(12, dtype=complex)
    matrix[3, 4] = np.nan
    rhs = np.zeros(12, complex)
    rhs[0] = 1.0
    system = FluctuationSystem(matrix=matrix, rhs=rhs, ordering=ORDERING,
                               delta=0.5, eps_d=1.0)
    with pytest.raises(OracleError, match="residual nan .* delta = 0.5 "):
        solve_fluctuations(system)


def test_residual_bound_violation_mentions_condition(fig3c_template):
    p = with_overrides(fig3c_template, f_hz=1.5e6, G_au_hz=6e6)
    state = solve_steady_state(p)
    system = build_fluctuation_matrix(p, state, 0.97 * p.omega_p)
    with pytest.raises(OracleError, match="condition estimate"):
        solve_fluctuations(system, residual_bound=0.0)

    # stacked: the first point over the bound is named, with its condition
    grid = delta_grid(p, 7)
    stack = build_fluctuation_matrix(p, state, grid)
    residuals = [solve_fluctuations(build_fluctuation_matrix(p, state, d))
                 .residual for d in grid]
    bound = float(np.median(residuals))
    first = next(d for d, r in zip(grid, residuals) if r > bound)
    with pytest.raises(OracleError) as info:
        solve_fluctuations(stack, residual_bound=bound)
    assert f"at delta = {float(first)!r} (condition estimate " in str(info.value)


def test_stacked_build_equals_per_point_builds(fig3c_template):
    p = with_overrides(fig3c_template, f_hz=1.5e6, G_au_hz=6e6)
    state = solve_steady_state(p)
    grid = delta_grid(p, 301, lo=-0.5, hi=2.5)
    stack = build_fluctuation_matrix(p, state, grid, eps_d=2.0)
    singles = [build_fluctuation_matrix(p, state, d, eps_d=2.0) for d in grid]
    assert stack.matrix.shape == (grid.size, 12, 12)
    assert np.array_equal(stack.matrix, np.array([s.matrix for s in singles]))
    assert np.array_equal(stack.rhs, singles[0].rhs)
    assert np.array_equal(stack.delta, grid)


def test_stacked_solve_equals_per_point_solves(fig3c_template):
    p = with_overrides(fig3c_template, f_hz=1.5e6, G_au_hz=6e6)
    state = solve_steady_state(p)
    grid = delta_grid(p, 301, lo=-0.5, hi=2.5)
    stacked = solve_fluctuations(build_fluctuation_matrix(p, state, grid))
    singles = [solve_fluctuations(build_fluctuation_matrix(p, state, d))
               for d in grid]
    a1m = np.array([s.a1m for s in singles])
    # bitwise: the same LAPACK solve runs per matrix of the stack
    assert stacked.a1m.view(np.uint64).tolist() == a1m.view(np.uint64).tolist()
    assert np.array_equal(stacked.amplitudes,
                          np.array([s.amplitudes for s in singles]))
    assert isinstance(stacked.residual, float)
    assert stacked.residual == max(s.residual for s in singles)
    assert isinstance(singles[0].a1m, complex)


def test_cross_validate_chunks_match_per_point_reference(fig3c_template):
    p = with_overrides(fig3c_template, f_hz=2e6)
    state = solve_steady_state(p)
    grid = delta_grid(p, 2 * CHUNK + 3)
    report = cross_validate(p, state, grid)
    closed = evaluate_spectrum(p, state, grid).a1m
    expected = []
    for d, cf in zip(grid, closed):
        a1m = solve_fluctuations(build_fluctuation_matrix(p, state, d)).a1m
        expected.append((float(d), abs(cf - a1m) / abs(a1m)))
    assert report.points == expected
    assert report.failures == []
    worst = max(range(len(expected)), key=lambda k: expected[k][1])
    assert report.max_rel_dev == expected[worst][1]
    assert report.argmax_delta == expected[worst][0]
    assert 0.0 < report.max_residual < 1e-12


@pytest.mark.parametrize("delta", [np.zeros((2, 3)), np.zeros(0)])
def test_build_rejects_bad_delta_shapes(decoupled, delta):
    state = solve_steady_state(decoupled)
    with pytest.raises(OracleError, match="non-empty 1-D"):
        build_fluctuation_matrix(decoupled, state, delta)


def test_cross_validate_decoupled_point(decoupled):
    state = solve_steady_state(decoupled)
    report = cross_validate(decoupled, state, [decoupled.delta_1])
    assert report.max_rel_dev < 1e-13
    assert report.failures == []


def test_cross_validate_requires_points(decoupled):
    state = solve_steady_state(decoupled)
    with pytest.raises(OracleError, match="non-empty"):
        cross_validate(decoupled, state, [])


def test_cross_validate_continues_past_failures(decoupled, monkeypatch):
    state = solve_steady_state(decoupled)
    grid = delta_grid(decoupled, CHUNK + 10)
    poisoned = float(grid[CHUNK + 3])   # in the second chunk
    original = oracle_module.build_fluctuation_matrix

    def poison(p, state, delta, eps_d=1.0):
        system = original(p, state, delta, eps_d)
        system.matrix[np.asarray(system.delta) == poisoned] = 0.0  # singular
        return system

    monkeypatch.setattr(oracle_module, "build_fluctuation_matrix", poison)
    report = oracle_module.cross_validate(decoupled, state, grid)
    assert [d for d, _ in report.failures] == [poisoned]
    assert "singular" in report.failures[0][1]
    assert [d for d, _ in report.points] == [float(d) for d in grid
                                             if d != poisoned]
    assert report.max_rel_dev < 1e-13


def test_cross_validate_full_grid(fig3c_template):
    p = with_overrides(fig3c_template, f_hz=2e6)
    state = solve_steady_state(p)
    report = cross_validate(p, state, delta_grid(p, 501))
    assert report.max_rel_dev < 1e-9
    assert report.failures == []
