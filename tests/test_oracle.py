import math

import numpy as np
import pytest

from magnomech.errors import OracleError
from magnomech.oracle import (CHUNK, ORDERING, FluctuationSystem,
                              build_fluctuation_matrix, cross_validate,
                              solve_fluctuations)
from magnomech.response import evaluate_spectrum
from magnomech.steady_state import solve_steady_state

from conftest import delta_grid, with_overrides
from oracles import bare_cavity_a1m, explicit_solve

_MINUS_ROWS = [i for i, name in enumerate(ORDERING) if name.endswith("_minus")]
_PLUS_ROWS = [i for i, name in enumerate(ORDERING) if name.endswith("_plus_conj")]


def test_rhs_carries_only_the_probe(decoupled):
    state = solve_steady_state(decoupled)
    system = build_fluctuation_matrix(decoupled, state)
    assert system.rhs[0] == 1.0
    assert np.all(system.rhs[1:] == 0.0)


def test_decoupled_matrix_is_diagonal(decoupled):
    state = solve_steady_state(decoupled)
    system = build_fluctuation_matrix(decoupled, state)
    off_diagonal = system.matrix - np.diag(np.diag(system.matrix))
    assert np.all(off_diagonal == 0.0)
    # the a1 row carries the bare-cavity denominator at zero detuning
    assert system.matrix[0, 0] == decoupled.kappa_a + 1j * decoupled.delta_1


def test_decoupled_solution_is_bare_lorentzian(decoupled):
    state = solve_steady_state(decoupled)
    system = build_fluctuation_matrix(decoupled, state)
    for frac in (0.0, 0.5, 1.0, 1.7):
        delta = frac * decoupled.omega_p
        sol = solve_fluctuations(system, delta)
        assert sol.a1m == pytest.approx(
            complex(bare_cavity_a1m(decoupled, delta)), rel=1e-13)


def test_counter_rotating_blocks_vanish_without_drive(fig3c_template):
    p = with_overrides(fig3c_template, G_np_hz=0.0, f_hz=1.5e6,
                       G_au_hz=6e6)
    state = solve_steady_state(p)
    system = build_fluctuation_matrix(p, state)
    # no coupling between the lower-sideband and conjugated upper-sideband
    # sectors: the system splits into two independent 6x6 blocks
    assert np.all(system.matrix[np.ix_(_MINUS_ROWS, _PLUS_ROWS)] == 0.0)
    assert np.all(system.matrix[np.ix_(_PLUS_ROWS, _MINUS_ROWS)] == 0.0)
    sol = solve_fluctuations(system, 1.1 * p.omega_p)
    assert np.max(np.abs(sol.amplitudes[_PLUS_ROWS])) < 1e-14 * np.max(
        np.abs(sol.amplitudes))


def test_driven_system_upper_sideband_is_sourced(fig3c_template):
    p = with_overrides(fig3c_template, f_hz=1.5e6)
    state = solve_steady_state(p)
    system = build_fluctuation_matrix(p, state)
    assert np.any(system.matrix[np.ix_(_MINUS_ROWS, _PLUS_ROWS)] != 0.0)
    sol = solve_fluctuations(system, p.omega_p)
    assert abs(sol.amplitudes[ORDERING.index("p_plus_conj")]) > 0.0


def test_random_systems_meet_residual_bound():
    rng = np.random.default_rng(20240817)
    rhs = np.zeros(12, complex)
    rhs[0] = 1.0
    for _ in range(100):
        matrix = (rng.standard_normal((12, 12))
                  + 1j * rng.standard_normal((12, 12))
                  + 12.0 * np.eye(12))
        system = FluctuationSystem(matrix=matrix, rhs=rhs)
        sol = solve_fluctuations(system, 0.0)
        assert sol.residual < 1e-12
        assert sol.a1m == pytest.approx(
            complex(np.linalg.solve(matrix, rhs)[0]), rel=1e-12)


def test_singular_matrix_reports_delta():
    # an undamped mode: M(delta) is singular exactly at delta = 2
    matrix = np.diag(np.r_[np.ones(11), 2j]).astype(complex)
    rhs = np.zeros(12, complex)
    rhs[0] = 1.0
    system = FluctuationSystem(matrix=matrix, rhs=rhs)
    with pytest.raises(OracleError,
                       match=r"residual nan .* at delta = 2\.0 "):
        solve_fluctuations(system, 2.0)
    # on a grid the singular point is the one named
    with pytest.raises(OracleError, match=r"at delta = 2\.0 "):
        solve_fluctuations(system, [0.0, 1.0, 2.0, 3.0])
    assert solve_fluctuations(system, [0.0, 1.0, 3.0]).residual < 1e-12


def test_non_finite_matrix_has_no_decomposition():
    matrix = np.eye(12, dtype=complex)
    matrix[3, 4] = np.nan
    rhs = np.zeros(12, complex)
    rhs[0] = 1.0
    with pytest.raises(OracleError, match="no eigendecomposition"):
        solve_fluctuations(FluctuationSystem(matrix=matrix, rhs=rhs), 0.5)


def test_nan_residual_breaks_the_bound(decoupled):
    state = solve_steady_state(decoupled)
    system = build_fluctuation_matrix(decoupled, state)
    with pytest.raises(OracleError,
                       match=r"residual nan .* delta = nan \(condition "
                             r"estimate nan\)"):
        solve_fluctuations(system, math.nan)


def test_residual_bound_violation_mentions_condition(fig3c_template):
    p = with_overrides(fig3c_template, f_hz=1.5e6, G_au_hz=6e6)
    state = solve_steady_state(p)
    system = build_fluctuation_matrix(p, state)
    with pytest.raises(OracleError, match="condition estimate"):
        solve_fluctuations(system, 0.97 * p.omega_p, residual_bound=0.0)

    # on a grid: the first point over the bound is named, with the 2-norm
    # condition number of its explicit matrix
    grid = delta_grid(p, 7)
    residuals = solve_fluctuations(system, grid).residuals
    bound = float(np.median(residuals))
    first = next(d for d, r in zip(grid, residuals) if r > bound)
    cond = np.linalg.cond(system.matrix - 1j * first * np.eye(12))
    with pytest.raises(OracleError) as info:
        solve_fluctuations(system, grid, residual_bound=bound)
    assert (f"at delta = {float(first)!r} (condition estimate {cond:.3e})"
            in str(info.value))


@pytest.mark.parametrize("config", ["baseline", "microscopic", "fig3c_f2"])
def test_a1m_matches_lu_on_explicit_stack(config, baseline, micro_baseline,
                                          fig3c_template):
    p = {"baseline": baseline, "microscopic": micro_baseline,
         "fig3c_f2": with_overrides(fig3c_template, f_hz=2e6)}[config]
    state = solve_steady_state(p)
    grid = delta_grid(p, 2001)
    sol = solve_fluctuations(build_fluctuation_matrix(p, state), grid)
    reference = explicit_solve(p, state, grid)[:, ORDERING.index("a1_minus")]
    assert np.max(np.abs(sol.a1m - reference) / np.abs(reference)) < 1e-13
    assert np.all(sol.residuals < 1e-12)
    assert sol.residual == float(np.max(sol.residuals))


def test_exceptional_point_solves(baseline):
    # g1 = (kappa_a - kappa_n1)/2 with every other coupling off: the
    # cavity-magnon block is at an exceptional point and M0's eigenvectors
    # are nearly parallel
    p = with_overrides(baseline, g1_hz=(2.1e6 - 0.1e6) / 2, g2_hz=0.0,
                       f_hz=0.0, G_au_hz=0.0, G_np_hz=0.0)
    state = solve_steady_state(p)
    system = build_fluctuation_matrix(p, state)
    assert np.linalg.cond(np.linalg.eig(system.matrix)[1]) > 1e6
    grid = delta_grid(p, 2001, lo=-0.5, hi=0.5)
    sol = solve_fluctuations(system, grid)
    assert sol.residual < 1e-14
    reference = explicit_solve(p, state, grid)[:, 0]
    assert np.max(np.abs(sol.a1m - reference) / np.abs(reference)) < 1e-13
    report = cross_validate(p, state, grid)
    assert report.failures == [] and report.max_rel_dev < 1e-13


@pytest.mark.parametrize("delta", [np.zeros((2, 3)), np.zeros(0)])
def test_solve_rejects_bad_delta_shapes(decoupled, delta):
    state = solve_steady_state(decoupled)
    system = build_fluctuation_matrix(decoupled, state)
    with pytest.raises(OracleError, match="non-empty 1-D"):
        solve_fluctuations(system, delta)


def test_stacked_solve_equals_per_point_solves(fig3c_template):
    p = with_overrides(fig3c_template, f_hz=1.5e6, G_au_hz=6e6)
    state = solve_steady_state(p)
    system = build_fluctuation_matrix(p, state)
    grid = delta_grid(p, 301, lo=-0.5, hi=2.5)
    stacked = solve_fluctuations(system, grid)
    singles = [solve_fluctuations(system, d) for d in grid]
    a1m = np.array([s.a1m for s in singles])
    assert np.max(np.abs(stacked.a1m - a1m) / np.abs(a1m)) < 1e-14
    assert stacked.amplitudes.shape == (grid.size, 12)
    assert isinstance(stacked.residual, float)
    assert isinstance(singles[0].a1m, complex)
    assert isinstance(singles[0].residual, float)


def test_cross_validate_chunks_match_per_point_reference(fig3c_template):
    p = with_overrides(fig3c_template, f_hz=2e6)
    state = solve_steady_state(p)
    grid = delta_grid(p, 2 * CHUNK + 3)
    report = cross_validate(p, state, grid)
    closed = evaluate_spectrum(p, state, grid).a1m
    reference = explicit_solve(p, state, grid)[:, 0]
    expected = np.abs(closed - reference) / np.abs(reference)
    assert report.deltas.tolist() == grid.tolist()
    assert report.failures == []
    # both deviations sit at the rounding level of the two solves
    assert np.max(np.abs(report.rel_dev - expected)) < 1e-13
    assert report.max_rel_dev == float(np.max(report.rel_dev))
    assert report.argmax_delta == grid[np.argmax(report.rel_dev)]
    assert 0.0 < report.max_residual < 1e-12
    assert report.argmax_cond == pytest.approx(np.linalg.cond(
        build_fluctuation_matrix(p, state).matrix
        - 1j * report.argmax_delta * np.eye(12)), rel=1e-12)


def test_cross_validate_decomposes_once(fig3c_template, monkeypatch):
    p = with_overrides(fig3c_template, f_hz=2e6)
    state = solve_steady_state(p)
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig",
                        lambda a: calls.append(a.shape) or eig(a))
    cross_validate(p, state, delta_grid(p, 3 * CHUNK + 1))
    assert calls == [(12, 12)]


def test_cross_validate_decoupled_point(decoupled):
    state = solve_steady_state(decoupled)
    report = cross_validate(decoupled, state, [decoupled.delta_1])
    assert report.max_rel_dev < 1e-13
    assert report.failures == []


def test_cross_validate_requires_points(decoupled):
    state = solve_steady_state(decoupled)
    with pytest.raises(OracleError, match="non-empty"):
        cross_validate(decoupled, state, [])
    with pytest.raises(OracleError, match="every grid point failed"):
        cross_validate(decoupled, state, [math.nan])


def test_cross_validate_continues_past_failures(fig3c_template):
    p = with_overrides(fig3c_template, f_hz=2e6)
    state = solve_steady_state(p)
    grid = delta_grid(p, CHUNK + 10)
    grid[CHUNK + 3] = math.nan   # a point over the bound, in the second chunk
    report = cross_validate(p, state, grid)
    assert len(report.failures) == 1
    failed, message = report.failures[0]
    assert math.isnan(failed)
    assert message.startswith("solve residual nan exceeds 1e-12 at delta = nan")
    kept = np.delete(grid, CHUNK + 3)
    assert report.deltas.tolist() == kept.tolist()
    assert report.max_rel_dev < 1e-9
    assert 0.0 < report.max_residual < 1e-12


def test_cross_validate_full_grid(fig3c_template):
    p = with_overrides(fig3c_template, f_hz=2e6)
    state = solve_steady_state(p)
    report = cross_validate(p, state, delta_grid(p, 501))
    assert report.max_rel_dev < 1e-9
    assert report.failures == []


def test_cross_validate_rejects_a_grid_that_is_not_1d(decoupled):
    state = solve_steady_state(decoupled)
    grid = np.linspace(0.0, 2.0 * decoupled.omega_p, 6)
    for bad in (grid.reshape(2, 3), grid[0]):
        with pytest.raises(OracleError, match="1-D"):
            cross_validate(decoupled, state, bad)
