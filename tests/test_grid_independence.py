"""One value per input: every detuning, every drive field and every swept
coupling gets bitwise the same values in any grid that holds it, at any
offset or length, and a one-point steady solve gets its sweep's values."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magnomech.analysis import delay_sign_crossings
from magnomech.response import evaluate_spectrum
from magnomech.steady_state import (CHUNK, magnon_number_sweep,
                                    solve_steady_state)

from conftest import with_overrides

#: two full passes and a short one; longer than numpy's 256 KB threshold
#: for reusing a complex temporary in place
N = 2 * CHUNK + 3617


def _same_bytes(part, whole, index):
    """Every field of ``part`` has the bytes of ``whole``'s at ``index``."""
    for f in fields(part):
        got, want = getattr(part, f.name), getattr(whole, f.name)[index]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (
            f.name)


@pytest.fixture(scope="module")
def spectra(baseline, micro_baseline):
    out = {}
    for name, p in (("baseline", baseline), ("microscopic", micro_baseline)):
        state = solve_steady_state(p)
        grid = np.linspace(0.0, 2.0 * p.omega_p, N)
        out[name] = p, state, grid, evaluate_spectrum(p, state, grid)
    return out


@pytest.fixture(scope="module")
def sweeps(micro_baseline):
    out = {}
    bistable = with_overrides(micro_baseline, g_np_hz=1.0, delta_n2_hz=5e6)
    for name, p, hi in (("microscopic", micro_baseline, 5e-5),
                        ("bistable", bistable, 6e-6)):
        grid = np.linspace(0.0, hi, N)
        out[name] = p, grid, magnon_number_sweep(p, grid)
    return out


@settings(max_examples=40, deadline=None)
@given(config=st.sampled_from(["baseline", "microscopic"]),
       start=st.integers(0, N - 1), length=st.integers(1, N))
@example(config="microscopic", start=CHUNK - 1, length=1)
@example(config="baseline", start=1, length=N - 1)
def test_detuning_subgrid_is_bitwise_its_grid(spectra, config, start,
                                              length):
    p, state, grid, whole = spectra[config]
    part = slice(start, start + length)
    _same_bytes(evaluate_spectrum(p, state, grid[part]), whole, part)


@settings(max_examples=40, deadline=None)
@given(config=st.sampled_from(["microscopic", "bistable"]),
       start=st.integers(0, N - 1), length=st.integers(1, N))
@example(config="microscopic", start=CHUNK - 1, length=1)
@example(config="bistable", start=1, length=N - 1)
def test_field_subgrid_and_point_are_bitwise_their_sweep(sweeps, config,
                                                          start, length):
    p, grid, whole = sweeps[config]
    part = slice(start, start + length)
    _same_bytes(magnon_number_sweep(p, grid[part]), whole, part)
    # the one-point solve at the sub-grid's first field: 0-d fields
    point = solve_steady_state(with_overrides(p, B_tesla=grid[start]))
    assert point.magnon_number.shape == ()
    _same_bytes(point, whole, start)


@pytest.fixture(scope="module")
def delays(baseline, micro_baseline):
    # the group delay at delta = omega_p along a coupling grid (a view that
    # holds the coupling as an array)
    out = {}
    for name, p in (("baseline", baseline), ("microscopic", micro_baseline)):
        for parameter in ("f", "G_au"):
            grid = np.linspace(0.0, 0.3 * p.omega_p, N)
            out[name, parameter] = p, grid, delay_sign_crossings(
                p, parameter, grid, p.omega_p)
    return out


@settings(max_examples=20, deadline=None)
@given(config=st.sampled_from(["baseline", "microscopic"]),
       parameter=st.sampled_from(["f", "G_au"]),
       start=st.integers(0, N - 1), length=st.integers(1, N))
@example(config="microscopic", parameter="G_au", start=0, length=1001)
@example(config="microscopic", parameter="G_au", start=5000, length=1001)
@example(config="microscopic", parameter="f", start=12000, length=1001)
@example(config="microscopic", parameter="f", start=CHUNK - 1, length=1)
def test_coupling_subgrid_delay_is_bitwise_its_grid(delays, config,
                                                    parameter, start,
                                                    length):
    p, grid, whole = delays[config, parameter]
    part = slice(start, start + length)
    report = delay_sign_crossings(p, parameter, grid[part], p.omega_p)
    for name in ("values", "tau", "reliable"):
        got, want = getattr(report, name), getattr(whole, name)[part]
        assert got.tobytes() == want.tobytes(), name
