"""Spectrum observables: window census, Fano asymmetry, delay crossings.

A transparency window is a local minimum of the absorption trace flanked
on both sides by local maxima that exceed it by at least a prominence
fraction of the global maximum.  The census is therefore invariant under
uniform positive rescaling of the spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .params import SystemParams, apply_override
from .response import Spectrum, evaluate_spectrum
from .steady_state import solve_steady_state


@dataclass(frozen=True)
class Window:
    center_delta: float
    depth: float
    left_peak: float
    right_peak: float


@dataclass(frozen=True)
class WindowReport:
    windows: list[Window]
    count: int


@dataclass(frozen=True)
class Crossing:
    parameter: str
    value: float          # rad/s
    direction: str        # "pos->neg" | "neg->pos"


@dataclass(frozen=True)
class CrossingReport:
    crossings: list[Crossing]
    invalid: list[tuple[float, float, str]]   # bracket lo, hi, reason
    samples: list[tuple[float, float]]        # (parameter value, tau)


def _turning_points(y: np.ndarray) -> tuple[list[int], list[int]]:
    """Interior maxima/minima indices; a plateau reports its midpoint."""
    dy = np.diff(y)
    edges = np.nonzero(dy)[0]
    maxima: list[int] = []
    minima: list[int] = []
    for k in range(1, edges.size):
        prev_rising = dy[edges[k - 1]] > 0
        next_rising = dy[edges[k]] > 0
        if prev_rising == next_rising:
            continue
        lo = edges[k - 1] + 1
        hi = edges[k]
        center = (lo + hi) // 2
        (maxima if prev_rising else minima).append(center)
    return maxima, minima


def find_windows(delta, absorption, prominence: float = 0.1) -> WindowReport:
    """Census of transparency windows in an absorption trace.

    ``delta`` must be strictly ascending; a grid of at least ~500 points
    across the feature region is needed for a stable census.
    """
    x = np.asarray(delta, dtype=float)
    y = np.asarray(absorption, dtype=float)
    if x.size == 0:
        raise ConfigError("empty spectrum")
    if x.shape != y.shape or x.ndim != 1:
        raise ConfigError("delta and absorption must be matching 1-D arrays")
    if x.size < 3:
        raise ConfigError("spectrum too short for window detection")
    if np.any(np.diff(x) <= 0):
        raise ConfigError("delta grid must be sorted strictly ascending")
    if not 0.0 < prominence < 1.0:
        raise ConfigError("prominence must lie in (0, 1)")

    maxima, minima = _turning_points(y)
    threshold = prominence * float(np.max(y))
    windows: list[Window] = []
    for m in minima:
        left = [i for i in maxima if i < m]
        right = [i for i in maxima if i > m]
        if not left or not right:
            continue
        lv = float(y[left[-1]])
        rv = float(y[right[0]])
        depth = float(y[m])
        if lv - depth >= threshold and rv - depth >= threshold:
            windows.append(Window(center_delta=float(x[m]), depth=depth,
                                  left_peak=lv, right_peak=rv))
    return WindowReport(windows=windows, count=len(windows))


def fano_asymmetry(window: Window) -> float:
    """Normalised flanking-peak imbalance; 0 for a symmetric doublet.

    The metric compares one window's own two flanking peaks only.  The
    outer windows of a multi-window spectrum therefore score nonzero even
    when the spectrum is mirror-symmetric: in a triple window with peaks
    P1..P4, mirror symmetry forces P1 = P4 and P2 = P3, not P1 = P2.
    """
    lv, rv = window.left_peak, window.right_peak
    if not (math.isfinite(lv) and math.isfinite(rv)) or (lv + rv) <= 0.0:
        raise ConfigError("window lacks two usable flanking peaks; "
                          "asymmetry undefined")
    return abs(lv - rv) / (lv + rv)


_SWEEPABLE = ("f", "G_au")

#: relative parameter resolution to which a delay sign change is bisected
REL_RESOLUTION = 1e-4

#: most response evaluations (combinations x detunings) one sweep may make
SWEEP_BUDGET = 10 ** 6


def _tau_at(p: SystemParams, parameter: str, value: float,
            fixed_delta: float) -> tuple[float, bool]:
    """Group delay and its reliability at one coupling value."""
    p2 = replace(p, **{parameter: float(value)})
    spectrum = evaluate_spectrum(p2, solve_steady_state(p2), fixed_delta)
    return float(spectrum.tau), bool(spectrum.tau_reliable)


def delay_sign_crossings(p: SystemParams, parameter: str, grid,
                         fixed_delta: float) -> CrossingReport:
    """Locate group-delay sign changes along a coupling sweep.

    Each sign change between adjacent grid points is refined by bisection
    to ``REL_RESOLUTION`` relative parameter resolution.  Brackets with an
    unreliable delay value (|t| ~ 0) are reported, not refined.
    """
    if parameter not in _SWEEPABLE:
        raise ConfigError(f"unknown sweep parameter {parameter!r}; "
                          "expected 'f' or 'G_au'")
    values = [float(v) for v in grid]
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError("sweep grid must be sorted strictly ascending")

    results = [_tau_at(p, parameter, v, fixed_delta) for v in values]
    samples = [(v, tau) for v, (tau, _) in zip(values, results)]

    crossings: list[Crossing] = []
    invalid: list[tuple[float, float, str]] = []
    for (lo, (tau_l, ok_l)), (hi, (tau_h, ok_h)) in zip(
            zip(values, results), zip(values[1:], results[1:])):
        if tau_l == 0.0 or tau_h == 0.0 or (tau_l > 0) == (tau_h > 0):
            continue
        if not (ok_l and ok_h):
            invalid.append((lo, hi, "unreliable delay at bracket point"))
            continue
        direction = "pos->neg" if tau_l > 0 else "neg->pos"
        tau_lo = tau_l
        a, b = lo, hi
        while (b - a) > REL_RESOLUTION * max(abs(a), abs(b), 1e-300):
            mid = 0.5 * (a + b)
            tau_mid, ok_mid = _tau_at(p, parameter, mid, fixed_delta)
            if not ok_mid:
                invalid.append((a, b, "unreliable delay during bisection"))
                break
            if (tau_mid > 0) == (tau_lo > 0):
                a = mid
                tau_lo = tau_mid
            else:
                b = mid
        else:
            crossings.append(Crossing(parameter=parameter,
                                      value=0.5 * (a + b),
                                      direction=direction))
    return CrossingReport(crossings=crossings, invalid=invalid, samples=samples)


def sweep_spectrum(p: SystemParams, sweep_spec, deltas):
    """Yield (overrides, Spectrum) over a 1- or 2-parameter Cartesian sweep.

    ``sweep_spec`` is a list of (config_key, values) pairs, values in file
    units.  The total number of response evaluations is capped by
    ``SWEEP_BUDGET``.
    """
    spec = [(str(key), [float(v) for v in values]) for key, values in sweep_spec]
    if not 1 <= len(spec) <= 2:
        raise ConfigError("sweep_spec must name one or two parameters")
    d = np.asarray(deltas, dtype=float)
    combos = 1
    for _, values in spec:
        combos *= len(values)
    if combos * d.size > SWEEP_BUDGET:
        raise ConfigError(
            f"sweep budget exceeded: {combos} combinations x {d.size} "
            f"detunings > {SWEEP_BUDGET}")

    if combos == 0:
        return
    if len(spec) == 1:
        key, values = spec[0]
        for v in values:
            p2 = apply_override(p, key, v)
            yield {key: v}, _spectrum_for(p2, d)
    else:
        (k1, v1s), (k2, v2s) = spec
        for v1 in v1s:
            p1 = apply_override(p, k1, v1)
            for v2 in v2s:
                p2 = apply_override(p1, k2, v2)
                yield {k1: v1, k2: v2}, _spectrum_for(p2, d)


def _spectrum_for(p: SystemParams, deltas: np.ndarray) -> Spectrum:
    state = solve_steady_state(p)
    return evaluate_spectrum(p, state, deltas)
