"""Spectrum observables: window census, Fano asymmetry, delay crossings.

A transparency window is a local minimum of the absorption trace flanked
on both sides by local maxima that exceed it by at least a prominence
fraction of the global maximum.  The census is therefore invariant under
uniform positive rescaling of the spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

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
    values: np.ndarray                        # swept parameter values
    tau: np.ndarray                           # group delay at each value


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


def _delays(p: SystemParams, parameter: str, values: np.ndarray,
            fixed_delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Group delay and its reliability at every coupling value of a 1-D
    array, from one steady solve and one ladder pass.  Both read ``p``'s
    fields through a view that holds the swept coupling as the array."""
    view = SimpleNamespace(**{**vars(p), parameter: values})
    spectrum = evaluate_spectrum(view, solve_steady_state(view), fixed_delta)
    return spectrum.tau, spectrum.tau_reliable


def delay_sign_crossings(p: SystemParams, parameter: str, grid,
                         fixed_delta: float) -> CrossingReport:
    """Locate group-delay sign changes along a coupling sweep.

    Each sign change between adjacent grid points is refined by bisection
    to ``REL_RESOLUTION`` relative parameter resolution.  Brackets with an
    unreliable delay value (|t| ~ 0) are reported, not refined.  The grid
    is evaluated in one ladder pass, and every open bracket is bisected in
    lock-step: one ladder pass per step.
    """
    if parameter not in _SWEEPABLE:
        raise ConfigError(f"unknown sweep parameter {parameter!r}; "
                          "expected 'f' or 'G_au'")
    values = np.array([float(v) for v in grid])
    if not np.all(values[1:] > values[:-1]):
        raise ConfigError("sweep grid must be sorted strictly ascending")
    if values.size:
        # a coupling only has to be finite and non-negative, so the records
        # at the two ends validate every grid value and every midpoint
        replace(p, **{parameter: float(values[0])})
        replace(p, **{parameter: float(values[-1])})

    tau, reliable = _delays(p, parameter, values, fixed_delta)
    left, right = tau[:-1], tau[1:]
    brackets = np.flatnonzero((left != 0.0) & (right != 0.0)
                              & ((left > 0) != (right > 0)))
    a, b = values[brackets], values[brackets + 1]
    positive = tau[brackets] > 0     # the sign kept at the lower end
    ok = reliable[brackets] & reliable[brackets + 1]
    reasons = ["" if k else "unreliable delay at bracket point" for k in ok]
    todo = np.flatnonzero(ok)
    while True:
        lo, hi = a[todo], b[todo]
        todo = todo[(hi - lo) > REL_RESOLUTION * np.maximum(
            np.maximum(np.abs(lo), np.abs(hi)), 1e-300)]
        if not todo.size:
            break
        mid = 0.5 * (a[todo] + b[todo])
        tau_mid, ok_mid = _delays(p, parameter, mid, fixed_delta)
        for j in todo[~ok_mid]:
            reasons[j] = "unreliable delay during bisection"
        same = (tau_mid > 0) == positive[todo]
        a[todo[ok_mid & same]] = mid[ok_mid & same]
        b[todo[ok_mid & ~same]] = mid[ok_mid & ~same]
        todo = todo[ok_mid]

    crossings: list[Crossing] = []
    invalid: list[tuple[float, float, str]] = []
    for j, reason in enumerate(reasons):
        lo, hi = float(a[j]), float(b[j])
        if reason:
            invalid.append((lo, hi, reason))
        else:
            crossings.append(Crossing(
                parameter=parameter, value=0.5 * (lo + hi),
                direction="pos->neg" if positive[j] else "neg->pos"))
    return CrossingReport(crossings=crossings, invalid=invalid,
                          values=values, tau=tau)


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
