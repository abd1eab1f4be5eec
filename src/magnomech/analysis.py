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
from .params import SystemParams
from .response import evaluate_spectrum
from .steady_state import in_chunks, solve_steady_state


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
    rejected: int     # flanked minima shallower than the prominence threshold


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
    reliable: np.ndarray                      # whether that delay is defined


def _turning_points(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interior maxima/minima indices; a plateau reports its midpoint."""
    dy = np.diff(y)
    edges = np.flatnonzero(dy)
    rising = dy[edges] > 0
    turn = np.flatnonzero(rising[1:] != rising[:-1])
    center = (edges[turn] + 1 + edges[turn + 1]) // 2
    return center[rising[turn]], center[~rising[turn]]


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
    # the nearest maximum on each side of every minimum that has both
    right = np.searchsorted(maxima, minima)
    flanked = (right > 0) & (right < maxima.size)
    m, right = minima[flanked], right[flanked]
    lv, rv, depth = y[maxima[right - 1]], y[maxima[right]], y[m]
    deep = (lv - depth >= threshold) & (rv - depth >= threshold)
    windows = [Window(*fields) for fields in zip(
        *(a[deep].tolist() for a in (x[m], depth, lv, rv)))]
    return WindowReport(windows=windows, count=len(windows),
                        rejected=m.size - len(windows))


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


def _delays(p: SystemParams, parameter: str, values: np.ndarray,
            fixed_delta: float) -> tuple[np.ndarray, ...]:
    """tau, N = tau |t|^2 and tau's reliability at every coupling value of a
    1-D array, through a view of ``p``, in one steady solve and ladder pass
    per CHUNK values, so a value gets the same bits in any grid."""
    def evaluate(chunk):
        view = SimpleNamespace(**{**vars(p), parameter: chunk})
        return evaluate_spectrum(view, solve_steady_state(view), fixed_delta)
    s = in_chunks(values, evaluate)
    n = np.multiply(s.tau, s.t2, out=np.zeros_like(s.tau), where=s.t2 > 0.0)
    return s.tau, n, s.tau_reliable


def delay_sign_crossings(p: SystemParams, parameter: str, grid,
                         fixed_delta: float) -> CrossingReport:
    """Locate group-delay sign changes along a coupling sweep.

    Each sign change of tau between adjacent grid points is refined by the
    Illinois rule (regula falsi that halves N at an end that stays put
    twice) on N = tau |t|^2, to 4 ulp or an exact zero of N.  N has tau's
    sign but no pole where t = 0, so a pole draws the refinement to |t| ~ 0
    and its bracket, like one with an unreliable end, is reported, not
    refined.  Every open bracket is refined in lock-step: one ladder pass
    per step.
    """
    if parameter not in _SWEEPABLE:
        raise ConfigError(f"unknown sweep parameter {parameter!r}; "
                          "expected 'f' or 'G_au'")
    values = np.array(grid, dtype=float)
    if values.ndim != 1:
        raise ConfigError("sweep grid must be a 1-D array")
    if not np.all(values[1:] > values[:-1]):
        raise ConfigError("sweep grid must be sorted strictly ascending")
    if values.size:
        # a coupling only has to be finite and non-negative, so the records
        # at the two ends validate every grid value and refinement point
        replace(p, **{parameter: float(values[0])})
        replace(p, **{parameter: float(values[-1])})

    tau, n, reliable = _delays(p, parameter, values, fixed_delta)
    left, right = tau[:-1], tau[1:]
    brackets = np.flatnonzero((left != 0.0) & (right != 0.0)
                              & ((left > 0) != (right > 0)))
    ends = np.array([brackets, brackets + 1])    # rows: lower, upper end
    x, fx = values[ends], n[ends]
    positive = tau[brackets] > 0     # the sign kept at the lower end
    moved = np.full(brackets.size, -1)   # the row the last step replaced
    ok = reliable[brackets] & reliable[brackets + 1]
    reasons = ["" if k else "unreliable delay at bracket point" for k in ok]
    todo = np.flatnonzero(ok)
    while True:
        a, b = x[:, todo]     # 0 <= a <= b
        todo = todo[b - a > 4.0 * np.spacing(b)]
        if not todo.size:
            break
        (a, b), (fa, fb) = x[:, todo], fx[:, todo]
        c = a - fa * (b - a) / (fb - fa)
        _, fc, ok_c = _delays(p, parameter, c, fixed_delta)
        for j in todo[~ok_c]:
            reasons[j] = "unreliable delay during refinement"
        zero = ok_c & (fc == 0.0)     # both ends move to a zero of N
        x[:, todo[zero]] = c[zero]
        k, c, fc = (v[ok_c & ~zero] for v in (todo, c, fc))
        row = ((fc > 0) != positive[k]).astype(int)
        fx[1 - row, k] *= np.where(moved[k] == row, 0.5, 1.0)
        x[row, k], fx[row, k], moved[k] = c, fc, row
        todo = todo[ok_c]

    crossings: list[Crossing] = []
    invalid: list[tuple[float, float, str]] = []
    for j, reason in enumerate(reasons):
        lo, hi = float(x[0, j]), float(x[1, j])
        if reason:
            invalid.append((lo, hi, reason))
        else:
            crossings.append(Crossing(
                parameter=parameter, value=0.5 * (lo + hi),
                direction="pos->neg" if positive[j] else "neg->pos"))
    return CrossingReport(crossings=crossings, invalid=invalid,
                          values=values, tau=tau, reliable=reliable)
