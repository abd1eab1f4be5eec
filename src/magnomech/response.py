"""Closed-form probe response of the coupled six-mode system.

``evaluate_spectrum`` is the one entry point.  It accepts a scalar probe
detuning or a 1-D grid and evaluates the ladder once, in vectorised passes
of at most CHUNK detunings, for the response and its exact slope.  The probe
amplitude never appears: the intracavity amplitude is stored as the ratio
a1m = a1-/eps_d, and the output field and transmission are built from it
as exact identities,

    eout = 2 * kappa_a * a1m,        t = 1 - eout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResponseError
from .params import SystemParams
from .steady_state import SteadyState, in_chunks

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class Spectrum:
    """Response at a scalar detuning (0-d fields) or over an ordered
    detuning grid (parallel 1-D arrays)."""

    delta: np.ndarray
    a1m: np.ndarray
    eout: np.ndarray
    t: np.ndarray
    t2: np.ndarray
    tau: np.ndarray
    tau_reliable: np.ndarray


def _ladder(p: SystemParams, state: SteadyState, d: np.ndarray):
    """a1m and its exact d(a1m)/d(delta) at detuning ``d``, in one pass.

    Each denominator S1..S12 is (kappa +- i delta) - i d, built in one complex
    pass; the corrections W1..W6 and every reused i/S are evaluated once.
    ``GA``, the drive-enhanced magnon-phonon coupling over sqrt(2), enters
    only through GA * conj(GA): the complex square would detach the closed form
    from the linearised equations when the steady magnon amplitude has a phase.

    Every denominator has dS/d(delta) = -i and X = -2i omega_p / S4, so a
    ratio term T (of a correction W = 1 + T, or of the inverse response)
    has dT/T = the sum of i/S over its S factors below the line, minus
    dW/W over its W factors there, plus i/S4 when X is above the line.
    """
    # a 0-d magnon shift goes in as a numpy scalar, so a 0-d detuning's S2
    # and S5 keep Python's complex division (numpy's moves tau by an ulp)
    dn2, jd = np.asarray(state.delta_n2_eff)[()], 1j * d

    S1 = (p.kappa_a + 1j * p.delta_1) - jd
    S2 = (p.kappa_n2 + 1j * dn2) - jd
    S3 = (p.kappa_p + 1j * p.omega_p) - jd
    S4 = (p.kappa_p - 1j * p.omega_p) - jd
    X = 1.0 - S3 / S4
    S5 = (p.kappa_n2 - 1j * dn2) - jd
    S6 = (p.kappa_a - 1j * p.delta_1) - jd
    S7 = (p.kappa_a - 1j * p.delta_2) - jd
    S8 = (p.gamma_u - 1j * p.delta_u) - jd
    S9 = (p.kappa_n1 - 1j * p.delta_n1) - jd
    S10 = (p.kappa_a + 1j * p.delta_2) - jd
    S11 = (p.gamma_u + 1j * p.delta_u) - jd
    S12 = (p.kappa_n1 + 1j * p.delta_n1) - jd

    GA2 = abs(state.G_np_eff / _SQRT2) ** 2  # not the complex square
    W1 = 1.0 + p.G_au ** 2 / (S7 * S8)
    T2g = p.g1 ** 2 / (S6 * S9)
    T2f = p.f ** 2 / (S6 * S7 * W1)
    W2 = 1.0 + T2g + T2f
    W3 = 1.0 + p.g2 ** 2 / (S5 * S6 * W2)
    W4 = 1.0 - GA2 * X / (S3 * S5 * W3)
    W5 = 1.0 + GA2 * X / (S2 * S3 * W4)
    W6 = 1.0 + p.G_au ** 2 / (S10 * S11)

    R10 = p.f ** 2 / (S10 * W6)
    R12 = p.g1 ** 2 / S12
    R2 = p.g2 ** 2 / (S2 * W5)
    inverse = S1 + R10 + R12 + R2
    a1m = 1.0 / inverse

    i2, i3, i4, i5, i6, i7, i10 = (1j / S for S in (S2, S3, S4, S5, S6, S7,
                                                      S10))
    dW1 = (W1 - 1.0) * (i7 + 1j / S8)
    dW2 = T2g * (i6 + 1j / S9) + T2f * (i6 + i7 - dW1 / W1)
    dW3 = (W3 - 1.0) * (i5 + i6 - dW2 / W2)
    dW4 = (W4 - 1.0) * (i4 + i3 + i5 - dW3 / W3)
    dW5 = (W5 - 1.0) * (i4 + i2 + i3 - dW4 / W4)
    dW6 = (W6 - 1.0) * (i10 + 1j / S11)
    d_inverse = (-1j + R10 * (i10 - dW6 / W6) + R12 * 1j / S12
                 + R2 * (i2 - dW5 / W5))
    return a1m, -d_inverse / inverse ** 2


def _pass(p: SystemParams, state: SteadyState, d: np.ndarray) -> Spectrum:
    """The response at a 0-d detuning or over at most CHUNK of them."""
    # warnings are silenced: the caller raises on a non-finite a1m (from an
    # overflowing or NaN detuning), and |t| ~ 0 points are flagged
    with np.errstate(all="ignore"):
        # a 0-d detuning goes in as a numpy scalar: scalar arithmetic, about 2x
        # faster than 1-element ufunc calls, within 1e-14 of the grid's value
        a1m, slope = _ladder(p, state, d[()])
        eout = 2.0 * p.kappa_a * a1m
        t = 1.0 - eout
        dt = -2.0 * p.kappa_a * slope
        # np.divide, not '/': a 0-d t is divided by the grid's ufunc loop
        tau = np.imag(np.divide(dt, t))
        magnitude = np.abs(t)
        return Spectrum(d, *map(np.asarray, (a1m, eout, t, magnitude ** 2,
                                             tau, magnitude >= 1e-12)))


def evaluate_spectrum(p: SystemParams, state: SteadyState, deltas) -> Spectrum:
    """Response at a scalar detuning or over a 1-D grid, in ladder passes of
    at most CHUNK points, so a detuning gets the same value in every grid.

    The group delay tau = Im[(1/t) dt/d(omega_d)] is exact: dt/d(delta) =
    -2 kappa_a d(a1m)/d(delta) comes from the ladder's own derivative, not
    from differences.  Points with |t| below 1e-12 are flagged unreliable:
    the phase is undefined there.  ``p`` may also be a coupling view that
    holds ``f`` or ``G_au`` as a 1-D array (``analysis._delays``): at a
    scalar detuning the fields are then arrays over the couplings.
    """
    d = np.asarray(deltas, dtype=float)
    if d.ndim > 1 or d.size == 0:
        raise ResponseError("deltas must be a scalar or a non-empty 1-D grid")
    spectrum = in_chunks(d, lambda chunk: _pass(p, state, chunk))
    bad = np.broadcast_to(d, spectrum.a1m.shape)[~np.isfinite(spectrum.a1m)]
    if bad.size:
        raise ResponseError(
            f"singular probe response at delta = {float(bad[0])!r} "
            f"({bad.size} of {spectrum.a1m.size} points)")
    return spectrum
