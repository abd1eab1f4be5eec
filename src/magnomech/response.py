"""Closed-form probe response of the coupled six-mode system.

``evaluate_spectrum`` is the one entry point.  It accepts a scalar probe
detuning or a 1-D grid of detunings and evaluates the ladder once, in one
vectorised pass, for the response and its exact slope together.  The probe
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
from .steady_state import SteadyState

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

    The twelve mode denominators S1..S12 and the nested corrections W1..W6
    are evaluated once.  ``GA``, the drive-enhanced magnon-phonon coupling
    scaled by 1/sqrt(2), enters only through its squared magnitude
    (GA * conj(GA)): the complex square would detach this closed form from
    the linearised equations whenever the steady magnon amplitude carries
    a phase.

    Every denominator has dS/d(delta) = -i and X = -2i omega_p / S4, so a
    ratio term T (of a correction W = 1 + T, or of the inverse response)
    has dT/T = the sum of i/S over its S factors below the line, minus
    dW/W over its W factors there, plus i/S4 when X is above the line.
    """
    dn2 = state.delta_n2_eff

    S1 = p.kappa_a + 1j * (p.delta_1 - d)
    S2 = p.kappa_n2 + 1j * (dn2 - d)
    S3 = p.kappa_p + 1j * (p.omega_p - d)
    S4 = p.kappa_p - 1j * (p.omega_p + d)
    X = 1.0 - S3 / S4
    S5 = p.kappa_n2 - 1j * (dn2 + d)
    S6 = p.kappa_a - 1j * (p.delta_1 + d)
    S7 = p.kappa_a - 1j * (p.delta_2 + d)
    S8 = p.gamma_u - 1j * (p.delta_u + d)
    S9 = p.kappa_n1 - 1j * (p.delta_n1 + d)
    S10 = p.kappa_a + 1j * (p.delta_2 - d)
    S11 = p.gamma_u + 1j * (p.delta_u - d)
    S12 = p.kappa_n1 + 1j * (p.delta_n1 - d)

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
    bad = ~np.isfinite(a1m)
    if np.any(bad):
        offending = d[bad] if d.ndim else float(d)
        raise ResponseError(f"singular probe response at delta = {offending!r}")

    dW1 = (W1 - 1.0) * (1j / S7 + 1j / S8)
    dW2 = T2g * (1j / S6 + 1j / S9) + T2f * (1j / S6 + 1j / S7 - dW1 / W1)
    dW3 = (W3 - 1.0) * (1j / S5 + 1j / S6 - dW2 / W2)
    dW4 = (W4 - 1.0) * (1j / S4 + 1j / S3 + 1j / S5 - dW3 / W3)
    dW5 = (W5 - 1.0) * (1j / S4 + 1j / S2 + 1j / S3 - dW4 / W4)
    dW6 = (W6 - 1.0) * (1j / S10 + 1j / S11)
    d_inverse = (-1j + R10 * (1j / S10 - dW6 / W6) + R12 * 1j / S12
                 + R2 * (1j / S2 - dW5 / W5))
    return a1m, -d_inverse / inverse ** 2


def evaluate_spectrum(p: SystemParams, state: SteadyState, deltas) -> Spectrum:
    """Response at a scalar detuning or over a 1-D grid, from one ladder pass.

    The group delay tau = Im[(1/t) dt/d(omega_d)] is exact: dt/d(delta) =
    -2 kappa_a d(a1m)/d(delta) comes from the ladder's own derivative, not
    from differences.  Points with |t| below 1e-12 are flagged unreliable:
    the phase is undefined there.  ``p`` may also be a coupling view that
    holds ``f`` or ``G_au`` as a 1-D array (see
    ``analysis.delay_sign_crossings``): at a scalar detuning the fields are
    then arrays over the couplings.
    """
    d = np.asarray(deltas, dtype=float)
    if d.ndim > 1 or d.size == 0:
        raise ResponseError("deltas must be a scalar or a non-empty 1-D grid")
    # numpy warnings are silenced: _ladder raises on a non-finite a1m
    # itself (a NaN detuning warns before that check), and |t| ~ 0 points
    # produce non-finite delays that are flagged, not raised
    with np.errstate(divide="ignore", invalid="ignore"):
        # a scalar goes in as a numpy scalar, not a 0-d array: scalar
        # arithmetic is several times cheaper than 0-d ufunc calls
        a1m, slope = _ladder(p, state, d[()])
        eout = 2.0 * p.kappa_a * a1m
        t = 1.0 - eout
        dt = -2.0 * p.kappa_a * slope
        # np.divide, not '/', so that a scalar t = 0 does not raise
        # ZeroDivisionError and rounds as a grid point's division does
        tau = np.imag(np.divide(dt, t))
    magnitude = np.abs(t)
    return Spectrum(delta=d, a1m=np.asarray(a1m), eout=np.asarray(eout),
                    t=np.asarray(t), t2=np.asarray(magnitude ** 2),
                    tau=np.asarray(tau),
                    tau_reliable=np.asarray(magnitude >= 1e-12))
