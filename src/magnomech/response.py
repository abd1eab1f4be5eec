"""Closed-form probe response of the coupled six-mode system.

All operations accept a scalar probe detuning or an ndarray of detunings
and are pure; a detuning grid can therefore be evaluated in one vectorised
pass.  The probe amplitude never appears: the intracavity amplitude is
stored as the ratio a1m = a1-/eps_d, and the output field and transmission
are built from it as exact identities,

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
class LadderCoefficients:
    """The twelve mode denominators and nested correction factors.

    ``GA`` is the drive-enhanced magnon-phonon coupling scaled by 1/sqrt(2).
    It enters the correction chain only through its squared magnitude
    (GA * conj(GA)): the complex square would detach this closed form from
    the underlying linearised equations whenever the steady magnon
    amplitude carries a phase.
    """

    S1: complex
    S2: complex
    S3: complex
    S4: complex
    S5: complex
    S6: complex
    S7: complex
    S8: complex
    S9: complex
    S10: complex
    S11: complex
    S12: complex
    X: complex
    W1: complex
    W2: complex
    W3: complex
    W4: complex
    W5: complex
    W6: complex
    GA: complex


@dataclass(frozen=True)
class Spectrum:
    """Response over an ordered detuning grid, as parallel arrays."""

    delta: np.ndarray
    a1m: np.ndarray
    eout: np.ndarray
    t: np.ndarray
    t2: np.ndarray
    tau: np.ndarray
    tau_reliable: np.ndarray


@dataclass(frozen=True)
class GroupDelayResult:
    tau: float | np.ndarray
    reliable: bool | np.ndarray


def ladder_coefficients(p: SystemParams, state: SteadyState,
                        delta) -> LadderCoefficients:
    """Evaluate every denominator and correction factor at detuning delta."""
    d = np.asarray(delta, dtype=float)
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

    GA = state.G_np_eff / _SQRT2
    GA2 = abs(GA) ** 2  # squared magnitude, not the complex square
    W1 = 1.0 + p.G_au ** 2 / (S7 * S8)
    W2 = 1.0 + p.g1 ** 2 / (S6 * S9) + p.f ** 2 / (S6 * S7 * W1)
    W3 = 1.0 + p.g2 ** 2 / (S5 * S6 * W2)
    W4 = 1.0 - GA2 * X / (S3 * S5 * W3)
    W5 = 1.0 + GA2 * X / (S2 * S3 * W4)
    W6 = 1.0 + p.G_au ** 2 / (S10 * S11)

    return LadderCoefficients(S1=S1, S2=S2, S3=S3, S4=S4, S5=S5, S6=S6,
                              S7=S7, S8=S8, S9=S9, S10=S10, S11=S11, S12=S12,
                              X=X, W1=W1, W2=W2, W3=W3, W4=W4, W5=W5, W6=W6,
                              GA=GA)


def _check_finite(values: np.ndarray, delta, what: str) -> None:
    bad = ~np.isfinite(values)
    if np.any(bad):
        offending = np.asarray(delta, dtype=float)[bad] if np.ndim(delta) else delta
        raise ResponseError(f"singular {what} at delta = {offending!r}")


def probe_response(p: SystemParams, state: SteadyState, delta):
    """Normalised intracavity amplitude a1-/eps_d at detuning delta."""
    c = ladder_coefficients(p, state, delta)
    inverse = (c.S1
               + p.f ** 2 / (c.S10 * c.W6)
               + p.g1 ** 2 / c.S12
               + p.g2 ** 2 / (c.S2 * c.W5))
    a1m = np.asarray(1.0 / inverse)
    _check_finite(a1m, delta, "probe response")
    return complex(a1m) if a1m.ndim == 0 else a1m


def output_field(p: SystemParams, state: SteadyState, delta):
    """Normalised output field; Re is absorption, Im is dispersion."""
    return 2.0 * p.kappa_a * probe_response(p, state, delta)


def transmission(p: SystemParams, state: SteadyState, delta):
    """Probe transmission amplitude t = 1 - eout."""
    return 1.0 - output_field(p, state, delta)


def probe_response_slope(p: SystemParams, state: SteadyState, delta):
    """Exact d(a1m)/d(delta), carried forward through the ladder.

    Every denominator has dS/d(delta) = -i and X = -2i omega_p / S4, so a
    ratio term T (of a correction W = 1 + T, or of the inverse response)
    has dT/T = the sum of i/S over its S factors below the line, minus
    dW/W over its W factors there, plus i/S4 when X is above the line.
    """
    c = ladder_coefficients(p, state, delta)
    dW1 = (c.W1 - 1.0) * (1j / c.S7 + 1j / c.S8)
    T2g = p.g1 ** 2 / (c.S6 * c.S9)
    T2f = p.f ** 2 / (c.S6 * c.S7 * c.W1)
    dW2 = (T2g * (1j / c.S6 + 1j / c.S9)
           + T2f * (1j / c.S6 + 1j / c.S7 - dW1 / c.W1))
    dW3 = (c.W3 - 1.0) * (1j / c.S5 + 1j / c.S6 - dW2 / c.W2)
    dW4 = (c.W4 - 1.0) * (1j / c.S4 + 1j / c.S3 + 1j / c.S5 - dW3 / c.W3)
    dW5 = (c.W5 - 1.0) * (1j / c.S4 + 1j / c.S2 + 1j / c.S3 - dW4 / c.W4)
    dW6 = (c.W6 - 1.0) * (1j / c.S10 + 1j / c.S11)
    R10 = p.f ** 2 / (c.S10 * c.W6)
    R12 = p.g1 ** 2 / c.S12
    R2 = p.g2 ** 2 / (c.S2 * c.W5)
    d_inverse = (-1j + R10 * (1j / c.S10 - dW6 / c.W6) + R12 * 1j / c.S12
                 + R2 * (1j / c.S2 - dW5 / c.W5))
    return -d_inverse / (c.S1 + R10 + R12 + R2) ** 2


def group_delay_result(p: SystemParams, state: SteadyState,
                       delta) -> GroupDelayResult:
    """Group delay tau = Im[(1/t) dt/d(omega_d)], exact.

    dt/d(delta) = -2 kappa_a d(a1m)/d(delta) comes from the ladder's own
    derivative, not from differences.  Points with |t| below 1e-12 are
    flagged unreliable: the phase is undefined there.
    """
    t = np.asarray(transmission(p, state, delta))
    dt = -2.0 * p.kappa_a * probe_response_slope(p, state, delta)
    # |t| ~ 0 points produce non-finite delays; they are flagged, not raised
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = np.imag(dt / t)
    reliable = np.abs(t) >= 1e-12
    if t.ndim == 0:
        return GroupDelayResult(tau=float(tau), reliable=bool(reliable))
    return GroupDelayResult(tau=tau, reliable=reliable)


def group_delay(p: SystemParams, state: SteadyState, delta):
    """Group delay in seconds; positive = slow light, negative = fast."""
    return group_delay_result(p, state, delta).tau


def evaluate_spectrum(p: SystemParams, state: SteadyState, deltas) -> Spectrum:
    """Full response over a detuning grid (one vectorised pass)."""
    d = np.asarray(deltas, dtype=float)
    if d.ndim != 1 or d.size == 0:
        raise ResponseError("deltas must be a non-empty 1-D grid")
    a1m = probe_response(p, state, d)
    eout = 2.0 * p.kappa_a * a1m
    t = 1.0 - eout
    delay = group_delay_result(p, state, d)
    return Spectrum(delta=d, a1m=np.asarray(a1m), eout=np.asarray(eout),
                    t=np.asarray(t), t2=np.abs(t) ** 2,
                    tau=np.asarray(delay.tau),
                    tau_reliable=np.asarray(delay.reliable))
