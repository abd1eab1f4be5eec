"""Independent oracles used only by the tests.

These deliberately re-derive their answers from the model equations
rather than calling the code paths they check.
"""

from dataclasses import replace

import numpy as np
from scipy.optimize import brentq

from magnomech.analysis import (REL_RESOLUTION, Crossing, CrossingReport,
                                Window, WindowReport)
from magnomech.oracle import ORDERING, build_fluctuation_matrix
from magnomech.response import evaluate_spectrum
from magnomech.steady_state import solve_steady_state


def steady_equation_residual(p, state, Omega):
    """Max relative residual of the six steady-state balance equations;
    inf when any of them is not finite."""
    n2_abs2 = abs(state.n2s) ** 2
    equations = [
        ((p.kappa_a + 1j * p.delta_1) * state.a1s,
         [1j * p.g1 * state.n1s, 1j * p.g2 * state.n2s, 1j * p.f * state.a2s]),
        ((p.kappa_a + 1j * p.delta_2) * state.a2s,
         [1j * p.f * state.a1s, 1j * p.G_au * state.us]),
        ((p.kappa_p + 1j * p.omega_p) * state.ps,
         [1j * p.g_np * n2_abs2]),
        ((p.gamma_u + 1j * p.delta_u) * state.us,
         [1j * p.G_au * state.a2s]),
        ((p.kappa_n1 + 1j * p.delta_n1) * state.n1s,
         [1j * p.g1 * state.a1s]),
        ((p.kappa_n2 + 1j * state.delta_n2_eff) * state.n2s,
         [1j * p.g2 * state.a1s, -Omega]),
    ]
    worst = 0.0
    for lhs, terms in equations:
        mismatch = abs(lhs + sum(terms))
        scale = max([abs(lhs)] + [abs(t) for t in terms] + [1e-300])
        if not np.isfinite(mismatch / scale):
            return np.inf
        worst = max(worst, mismatch / scale)
    return worst


def magnon_population_root(p, Omega):
    """Magnon population from a 1-D root find on the self-consistency map.

    Solves m = |n2s(m)|^2 by bracketing, independent of the production
    fixed-point iteration.
    """
    cu = p.gamma_u + 1j * p.delta_u
    c2 = p.kappa_a + 1j * p.delta_2
    cn1 = p.kappa_n1 + 1j * p.delta_n1
    c1 = p.kappa_a + 1j * p.delta_1
    A = c2 * cu + p.G_au ** 2
    B = A * c1 * cn1 + p.g1 ** 2 * A + p.f ** 2 * cu * cn1

    def population(m):
        shift = -2.0 * p.g_np ** 2 * p.omega_p * m / (p.kappa_p ** 2 + p.omega_p ** 2)
        denom = B * (p.kappa_n2 + 1j * (p.delta_n2 + shift)) + A * p.g2 ** 2 * cn1
        return abs(B * Omega / denom) ** 2

    if Omega == 0.0:
        return 0.0
    upper = 4.0 * population(0.0) + 1.0
    f = lambda m: m - population(m)
    assert f(0.0) <= 0.0 and f(upper) > 0.0, "root not bracketed"
    return brentq(f, 0.0, upper, xtol=1e-30, rtol=1e-15, maxiter=200)


def _n2s_direct(p, Omega, m):
    """Driven magnon amplitude at a trial population m, by a 5x5 solve.

    The phonon equation gives ps, which shifts the magnon detuning by
    2 g_np Re(ps); the five amplitude equations are then linear in
    (a1s, a2s, us, n1s, n2s).
    """
    ps = -1j * p.g_np * m / (p.kappa_p + 1j * p.omega_p)
    delta_eff = p.delta_n2 + 2.0 * p.g_np * ps.real
    # rows: a1, a2, u, n1, n2 equations; columns: a1s, a2s, us, n1s, n2s
    M = np.array([
        [p.kappa_a + 1j * p.delta_1, 1j * p.f, 0, 1j * p.g1, 1j * p.g2],
        [1j * p.f, p.kappa_a + 1j * p.delta_2, 1j * p.G_au, 0, 0],
        [0, 1j * p.G_au, p.gamma_u + 1j * p.delta_u, 0, 0],
        [1j * p.g1, 0, 0, p.kappa_n1 + 1j * p.delta_n1, 0],
        [1j * p.g2, 0, 0, 0, p.kappa_n2 + 1j * delta_eff],
    ], dtype=complex)
    rhs = np.array([0, 0, 0, 0, Omega], dtype=complex)
    return np.linalg.solve(M, rhs)[4]


def magnon_population_direct(p, Omega):
    """Magnon population from a direct linear solve of the steady equations.

    At a trial population m the phonon equation gives ps, which shifts the
    magnon detuning by 2 g_np Re(ps); the five amplitude equations are then
    linear in (a1s, a2s, us, n1s, n2s) and are solved as one 5x5 system.
    A bracketing root find closes m = |n2s(m)|^2.  No chain-product
    elimination is used, unlike ``magnon_population_root`` and the
    production solver.
    """
    def n2s(m):
        return _n2s_direct(p, Omega, m)

    if Omega == 0.0:
        return 0.0
    upper = 4.0 * abs(n2s(0.0)) ** 2 + 1.0
    f = lambda m: m - abs(n2s(m)) ** 2
    assert f(0.0) <= 0.0 and f(upper) > 0.0, "root not bracketed"
    return brentq(f, 0.0, upper, xtol=1e-30, rtol=1e-15, maxiter=200)


def magnon_population_roots_direct(p, Omega, span=1e6, points=4001):
    """Every positive solution of m = |n2s(m)|^2, ascending.

    g(m) = m - |n2s(m)|^2, with n2s from the 5x5 direct solve, is sampled
    on a log grid spanning ``span`` either way of the unshifted population
    |n2s(0)|^2; each sign change is refined by a bracketing root find.
    Roots closer together than one grid step are not resolved.
    """
    def g(m):
        return m - abs(_n2s_direct(p, Omega, m)) ** 2

    m0 = abs(_n2s_direct(p, Omega, 0.0)) ** 2
    grid = np.geomspace(m0 / span, m0 * span, points)
    values = np.array([g(m) for m in grid])
    assert values[0] < 0.0 < values[-1], "roots not bracketed by the grid"
    changes = np.flatnonzero(np.sign(values[:-1]) != np.sign(values[1:]))
    return [brentq(g, grid[k], grid[k + 1], xtol=1e-30, rtol=1e-15,
                   maxiter=200) for k in changes]


def bare_cavity_a1m(p, delta):
    """Closed-form intracavity amplitude of the uncoupled cavity."""
    return 1.0 / (p.kappa_a + 1j * (p.delta_1 - np.asarray(delta)))


def finite_difference_group_delay(p, state, delta, step=1e-7):
    """Group delay from central differences of the transmission.

    The difference quotient at step h = ``step`` * omega_p and at h/2 is
    extrapolated as (4 D(h/2) - D(h)) / 3, which cancels the O(h^2) error.
    """
    d = np.asarray(delta, dtype=float)

    def transmission(x):
        return evaluate_spectrum(p, state, x).t

    t0 = transmission(d)

    def quotient(h):
        return (transmission(d + h) - transmission(d - h)) / (2.0 * h)

    h = step * p.omega_p
    slope = (4.0 * quotient(h / 2.0) - quotient(h)) / 3.0
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.imag(slope / t0)


def explicit_matrices(p, state, delta):
    """The (n, 12, 12) stack M0 - i*delta*I, its diagonal shifted
    explicitly, and the unit probe drive; delta is a scalar or 1-D."""
    system = build_fluctuation_matrix(p, state)
    d = np.atleast_1d(np.asarray(delta, dtype=float))
    stack = system.matrix - 1j * d[:, None, None] * np.eye(len(ORDERING))
    return stack, system.rhs


def explicit_solve(p, state, delta):
    """Sideband amplitudes (n, 12) by partial-pivoting LU on the explicit
    stack, independent of the production modal solve."""
    stack, b = explicit_matrices(p, state, delta)
    return np.linalg.solve(stack, np.broadcast_to(b, stack.shape[:-1]
                                                  )[..., None])[..., 0]


def resolvent_group_delay(p, state, delta):
    """Group delay from the 12x12 sideband system and its exact derivative.

    M(delta) = M0 - i*delta*I gives dM/d(delta) = -iI, so the solution x of
    M x = b has dx/d(delta) = i M^-1 x: one more solve with the same matrix.
    """
    stack, b = explicit_matrices(p, state, delta)
    x = np.linalg.solve(stack, np.broadcast_to(b, stack.shape[:-1])[..., None])
    dx = 1j * np.linalg.solve(stack, x)
    k = ORDERING.index("a1_minus")
    t = 1.0 - 2.0 * p.kappa_a * x[:, k, 0]
    dt = -2.0 * p.kappa_a * dx[:, k, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.imag(dt / t)


def delay_sign_crossings_pointwise(p, parameter, grid, fixed_delta):
    """The delay sweep one coupling value at a time: a validated record, a
    steady solve and a scalar ladder pass per grid value, and each sign
    bracket bisected to the end before the next one starts."""
    def tau_at(value):
        p2 = replace(p, **{parameter: float(value)})
        spectrum = evaluate_spectrum(p2, solve_steady_state(p2), fixed_delta)
        return float(spectrum.tau), bool(spectrum.tau_reliable)

    values = [float(v) for v in grid]
    results = [tau_at(v) for v in values]
    crossings, invalid = [], []
    for k, (lo, hi) in enumerate(zip(values, values[1:])):
        (tau_l, ok_l), (tau_h, ok_h) = results[k], results[k + 1]
        if tau_l == 0.0 or tau_h == 0.0 or (tau_l > 0) == (tau_h > 0):
            continue
        if not (ok_l and ok_h):
            invalid.append((lo, hi, "unreliable delay at bracket point"))
            continue
        a, b = lo, hi
        while (b - a) > REL_RESOLUTION * max(abs(a), abs(b), 1e-300):
            mid = 0.5 * (a + b)
            tau_mid, ok_mid = tau_at(mid)
            if not ok_mid:
                invalid.append((a, b, "unreliable delay during bisection"))
                break
            if (tau_mid > 0) == (tau_l > 0):
                a = mid
            else:
                b = mid
        else:
            crossings.append(Crossing(
                parameter=parameter, value=0.5 * (a + b),
                direction="pos->neg" if tau_l > 0 else "neg->pos"))
    return CrossingReport(crossings=crossings, invalid=invalid,
                          values=np.array(values),
                          tau=np.array([tau for tau, _ in results]),
                          reliable=np.array([ok for _, ok in results]))


def turning_points_loop(y):
    """Interior maxima and minima, one grid step at a time: a turn between
    two nonzero steps of opposite sign reports the midpoint of the flat
    run between them."""
    dy = np.diff(y)
    edges = np.nonzero(dy)[0]
    maxima, minima = [], []
    for k in range(1, edges.size):
        prev_rising = dy[edges[k - 1]] > 0
        if prev_rising == (dy[edges[k]] > 0):
            continue
        center = (edges[k - 1] + 1 + edges[k]) // 2
        (maxima if prev_rising else minima).append(int(center))
    return maxima, minima


def find_windows_loop(x, y, prominence=0.1):
    """The window census with every maximum scanned for each minimum."""
    maxima, minima = turning_points_loop(y)
    threshold = prominence * float(np.max(y))
    windows, rejected = [], 0
    for m in minima:
        left = [i for i in maxima if i < m]
        right = [i for i in maxima if i > m]
        if not left or not right:
            continue
        lv, rv, depth = float(y[left[-1]]), float(y[right[0]]), float(y[m])
        if lv - depth >= threshold and rv - depth >= threshold:
            windows.append(Window(center_delta=float(x[m]), depth=depth,
                                  left_peak=lv, right_peak=rv))
        else:
            rejected += 1
    return WindowReport(windows=windows, count=len(windows),
                        rejected=rejected)
