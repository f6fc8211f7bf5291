"""Band-driven classical flows, action integrals and crossing-time events.

The flow q' = dE/dp, p' = -dW/dq is integrated with a fixed-step RK4 scheme
(reproducible event times), the action S' = p dE/dp - E - W accumulated
alongside, and crossing times located by root-finding on a Hermite
interpolant of p(t).  Extended branch trajectories re-use the smooth band
pair: the plus branch flows straight through the crossing, the minus branch
is launched at the crossing point with the opposite-slope branch.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np
from scipy.interpolate import CubicHermiteSpline, CubicSpline
from scipy.optimize import brentq

from .bloch import BandPath, SmoothBandPair
from .errors import (
    ConvergenceFailure,
    LeftBrillouinWindow,
    NoCrossing,
    SecondCrossing,
    TangentialApproach,
)
from .potential import ExternalPotential

TWO_PI = 2.0 * np.pi
DELTA_PRIME = 0.1   # widest backward stitch of the minus branch before t*


class ParabolicBand:
    """Analytic band E(p) = 1/2 (p - center)^2 on the whole line."""

    def __init__(self, center: float = 0.0):
        self.center = float(center)
        self.p_min = -np.inf
        self.p_max = np.inf

    def energy(self, p):
        return 0.5 * (np.asarray(p) - self.center) ** 2

    def slope(self, p):
        return np.asarray(p) - self.center

    def energy_slope(self, p: float) -> tuple[float, float]:
        d = p - self.center
        return 0.5 * d ** 2, d


class SplineBand:
    """Cubic-spline interpolant of a sampled band path.

    The spline derivative is cross-checked against the path's spectral
    (Hellmann-Feynman) velocity table; the largest discrepancy is stored as
    slope_check.
    """

    def __init__(self, path: BandPath):
        self.path = path
        self.p_min = path.p_min
        self.p_max = path.p_max
        self._spline = CubicSpline(path.p_samples, path.energies)
        self._slope = self._spline.derivative()
        self.slope_check = float(
            np.max(np.abs(self._slope(path.p_samples) - path.dE))
        )
        # the same piecewise polynomials as Python lists, for energy_slope:
        # one row per interval, highest power first
        self._knots = self._spline.x.tolist()
        self._e_coef = self._spline.c.T.tolist()
        self._d_coef = self._slope.c.T.tolist()

    def _outside(self, p: float) -> LeftBrillouinWindow:
        return LeftBrillouinWindow(
            f"p={p:.6f} outside the sampled "
            f"window [{self.p_min:.4f}, {self.p_max:.4f}]"
        )

    def _guard(self, p):
        p = np.asarray(p, dtype=float)
        if np.any(p < self.p_min - 1e-12) or np.any(p > self.p_max + 1e-12):
            raise self._outside(float(np.atleast_1d(p)[0]))
        return p

    def energy(self, p):
        return self._spline(self._guard(p))

    def slope(self, p):
        return self._slope(self._guard(p))

    def energy_slope(self, p: float) -> tuple[float, float]:
        """(E(p), E'(p)) at one momentum, bit-identical to energy and slope.

        The interval is found as scipy's PPoly finds it, and the sum runs in
        its order, c[-1] + c[-2] s + c[-3] s^2 + ... with the power built
        up by repeated multiplication.
        """
        if p < self.p_min - 1e-12 or p > self.p_max + 1e-12:
            raise self._outside(p)
        x = self._knots
        i = min(max(bisect_right(x, p) - 1, 0), len(x) - 2)
        s = p - x[i]
        s2 = s * s
        c0, c1, c2, c3 = self._e_coef[i]
        d0, d1, d2 = self._d_coef[i]
        return c3 + c2 * s + c1 * s2 + c0 * (s2 * s), d2 + d1 * s + d0 * s2


@dataclass
class Trajectory:
    """Sampled solution of the band flow with its accumulated action."""

    t_grid: np.ndarray
    q: np.ndarray
    p: np.ndarray
    S: np.ndarray
    band: str
    t_star: float | None = None
    q_star: float | None = None
    p_star: float | None = None
    energy_drift: float = 0.0

    def state_at(self, t: float) -> tuple[float, float, float]:
        """Cubic interpolation of (q, p, S) at an off-grid time."""
        qs = CubicSpline(self.t_grid, self.q)
        ps = CubicSpline(self.t_grid, self.p)
        ss = CubicSpline(self.t_grid, self.S)
        return float(qs(t)), float(ps(t)), float(ss(t))


@dataclass
class ExtendedTrajectory:
    """Smooth plus/minus branch trajectories stitched through a crossing."""

    plus: Trajectory
    minus: Trajectory


def integrate_flow(band, W: ExternalPotential, q0: float, p0: float,
                   t_span, dt: float, band_label: str = "",
                   s0: float = 0.0, energy_tol: float = 1e-9) -> Trajectory:
    """Fixed-step RK4 for q' = dE/dp, p' = -dW/dq, S' = p dE/dp - E - W.

    The step count is rounded so the span is covered exactly; the invariant
    E(p) + W(q) is monitored and a drift beyond energy_tol (relative to the
    scale of the initial value) raises ConvergenceFailure.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_steps = max(1, int(round(abs(t1 - t0) / dt)))
    h = (t1 - t0) / n_steps
    half, sixth = 0.5 * h, h / 6.0
    energy_slope, w, dw = band.energy_slope, W.w, W.dw

    def rhs(q, p):
        E, dE = energy_slope(p)
        return dE, -float(dw(q)), p * dE - E - float(w(q))

    # plain floats, in the operation order of the array form
    # y + (h/2) k and y + (h/6)(k1 + 2 k2 + 2 k3 + k4)
    q, p, S = float(q0), float(p0), float(s0)
    rows = [(q, p, S)]
    for _ in range(n_steps):
        k1q, k1p, k1s = rhs(q, p)
        k2q, k2p, k2s = rhs(q + half * k1q, p + half * k1p)
        k3q, k3p, k3s = rhs(q + half * k2q, p + half * k2p)
        k4q, k4p, k4s = rhs(q + h * k3q, p + h * k3p)
        q = q + sixth * (k1q + 2 * k2q + 2 * k3q + k4q)
        p = p + sixth * (k1p + 2 * k2p + 2 * k3p + k4p)
        S = S + sixth * (k1s + 2 * k2s + 2 * k3s + k4s)
        rows.append((q, p, S))

    t = t0 + np.arange(n_steps + 1) * h
    out = np.array(rows)
    q, p, S = out[:, 0], out[:, 1], out[:, 2]
    H = band.energy(p) + np.asarray(W.w(q), dtype=float)
    drift = float(np.max(np.abs(H - H[0])))
    scale = max(1.0, abs(float(H[0])))
    if drift > energy_tol * scale:
        raise ConvergenceFailure(
            f"energy drift {drift:.2e} exceeds {energy_tol:.1e} x {scale:.1f}; "
            "reduce dt"
        )
    return Trajectory(t, q, p, S, band_label, energy_drift=drift)


def detect_crossing_time(traj: Trajectory, p_star: float, W: ExternalPotential,
                         slope_threshold: float = 1e-6) -> tuple[float, float]:
    """First time p(t) reaches p_star (mod 2 pi), root-found to ~1e-13.

    p(t) between samples is reconstructed by a cubic Hermite interpolant
    using the exact slopes p' = -dW/dq; the bracketing step is then solved
    by Brent's method.  A crossing with |p'(t*)| below slope_threshold is
    rejected as tangential.
    """
    t, p, q = traj.t_grid, traj.p, traj.q
    pdot = -np.asarray(W.dw(q), dtype=float)
    # candidate images of p_star within the visited range
    k_lo = int(np.floor((p.min() - p_star) / TWO_PI))
    k_hi = int(np.ceil((p.max() - p_star) / TWO_PI))
    targets = [p_star + TWO_PI * k for k in range(k_lo, k_hi + 1)]

    p_spline = CubicHermiteSpline(t, p, pdot)
    best = None
    for target in targets:
        f = p - target
        hits = np.nonzero((f[:-1] * f[1:] <= 0) & (f[:-1] != 0))[0]
        for i in hits:
            t_hit = brentq(lambda x: float(p_spline(x)) - target,
                           t[i], t[i + 1], xtol=1e-13)
            if best is None or t_hit < best[0]:
                best = (float(t_hit), target)
    if best is None:
        raise NoCrossing(
            f"p(t) never reaches p_star={p_star} (mod 2 pi) on the span"
        )
    t_star, target = best
    pdot_star = float(p_spline.derivative()(t_star))
    if abs(pdot_star) < slope_threshold:
        raise TangentialApproach(
            f"|p'(t*)| = {abs(pdot_star):.2e} below {slope_threshold:.1e}"
        )
    qdot = np.gradient(q, t, edge_order=2)
    q_spline = CubicHermiteSpline(t, q, qdot)
    return t_star, float(q_spline(t_star))


def extend_through_crossing(pair: SmoothBandPair, W: ExternalPotential,
                            incoming: Trajectory, T: float,
                            dt: float = 1e-3) -> ExtendedTrajectory:
    """Build the smooth plus/minus branch trajectories through the crossing.

    The plus branch re-integrates the incoming initial data with the smooth
    E_+ interpolant over [t0, T] (identical to the raw band flow away from
    p_star); the minus branch launches from (q*, p*) at t* with E_- and the
    action seeded at S* in both time directions.
    """
    band_plus = SplineBand(pair.plus)
    band_minus = SplineBand(pair.minus)
    t0 = float(incoming.t_grid[0])
    q0, p0 = float(incoming.q[0]), float(incoming.p[0])
    s0 = float(incoming.S[0])

    plus = integrate_flow(band_plus, W, q0, p0, (t0, T), dt,
                          band_label="+", s0=s0)
    t_star, q_star = detect_crossing_time(plus, pair.p_star, W)
    _, p_at_star, s_star = plus.state_at(t_star)

    span_p = np.max(np.abs(plus.p - pair.p_star))
    if span_p >= TWO_PI - 1e-9:
        raise SecondCrossing(
            "plus branch reaches the next image of the crossing before T"
        )

    # shrink the backward stitching width until p_-([t*-delta', t*]) stays
    # inside the sampled pair window
    dprime = DELTA_PRIME
    pdot_star = -float(W.dw(q_star))
    halfwidth = pair.halfwidth
    while dprime > 1e-6 and abs(pdot_star) * dprime > 0.9 * halfwidth:
        dprime *= 0.5

    fwd = integrate_flow(band_minus, W, q_star, p_at_star, (t_star, T), dt,
                         band_label="-", s0=s_star)
    back = integrate_flow(band_minus, W, q_star, p_at_star,
                          (t_star, t_star - dprime), dt,
                          band_label="-", s0=s_star)
    t_m = np.concatenate([back.t_grid[::-1][:-1], fwd.t_grid])
    minus = Trajectory(
        t_m,
        np.concatenate([back.q[::-1][:-1], fwd.q]),
        np.concatenate([back.p[::-1][:-1], fwd.p]),
        np.concatenate([back.S[::-1][:-1], fwd.S]),
        band="-",
        t_star=t_star, q_star=q_star, p_star=pair.p_star,
        energy_drift=max(fwd.energy_drift, back.energy_drift),
    )
    if np.max(np.abs(minus.p - pair.p_star)) >= TWO_PI - 1e-9:
        raise SecondCrossing(
            "minus branch reaches the next image of the crossing before T"
        )
    plus = replace(plus, t_star=t_star, q_star=q_star, p_star=pair.p_star)
    return ExtendedTrajectory(plus=plus, minus=minus)
