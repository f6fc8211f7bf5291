"""Band-driven classical flows, action integrals and crossing-time events.

The flow q' = dE/dp, p' = -dW/dq is integrated with a fixed-step RK4 scheme
(reproducible event times), the action S' = p dE/dp - E - W accumulated
alongside, and crossing times located by root-finding on a Hermite
interpolant of p(t).  Extended branch trajectories re-use the smooth band
pair: the plus branch flows straight through the crossing, the minus branch
is launched at the crossing point with the opposite-slope branch.
"""
from __future__ import annotations

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

    def _guard(self, p):
        p = np.asarray(p, dtype=float)
        if np.any(p < self.p_min - 1e-12) or np.any(p > self.p_max + 1e-12):
            raise LeftBrillouinWindow(
                f"p={float(np.atleast_1d(p)[0]):.6f} outside the sampled "
                f"window [{self.p_min:.4f}, {self.p_max:.4f}]"
            )
        return p

    def energy(self, p):
        return self._spline(self._guard(p))

    def slope(self, p):
        return self._slope(self._guard(p))


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

    def dump_csv(self, path):
        from .io import write_csv
        rows = zip(self.t_grid, self.q, self.p, self.S)
        write_csv(path, ["t", "q", "p", "S"], rows)


@dataclass
class ExtendedTrajectory:
    """Smooth plus/minus branch trajectories stitched through a crossing."""

    plus: Trajectory
    minus: Trajectory
    delta: float
    delta_prime: float


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

    def rhs(y):
        q, p, _ = y
        dE = float(band.slope(p))
        return np.array([dE,
                         -float(W.dw(q)),
                         p * dE - float(band.energy(p)) - float(W.w(q))])

    t = np.empty(n_steps + 1)
    out = np.empty((n_steps + 1, 3))
    out[0] = (q0, p0, s0)
    t[0] = t0
    y = out[0].copy()
    for k in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k + 1] = y
        t[k + 1] = t0 + (k + 1) * h

    q, p, S = out[:, 0], out[:, 1], out[:, 2]
    H = band.energy(p) + np.array([float(W.w(qi)) for qi in q])
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
    pdot = -np.array([float(W.dw(qi)) for qi in q])
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
                            delta: float = 0.1, delta_prime: float = 0.1,
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
    dprime = float(delta_prime)
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
    return ExtendedTrajectory(plus=plus, minus=minus, delta=float(delta),
                              delta_prime=dprime)
