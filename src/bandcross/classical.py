"""Band-driven classical flows, action integrals and crossing-time events.

The flow q' = dE/dp, p' = -dW/dq is integrated with a fixed-step RK4 scheme
(reproducible event times), the action S' = p dE/dp - E - W accumulated
alongside.  integrate_flow takes its step as an argument; the harness
derives that step by step doubling against the studies' error targets
(harness.derived_flow), and extend_through_crossing takes the flow to run
on each branch, so no step is hand-set.  Crossing times are located as
roots of the trajectory's own cubic Hermite spline of p(t)
(numerics.UniformHermite, as are all the splines here).  Each trajectory
keeps the band spline it was integrated on and builds its (q, p, S) splines
once, on first use, so the crossing point (q*, p*, S*) is read from the
same splines as every other off-grid state.
Through a crossing each smooth branch is integrated once, forward: the plus
branch from the initial data straight through the crossing, the minus
branch from the crossing point (q*, p*, S*) at t* on the opposite-slope
branch.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bloch import BandPath, SmoothBandPair
from .errors import (
    ConvergenceFailure,
    LeftBrillouinWindow,
    NoCrossing,
    SecondCrossing,
    TangentialApproach,
)
from .numerics import UniformHermite
from .potential import ExternalPotential

TWO_PI = 2.0 * np.pi
ENERGY_TOL = 1e-9   # E(p) + W(q) drift allowed, relative to its scale


class SplineBand:
    """Cubic Hermite spline of a sampled band path.

    The spline derivative is cross-checked against the path's spectral
    (Hellmann-Feynman) velocity table; the largest discrepancy is stored as
    slope_check.
    """

    def __init__(self, path: BandPath):
        self.path = path
        self.p_min = path.p_min
        self.p_max = path.p_max
        self._spline = UniformHermite(path.p_samples, path.energies)
        self.slope_check = float(
            np.max(np.abs(self._spline(path.p_samples, 1) - path.dE))
        )

    def _outside(self, p: float) -> LeftBrillouinWindow:
        return LeftBrillouinWindow(
            f"p={p:.6f} outside the sampled "
            f"window [{self.p_min:.4f}, {self.p_max:.4f}]"
        )

    def _guard(self, p):
        p = np.asarray(p, dtype=float)
        out = (p < self.p_min - 1e-12) | (p > self.p_max + 1e-12)
        if np.any(out):
            raise self._outside(float(p[out].flat[0]))
        return p

    def energy(self, p):
        return self._spline(self._guard(p))

    def slope(self, p):
        return self._spline(self._guard(p), 1)

    def energy_slope(self, p: float) -> tuple[float, float]:
        """(E(p), E'(p)) at one momentum, bit-identical to energy and slope."""
        if p < self.p_min - 1e-12 or p > self.p_max + 1e-12:
            raise self._outside(p)
        return self._spline.value_slope(p)


@dataclass
class Trajectory:
    """Sampled solution of the band flow with its accumulated action."""

    t_grid: np.ndarray
    q: np.ndarray
    p: np.ndarray
    S: np.ndarray
    band: SplineBand     # the band the flow was integrated on
    energy_drift: float = 0.0

    @cached_property
    def splines(self) -> tuple[UniformHermite, UniformHermite, UniformHermite]:
        """Cubic Hermite splines of q, p and S over t_grid, built once."""
        return tuple(UniformHermite(self.t_grid, y)
                     for y in (self.q, self.p, self.S))

    def state_at(self, t: float) -> tuple[float, float, float]:
        """Cubic interpolation of (q, p, S) at an off-grid time."""
        qs, ps, ss = self.splines
        return float(qs(t)), float(ps(t)), float(ss(t))


@dataclass
class ExtendedTrajectory:
    """Smooth plus/minus branch trajectories through a crossing at t*."""

    plus: Trajectory
    minus: Trajectory
    t_star: float
    q_star: float


def integrate_flow(band, W: ExternalPotential, q0: float, p0: float,
                   t_span, dt: float, s0: float = 0.0) -> Trajectory:
    """Fixed-step RK4 for q' = dE/dp, p' = -dW/dq, S' = p dE/dp - E - W.

    The step count is rounded so the span is covered exactly; the invariant
    E(p) + W(q) is monitored and a drift beyond ENERGY_TOL (relative to the
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
    if drift > ENERGY_TOL * scale:
        raise ConvergenceFailure(
            f"energy drift {drift:.2e} exceeds {ENERGY_TOL:.1e} x {scale:.1f}; "
            "reduce dt"
        )
    return Trajectory(t, q, p, S, band, energy_drift=drift)


def detect_crossing_time(traj: Trajectory, p_star: float,
                         slope_threshold: float = 1e-6) -> tuple[float, float]:
    """First time p(t) reaches p_star (mod 2 pi), and q there.

    The roots are those of the trajectory's own p spline, over every image
    of p_star that p visits, and q* is read from its q spline, so (q*, p*)
    is exactly ``traj.state_at(t*)``.  A crossing with |p'(t*)| below
    slope_threshold is rejected as tangential.
    """
    q_spline, p_spline, _ = traj.splines
    p = traj.p
    # candidate images of p_star within the visited range
    k_lo = int(np.floor((p.min() - p_star) / TWO_PI))
    k_hi = int(np.ceil((p.max() - p_star) / TWO_PI))
    roots = [p_spline.first_root(p_star + TWO_PI * k)
             for k in range(k_lo, k_hi + 1)]
    roots = [r for r in roots if r is not None]
    if not roots:
        raise NoCrossing(
            f"p(t) never reaches p_star={p_star} (mod 2 pi) on the span"
        )
    best = min(roots)
    pdot_star = float(p_spline(best, 1))
    if abs(pdot_star) < slope_threshold:
        raise TangentialApproach(
            f"|p'(t*)| = {abs(pdot_star):.2e} below {slope_threshold:.1e}"
        )
    return best, float(q_spline(best))


def extend_through_crossing(pair: SmoothBandPair, W: ExternalPotential,
                            q0: float, p0: float, s0: float, T: float,
                            flow) -> ExtendedTrajectory:
    """Integrate both smooth branches through the crossing, each once.

    flow(band, W, q0, p0, t_span, s0) integrates one branch and returns its
    Trajectory: integrate_flow at a fixed step, or the harness's derived
    step.  The plus branch flows from (q0, p0, S = s0) at t = 0 to T on the
    E_+ interpolant (identical to the raw band flow away from p_star), and
    t* is where its p reaches p_star.  The minus branch, on E_-, starts from
    the plus state (q*, p*, S*) at t* and runs forward to T.  Either branch
    reaching the next image of p_star before T raises SecondCrossing.
    """
    plus = flow(SplineBand(pair.plus), W, q0, p0, (0.0, T), s0)
    t_star, q_star = detect_crossing_time(plus, pair.p_star)
    _, p_at_star, s_star = plus.state_at(t_star)
    if np.max(np.abs(plus.p - pair.p_star)) >= TWO_PI - 1e-9:
        raise SecondCrossing(
            "plus branch reaches the next image of the crossing before T"
        )
    minus = flow(SplineBand(pair.minus), W, q_star, p_at_star, (t_star, T),
                 s_star)
    if np.max(np.abs(minus.p - pair.p_star)) >= TWO_PI - 1e-9:
        raise SecondCrossing(
            "minus branch reaches the next image of the crossing before T"
        )
    return ExtendedTrajectory(plus, minus, t_star, q_star)
