"""Slow-envelope dynamics and the excited-envelope oscillatory integral.

a0 rides a time-dependent harmonic oscillator i da0/dt = H(t) a0 with
H = 1/2 d2E k^2 + 1/2 d2W y^2, integrated by midpoint Strang splitting
(kinetic part exact in frequency space).  a1 obeys the same flow with the
cubic-correction source I(t) a0, I = 1/6 d3E k^3 + 1/6 d3W y^3; the two
march together, a0 taking two half steps per a1 step so that each a1 step
reads a0 at its midpoint, and only the current states are kept.  Both
marches take their step as an argument; the harness derives it by step
doubling against the case's error target (harness.march_envelopes), since
the coefficients vary on the O(1) time scale and the step owes nothing to
eps.  The Berry connection A = i <chi|d_p chi> would add dW/dq A to H and
dW/dq d_pA k + d2W A y to I, but the eigenvectors are parallel-transported
along p, so A = 0 and those terms vanish identically.  The envelope
excited at a band crossing is a chirp convolution of the incident envelope,
computed in closed form per frequency; its partial buildup in the fast time
s is evaluated per frequency with Fresnel integrals, which also supply the
exact lower-tail seed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sfft
from scipy.interpolate import CubicSpline
from scipy.special import fresnel

from .errors import DegenerateSlopes, GridMismatch, GridOverflow

BOUNDARY_FRACTION = 0.05
BOUNDARY_TOL = 1e-8


@dataclass
class Envelope:
    """Complex samples on a uniform symmetric y-grid."""

    y: np.ndarray
    values: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.y.ndim != 1 or self.y.size < 8:
            raise ValueError("y grid must be a 1d array")
        d = np.diff(self.y)
        if not np.allclose(d, d[0], rtol=0, atol=1e-12 * abs(d[0])):
            raise ValueError("y grid must be uniform")
        if abs(self.y[0] + self.y[-1] + d[0]) > 1e-9 * abs(self.y[0]):
            # symmetric periodic grid: y = -Y ... Y - dy
            raise ValueError("y grid must be symmetric about 0 (periodic form)")
        if self.values.shape != self.y.shape:
            raise ValueError("values shape mismatch")

    @property
    def dy(self) -> float:
        return float(self.y[1] - self.y[0])

    @property
    def half_width(self) -> float:
        return float(-self.y[0])

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.dy))

    def k_grid(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.y.size, d=self.dy)


def make_grid(half_width: float = 20.0, n: int = 512) -> np.ndarray:
    """Uniform symmetric grid y = -Y ... Y - dy (periodic convention)."""
    dy = 2.0 * half_width / n
    return -half_width + dy * np.arange(n)


def gaussian_envelope(sigma: float = 1.0, half_width: float = 20.0,
                      n: int = 512, center: float = 0.0,
                      momentum: float = 0.0) -> Envelope:
    """L2-normalized Gaussian (pi sigma^2)^{-1/4} e^{-(y-c)^2/(2 sigma^2)}."""
    y = make_grid(half_width, n)
    vals = (np.pi * sigma ** 2) ** (-0.25) * np.exp(
        -((y - center) ** 2) / (2.0 * sigma ** 2) + 1j * momentum * (y - center)
    )
    return Envelope(y, vals)


@dataclass
class OscillatorCoefficients:
    """Trajectory-sampled coefficient series for H(t) and I(t).

    H(t) = 1/2 d2E k^2 + 1/2 d2W y^2
    I(t) = 1/6 d3E k^3 + 1/6 d3W y^3

    The Berry-connection terms of both are absent: the band paths carry a
    parallel-transported gauge, in which A and d_pA vanish.
    """

    t_grid: np.ndarray
    d2E: np.ndarray
    d2W: np.ndarray
    d3E: np.ndarray
    d3W: np.ndarray
    _splines: dict = field(default_factory=dict, repr=False)

    def _sp(self, name):
        if name not in self._splines:
            self._splines[name] = CubicSpline(self.t_grid, getattr(self, name))
        return self._splines[name]

    def sample(self, t, name: str) -> np.ndarray:
        """The named series at every time in t, by one spline call."""
        t = np.asarray(t, dtype=float)
        lo, hi = self.t_grid[0], self.t_grid[-1]
        bad = (t < lo - 1e-9) | (t > hi + 1e-9)
        if np.any(bad):
            raise GridMismatch(f"t={t[bad][0]} outside coefficient span "
                               f"[{lo}, {hi}]")
        return self._sp(name)(np.clip(t, lo, hi))

    @classmethod
    def constant(cls, t_span, d2E=0.0, d2W=0.0, d3E=0.0, d3W=0.0,
                 n: int = 33):
        t = np.linspace(t_span[0], t_span[1], n)
        ones = np.ones_like(t)
        return cls(t, d2E * ones, d2W * ones, d3E * ones, d3W * ones)


def coefficients_from_trajectory(traj, W) -> OscillatorCoefficients:
    """Sample oscillator coefficients along a classical trajectory.

    The derivative tables of traj.band.path, which bounds every p(t) of the
    flow, are interpolated at p(t); external derivatives are taken at q(t).
    """
    t = traj.t_grid
    p, q = traj.p, traj.q
    path = traj.band.path
    d2_sp = CubicSpline(path.p_samples, path.d2E)
    d3_sp = CubicSpline(path.p_samples, path.d3E)
    return OscillatorCoefficients(
        t_grid=t.copy(),
        d2E=d2_sp(p),
        d2W=np.array(W.d2w(q), dtype=float),
        d3E=d3_sp(p),
        d3W=np.array(W.d3w(q), dtype=float),
    )


def _check_overflow(values: np.ndarray, n_edge: int) -> float:
    """Fraction of the mass in the n_edge cells at each end of the grid."""
    total = np.vdot(values, values).real
    if total == 0:
        return 0.0
    edge = (np.vdot(values[:n_edge], values[:n_edge]).real
            + np.vdot(values[-n_edge:], values[-n_edge:]).real)
    ratio = float(edge / total)
    if ratio > BOUNDARY_TOL:
        raise GridOverflow(
            f"boundary mass fraction {ratio:.2e} exceeds {BOUNDARY_TOL}"
        )
    return ratio


def _midpoints(coeffs, t0, h, n_steps, *names):
    """Each named series at every step midpoint t0 + (j + 1/2) h."""
    tm = t0 + (np.arange(n_steps) + 0.5) * h
    return [coeffs.sample(tm, name).tolist() for name in names]


def _steps(t_span, dt):
    """(t0, t1, number of steps, step) of a march over t_span near dt."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    n_steps = max(1, int(round((t1 - t0) / dt)))
    return t0, t1, n_steps, (t1 - t0) / n_steps


def _edge_cells(y):
    return max(2, int(round(BOUNDARY_FRACTION * y.size / 2)))


def _apply_h_strang(values, k2, y2, dt, d2E, d2W):
    """One midpoint Strang step of exp(-i dt H); k2 = k^2, y2 = y^2."""
    half_kin = np.exp(-0.25j * dt * d2E * k2)
    v = sfft.ifft(half_kin * sfft.fft(values))
    if d2W != 0.0:
        v *= np.exp(-1j * dt * (0.5 * d2W * y2))
    return sfft.ifft(half_kin * sfft.fft(v))


def _a0_steps(coeffs, a0_init: Envelope, t0, h, n_steps):
    """a0 after each of n_steps midpoint Strang steps of size h from t0,
    with its boundary-mass fraction (checked against BOUNDARY_TOL)."""
    y = a0_init.y
    k2, y2 = a0_init.k_grid() ** 2, y ** 2
    n_edge = _edge_cells(y)
    d2E, d2W = _midpoints(coeffs, t0, h, n_steps, "d2E", "d2W")
    vals = a0_init.values
    for j in range(n_steps):
        vals = _apply_h_strang(vals, k2, y2, h, d2E[j], d2W[j])
        yield vals, _check_overflow(vals, n_edge)


def evolve_a0(coeffs: OscillatorCoefficients, a0_init: Envelope, t_span,
              dt: float):
    """Propagate i da/dt = H(t) a by unitary midpoint Strang steps.

    Returns (a0 at t_span[1], peak boundary-mass fraction of the march).
    """
    t0, t1, n_steps, h = _steps(t_span, dt)
    peak = 0.0
    for vals, mass in _a0_steps(coeffs, a0_init, t0, h, n_steps):
        peak = max(peak, mass)
    return Envelope(a0_init.y, vals, t=t1), peak


def _apply_source(a_vals, d3E, d3W, k3, y3):
    """I(t) a with I = 1/6 d3E k^3 + 1/6 d3W y^3; k3 = k^3, y3 = y^3."""
    out = np.zeros_like(a_vals)
    if d3E != 0.0:
        out += sfft.ifft(d3E / 6.0 * k3 * sfft.fft(a_vals))
    if d3W != 0.0:
        out += d3W / 6.0 * y3 * a_vals
    return out


def evolve_a1(coeffs: OscillatorCoefficients, a0_init: Envelope,
              a1_init: Envelope, t_span, dt: float):
    """March i da0/dt = H(t) a0 and (i d/dt - H(t)) a1 = I(t) a0 together.

    a0 takes two half steps per a1 step; the state after the first is the
    midpoint a0 of that step's source.  Returns (a0, a1) at t_span[1] and
    the peak boundary-mass fraction of both marches.
    """
    t0, t1, n_steps, h = _steps(t_span, dt)
    y, k = a1_init.y, a1_init.k_grid()
    if a0_init.y.shape != y.shape or np.max(np.abs(a0_init.y - y)) > 1e-12:
        raise GridMismatch("a0 and a1 initial data use different grids")
    k2, y2, k3, y3 = k ** 2, y ** 2, k ** 3, y ** 3
    n_edge = _edge_cells(y)
    d2E, d2W, d3E, d3W = _midpoints(coeffs, t0, h, n_steps,
                                    "d2E", "d2W", "d3E", "d3W")
    a0_steps = _a0_steps(coeffs, a0_init, t0, h / 2.0, 2 * n_steps)
    vals = a1_init.values
    peak = 0.0
    for j in range(n_steps):
        a0_mid, mid_mass = next(a0_steps)
        a0_vals, end_mass = next(a0_steps)
        vals = _apply_h_strang(vals, k2, y2, h, d2E[j], d2W[j])
        src = _apply_source(a0_mid, d3E[j], d3W[j], k3, y3)
        # transport the midpoint source through the remaining half step
        src = _apply_h_strang(src, k2, y2, h / 2.0, d2E[j], d2W[j])
        vals = vals - 1j * h * src
        peak = max(peak, mid_mass, end_mass, _check_overflow(vals, n_edge))
    return Envelope(y, a0_vals, t=t1), Envelope(y, vals, t=t1), peak


# -- excited envelope ------------------------------------------------------------


def _fresnel_lower(u0, a_coef: float):
    """Vectorized integral of exp(i a u^2) du from -infinity to u0."""
    scale = np.sqrt(np.pi / (2.0 * abs(a_coef)))
    sgn = 1.0 if a_coef > 0 else -1.0
    x = np.asarray(u0) / scale
    S, C = fresnel(x)
    return scale * ((C + 0.5) + 1j * sgn * (S + 0.5))


def _chirp_params(dqW_star: float, slope_gap: float,
                  slope_tol: float = 1e-9):
    if slope_gap <= slope_tol:
        raise DegenerateSlopes(f"slope gap {slope_gap:.2e} below {slope_tol}")
    if dqW_star == 0.0:
        raise ValueError("dqW_star must be nonzero at a driven crossing")
    return 0.5 * dqW_star * slope_gap


def excited_envelope(a_star: Envelope, dqW_star: float, slope_gap: float,
                     coupling: complex) -> Envelope:
    """Excited-branch envelope at the crossing time.

    a_minus(y) = dqW* kappa  Integral  e^{i dqW* sg tau^2 / 2}
                                       a*(y - sg tau) d tau

    the complete buildup, excited_buildup at s = +inf, where the lower
    Fresnel integral is complete: fresnel(inf) = (1/2, 1/2).
    """
    (out,) = excited_buildup(a_star, dqW_star, slope_gap, coupling, [np.inf])
    out.t = a_star.t
    return out


def _spectral_refine(values: np.ndarray, r: int) -> np.ndarray:
    """Trigonometric interpolation onto an r-times finer periodic grid."""
    n = values.size
    if n % 2 != 0:
        raise ValueError("spectral refinement requires an even grid size")
    spec = np.fft.fft(values)
    padded = np.zeros(n * r, dtype=complex)
    half = n // 2
    padded[:half] = spec[:half]
    padded[-(n - half):] = spec[half:]
    # split the Nyquist coefficient symmetrically
    padded[half] = 0.5 * spec[half]
    padded[n * r - half] = 0.5 * spec[half]
    return np.fft.ifft(padded) * r


def excited_buildup(a_star: Envelope, dqW_star: float, slope_gap: float,
                    coupling: complex, s_grid) -> list[Envelope]:
    """Partial excited envelopes on the fast time-scale s, one per s.

    buildup(y, s) = dqW* kappa Integral_{-inf}^{s} e^{i a s'^2}
                    a*(y - sg s') ds'
    evaluated per frequency with lower Fresnel integrals (exact lower tail).
    At s = +inf the integral is complete, and the buildup is
    excited_envelope.
    """
    a_coef = _chirp_params(dqW_star, slope_gap)
    k = a_star.k_grid()
    spec = np.fft.fft(a_star.values)
    b = k * slope_gap
    shift = b / (2.0 * a_coef)
    phase = np.exp(-0.25j * b ** 2 / a_coef)
    return [Envelope(a_star.y, dqW_star * coupling * np.fft.ifft(
                phase * _fresnel_lower(s - shift, a_coef) * spec))
            for s in s_grid]


# -- evaluation ------------------------------------------------------------------


def evaluate_envelope(e: Envelope, points) -> np.ndarray:
    """Band-limited values of the envelope at arbitrary points.

    Spectral refinement onto a 16 times finer periodic grid followed by cubic
    interpolation; points outside the grid evaluate to 0 (Schwartz decay).
    """
    refine = 16
    fine = _spectral_refine(e.values, refine)
    m = fine.size
    dy = e.dy / refine
    y_fine = e.y[0] + dy * np.arange(m)
    pts = np.asarray(points, dtype=float)
    # one spline whose two columns are the real and imaginary parts, viewed
    # in place: a complex-valued spline would solve in complex arithmetic
    # and move the values by an ulp
    spline = CubicSpline(y_fine, fine.view(float).reshape(-1, 2))
    inside = (pts >= y_fine[0]) & (pts <= y_fine[-1])
    out = np.zeros(pts.shape, dtype=complex)
    out[inside] = spline(pts[inside]).view(complex)[:, 0]
    return out
