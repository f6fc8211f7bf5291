"""Wavepacket assembly on the x-grid and excited-mass prediction.

A zeroth-order packet is eps^{-1/4} e^{iS/eps} e^{ip(x-q)/eps}
a0((x-q)/sqrt(eps)) chi(x/eps; p); the first-order packet adds
sqrt(eps) [a1 chi + (-i d_y a0) d_p chi].  The assemblers take eps from the
grid and the trajectory point (q, p, S) as it stands:
assemble_wp0(grid, q, p, S, a0, chi) and
assemble_wp1(grid, q, p, S, a0, a1, chi, dp_chi).  Both go through one
helper, which builds WP1 in one pass (one y-grid, one evaluation of chi, one
phase), so a1 = 0 with d_p chi = 0 gives WP0 bit for bit.

After a crossing the state is the first-order packet on the continued branch
plus sqrt(eps) times a zeroth-order packet on the other branch, each riding
its own classical trajectory; ``harness.branch_packet`` places either packet
on the band path its trajectory was integrated on.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envelope import Envelope, evaluate_envelope
from .errors import EnvelopeClipped, GridMismatch

TWO_PI = 2.0 * np.pi
CLIP_TOL = 1e-8


def _reciprocal_integer(epsilon: float) -> int:
    k = int(round(1.0 / epsilon))
    if k < 2 or abs(epsilon * k - 1.0) > 1e-9:
        raise ValueError(f"epsilon={epsilon} is not a reciprocal integer in (0, 1)")
    return k


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, L) commensurate with the fast period.

    Every period of V(x/epsilon) contains exactly ppw grid points, so the
    fast potential is sampled identically in each of its L/epsilon periods.
    """

    length: int
    epsilon: float
    ppw: int = 32

    def __post_init__(self):
        if int(self.length) != self.length or self.length < 1:
            raise ValueError("domain length must be a positive integer")
        if self.ppw < 16:
            raise ValueError("need at least 16 points per fast period")
        _reciprocal_integer(self.epsilon)

    @property
    def k_inv(self) -> int:
        return _reciprocal_integer(self.epsilon)

    @property
    def n(self) -> int:
        return int(self.length) * self.k_inv * self.ppw

    @property
    def dx(self) -> float:
        return float(self.length) / self.n

    @property
    def x(self) -> np.ndarray:
        return self.dx * np.arange(self.n)

    def wavenumbers(self) -> np.ndarray:
        return TWO_PI * np.fft.fftfreq(self.n, d=self.dx)


@dataclass
class GridState:
    """Complex wavefunction samples on a Grid."""

    grid: Grid
    values: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.n,):
            raise GridMismatch(
                f"values size {self.values.size} != grid size {self.grid.n}"
            )

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.dx))


def evaluate_bloch_mode(coeffs: np.ndarray, z) -> np.ndarray:
    """chi(z) = sum_m c_m e^{2 pi i m z} with index m = -m_cut .. m_cut.

    z is reduced mod 1 and evaluated at its unique residues only, which makes
    commensurate grids (few residues per fast period) cheap.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    m_cut = (coeffs.size - 1) // 2
    m = np.arange(-m_cut, m_cut + 1)
    zf = np.round(np.mod(np.asarray(z, dtype=float), 1.0), 12)
    uniq, inverse = np.unique(zf, return_inverse=True)
    vals = np.exp(TWO_PI * 1j * np.outer(uniq, m)) @ coeffs
    return vals[inverse].reshape(np.shape(z))


def _clip_fraction(a: Envelope, q: float, epsilon: float, length: float) -> float:
    """Fraction of envelope mass mapped outside [0, L] by x = q + sqrt(eps) y."""
    y_lo = (0.0 - q) / np.sqrt(epsilon)
    y_hi = (length - q) / np.sqrt(epsilon)
    m = np.abs(a.values) ** 2
    total = float(np.sum(m))
    if total == 0.0:
        return 0.0
    outside = float(np.sum(m[(a.y < y_lo) | (a.y > y_hi)]))
    return outside / total


def _packet(grid: Grid, q, p, S, a0: Envelope, chi, a1: Envelope | None,
            dp_chi) -> GridState:
    """eps^{-1/4} e^{i(S + p(x-q))/eps} u(x) on the grid, y = (x-q)/sqrt(eps).

    u = a0(y) chi(x/eps), plus sqrt(eps) [a1(y) chi + (-i d_y a0)(y) d_p chi]
    when a1 is given: one y-grid, one evaluation of each mode, one phase.
    """
    eps = grid.epsilon
    chi = np.asarray(chi, dtype=complex)
    nrm = np.linalg.norm(chi)
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"chi must be normalized, got |chi| = {nrm:.3e}")
    clip = _clip_fraction(a0, q, eps, grid.length)
    if clip > CLIP_TOL:
        raise EnvelopeClipped(
            f"envelope mass fraction {clip:.2e} outside [0, {grid.length}]"
        )
    x = grid.x
    y_x = (x - q) / np.sqrt(eps)
    z = x / eps
    env = evaluate_envelope(a0, y_x)
    chi_vals = evaluate_bloch_mode(chi, z)
    if a1 is None:
        amp = env * chi_vals
    else:
        da0 = Envelope(a0.y, np.fft.ifft(a0.k_grid() * np.fft.fft(a0.values)))
        root = np.sqrt(eps)
        amp = ((env + root * evaluate_envelope(a1, y_x)) * chi_vals
               + root * evaluate_envelope(da0, y_x)
               * evaluate_bloch_mode(dp_chi, z))
    phase = np.exp(1j * (S + p * (x - q)) / eps)
    return GridState(grid, eps ** (-0.25) * phase * amp)


def assemble_wp0(grid: Grid, q: float, p: float, S: float, a0: Envelope,
                 chi: np.ndarray) -> GridState:
    """Zeroth-order one-band wavepacket on the grid."""
    return _packet(grid, q, p, S, a0, chi, None, None)


def assemble_wp1(grid: Grid, q: float, p: float, S: float, a0: Envelope,
                 a1: Envelope, chi: np.ndarray,
                 dp_chi: np.ndarray) -> GridState:
    """First-order packet: adds sqrt(eps) [a1 chi + (-i d_y a0) d_p chi]."""
    return _packet(grid, q, p, S, a0, chi, a1, dp_chi)


def path_dp_chi(path, p: float) -> np.ndarray:
    """d_p chi along a gauge-fixed path: the derivative of path.chi_spline."""
    return path.chi_spline(p, 1)


def predict_excited_mass(dqW_star: float, coupling: complex, slope_gap: float,
                         incident_norm: float, epsilon: float) -> float:
    """Predicted squared L2 norm of the excited packet.

    2 pi |dqW*| |coupling|^2 / slope_gap * epsilon * incident_norm^2; at
    epsilon = 1 this is the norm ||a_minus||^2 of envelope.excited_envelope.
    """
    if slope_gap <= 0:
        raise ValueError("slope gap must be positive")
    return (TWO_PI * abs(dqW_star) * abs(coupling) ** 2 / slope_gap
            * epsilon * incident_norm ** 2)
