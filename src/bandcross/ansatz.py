"""Wavepacket assembly on the x-grid and excited-mass prediction.

A zeroth-order packet is eps^{-1/4} e^{iS/eps} e^{ip(x-q)/eps}
a0((x-q)/sqrt(eps)) chi(x/eps; p); the first-order packet adds
sqrt(eps) [a1 chi + (-i d_y a0) d_p chi].  After a crossing the state is the
first-order packet on the continued branch plus sqrt(eps) times a
zeroth-order packet on the other branch, each riding its own classical
trajectory; ``harness.branch_packet`` places either packet on one branch.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .envelope import Envelope, evaluate_envelope
from .errors import EnvelopeClipped, GridMismatch
from .io import write_csv, write_state_binary

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

    def dump(self, path_prefix: str, preview_stride: int = 64):
        sidecar = {
            "L": int(self.grid.length),
            "N": int(self.grid.n),
            "epsilon": self.grid.epsilon,
            "ppw": int(self.grid.ppw),
            "t": self.t,
        }
        write_state_binary(path_prefix + ".state", self.values, sidecar)
        x = self.grid.x[::preview_stride]
        v = self.values[::preview_stride]
        write_csv(path_prefix + "_preview.csv",
                  ["x", "re", "im", "abs2"],
                  [(xi, vi.real, vi.imag, abs(vi) ** 2) for xi, vi in zip(x, v)])


@dataclass
class WavepacketParams:
    """Everything needed to place one Bloch wavepacket on the grid."""

    S: float
    q: float
    p: float
    a0: Envelope
    epsilon: float
    chi: np.ndarray
    a1: Envelope | None = None
    dp_chi: np.ndarray | None = None

    def __post_init__(self):
        self.chi = np.asarray(self.chi, dtype=complex)
        nrm = np.linalg.norm(self.chi)
        if abs(nrm - 1.0) > 1e-8:
            raise ValueError(f"chi must be normalized, got |chi| = {nrm:.3e}")
        _reciprocal_integer(self.epsilon)


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


def _packet(grid: Grid, S, q, p, env_vals, chi_vals, epsilon) -> np.ndarray:
    x = grid.x
    phase = np.exp(1j * (S + p * (x - q)) / epsilon)
    return epsilon ** (-0.25) * phase * env_vals * chi_vals


def assemble_wp0(params: WavepacketParams, grid: Grid) -> GridState:
    """Zeroth-order one-band wavepacket on the grid."""
    if abs(params.epsilon - grid.epsilon) > 1e-12:
        raise GridMismatch("params and grid disagree on epsilon")
    clip = _clip_fraction(params.a0, params.q, params.epsilon, grid.length)
    if clip > CLIP_TOL:
        raise EnvelopeClipped(
            f"envelope mass fraction {clip:.2e} outside [0, {grid.length}]"
        )
    x = grid.x
    y_x = (x - params.q) / np.sqrt(params.epsilon)
    env = evaluate_envelope(params.a0, y_x, refine=16)
    chi = evaluate_bloch_mode(params.chi, x / params.epsilon)
    vals = _packet(grid, params.S, params.q, params.p, env, chi, params.epsilon)
    return GridState(grid, vals)


def assemble_wp1(params: WavepacketParams, grid: Grid) -> GridState:
    """First-order packet: adds sqrt(eps) [a1 chi + (-i d_y a0) d_p chi]."""
    if params.a1 is None or params.dp_chi is None:
        raise ValueError("assemble_wp1 needs both a1 and dp_chi")
    state = assemble_wp0(params, grid)
    x = grid.x
    y_x = (x - params.q) / np.sqrt(params.epsilon)
    ky = params.a0.k_grid()
    da0 = Envelope(params.a0.y,
                   np.fft.ifft(ky * np.fft.fft(params.a0.values)))
    a1_vals = evaluate_envelope(params.a1, y_x, refine=16)
    da0_vals = evaluate_envelope(da0, y_x, refine=16)
    chi = evaluate_bloch_mode(params.chi, x / params.epsilon)
    dchi = evaluate_bloch_mode(params.dp_chi, x / params.epsilon)
    corr = a1_vals * chi + da0_vals * dchi
    state.values = state.values + np.sqrt(params.epsilon) * _packet(
        grid, params.S, params.q, params.p, corr, np.ones_like(chi),
        params.epsilon,
    )
    return state


def path_dp_chi(path, p: float) -> np.ndarray:
    """d_p chi along a gauge-fixed path by spectral-grade spline derivative."""
    sp = CubicSpline(path.p_samples, path.chi, axis=0)
    return sp(p, 1)


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
