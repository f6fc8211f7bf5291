"""Periodic lattice potentials and slowly varying external potentials.

A lattice potential V is real, smooth and 1-periodic, stored as a truncated
Fourier series V(z) = sum_m vhat_m e^{2 pi i m z} with vhat_{-m} = conj(vhat_m).
Families provided:

  * cosine potentials  amp * cos(2 pi h z),
  * finite-gap (Lame) potentials  V(z) = (m(m+1)/2) * wp(z + i w'), with wp
    the Weierstrass elliptic function of half-periods (1/2, i w'), whose
    Fourier coefficients have a closed q-series.

The external potential W is a smooth function of the macroscopic coordinate,
carried together with closed-form derivatives up to third order.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "PeriodicPotential",
    "ExternalPotential",
    "EllipticParams",
    "make_cosine",
    "make_m_gap",
    "potential_from_coeffs",
    "evaluate_periodic",
    "linear_ramp",
    "cosine_external",
    "zero_external",
]

_REALNESS_TOL = 1e-12


@dataclass(frozen=True)
class PeriodicPotential:
    """Truncated Fourier representation of a real 1-periodic potential.

    coeffs[k] holds vhat_m for m = k - m_max, so the array covers
    m = -m_max .. m_max and has odd length.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size % 2 == 0:
            raise ValueError("coefficient array must be 1d of odd length")
        scale = max(np.abs(c).max(), 1.0)
        if np.abs(c - np.conj(c[::-1])).max() > _REALNESS_TOL * scale:
            raise ValueError("coefficients do not describe a real potential")
        # exact Hermitian symmetry so downstream matrices are exactly Hermitian
        c = 0.5 * (c + np.conj(c[::-1]))
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def even(self) -> bool:
        """V(-z) = V(z): every vhat_m is real, so every fiber is real symmetric."""
        return not np.any(self.coeffs.imag)

    @property
    def m_max(self) -> int:
        return (self.coeffs.size - 1) // 2

    def coeff(self, m: int) -> complex:
        if abs(m) > self.m_max:
            return 0.0 + 0.0j
        return complex(self.coeffs[m + self.m_max])

    def decay_floor(self) -> float:
        """Largest |vhat_m| on the outermost tenth of the index range."""
        m = self.m_max
        guard = max(1, m // 10)
        mags = np.abs(self.coeffs)
        return float(max(mags[:guard].max(), mags[-guard:].max()))

    def __call__(self, z):
        return evaluate_periodic(self, z)


def evaluate_periodic(V: PeriodicPotential, z) -> np.ndarray:
    """Evaluate the Fourier series at z (scalar or array); output is real."""
    z = np.asarray(z, dtype=float)
    m = np.arange(-V.m_max, V.m_max + 1)
    phases = np.exp(2j * np.pi * np.outer(z.ravel(), m))
    vals = phases @ V.coeffs
    scale = max(np.abs(V.coeffs).sum(), 1.0)
    if np.abs(vals.imag).max() > 1e-10 * scale:
        raise ValueError("evaluation produced a non-real potential value")
    return vals.real.reshape(z.shape) if z.shape else float(vals.real[0])


def potential_from_coeffs(pairs) -> PeriodicPotential:
    """Build a potential from {m: vhat_m}; missing conjugates are implied."""
    if not pairs:
        return PeriodicPotential(np.zeros(1, dtype=complex))
    m_max = max(abs(int(m)) for m in pairs)
    c = np.zeros(2 * m_max + 1, dtype=complex)
    for m, v in pairs.items():
        c[int(m) + m_max] += v
        if m != 0:
            c[-int(m) + m_max] += np.conj(v)
    return PeriodicPotential(c)


def make_cosine(amplitude: float, harmonics: int = 1) -> PeriodicPotential:
    """V(z) = amplitude * cos(2 pi harmonics z), padded with zero guard modes."""
    if harmonics < 1:
        raise ValueError("harmonics must be a positive integer")
    m_max = harmonics + 2
    c = np.zeros(2 * m_max + 1, dtype=complex)
    c[m_max + harmonics] = amplitude / 2.0
    c[m_max - harmonics] = amplitude / 2.0
    return PeriodicPotential(c)


# -- finite-gap (Lame) potentials -------------------------------------------


@dataclass(frozen=True)
class EllipticParams:
    """Half-periods (1/2, i*omega_prime) and the gap count of the potential."""

    gap_count: int = 1
    omega_prime: float = 0.8

    def __post_init__(self):
        if self.gap_count < 1:
            raise ValueError("gap_count must be >= 1")
        if not self.omega_prime > 0:
            raise ValueError("omega_prime must be positive")


def make_m_gap(params: EllipticParams, m_max: int = 64) -> PeriodicPotential:
    """Finite-gap potential V(z) = g wp(z + i w') with g = m(m+1)/2.

    wp has half-periods (1/2, i w'), and with q = e^{-2 pi w'} its Fourier
    series on the line Im z = w' is closed (the q-series of DLMF 23.8):

        vhat_{+-k} = -4 pi^2 g k q^k / (1 - q^{2k}),   k >= 1,
        vhat_0 = g (-pi^2/3 + 8 pi^2 sum_n n q^{2n} / (1 - q^{2n})),

    the constant summed until q^{2n} < 1e-17.  Written with exponentials,
    not 1/sinh^2, so a large k or n underflows to zero instead of
    overflowing.  The coefficients decay like e^{-2 pi w' k}.
    """
    m = params.gap_count
    g = m * (m + 1) / 2.0
    a = 2.0 * np.pi * params.omega_prime      # q = e^{-a}
    k = np.arange(1, m_max + 1)
    vk = -4.0 * np.pi**2 * g * k * np.exp(-a * k) / -np.expm1(-2.0 * a * k)
    n = np.arange(1, int(np.ceil(np.log(1e17) / (2.0 * a))) + 1)
    q2n = np.exp(-2.0 * a * n)
    v0 = g * (-np.pi**2 / 3.0
              + 8.0 * np.pi**2 * np.sum(n * q2n / -np.expm1(-2.0 * a * n)))
    return PeriodicPotential(np.concatenate([vk[::-1], [v0], vk]))


# -- external potential --------------------------------------------------------


@dataclass(frozen=True)
class ExternalPotential:
    """Smooth external potential with closed-form derivatives up to order 3."""

    w: Callable[[np.ndarray], np.ndarray]
    dw: Callable[[np.ndarray], np.ndarray]
    d2w: Callable[[np.ndarray], np.ndarray]
    d3w: Callable[[np.ndarray], np.ndarray]
    label: str = "custom"
    check_domain: tuple[float, float] = (-50.0, 50.0)

    def __post_init__(self):
        q = np.linspace(*self.check_domain, 257)
        for f in (self.dw, self.d2w, self.d3w):
            vals = np.asarray(f(q), dtype=float)
            if not np.all(np.isfinite(vals)):
                raise ValueError("external potential derivative is unbounded")

    def __call__(self, q):
        return self.w(np.asarray(q, dtype=float))


def _constant(c: float):
    """q -> c: a float for a float q, else an array shaped like q."""
    c = float(c)
    return lambda q: c if isinstance(q, float) else np.full(np.shape(q), c)


def linear_ramp(alpha: float, q_ref: float = 0.0) -> ExternalPotential:
    """W(q) = -alpha (q - q_ref); constant drive dp/dt = alpha."""
    return ExternalPotential(
        w=lambda q: -alpha * (q - q_ref),
        dw=_constant(-alpha),
        d2w=_constant(0.0),
        d3w=_constant(0.0),
        label=f"linear(alpha={alpha!r}, q_ref={q_ref!r})",
    )


def cosine_external(beta: float, omega: float) -> ExternalPotential:
    """W(q) = beta cos(omega q)."""
    return ExternalPotential(
        w=lambda q: beta * np.cos(omega * q),
        dw=lambda q: -beta * omega * np.sin(omega * q),
        d2w=lambda q: -beta * omega**2 * np.cos(omega * q),
        d3w=lambda q: beta * omega**3 * np.sin(omega * q),
        label=f"cosine(beta={beta!r}, omega={omega!r})",
    )


def zero_external() -> ExternalPotential:
    return ExternalPotential(
        w=_constant(0.0),
        dw=_constant(0.0),
        d2w=_constant(0.0),
        d3w=_constant(0.0),
        label="zero",
    )
