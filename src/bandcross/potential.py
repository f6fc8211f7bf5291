"""Periodic lattice potentials and slowly varying external potentials.

A lattice potential V is real, smooth and 1-periodic, stored as a truncated
Fourier series V(z) = sum_m vhat_m e^{2 pi i m z} with vhat_{-m} = conj(vhat_m).
Families provided:

  * cosine potentials  amp * cos(2 pi h z),
  * finite-gap potentials  V(z) = (m(m+1)/2) * wp(z + i w'),  built from the
    Weierstrass elliptic function wp with half-periods (1/2, i w').

The external potential W is a smooth function of the macroscopic coordinate,
carried together with closed-form derivatives up to third order.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import PoleProximity

__all__ = [
    "PeriodicPotential",
    "ExternalPotential",
    "EllipticParams",
    "make_cosine",
    "make_m_gap",
    "potential_from_coeffs",
    "evaluate_periodic",
    "weierstrass_p",
    "weierstrass_p_prime",
    "eisenstein_invariants",
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


# -- Weierstrass elliptic function --------------------------------------------
#
# Lattice 2*omega1*Z + 2*omega3*Z with omega1 = 1/2, omega3 = i*w', so
# Omega = m + 2 i n w'.  Summing each horizontal row of the defining lattice
# sum in closed form (sum_m 1/(w-m)^2 = pi^2/sin^2(pi w)) leaves a sum over
# rows that converges like e^{-4 pi w' |n|}.

_OMEGA1 = 0.5


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

    @property
    def invariants(self) -> tuple[float, float]:
        return eisenstein_invariants(self.omega_prime)


def _nearest_pole_distance(z: complex, omega_prime: float) -> float:
    """Distance from z to the period lattice {m + 2 i n w'}."""
    x, y = z.real, z.imag
    dy = 2.0 * omega_prime
    best = np.inf
    for mm in (np.floor(x), np.ceil(x)):
        for nn in (np.floor(y / dy), np.ceil(y / dy)):
            best = min(best, np.hypot(x - mm, y - nn * dy))
    return float(best)


def _row_sum(z, omega_prime: float, term, tol: float = 1e-16, max_rows: int = 400):
    """Accumulate term(n, z) over lattice rows n = 0, +-1, ... until converged."""
    acc = term(0, z)
    for n in range(1, max_rows + 1):
        t = term(n, z) + term(-n, z)
        acc = acc + t
        if np.max(np.abs(t)) < tol * max(np.max(np.abs(acc)), 1.0):
            # one extra row to confirm the geometric tail has truly died
            t2 = term(n + 1, z) + term(-n - 1, z)
            acc = acc + t2
            if np.max(np.abs(t2)) < tol * max(np.max(np.abs(acc)), 1.0):
                return acc
    raise RuntimeError("row sum did not converge")


def weierstrass_p(z, params: EllipticParams, pole_tol: float = 1e-6):
    """Weierstrass wp(z) for the lattice {m + 2 i n omega_prime}.

    Accepts scalar or array z (real or complex).  Raises PoleProximity if any
    evaluation point is within pole_tol of a lattice point.
    """
    w = params.omega_prime
    zz = np.asarray(z, dtype=complex)
    for val in np.atleast_1d(zz).ravel():
        if _nearest_pole_distance(complex(val), w) < pole_tol:
            raise PoleProximity(f"z = {val} is within {pole_tol} of a pole")

    pi = np.pi

    def term(n, zv):
        shifted = pi * (zv - 2j * n * w)
        row = pi**2 / np.sin(shifted) ** 2
        if n == 0:
            return row - pi**2 / 3.0
        const = pi**2 / np.sin(pi * 2j * n * w) ** 2
        return row - const

    out = _row_sum(zz, w, term)
    if np.isscalar(z) or np.asarray(z).shape == ():
        return complex(out)
    return out


def weierstrass_p_prime(z, params: EllipticParams, pole_tol: float = 1e-6):
    """Derivative wp'(z) = -2 sum_Omega 1/(z-Omega)^3 by the same row summation."""
    w = params.omega_prime
    zz = np.asarray(z, dtype=complex)
    for val in np.atleast_1d(zz).ravel():
        if _nearest_pole_distance(complex(val), w) < pole_tol:
            raise PoleProximity(f"z = {val} is within {pole_tol} of a pole")

    pi = np.pi

    def term(n, zv):
        shifted = pi * (zv - 2j * n * w)
        return -2.0 * pi**3 * np.cos(shifted) / np.sin(shifted) ** 3

    out = _row_sum(zz, w, term)
    if np.isscalar(z) or np.asarray(z).shape == ():
        return complex(out)
    return out


@lru_cache(maxsize=None)
def eisenstein_invariants(omega_prime: float) -> tuple[float, float]:
    """Invariants (g2, g3) = (60 S4, 140 S6) over the lattice {m + 2 i n w'}.

    Row sums use sum_m 1/(m+c)^4 = pi^4 (3 - 2 sin^2(pi c)) / (3 sin^4(pi c))
    and sum_m 1/(m+c)^6 = pi^6 (2 sin^4 - 15 sin^2 + 15) / (15 sin^6(pi c))
    at c = 2 i n w', where sin^2(pi c) = -sinh^2(2 pi n w').
    """
    pi = np.pi
    s4 = pi**4 / 45.0
    s6 = 2.0 * pi**6 / 945.0
    for n in range(1, 400):
        sh2 = np.sinh(2.0 * pi * n * omega_prime) ** 2
        row4 = pi**4 * (3.0 + 2.0 * sh2) / (3.0 * sh2**2)
        row6 = -(pi**6) * (2.0 * sh2**2 + 15.0 * sh2 + 15.0) / (15.0 * sh2**3)
        s4 += 2.0 * row4
        s6 += 2.0 * row6
        if max(abs(row4), abs(row6)) < 1e-18 * max(abs(s4), abs(s6)):
            break
    return 60.0 * s4, 140.0 * s6


def make_m_gap(params: EllipticParams, m_max: int = 64,
               n_samples: int = 4096) -> PeriodicPotential:
    """Finite-gap potential V(z) = (m(m+1)/2) wp(z + i w') as a Fourier series.

    wp is real and smooth on the sampling line Im z = w', so the coefficients
    come from a single FFT of equispaced samples; decay is e^{-2 pi w' |m|}.
    """
    m = params.gap_count
    z = np.arange(n_samples) / n_samples + 1j * params.omega_prime
    vals = weierstrass_p(z, params) * (m * (m + 1) / 2.0)
    if np.abs(vals.imag).max() > 1e-9 * max(np.abs(vals.real).max(), 1.0):
        raise ValueError("wp is not real on the sampling line")
    spec = np.fft.fft(vals.real) / n_samples
    c = np.zeros(2 * m_max + 1, dtype=complex)
    c[m_max] = spec[0]
    for k in range(1, m_max + 1):
        c[m_max + k] = spec[k]
        c[m_max - k] = spec[-k]
    return PeriodicPotential(c)


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


def linear_ramp(alpha: float, q_ref: float = 0.0) -> ExternalPotential:
    """W(q) = -alpha (q - q_ref); constant drive dp/dt = alpha."""
    return ExternalPotential(
        w=lambda q: -alpha * (q - q_ref),
        dw=lambda q: -alpha * np.ones_like(q),
        d2w=lambda q: np.zeros_like(q),
        d3w=lambda q: np.zeros_like(q),
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
        w=lambda q: np.zeros_like(q),
        dw=lambda q: np.zeros_like(q),
        d2w=lambda q: np.zeros_like(q),
        d3w=lambda q: np.zeros_like(q),
        label="zero",
    )
