"""Semiclassical wavepacket dynamics through Bloch band crossings in 1d.

The package follows one experiment pipeline: build a lattice potential V and
drive W, diagonalize the Bloch fibers H(p) = (p - i d/dz)^2/2 + V(z), follow
the classical flow q' = dE/dp, p' = -dW/dq through a band degeneracy, evolve
the slow envelopes, assemble semiclassical wavepackets, and compare against a
direct split-step solution of

    i eps dpsi/dt = -(eps^2/2) d^2psi/dx^2 + V(x/eps) psi + W(x) psi.
"""

__version__ = "0.1.0"

from . import errors
from .potential import (
    EllipticParams,
    ExternalPotential,
    PeriodicPotential,
    cosine_external,
    evaluate_periodic,
    linear_ramp,
    make_cosine,
    make_m_gap,
    potential_from_coeffs,
    zero_external,
)

__all__ = [
    "errors",
    "EllipticParams",
    "ExternalPotential",
    "PeriodicPotential",
    "cosine_external",
    "evaluate_periodic",
    "linear_ramp",
    "make_cosine",
    "make_m_gap",
    "potential_from_coeffs",
    "zero_external",
    "__version__",
]
