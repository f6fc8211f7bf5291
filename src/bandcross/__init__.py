"""Semiclassical wavepacket dynamics through Bloch band crossings in 1d.

The package follows one experiment pipeline: build a lattice potential V and
drive W, diagonalize the Bloch fibers H(p) = (p - i d/dz)^2/2 + V(z), follow
the classical flow q' = dE/dp, p' = -dW/dq through a band degeneracy, evolve
the slow envelopes, assemble semiclassical wavepackets, and compare against a
direct split-step solution of

    i eps dpsi/dt = -(eps^2/2) d^2psi/dx^2 + V(x/eps) psi + W(x) psi.

Importing the package sets OPENBLAS_NUM_THREADS=1 unless the environment
already holds a non-empty value.  OpenBLAS reads the variable once, when
numpy or scipy loads it, so the setting takes effect only if bandcross is
imported before numpy; in a process that has already loaded numpy it
changes nothing there.  Child processes inherit it.
"""

import os

# Every BLAS/LAPACK operand here is at most 64 x 64, or a stack of such
# matrices (31-mode Bloch fibers, ppw x ppw solver fibers), where an OpenBLAS
# worker thread only spins.  The package's own threads are its parallelism:
# the case pool plus each crossing case's two solver threads, so a BLAS
# worker beside each of a crossing case's three threads only oversubscribes
# the cores.  An empty value counts as unset, as it does for OpenBLAS.
if not os.environ.get("OPENBLAS_NUM_THREADS"):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

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
