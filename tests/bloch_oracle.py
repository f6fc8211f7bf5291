"""One Bloch fiber at a time: the tests' per-sample eigensolve.

The package builds its band tables from stacks of fibers (bloch._fibers)
and one batched eigh per block; these helpers take one fiber of the same
assembly, so a test can check a table row against a single solve.
"""
import numpy as np

from bandcross.bloch import DEFAULT_M_CUT, _fibers


def assemble(V, p: float, m_cut: int = DEFAULT_M_CUT) -> np.ndarray:
    """The fiber matrix at p in the plane-wave basis."""
    return _fibers(V, [p], m_cut)[0]


def eigensolve(V, p: float, n_bands: int, m_cut: int = DEFAULT_M_CUT):
    """Lowest n_bands eigenpairs of the fiber at p.

    Returns (energies, coeffs) with energies ascending and coeffs[k] the
    orthonormal eigenvector of band k+1 (rows are bands).
    """
    H = assemble(V, p, m_cut)
    if n_bands > H.shape[0]:
        raise ValueError("n_bands exceeds matrix dimension")
    evals, evecs = np.linalg.eigh(H)
    return evals[:n_bands].copy(), np.ascontiguousarray(evecs[:, :n_bands].T)
