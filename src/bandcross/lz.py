"""Two-level Landau-Zener propagator along a crossing trajectory.

The coefficients of a packet on two levels whose difference is ``gap(t)``
obey

    dc_plus/dt  =  F(t) c_minus,      dc_minus/dt = -conj(F(t)) c_plus,

with ``F(t) = coupling(t) * exp(i phi(t) / epsilon)`` and ``phi`` the gap
integrated from ``t_span[0]``; a linear zero of the gap transfers an
O(epsilon) probability between the levels.  ``simulate`` integrates it with
a fourth-order Magnus scheme of exactly unitary 2x2 steps, sized so that no
step advances ``phi / epsilon`` by more than ``PHASE_RESOLUTION``.  Its one
reader is the crossing study's Landau-Zener gate (``harness._lz_transfer``).
"""

import numpy as np

PHASE_RESOLUTION = 0.1       # max phase advance per step, rad

_GL_OFFSET = 0.5 / np.sqrt(3.0)   # Gauss-Legendre 2-point nodes at 1/2 +- this


def _compose_pairwise(mats: np.ndarray) -> np.ndarray:
    """Ordered product mats[-1] @ ... @ mats[0] by log-depth pairing."""
    while mats.shape[0] > 1:
        m = mats.shape[0]
        even = mats[0:m - 1:2]
        odd = mats[1:m:2]
        paired = np.matmul(odd, even)
        if m % 2 == 1:
            paired = np.concatenate([paired, mats[-1:]], axis=0)
        mats = paired
    return mats[0]


def simulate(gap, coupling, epsilon: float, t_span) -> np.ndarray:
    """The 2x2 unitary propagator from t_span[0] to t_span[1].

    gap and coupling are vectorized callables of t; column j of the result
    is the state at t_span[1] that starts in level j (0 = plus, 1 = minus).
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must be increasing")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    gap_max = float(np.max(np.abs(gap(np.linspace(t0, t1, 2049)))))
    n = max(1, int(np.ceil((t1 - t0) * gap_max
                           / (PHASE_RESOLUTION * epsilon))))
    edges = np.linspace(t0, t1, n + 1)
    h = np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = np.stack([mid - _GL_OFFSET * h, mid + _GL_OFFSET * h], axis=1)

    # phi by 2-point Gauss-Legendre over the interleaved edge/node sequence
    # e_0, n_0a, n_0b, e_1, ..., which matches the integrator's 4th order
    seq = np.append(np.column_stack([edges[:-1], nodes]).ravel(), t1)
    hs = np.diff(seq)
    ms = 0.5 * (seq[:-1] + seq[1:])
    seg = 0.5 * hs * (np.real(gap(ms - _GL_OFFSET * hs))
                      + np.real(gap(ms + _GL_OFFSET * hs)))
    phi = np.concatenate([[0.0], np.cumsum(seg)])[:-1].reshape(n, 3)[:, 1:]
    fvals = np.asarray(coupling(nodes), dtype=complex) \
        * np.exp(1j * phi / epsilon)
    f1, f2 = fvals[:, 0], fvals[:, 1]

    # Magnus(4): Omega = h (A1 + A2)/2 - h^2 sqrt(3)/12 [A1, A2] for
    # A = [[0, F], [-conj(F), 0]]; the commutator is diagonal i*delta*sigma3
    a = 0.5 * h * (f1 + f2)
    delta = -(np.sqrt(3.0) / 6.0) * h * h * np.imag(f2 * np.conj(f1))
    mu = np.sqrt(delta * delta + np.abs(a) ** 2)
    sinc = np.where(mu > 0, np.sin(mu) / np.where(mu > 0, mu, 1.0), 1.0)
    cosmu = np.cos(mu)
    steps = np.empty((n, 2, 2), dtype=complex)
    steps[:, 0, 0] = cosmu + 1j * delta * sinc
    steps[:, 0, 1] = a * sinc
    steps[:, 1, 0] = -np.conj(a) * sinc
    steps[:, 1, 1] = cosmu - 1j * delta * sinc
    return _compose_pairwise(steps)
