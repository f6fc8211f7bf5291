"""Bloch band structure of H(p) = (p - i d/dz)^2 / 2 + V(z) on the unit torus.

Fibers are diagonalized in the plane-wave basis e^{2 pi i m z}, |m| <= m_cut,
where H(p) has entries (p + 2 pi m)^2/2 on the diagonal and vhat_{m-k} off it.
Sampled band tables (band_path, smooth_continuation) assemble and diagonalize
their fibers in blocks of _BLOCK momenta, one stacked assembly (_fibers) and
one batched eigh per block, and take their derivative tables as array
expressions over the block.  V is real, so time reversal maps the fiber at
p onto the fiber at -p: a sample whose negative is also a sample takes its
partner's eigenpairs, mirrored, and a window symmetric about 0 (the p* = 0
crossing) runs one eigh per pair of samples.  An even V (V.even: every
vhat_m real) makes every fiber real symmetric, so its stacks are float64 and
eigh runs the real solver; an odd part makes them complex Hermitian.  Either
way the tables are complex eigenvectors in the same transported gauge
(fix_gauge: one pass of neighbour overlaps, whose phases are chained outward
from an anchor).
Bands are ordered E_1 <= E_2 <= ...; degeneracies of adjacent bands occur only
at p in {0, pi} mod 2 pi and are linear.  Around a crossing the module builds
smoothly continued branches E_+/E_- with transported eigenvectors, and the
coupling coefficient <chi_-|d_p chi_+> at the crossing, a sum over the
crossing fiber's other eigenpairs, which controls the size of the
transmitted-to-excited transition.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    IsolationFailure,
    NoCrossing,
    NotLinearCrossing,
    OverlapCollapse,
    TruncationTooSmall,
)
from .numerics import UniformHermite
from .potential import PeriodicPotential

__all__ = [
    "BandPath",
    "SmoothBandPair",
    "band_path",
    "smooth_continuation",
    "fix_gauge",
    "coupling_coefficient",
]

TWO_PI = 2.0 * np.pi
DEFAULT_M_CUT = 64
# fibers per batched assembly and eigh.  A block holds two (_BLOCK, dim, dim)
# stacks, complex for a V with an odd part and real, half the bytes, for an
# even V, and its yield adds the mirrors of its paired samples; the two-worker
# isolated sweep peaked 2.5% above one fiber at a time with 128 complex
# fibers, and 0.8% above with 64.
_BLOCK = 64


def _mode_numbers(m_cut: int) -> np.ndarray:
    return np.arange(-m_cut, m_cut + 1)


def _fibers(V: PeriodicPotential, p, m_cut: int) -> np.ndarray:
    """Stack of fiber matrices, shape (len(p), dim, dim), one per momentum.

    The vhat_{m-k} Toeplitz part is shared by every fiber; only the kinetic
    diagonal (p + 2 pi m)^2 / 2 depends on p.  The stack is float64 when V is
    even and complex otherwise.
    """
    if m_cut < V.m_max:
        raise TruncationTooSmall(
            f"m_cut={m_cut} below potential support m_max={V.m_max}"
        )
    m = _mode_numbers(m_cut)
    offset = m[:, None] - m[None, :]
    vhat = V.coeffs.real if V.even else V.coeffs
    toeplitz = np.where(np.abs(offset) <= V.m_max,
                        vhat[np.clip(offset + V.m_max, 0, 2 * V.m_max)], 0)
    p = np.asarray(p, dtype=float)
    H = np.repeat(toeplitz[None], p.size, axis=0)
    diag = np.arange(m.size)
    H[:, diag, diag] += 0.5 * (p[:, None] + TWO_PI * m) ** 2
    return H


# -- gauge transport -----------------------------------------------------------


def fix_gauge(coeffs: np.ndarray, anchor: int = 0) -> np.ndarray:
    """Transport phases along a path of eigenvectors, outward from anchor.

    Each successive overlap <chi_k|chi_{k+1}> is rotated to be real positive
    (discrete parallel transport): the neighbour overlaps are taken in one
    pass, and each sample is turned by the cumulative product of their unit
    phases from the anchor to it.  Raises OverlapCollapse when neighbours
    are nearly orthogonal, which signals a missed band swap; the link named
    is the first one met walking from the anchor to the end, then back to
    the start.
    """
    out = np.array(coeffs, dtype=complex, copy=True)
    ov = np.einsum("ij,ij->i", out[:-1].conj(), out[1:])
    mag = np.abs(ov)
    bad = np.flatnonzero(mag < 0.5)
    if bad.size:
        ahead = bad[bad >= anchor]
        i = int(ahead[0]) if ahead.size else int(bad[-1])
        i_from, i_to = (i, i + 1) if ahead.size else (i + 1, i)
        raise OverlapCollapse(
            f"|<chi_{i_from}|chi_{i_to}>| = {mag[i]:.3f} < 0.5"
        )
    unit = ov / mag
    # link k turns sample k+1 by conj(unit[k]) walking forward, and sample k
    # by unit[k] walking back
    out[anchor + 1:] *= np.cumprod(np.conj(unit[anchor:]))[:, None]
    out[:anchor] *= np.cumprod(unit[:anchor][::-1])[::-1, None]
    return out


# -- smooth continuation through a crossing -------------------------------------


@dataclass
class BandPath:
    """Gauge-fixed eigenvector path of one (branch of a) band over a p-window.

    Carries spectral derivative tables: dE by Hellmann-Feynman, d2E by
    second-order perturbation sums, d3E by differencing d2E.  Off the
    samples, chi and d_p chi both come from chi_spline, the cubic Hermite
    interpolant of the gauge-fixed chi table, which reproduces the table at
    every sample (the crossing fiber included) and reads only the six
    samples around the momentum it is asked for.
    """

    potential: PeriodicPotential
    p_samples: np.ndarray
    energies: np.ndarray
    chi: np.ndarray              # (n_samples, dim), gauge-fixed
    dE: np.ndarray
    d2E: np.ndarray
    d3E: np.ndarray
    m_cut: int

    @property
    def p_min(self):
        return float(self.p_samples[0])

    @property
    def p_max(self):
        return float(self.p_samples[-1])

    @cached_property
    def chi_spline(self) -> UniformHermite:
        """Cubic Hermite interpolant of the chi table over p_samples."""
        return UniformHermite(self.p_samples, self.chi)

    def chi_at(self, p: float) -> np.ndarray:
        """The path's eigenvector at p, read from chi_spline."""
        return self.chi_spline(p)


def _velocity(p, m_cut):
    """Symbol p + 2 pi m of the velocity operator, one row per momentum."""
    return np.asarray(p, dtype=float)[:, None] + TWO_PI * _mode_numbers(m_cut)


def _hf_velocity(p, chi, m_cut):
    """Hellmann-Feynman slopes sum_m (p + 2 pi m)|chi_m|^2 over a table."""
    return np.sum(_velocity(p, m_cut) * np.abs(chi) ** 2, axis=1)


def _d2e(p, evals, evecs, idx, m_cut, skip=None):
    """E'' = 1 + 2 sum_{k != idx} |<k|velocity|idx>|^2 / (E_idx - E_k), per fiber.

    Fiber b of the block takes its state idx[b]; skip[b], when given, is one
    more state left out of the sum (the partner branch at a degenerate fiber).
    """
    b = np.arange(len(idx))
    v_chi = _velocity(p, m_cut) * evecs[b, :, idx]
    # conj(<k|v|idx>): same modulus, and no conjugated copy of evecs
    amps = (evecs.transpose(0, 2, 1) @ v_chi.conj()[:, :, None])[:, :, 0]
    denom = evals[b, idx][:, None] - evals
    denom[b, idx] = np.inf
    if skip is not None:
        denom[b, skip] = np.inf
    return 1.0 + 2.0 * np.sum(np.abs(amps) ** 2 / denom, axis=1)


def _partners(p):
    """partner[i] = j where p[j] = -p[i] to within four ulps, else -1.

    p ascends.  np.linspace puts the samples of a window symmetric about 0
    at opposite positions to within two ulps of the window's reach, so a
    sample and its negative are found without rebuilding the grid.
    """
    k = np.clip(np.searchsorted(p, -p), 1, p.size - 1)
    j = np.where(np.abs(p[k - 1] + p) <= np.abs(p[k] + p), k - 1, k)
    tol = 4.0 * np.finfo(float).eps * np.max(np.abs(p))
    return np.where(np.abs(p[j] + p) <= tol, j, -1)


def _blocks(V, p, m_cut):
    """Yield (rows, evals, evecs) for the samples p, each exactly once.

    rows indexes p and ascends; evals[b] and the columns of evecs[b] are the
    ascending eigenpairs of the fiber at p[rows[b]].  Every V is real, so
    time reversal gives E_n(-p) = E_n(p) and chi_n(-p) = P conj chi_n(p),
    with P the reversal m -> -m of the modes (Kohn, Phys. Rev. 115, 809,
    1959): a sample whose negative is also a sample (_partners) takes its
    partner's energies and conj(evecs[:, ::-1, :]) instead of an eigh of
    its own.  So each yield is one batched eigh of up to _BLOCK fibers plus
    the mirrors of those, and the yields go in the order of the lower
    sample of each pair.  A sample that an earlier yield holds above a
    sample of a later one then pairs with a sample below both, whose
    energies it shares, so a check that stops at its first failing sample
    stops where it would in plain sample order.
    """
    partner = _partners(p)
    mirrored = (partner >= 0) & (p < p[partner])
    solved = np.flatnonzero(~mirrored)
    first = np.where(partner[solved] >= 0,
                     np.minimum(solved, partner[solved]), solved)
    solved = solved[np.argsort(first, kind="stable")]
    for start in range(0, solved.size, _BLOCK):
        own = solved[start:start + _BLOCK]
        pair = partner[own]
        has = (pair >= 0) & (pair != own)
        rows = np.concatenate([own, pair[has]])
        order = np.argsort(rows)
        src = np.concatenate([np.arange(own.size), np.flatnonzero(has)])
        src, flip = src[order], order >= own.size
        evals, evecs = np.linalg.eigh(_fibers(V, p[own], m_cut))
        evecs = evecs[src]
        evecs[flip] = np.conj(evecs[flip][:, ::-1, :])
        yield rows[order], evals[src], evecs


def band_path(V: PeriodicPotential, n: int, p_window, n_samples: int = 513,
              m_cut: int = DEFAULT_M_CUT, isolation_floor: float = 1e-6) -> BandPath:
    """Sample an isolated band over a window with transported gauge."""
    p = np.linspace(p_window[0], p_window[1], n_samples)
    dim = 2 * m_cut + 1
    energies = np.empty(n_samples)
    d2 = np.empty(n_samples)
    chi = np.empty((n_samples, dim), dtype=complex)
    for rows, evals, evecs in _blocks(V, p, m_cut):
        lo = evals[:, n - 1] - evals[:, n - 2] if n > 1 else np.inf
        gap = np.minimum(lo, evals[:, n] - evals[:, n - 1])
        bad = np.flatnonzero(gap < isolation_floor)
        if bad.size:
            raise IsolationFailure(
                f"band {n} gap {gap[bad[0]]:.2e} at p={p[rows[bad[0]]]:.6f} "
                "inside window"
            )
        energies[rows] = evals[:, n - 1]
        chi[rows] = evecs[:, :, n - 1]
        d2[rows] = _d2e(p[rows], evals, evecs, np.full(rows.size, n - 1),
                        m_cut)
    chi = fix_gauge(chi, anchor=n_samples // 2)
    dE = _hf_velocity(p, chi, m_cut)
    d3 = np.gradient(d2, p, edge_order=2)
    return BandPath(V, p, energies, chi, dE, d2, d3, m_cut)


@dataclass
class SmoothBandPair:
    """Smooth branches through a linear crossing of bands (n, n+1) at p_star.

    plus/minus are BandPath tables for the analytically continued branches
    (plus has positive slope at p_star).  margin is the spectral distance from
    the pair to the other bands over the window.
    """

    n: int
    p_star: float
    plus: BandPath
    minus: BandPath
    slope_plus: float
    slope_minus: float
    margin: float
    i_star: int
    slope_fd_mismatch: float

    @property
    def slope_gap(self) -> float:
        return self.slope_plus - self.slope_minus


def _split_degenerate(p_star, evals, evecs, lower, m_cut, slope_floor,
                      degeneracy_tol):
    """Branch states at the crossing fiber from the velocity-split eigenspace.

    Returns (energy, u_plus, u_minus, d2_plus, d2_minus).  The second-order
    sums skip the partner branch, whose denominator vanishes here.
    """
    upper = lower + 1
    gap_pair = evals[upper] - evals[lower]
    if gap_pair > degeneracy_tol:
        raise NoCrossing(
            f"bands ({upper},{upper + 1}) not degenerate at p={p_star}: "
            f"gap {gap_pair:.2e}"
        )
    basis = evecs[:, [lower, upper]]
    vel = _velocity([p_star], m_cut)[0]
    T = basis.conj().T @ (vel[:, None] * basis)
    T = 0.5 * (T + T.conj().T)
    lam, rot = np.linalg.eigh(T)
    u_minus = basis @ rot[:, 0]
    u_plus = basis @ rot[:, 1]
    slope_minus, slope_plus = float(lam[0]), float(lam[1])
    if not (slope_plus > slope_floor and slope_minus < -slope_floor):
        raise NotLinearCrossing(
            f"branch slopes ({slope_plus:.3e}, {slope_minus:.3e}) "
            "not transversal"
        )

    def d2(first, second):
        vecs = np.hstack([evecs[:, :lower], first[:, None], second[:, None],
                          evecs[:, upper + 1:]])
        return float(_d2e([p_star], evals[None], vecs[None], [lower], m_cut,
                          skip=[upper])[0])

    energy = float(0.5 * (evals[lower] + evals[upper]))
    return energy, u_plus, u_minus, d2(u_plus, u_minus), d2(u_minus, u_plus)


def smooth_continuation(V: PeriodicPotential, n: int, p_star: float,
                        halfwidth: float = 0.5, n_samples: int = 801,
                        m_cut: int = DEFAULT_M_CUT,
                        isolation_floor: float = 1e-3,
                        slope_floor: float = 1e-3,
                        degeneracy_tol: float = 1e-7) -> SmoothBandPair:
    """Build E_+/E_- and transported chi_+/chi_- through the crossing.

    The ordered bands swap roles at p_star: E_+ follows E_n below and E_{n+1}
    at and above (positive slope), E_- the opposite.  At p_star itself the
    degenerate 2d eigenspace is split by diagonalizing the velocity operator
    restricted to it, which also yields the exact branch slopes; transported
    gauge then propagates outward.  The pair must be isolated from the other
    bands over the whole requested window: a margin at or below
    isolation_floor raises IsolationFailure.
    """
    if n_samples % 2 == 0:
        n_samples += 1
    n_samples = max(n_samples, 5)
    p = p_star + np.linspace(-halfwidth, halfwidth, n_samples)
    i_star = n_samples // 2
    p[i_star] = p_star
    dim = 2 * m_cut + 1
    e_plus = np.empty(n_samples)
    e_minus = np.empty(n_samples)
    chi_plus = np.empty((n_samples, dim), dtype=complex)
    chi_minus = np.empty((n_samples, dim), dtype=complex)
    d2_plus = np.empty(n_samples)
    d2_minus = np.empty(n_samples)
    margin = np.inf
    lower, upper = n - 1, n  # 0-based indices of the pair

    for rows, evals, evecs in _blocks(V, p, m_cut):
        b = np.arange(rows.size)
        below = evals[:, lower] - evals[:, lower - 1] if lower >= 1 else np.inf
        above = evals[:, upper + 1] - evals[:, upper]
        margin = min(margin, float(np.min(np.minimum(below, above))))
        # E_+ follows band n below p_star and band n+1 above, E_- the opposite
        plus_idx = np.where(p[rows] < p_star, lower, upper)
        minus_idx = lower + upper - plus_idx
        e_plus[rows] = evals[b, plus_idx]
        e_minus[rows] = evals[b, minus_idx]
        chi_plus[rows] = evecs[b, :, plus_idx]
        chi_minus[rows] = evecs[b, :, minus_idx]
        off = rows != i_star
        if not off.all():
            k = int(np.flatnonzero(~off)[0])
            (e_plus[i_star], chi_plus[i_star], chi_minus[i_star],
             d2_plus[i_star], d2_minus[i_star]) = _split_degenerate(
                p_star, evals[k], evecs[k], lower, m_cut, slope_floor,
                degeneracy_tol)
            e_minus[i_star] = e_plus[i_star]
            rows, evals, evecs = rows[off], evals[off], evecs[off]
            plus_idx, minus_idx = plus_idx[off], minus_idx[off]
        d2_plus[rows] = _d2e(p[rows], evals, evecs, plus_idx, m_cut)
        d2_minus[rows] = _d2e(p[rows], evals, evecs, minus_idx, m_cut)

    if margin <= isolation_floor:
        raise IsolationFailure(
            f"pair ({n},{n + 1}) margin {margin:.3g} to the other bands is "
            f"not above the floor {isolation_floor} on [{p[0]:.4f}, "
            f"{p[-1]:.4f}]"
        )

    chi_plus = fix_gauge(chi_plus, anchor=i_star)
    chi_minus = fix_gauge(chi_minus, anchor=i_star)
    dE_plus = _hf_velocity(p, chi_plus, m_cut)
    dE_minus = _hf_velocity(p, chi_minus, m_cut)

    dp = p[1] - p[0]

    def one_sided(e, sign):
        c = i_star
        if sign > 0:
            return (-3 * e[c] + 4 * e[c + 1] - e[c + 2]) / (2 * dp)
        return (3 * e[c] - 4 * e[c - 1] + e[c - 2]) / (2 * dp)

    lam_plus = float(dE_plus[i_star])
    lam_minus = float(dE_minus[i_star])
    fd_mismatch = max(
        abs(one_sided(e_plus, +1) - lam_plus), abs(one_sided(e_plus, -1) - lam_plus),
        abs(one_sided(e_minus, +1) - lam_minus), abs(one_sided(e_minus, -1) - lam_minus),
    )

    plus = BandPath(V, p, e_plus, chi_plus, dE_plus, d2_plus,
                    np.gradient(d2_plus, p, edge_order=2), m_cut)
    minus = BandPath(V, p, e_minus, chi_minus, dE_minus, d2_minus,
                     np.gradient(d2_minus, p, edge_order=2), m_cut)
    return SmoothBandPair(
        n=n, p_star=float(p_star), plus=plus, minus=minus,
        slope_plus=lam_plus, slope_minus=lam_minus,
        margin=float(margin), i_star=i_star,
        slope_fd_mismatch=float(fd_mismatch),
    )


def coupling_coefficient(pair: SmoothBandPair) -> complex:
    """kappa = <chi_-|d_p chi_+> at the crossing, from degenerate theory.

    Twice-differentiating the eigenequation and projecting on chi_- gives
    kappa = sum_k <chi_-|v|k><k|v|chi_+> / ((E* - E_k)(slope_+ - slope_-))
    over the crossing fiber's eigenpairs k outside the degenerate pair, with
    v = diag(p* + 2 pi m) the velocity.  The pair's own span drops out, so
    every denominator is regular.  The modulus is gauge independent.
    """
    V, m_cut, i = pair.plus.potential, pair.plus.m_cut, pair.i_star
    evals, evecs = np.linalg.eigh(_fibers(V, [pair.p_star], m_cut)[0])
    rest = np.delete(np.arange(evals.size), [pair.n - 1, pair.n])
    vel = _velocity([pair.p_star], m_cut)[0]
    k = evecs[:, rest]
    left = (vel * pair.minus.chi[i]).conj() @ k      # <chi_-|v|k>
    right = k.conj().T @ (vel * pair.plus.chi[i])    # <k|v|chi_+>
    denom = (pair.plus.energies[i] - evals[rest]) * pair.slope_gap
    return complex(np.sum(left * right / denom))
