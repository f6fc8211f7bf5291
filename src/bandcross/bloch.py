"""Bloch band structure of H(p) = (p - i d/dz)^2 / 2 + V(z) on the unit torus.

Fibers are diagonalized in the plane-wave basis e^{2 pi i m z}, |m| <= m_cut,
where H(p) has entries (p + 2 pi m)^2/2 on the diagonal and vhat_{m-k} off it.
Bands are ordered E_1 <= E_2 <= ...; degeneracies of adjacent bands occur only
at p in {0, pi} mod 2 pi and are linear.  Around a crossing the module builds
smoothly continued branches E_+/E_- with transported eigenvectors, and the
coupling coefficient <chi_-|d_p chi_+> at the crossing, which controls the
size of the transmitted-to-excited transition.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceFailure,
    IsolationFailure,
    NoCrossing,
    NotLinearCrossing,
    OverlapCollapse,
    SingularResolvent,
    TruncationTooSmall,
)
from .potential import PeriodicPotential

__all__ = [
    "BandPath",
    "SmoothBandPair",
    "assemble",
    "eigensolve",
    "band_path",
    "smooth_continuation",
    "fix_gauge",
    "reduced_resolvent_apply",
    "coupling_coefficient",
]

TWO_PI = 2.0 * np.pi
DEFAULT_M_CUT = 64


def _mode_numbers(m_cut: int) -> np.ndarray:
    return np.arange(-m_cut, m_cut + 1)


def assemble(V: PeriodicPotential, p: float, m_cut: int = DEFAULT_M_CUT) -> np.ndarray:
    """Dense Hermitian fiber matrix in the plane-wave basis."""
    if m_cut < V.m_max:
        raise TruncationTooSmall(
            f"m_cut={m_cut} below potential support m_max={V.m_max}"
        )
    m = _mode_numbers(m_cut)
    H = np.zeros((m.size, m.size), dtype=complex)
    for offset in range(-V.m_max, V.m_max + 1):
        v = V.coeff(offset)
        if v != 0:
            idx = np.arange(max(0, offset), min(m.size, m.size + offset))
            H[idx, idx - offset] = v
    H[np.diag_indices_from(H)] += 0.5 * (p + TWO_PI * m) ** 2
    return H


def eigensolve(V: PeriodicPotential, p: float, n_bands: int,
               m_cut: int = DEFAULT_M_CUT):
    """Lowest n_bands eigenpairs of the fiber at p.

    Returns (energies, coeffs) with energies ascending and coeffs[k] the
    orthonormal eigenvector of band k+1 (rows are bands).
    """
    H = assemble(V, p, m_cut)
    if n_bands > H.shape[0]:
        raise ValueError("n_bands exceeds matrix dimension")
    try:
        evals, evecs = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolve failed at p={p}") from exc
    return evals[:n_bands].copy(), np.ascontiguousarray(evecs[:, :n_bands].T)


# -- gauge transport -----------------------------------------------------------


def fix_gauge(coeffs: np.ndarray, anchor: int = 0) -> np.ndarray:
    """Transport phases along a path of eigenvectors, outward from anchor.

    Each successive overlap <chi_k|chi_{k+1}> is rotated to be real positive
    (discrete parallel transport).  Raises OverlapCollapse when neighbours are
    nearly orthogonal, which signals a missed band swap.
    """
    out = np.array(coeffs, dtype=complex, copy=True)
    n = out.shape[0]

    def step(i_from, i_to):
        ov = np.vdot(out[i_from], out[i_to])
        if abs(ov) < 0.5:
            raise OverlapCollapse(
                f"|<chi_{i_from}|chi_{i_to}>| = {abs(ov):.3f} < 0.5"
            )
        out[i_to] *= np.conj(ov) / abs(ov)

    for i in range(anchor, n - 1):
        step(i, i + 1)
    for i in range(anchor, 0, -1):
        step(i, i - 1)
    return out


# -- reduced resolvent ---------------------------------------------------------


def reduced_resolvent_apply(V: PeriodicPotential, p: float, e_sigma: float,
                            exclude: np.ndarray, f: np.ndarray,
                            m_cut: int = DEFAULT_M_CUT) -> np.ndarray:
    """Solve (H(p) - e_sigma) u = P f with u, P f orthogonal to span(exclude).

    Implemented as a bordered linear system; nonsingular whenever e_sigma is
    separated from the spectrum outside the excluded span.
    """
    H = assemble(V, p, m_cut)
    X = np.atleast_2d(np.asarray(exclude, dtype=complex))
    dim, k = H.shape[0], X.shape[0]
    f = np.asarray(f, dtype=complex)
    f_perp = f - X.T @ (X.conj() @ f)  # f - sum <x_i|f> x_i
    B = np.zeros((dim + k, dim + k), dtype=complex)
    B[:dim, :dim] = H - e_sigma * np.eye(dim)
    B[:dim, dim:] = X.T
    B[dim:, :dim] = X.conj()
    rhs = np.concatenate([f_perp, np.zeros(k, dtype=complex)])
    try:
        sol = np.linalg.solve(B, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularResolvent(f"bordered solve failed at p={p}") from exc
    u = sol[:dim]
    residual = np.linalg.norm((H - e_sigma * np.eye(dim)) @ u
                              + X.T @ sol[dim:] - f_perp)
    scale = max(np.linalg.norm(f), 1.0)
    if residual > 1e-8 * scale or np.abs(X.conj() @ u).max() > 1e-8 * scale:
        raise SingularResolvent(
            f"reduced resolvent ill-conditioned at p={p}, e={e_sigma}"
        )
    return u


# -- smooth continuation through a crossing -------------------------------------


@dataclass
class BandPath:
    """Gauge-fixed eigenvector path of one (branch of a) band over a p-window.

    Carries spectral derivative tables: dE by Hellmann-Feynman, d2E by
    second-order perturbation sums, d3E by differencing d2E.
    """

    potential: PeriodicPotential
    p_samples: np.ndarray
    energies: np.ndarray
    chi: np.ndarray              # (n_samples, dim), gauge-fixed
    dE: np.ndarray
    d2E: np.ndarray
    d3E: np.ndarray
    m_cut: int
    label: str = ""

    @property
    def p_min(self):
        return float(self.p_samples[0])

    @property
    def p_max(self):
        return float(self.p_samples[-1])

    def nearest_index(self, p: float) -> int:
        return int(np.argmin(np.abs(self.p_samples - p)))

    def chi_at(self, p: float) -> np.ndarray:
        """Eigenvector at arbitrary p, phase-aligned to the stored path."""
        i = self.nearest_index(p)
        return _aligned_eigvec(self.potential, float(p), self.energies[i],
                               self.chi[i], self.m_cut)


def _aligned_eigvec(V, p, e_near, chi_ref, m_cut):
    """Fresh fiber eigenvector closest to e_near, phased against chi_ref."""
    H = assemble(V, p, m_cut)
    evals, evecs = np.linalg.eigh(H)
    # select by maximal overlap among the few energy-nearest candidates
    near = np.argsort(np.abs(evals - e_near))[:4]
    ovl = np.abs(evecs[:, near].conj().T @ chi_ref)
    vec = evecs[:, near[int(np.argmax(ovl))]].copy()
    phase = np.vdot(vec, chi_ref)
    if abs(phase) < 0.5:
        raise OverlapCollapse(f"cannot align eigenvector at p={p}")
    vec *= phase / abs(phase)
    return vec


def _hf_velocity(p, chi, m_cut):
    m = _mode_numbers(m_cut)
    return float(np.sum((p + TWO_PI * m) * np.abs(chi) ** 2))


def _d2e_from_spectrum(p, evals, evecs, idx, m_cut, skip=()):
    """E'' = 1 + 2 sum_{k != idx} |<k|velocity|idx>|^2 / (E_idx - E_k)."""
    m = _mode_numbers(m_cut)
    v_chi = (p + TWO_PI * m) * evecs[:, idx]
    amps = evecs.conj().T @ v_chi
    out = 1.0
    for k in range(evals.size):
        if k == idx or k in skip:
            continue
        denom = evals[idx] - evals[k]
        out += 2.0 * abs(amps[k]) ** 2 / denom
    return float(out)


def _finite_diff(p, y):
    """Centered first derivative of a sampled smooth function."""
    d = np.gradient(y, p, edge_order=2)
    return d


def band_path(V: PeriodicPotential, n: int, p_window, n_samples: int = 513,
              m_cut: int = DEFAULT_M_CUT, isolation_floor: float = 1e-6) -> BandPath:
    """Sample an isolated band over a window with transported gauge."""
    p = np.linspace(p_window[0], p_window[1], n_samples)
    dim = 2 * m_cut + 1
    energies = np.empty(n_samples)
    d2 = np.empty(n_samples)
    chi = np.empty((n_samples, dim), dtype=complex)
    for i, pi in enumerate(p):
        H = assemble(V, float(pi), m_cut)
        evals, evecs = np.linalg.eigh(H)
        energies[i] = evals[n - 1]
        chi[i] = evecs[:, n - 1]
        lo = evals[n - 1] - evals[n - 2] if n > 1 else np.inf
        hi = evals[n] - evals[n - 1]
        if min(lo, hi) < isolation_floor:
            raise IsolationFailure(
                f"band {n} gap {min(lo, hi):.2e} at p={pi:.6f} inside window"
            )
        d2[i] = _d2e_from_spectrum(float(pi), evals, evecs, n - 1, m_cut)
    chi = fix_gauge(chi, anchor=n_samples // 2)
    dE = np.array([_hf_velocity(float(pi), chi[i], m_cut) for i, pi in enumerate(p)])
    d3 = _finite_diff(p, d2)
    return BandPath(V, p, energies, chi, dE, d2, d3, m_cut, label=f"n={n}")


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
    halfwidth: float
    i_star: int
    slope_fd_mismatch: float
    _coupling: complex | None = field(default=None, repr=False)

    @property
    def potential(self):
        return self.plus.potential

    @property
    def m_cut(self):
        return self.plus.m_cut

    @property
    def p_samples(self):
        return self.plus.p_samples

    @property
    def chi_plus(self):
        return self.plus.chi

    @property
    def chi_minus(self):
        return self.minus.chi

    @property
    def slope_gap(self) -> float:
        return self.slope_plus - self.slope_minus


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
    gauge then propagates outward.  The window shrinks automatically until the
    pair is isolated from the other bands.
    """
    if n_samples % 2 == 0:
        n_samples += 1
    n_samples = max(n_samples, 5)
    h = float(halfwidth)
    while True:
        p = p_star + np.linspace(-h, h, n_samples)
        trial = _build_pair(V, n, p_star, p, m_cut, isolation_floor,
                            slope_floor, degeneracy_tol)
        if trial is not None:
            pair = trial
            break
        h *= 0.5
        if h < 0.02:
            raise IsolationFailure(
                f"pair ({n},{n + 1}) not isolable around p={p_star}"
            )
    return pair


def _build_pair(V, n, p_star, p, m_cut, isolation_floor, slope_floor,
                degeneracy_tol):
    n_samples = p.size
    i_star = n_samples // 2
    p = p.copy()
    p[i_star] = p_star
    dim = 2 * m_cut + 1
    e_plus = np.empty(n_samples)
    e_minus = np.empty(n_samples)
    chi_plus = np.empty((n_samples, dim), dtype=complex)
    chi_minus = np.empty((n_samples, dim), dtype=complex)
    d2_plus = np.empty(n_samples)
    d2_minus = np.empty(n_samples)
    margin = np.inf
    mvec = _mode_numbers(m_cut)

    for i, pi in enumerate(p):
        H = assemble(V, float(pi), m_cut)
        evals, evecs = np.linalg.eigh(H)
        lower, upper = n - 1, n  # 0-based indices of the pair
        if i == i_star:
            gap_pair = evals[upper] - evals[lower]
            if gap_pair > degeneracy_tol:
                raise NoCrossing(
                    f"bands ({n},{n + 1}) not degenerate at p={p_star}: "
                    f"gap {gap_pair:.2e}"
                )
            basis = evecs[:, [lower, upper]]
            vel = (pi + TWO_PI * mvec)
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
            chi_plus[i], chi_minus[i] = u_plus, u_minus
            e_plus[i] = e_minus[i] = float(0.5 * (evals[lower] + evals[upper]))
            d2_plus[i] = _d2e_from_spectrum(float(pi), evals,
                                            np.hstack([evecs[:, :lower],
                                                       u_plus[:, None],
                                                       u_minus[:, None],
                                                       evecs[:, upper + 1:]]),
                                            lower, m_cut, skip=(lower + 1,))
            d2_minus[i] = _d2e_from_spectrum(float(pi), evals,
                                             np.hstack([evecs[:, :lower],
                                                        u_minus[:, None],
                                                        u_plus[:, None],
                                                        evecs[:, upper + 1:]]),
                                             lower, m_cut, skip=(lower + 1,))
        else:
            plus_idx = lower if pi < p_star else upper
            minus_idx = upper if pi < p_star else lower
            e_plus[i] = evals[plus_idx]
            e_minus[i] = evals[minus_idx]
            chi_plus[i] = evecs[:, plus_idx]
            chi_minus[i] = evecs[:, minus_idx]
            d2_plus[i] = _d2e_from_spectrum(float(pi), evals, evecs, plus_idx, m_cut)
            d2_minus[i] = _d2e_from_spectrum(float(pi), evals, evecs, minus_idx, m_cut)
        below = evals[lower] - evals[lower - 1] if lower >= 1 else np.inf
        above = evals[upper + 1] - evals[upper]
        margin = min(margin, below, above)

    if margin <= isolation_floor:
        return None

    chi_plus = fix_gauge(chi_plus, anchor=i_star)
    chi_minus = fix_gauge(chi_minus, anchor=i_star)

    dp = p[1] - p[0]

    def one_sided(e, sign):
        c = i_star
        if sign > 0:
            return (-3 * e[c] + 4 * e[c + 1] - e[c + 2]) / (2 * dp)
        return (3 * e[c] - 4 * e[c - 1] + e[c - 2]) / (2 * dp)

    lam_plus = _hf_velocity(float(p[i_star]), chi_plus[i_star], m_cut)
    lam_minus = _hf_velocity(float(p[i_star]), chi_minus[i_star], m_cut)
    fd_mismatch = max(
        abs(one_sided(e_plus, +1) - lam_plus), abs(one_sided(e_plus, -1) - lam_plus),
        abs(one_sided(e_minus, +1) - lam_minus), abs(one_sided(e_minus, -1) - lam_minus),
    )

    dE_plus = np.array([_hf_velocity(float(pi), chi_plus[i], m_cut)
                        for i, pi in enumerate(p)])
    dE_minus = np.array([_hf_velocity(float(pi), chi_minus[i], m_cut)
                         for i, pi in enumerate(p)])
    plus = BandPath(V, p, e_plus, chi_plus, dE_plus, d2_plus,
                    _finite_diff(p, d2_plus), m_cut, label=f"pair({n},{n + 1})+")
    minus = BandPath(V, p, e_minus, chi_minus, dE_minus, d2_minus,
                     _finite_diff(p, d2_minus), m_cut, label=f"pair({n},{n + 1})-")
    return SmoothBandPair(
        n=n, p_star=float(p_star), plus=plus, minus=minus,
        slope_plus=lam_plus, slope_minus=lam_minus,
        margin=float(margin), halfwidth=float(p[-1] - p[i_star]),
        i_star=i_star, slope_fd_mismatch=float(fd_mismatch),
    )


def coupling_coefficient(pair: SmoothBandPair) -> complex:
    """kappa = <chi_-|d_p chi_+> at the crossing, from degenerate theory.

    Twice-differentiating the eigenequation and projecting on chi_- gives
    kappa = <chi_-|velocity w> / (slope_+ - slope_-) with w the resolvent-
    excluded part of d_p chi_+, regular because the resonant span is removed.
    The modulus is gauge independent.
    """
    if pair._coupling is not None:
        return pair._coupling
    V, m_cut = pair.potential, pair.m_cut
    i = pair.i_star
    chi_p = pair.chi_plus[i]
    chi_m = pair.chi_minus[i]
    p_star = pair.p_star
    e_star = pair.plus.energies[i]
    mvec = _mode_numbers(m_cut)
    vel = p_star + TWO_PI * mvec
    rhs = -(vel - pair.slope_plus) * chi_p
    w = reduced_resolvent_apply(V, p_star, e_star,
                                np.vstack([chi_p, chi_m]), rhs, m_cut)
    kappa = complex(np.vdot(chi_m, vel * w) / pair.slope_gap)
    pair._coupling = kappa
    return kappa
