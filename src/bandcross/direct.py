"""Direct solvers for i eps dpsi/dt = -eps^2/2 psi'' + (V(x/eps) + W(x)) psi.

``propagate`` is the production solver, a Bloch-decomposition Strang step
(Huang, Jin, Markowich & Sparber, SIAM J. Sci. Comput. 29, 2007): an
external half-phase e^{-i dt W/(2 eps)}, then the exact propagator of
H0 = -eps^2/2 d^2 + V(x/eps) in every commensurate Bloch fiber, then the
other half-phase.  With grid index i = a + ppw c (a inside a period, c the
period), one FFT over c puts fiber r in row r, and H0 acts there as a
ppw x ppw matrix: the plane-wave kinetic diagonal plus the aliased
coefficients fft(V(a/ppw))/ppw, which is the pseudo-spectral collocation of
H0 exactly.  Only the slow W is split, so the step size is set by W alone,
not by the O(eps^-2) commutator of the kinetic term with V(x/eps).

``propagate_strang`` is the plain Strang step that splits V + W against
the kinetic term; it is kept as the test oracle.  The two solvers share the
semi-discrete system and differ only by time error.

The external potential is made periodic by a C-infinity collar blend near
x = L where no packet is allowed to travel.  Band masses are measured by
exact projection onto the Bloch fibers that are commensurate with the torus.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from .ansatz import Grid, GridState
from .errors import GridMismatch, GridOverflow, StabilityViolation, WindowEmpty
from .potential import PeriodicPotential, evaluate_periodic

TWO_PI = 2.0 * np.pi
HALF_STEP_PHASE_LIMIT = 0.5   # rad of split-off potential phase per half-step
COLLAR_MASS_TOL = 1e-8


def _smoothstep(s: np.ndarray) -> np.ndarray:
    """C-infinity transition: 0 for s <= 0, 1 for s >= 1."""
    s = np.clip(s, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        f = np.where(s > 0, np.exp(-1.0 / np.maximum(s, 1e-300)), 0.0)
        g = np.where(s < 1, np.exp(-1.0 / np.maximum(1.0 - s, 1e-300)), 0.0)
    return f / (f + g)


def periodize_external(W, grid: Grid, collar: float = 1.0) -> np.ndarray:
    """Sample W on the grid, blended to its x - L translate over the collar.

    The blend W + sigma((x - L + c)/c) (W(x - L) - W(x)) agrees with W to all
    derivatives at x = L - c and with W(x - L) at x = L, so the periodic
    extension is smooth and spectrally benign.
    """
    if W is None:
        return np.zeros(grid.n)
    if not 0 < collar < grid.length / 2:
        raise ValueError("collar must lie inside the domain")
    x = grid.x
    w = np.array(W.w(x), dtype=float)
    sel = x >= grid.length - collar
    s = (x[sel] - (grid.length - collar)) / collar
    w_shift = np.asarray(W.w(x[sel] - grid.length), dtype=float)
    w[sel] = w[sel] + _smoothstep(s) * (w_shift - w[sel])
    return w


def grid_potential(V: PeriodicPotential, W, grid: Grid,
                   collar: float = 1.0) -> np.ndarray:
    """V(x/eps) + W(x) on the grid, W periodized over the collar."""
    u = evaluate_periodic(V, np.round(np.mod(grid.x / grid.epsilon, 1.0), 12))
    return u.real + periodize_external(W, grid, collar)


@dataclass
class PropagatorConfig:
    """Time-stepping parameters for one propagation."""

    dt: float
    t_final: float
    snapshot_times: tuple = ()
    collar: float = 1.0
    check_collar: bool = True

    def __post_init__(self):
        if self.dt <= 0 or self.t_final <= 0:
            raise ValueError("dt and t_final must be positive")
        snaps = sorted(set(float(t) for t in self.snapshot_times))
        for t in snaps:
            if t < 0 or t > self.t_final + 1e-12:
                raise ValueError(f"snapshot time {t} outside [0, t_final]")
            steps = t / self.dt
            if abs(steps - round(steps)) > 1e-6:
                raise ValueError(f"snapshot time {t} not a multiple of dt")
        self.snapshot_times = tuple(snaps)

    def steps(self) -> tuple:
        """(n_steps, dt) with n_steps * dt = t_final exactly."""
        n_steps = int(round(self.t_final / self.dt))
        if abs(n_steps * self.dt - self.t_final) > 1e-9 * self.t_final:
            n_steps = int(np.ceil(self.t_final / self.dt))
        return n_steps, self.t_final / n_steps


@dataclass
class PropagationResult:
    snapshots: list
    norms: np.ndarray
    norm_drift_rate: float
    n_steps: int
    dt: float


def _half_phase(u: np.ndarray, dt: float, eps: float, what: str) -> np.ndarray:
    """e^{-i dt u/(2 eps)}, refusing a half-step phase above the limit."""
    phase_half = dt / 2.0 * np.max(np.abs(u)) / eps
    if phase_half > HALF_STEP_PHASE_LIMIT + 1e-12:
        raise StabilityViolation(
            f"{what} phase {phase_half:.3f} rad per half-step exceeds "
            f"{HALF_STEP_PHASE_LIMIT}"
        )
    return np.exp(-1j * dt * u / (2.0 * eps))


def _split_run(psi0: GridState, cfg: PropagatorConfig, half: np.ndarray,
               middle) -> PropagationResult:
    """Symmetric steps half * middle * half, recording snapshots.

    Consecutive half-phases between snapshots are fused into one full phase.
    """
    grid = psi0.grid
    n_steps, dt = cfg.steps()
    snap_steps = sorted({int(round(t / dt)) for t in cfg.snapshot_times}
                        | {n_steps})
    full = half * half
    collar_idx = grid.x >= grid.length - cfg.collar

    psi = psi0.values.copy()
    norm0 = psi0.norm()
    snapshots = []
    norms = []
    step = 0
    for target in snap_steps:
        if target == 0:
            snapshots.append(GridState(grid, psi.copy(), t=0.0))
            norms.append(norm0)
            continue
        # fused run of (target - step) symmetric steps; scipy's FFT releases
        # the GIL, so epsilon sweeps parallelize on a thread pool
        psi = psi * half
        for _ in range(target - step - 1):
            psi = middle(psi)
            psi *= full
        psi = middle(psi)
        psi *= half
        step = target
        t = step * dt
        state = GridState(grid, psi.copy(), t=t)
        snapshots.append(state)
        norms.append(state.norm())
        if cfg.check_collar:
            frac = (np.sum(np.abs(psi[collar_idx]) ** 2) * grid.dx
                    / max(norms[-1] ** 2, 1e-300))
            if frac > COLLAR_MASS_TOL:
                raise GridOverflow(
                    f"packet mass fraction {frac:.2e} inside the collar at t={t:.4f}"
                )
    norms = np.array(norms)
    ts = np.array([s.t for s in snapshots])
    pos = ts > 0
    drift = float(np.max(np.abs(norms[pos] - norm0) / ts[pos])) if np.any(pos) else 0.0
    return PropagationResult(snapshots, norms, drift, n_steps, dt)


def _fiber_propagators(V: PeriodicPotential, grid: Grid,
                       dt: float) -> np.ndarray:
    """e^{-i dt H0_r/eps} for every fiber r, as an (LK, ppw, ppw) array.

    Row r of the period-index FFT of psi.reshape(LK, ppw) holds fiber r in
    the position-inside-a-period basis a.  There, H0_r is the conjugate by
    the ppw-point DFT and the twist diag(e^{-2 pi i r a/N}) of the
    plane-wave matrix diag(eps^2 k_{r,m}^2/2) + vhat_{m-m'}, with
    k_{r,m} the signed grid wavenumber of mode j = r + LK m.
    """
    ppw = grid.ppw
    lk = grid.length * grid.k_inv
    n = grid.n
    a = np.arange(ppw)
    vhat = np.fft.fft(evaluate_periodic(V, a / ppw)) / ppw
    m = np.arange(ppw)
    j = np.arange(lk)[:, None] + lk * m[None, :]
    k = TWO_PI * np.where(j < n // 2, j, j - n) / grid.length
    h = np.broadcast_to(vhat[(m[:, None] - m[None, :]) % ppw],
                        (lk, ppw, ppw)).copy()
    h[:, m, m] += grid.epsilon ** 2 * k ** 2 / 2.0
    energies, vecs = np.linalg.eigh(h)
    twist = np.exp(TWO_PI * 1j * np.arange(lk)[:, None, None]
                   * a[None, :, None] / n)
    q = twist * (np.sqrt(ppw) * np.fft.ifft(vecs, axis=1))
    rot = np.exp(-1j * dt * energies / grid.epsilon)
    return np.matmul(q * rot[:, None, :], np.conj(q.transpose(0, 2, 1)))


def propagate(psi0: GridState, V: PeriodicPotential, W,
              cfg: PropagatorConfig) -> PropagationResult:
    """Bloch-decomposition Strang steps to t_final (t_final always a snapshot)."""
    grid = psi0.grid
    lk, ppw = grid.length * grid.k_inv, grid.ppw
    _, dt = cfg.steps()
    half = _half_phase(periodize_external(W, grid, cfg.collar), dt,
                       grid.epsilon, "external potential")
    fiber = _fiber_propagators(V, grid, dt)

    def middle(psi):
        phi = sfft.fft(psi.reshape(lk, ppw), axis=0)
        phi = np.matmul(fiber, phi[:, :, None])[:, :, 0]
        return sfft.ifft(phi, axis=0, overwrite_x=True).reshape(-1)

    return _split_run(psi0, cfg, half, middle)


def propagate_strang(psi0: GridState, V: PeriodicPotential, W,
                     cfg: PropagatorConfig) -> PropagationResult:
    """Plain Strang steps (V + W split from the kinetic term); test oracle."""
    grid = psi0.grid
    eps = grid.epsilon
    _, dt = cfg.steps()
    half = _half_phase(grid_potential(V, W, grid, cfg.collar), dt, eps,
                       "potential")
    kin_full = np.exp(-1j * dt * eps * grid.wavenumbers() ** 2 / 2.0)

    def middle(psi):
        return sfft.ifft(kin_full * sfft.fft(psi))

    return _split_run(psi0, cfg, half, middle)


@dataclass
class ErrorReport:
    plain: float
    phase_optimized: float
    optimal_phase: float


def l2_error(psi: GridState, ansatz: GridState) -> ErrorReport:
    """L2 distance and its minimum over a global phase of the ansatz."""
    if psi.grid != ansatz.grid:
        raise GridMismatch("states live on different grids")
    dx = psi.grid.dx
    diff = psi.values - ansatz.values
    plain = float(np.sqrt(np.sum(np.abs(diff) ** 2) * dx))
    inner = np.sum(np.conj(psi.values) * ansatz.values) * dx
    n2 = np.sum(np.abs(psi.values) ** 2) * dx + \
        np.sum(np.abs(ansatz.values) ** 2) * dx
    opt = float(np.sqrt(max(n2 - 2.0 * abs(inner), 0.0)))
    return ErrorReport(plain, opt, float(-np.angle(inner)))


# -- exact fiber projection ------------------------------------------------------

_FIBER_CACHE: dict = {}


def _fiber_table(V: PeriodicPotential, grid: Grid, n_bands: int):
    """Bloch eigenvectors on the torus-commensurate fiber lattice.

    The grid supports quasimomenta p_r = 2 pi r / (L K), r = 0 .. LK-1, each
    carrying the plane-wave modes m = -ppw/2 .. ppw/2 - 1 in x-frequency
    k = (p_r + 2 pi m)/eps.  Eigensolving every fiber at the matching basis
    size makes the projection exact on the grid (Parseval).
    """
    key = (V.coeffs.tobytes(), grid.length, grid.k_inv, grid.ppw, n_bands)
    if key in _FIBER_CACHE:
        return _FIBER_CACHE[key]
    from .bloch import eigensolve

    lk = grid.length * grid.k_inv
    m_cut = grid.ppw // 2 - 1
    if V.m_max > m_cut:
        # Harmonics beyond the fiber basis are invisible on this grid (they
        # alias); drop them so the fiber matrices match the resolved modes.
        mid = (V.coeffs.size - 1) // 2
        V = PeriodicPotential(V.coeffs[mid - m_cut:mid + m_cut + 1].copy())
    n_keep = min(n_bands, 2 * m_cut + 1)
    energies = np.empty((lk, n_keep))
    vectors = np.empty((lk, n_keep, 2 * m_cut + 1), dtype=complex)
    for r in range(lk):
        p_r = TWO_PI * r / lk
        e, vecs = eigensolve(V, p_r, n_keep, m_cut=m_cut)
        energies[r] = e
        vectors[r] = vecs
    _FIBER_CACHE[key] = (energies, vectors, m_cut)
    return _FIBER_CACHE[key]


def _window_mask(grid: Grid, window) -> np.ndarray:
    if window is None:
        return np.ones(grid.n)
    lo, hi = float(window[0]), float(window[1])
    if hi <= lo:
        raise WindowEmpty(f"window [{lo}, {hi}] is empty")
    x = grid.x
    edge = min(1.0, (hi - lo) / 8.0)
    mask = np.zeros(grid.n)
    inside = (x >= lo) & (x <= hi)
    if not np.any(inside):
        raise WindowEmpty(f"window [{lo}, {hi}] contains no grid points")
    mask[inside] = 1.0
    rise = (x >= lo) & (x < lo + edge)
    mask[rise] = _smoothstep((x[rise] - lo) / edge)
    fall = (x > hi - edge) & (x <= hi)
    mask[fall] = _smoothstep((hi - x[fall]) / edge)
    return mask


@dataclass
class BandMassTable:
    masses: dict            # band index -> mass
    rest: float             # mass in higher bands / unresolved modes
    total: float            # windowed ||psi||^2

    def band(self, n: int) -> float:
        return self.masses[n]


def band_mass(psi: GridState, V: PeriodicPotential, n_bands: int = 4,
              window=None) -> BandMassTable:
    """Windowed per-band mass by exact commensurate-fiber projection."""
    grid = psi.grid
    mask = _window_mask(grid, window)
    vals = psi.values * mask
    total = float(np.sum(np.abs(vals) ** 2) * grid.dx)
    if window is not None and total < 1e-28:
        raise WindowEmpty("windowed state carries no mass")
    energies, vectors, m_cut = _fiber_table(V, grid, n_bands)
    lk = grid.length * grid.k_inv
    spec = np.fft.fft(vals) * grid.dx   # continuum Fourier coefficients
    # reshape by fiber: index j = r + lk * m_block
    n = grid.n
    j = np.arange(n)
    r = j % lk
    m = np.where(j // lk < grid.ppw // 2, j // lk, j // lk - grid.ppw)
    # collect the symmetric range |m| <= m_cut per fiber
    fiber_vecs = np.zeros((lk, 2 * m_cut + 1), dtype=complex)
    keep = np.abs(m) <= m_cut
    fiber_vecs[r[keep], m[keep] + m_cut] = spec[keep]
    dropped = float(np.sum(np.abs(spec[~keep]) ** 2) / grid.length)
    # per-fiber band amplitudes: <chi_n(p_r) | psi_r>
    amps = np.einsum("rbm,rm->rb", np.conj(vectors), fiber_vecs)
    per_band = np.sum(np.abs(amps) ** 2, axis=0) / grid.length
    fiber_total = np.sum(np.abs(fiber_vecs) ** 2) / grid.length
    masses = {nb + 1: float(per_band[nb]) for nb in range(per_band.size)}
    rest = float(fiber_total - per_band.sum() + dropped)
    return BandMassTable(masses=masses, rest=rest, total=total)
