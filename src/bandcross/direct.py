"""Direct solvers for i eps dpsi/dt = -eps^2/2 psi'' + (V(x/eps) + W(x)) psi.

``propagate`` is the production solver, a Bloch-decomposition Strang step
(Huang, Jin, Markowich & Sparber, SIAM J. Sci. Comput. 29, 2007): an
external half-phase e^{-i dt W/(2 eps)}, then the exact propagator of
H0 = -eps^2/2 d^2 + V(x/eps) in every commensurate Bloch fiber, then the
other half-phase.  With grid index i = a + ppw c (a inside a period, c the
period), one FFT over c puts fiber r in row r, and H0 acts there as a
ppw x ppw matrix: the plane-wave kinetic diagonal plus V's Fourier
coefficients aliased mod ppw (the coefficients of the samples V(a/ppw)),
which is the pseudo-spectral collocation of H0 exactly.  For an even V
(V.even) these are real, so every fiber matrix is real symmetric and its
eigh runs the real solver.  Only the slow W is split, so the step size is
set by W alone, not by the O(eps^-2) commutator of the kinetic term with
V(x/eps).

``propagate_strang`` is the plain Strang step that splits V + W against
the kinetic term; it is kept as the test oracle.  The two solvers share the
semi-discrete system and differ only by time error.

Both take the step dt and an increasing list of whole step counts, and
return one snapshot after each count, at t = count * dt; the last count
ends the run.  The caller plans that grid (harness.plan_solver), so no time
is rounded onto steps here.

The external potential is made periodic by a C-infinity collar blend near
x = L where no packet is allowed to travel.  A constant shift of W changes
the solution only by a global phase, so ``propagate`` splits off W - c, with
c the midpoint of the periodized W's range (``centred_external``), and
multiplies each snapshot at time t by e^{-i c t/eps}.  The split-step
solution under W - c is exactly e^{i c t/eps} times that under W, so the
snapshots are the solution under W, while the half-step phase, and with it
the planned dt, reads max|W - c| rather than the gauge-dependent max|W|.

Each BD step runs in place: the period-index FFTs and the fiber matvecs
write into buffers allocated once per run (numpy's ``out=``), so the step
allocates nothing.

The fiber eigenbasis is computed once per (V, grid), by one batched eigh,
and cached in ``_FIBER_CACHE``.  The BD step builds its propagator table
from it for each dt, and ``band_mass`` projects onto it, so band masses are
measured in the eigenbasis of the operator that the solver applies.

``points_per_period`` derives the grid's ppw from V: the smallest even
ppw >= 16 whose collocated Bloch energies match those of a 2 ppw reference
to a tolerance that the caller ties to its error target.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .ansatz import Grid, GridState
from .errors import (GridMismatch, GridOverflow, StabilityViolation,
                     TruncationTooSmall, WindowEmpty)
from .potential import PeriodicPotential, evaluate_periodic

TWO_PI = 2.0 * np.pi
HALF_STEP_PHASE_LIMIT = 0.5   # rad of split-off potential phase per half-step
COLLAR = 1.0                  # width of the blend that periodizes W
COLLAR_MASS_TOL = 1e-8
DEGENERATE_GAP = 1e-9         # relative fiber-energy gap read as a touching


def _smoothstep(s: np.ndarray) -> np.ndarray:
    """C-infinity transition: 0 for s <= 0, 1 for s >= 1."""
    s = np.clip(s, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        f = np.where(s > 0, np.exp(-1.0 / np.maximum(s, 1e-300)), 0.0)
        g = np.where(s < 1, np.exp(-1.0 / np.maximum(1.0 - s, 1e-300)), 0.0)
    return f / (f + g)


def periodize_external(W, grid: Grid, collar: float = COLLAR) -> np.ndarray:
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


def centred_external(W, grid: Grid) -> tuple:
    """(periodized W - c, c), with c = (max + min)/2 of the periodized W.

    Shifting W by c leaves max|W - c| at half the range of W, the least
    max|W - c| over every constant shift.
    """
    w = periodize_external(W, grid)
    c = 0.5 * float(np.max(w) + np.min(w))
    return w - c, c


def grid_potential(V: PeriodicPotential, W, grid: Grid) -> np.ndarray:
    """V(x/eps) + W(x) on the grid, W periodized over the collar."""
    u = evaluate_periodic(V, np.round(np.mod(grid.x / grid.epsilon, 1.0), 12))
    return u.real + periodize_external(W, grid)


@dataclass
class PropagationResult:
    snapshots: list         # one per entry of the step list
    norm_drift_rate: float
    n_steps: int
    dt: float
    collar_mass: float      # peak collar mass fraction over the steps


def _half_phase(u: np.ndarray, dt: float, eps: float, what: str) -> np.ndarray:
    """e^{-i dt u/(2 eps)}, refusing a half-step phase above the limit."""
    phase_half = dt / 2.0 * np.max(np.abs(u)) / eps
    if phase_half > HALF_STEP_PHASE_LIMIT + 1e-12:
        raise StabilityViolation(
            f"{what} phase {phase_half:.3f} rad per half-step exceeds "
            f"{HALF_STEP_PHASE_LIMIT}"
        )
    return np.exp(-1j * dt * u / (2.0 * eps))


def _split_run(psi0: GridState, dt: float, steps, half: np.ndarray, middle,
               check_collar: bool) -> PropagationResult:
    """Symmetric steps half * middle * half, one snapshot per entry of steps.

    steps is an increasing list of whole step counts; the snapshot after n
    steps has t = n dt, and the last count ends the run.  Consecutive
    half-phases between snapshots are fused into one full phase.  The mass
    fraction inside the collar, a contiguous tail of the grid, is read after
    every step, so mass that crosses it between two snapshots is seen; its
    peak is recorded, and with check_collar it must stay below
    COLLAR_MASS_TOL.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if (not steps or steps[0] < 0 or steps[-1] < 1
            or any(b <= a for a, b in zip(steps, steps[1:]))):
        raise ValueError(f"steps {steps} must be increasing counts >= 0 "
                         "ending at >= 1")
    grid = psi0.grid
    full = half * half
    collar = int(np.count_nonzero(grid.x < grid.length - COLLAR))

    psi = psi0.values.copy()
    norm0 = psi0.norm()
    scale = grid.dx / max(norm0 ** 2, 1e-300)
    snapshots = []
    norms = []
    collar_peak = 0.0

    def read_collar(psi, n):
        # the phases are pointwise, so |psi| after a fused phase is that of
        # the state after n steps
        nonlocal collar_peak
        tail = psi[collar:]
        frac = float(np.vdot(tail, tail).real) * scale
        collar_peak = max(collar_peak, frac)
        if check_collar and frac > COLLAR_MASS_TOL:
            raise GridOverflow(f"packet mass fraction {frac:.2e} inside the "
                               f"collar at t={n * dt:.4f}")

    step = 0
    for target in steps:
        if target == 0:
            snapshots.append(GridState(grid, psi.copy(), t=0.0))
            norms.append(norm0)
            continue
        # fused run of (target - step) symmetric steps; middle may step psi
        # in place, so psi is copied at each snapshot
        psi = psi * half
        for n in range(step + 1, target):
            psi = middle(psi)
            psi *= full
            read_collar(psi, n)
        psi = middle(psi)
        psi *= half
        read_collar(psi, target)
        step = target
        state = GridState(grid, psi.copy(), t=step * dt)
        snapshots.append(state)
        norms.append(state.norm())
    norms = np.array(norms)
    ts = np.array([s.t for s in snapshots])
    pos = ts > 0
    drift = float(np.max(np.abs(norms[pos] - norm0) / ts[pos])) if np.any(pos) else 0.0
    return PropagationResult(snapshots, drift, steps[-1], dt, collar_peak)


def _collocation(V: PeriodicPotential, ppw: int, p: np.ndarray) -> np.ndarray:
    """Collocated fiber matrices of H0 at scaled quasimomenta p in [0, 2 pi).

    Mode m = 0 .. ppw-1 is the plane wave p + 2 pi m_s, where m_s = m (mod
    ppw) and m_s + p/(2 pi) lies in [-ppw/2, ppw/2), so its kinetic energy
    eps^2 k^2/2 is (p + 2 pi m_s)^2/2.  V enters through its coefficients
    aliased mod ppw, which equal fft(V(a/ppw))/ppw; they are real, and the
    stack float64, when V is even.  Returns a (p.size, ppw, ppw) array.
    """
    coeffs = V.coeffs.real if V.even else V.coeffs
    vhat = np.zeros(ppw, coeffs.dtype)
    np.add.at(vhat, np.arange(-V.m_max, V.m_max + 1) % ppw, coeffs)
    m = np.arange(ppw)
    m_s = np.where(m[None, :] + p[:, None] / TWO_PI < ppw / 2, m, m - ppw)
    h = np.broadcast_to(vhat[(m[:, None] - m[None, :]) % ppw],
                        (p.size, ppw, ppw)).copy()
    h[:, m, m] += (p[:, None] + TWO_PI * m_s) ** 2 / 2.0
    return h


_FIBER_CACHE: dict = {}
_FIBER_LOCK = threading.Lock()   # the coarse and fine runs may start together


def _fiber_basis(V: PeriodicPotential, grid: Grid) -> tuple:
    """(energies, q) of every commensurate fiber; one eigh per (V, grid).

    Row r of the period-index FFT of psi.reshape(LK, ppw) holds fiber r,
    quasimomentum p_r = 2 pi r/(LK), in the position-inside-a-period basis
    a.  The columns of q[r] are the eigenvectors of H0_r there: the
    plane-wave eigenvectors taken through the unitary ppw-point inverse DFT
    and the twist diag(e^{2 pi i r a/N}).  Energies ascend along axis 1, so
    column n-1 is band n.  The solver and band_mass share this basis.
    """
    key = (V.coeffs.tobytes(), grid.length, grid.k_inv, grid.ppw)
    with _FIBER_LOCK:
        if key not in _FIBER_CACHE:
            ppw = grid.ppw
            lk = grid.length * grid.k_inv
            energies, vecs = np.linalg.eigh(
                _collocation(V, ppw, TWO_PI * np.arange(lk) / lk))
            a = np.arange(ppw)
            twist = np.exp(TWO_PI * 1j * np.arange(lk)[:, None, None]
                           * a[None, :, None] / grid.n)
            # in place into one complex array: two concurrent cases
            # otherwise overlap their (LK, ppw, ppw) temporaries
            q = np.fft.ifft(vecs, axis=1, out=np.empty(vecs.shape, complex))
            q *= np.sqrt(ppw) * twist
            _FIBER_CACHE[key] = (energies, q)
        return _FIBER_CACHE[key]


def _fiber_propagators(V: PeriodicPotential, grid: Grid,
                       dt: float) -> np.ndarray:
    """e^{-i dt H0_r/eps} for every fiber r, as an (LK, ppw, ppw) array."""
    energies, q = _fiber_basis(V, grid)
    # q diag(rot) q^H = conj(conj(q) diag(conj rot) q^T): conj(q) doubles as
    # the product buffer, one (LK, ppw, ppw) temporary fewer than
    # q*rot @ q^H
    u = np.conj(q)
    u *= np.exp(1j * dt * energies / grid.epsilon)[:, None, :]
    u = np.matmul(u, q.transpose(0, 2, 1))
    return np.conj(u, out=u)


# -- points per period --------------------------------------------------------

PPW_MIN = 16                # the Grid floor
PPW_CAP = 64
PPW_QUASIMOMENTA = 32       # samples across the Brillouin zone

_PPW_LADDER: dict = {}


def collocation_error(V: PeriodicPotential, ppw: int, n_bands: int) -> float:
    """max |E_n(p; ppw) - E_n(p; ref)| over bands 1..n_bands and the zone.

    E_n(p; ppw) is the nth collocated Bloch energy with ppw points per
    period, at PPW_QUASIMOMENTA quasimomenta spread over [0, 2 pi).  The
    reference takes ref = 2 ppw points, and at least enough that no harmonic
    of V aliases: a harmonic m aliased alike at ppw and 2 ppw (m = 30 looks
    like m = -2 at both 16 and 32) would otherwise pass for converged.  The
    error does not depend on eps, so the ladder of values is cached per
    (V, n_bands).
    """
    ladder = _PPW_LADDER.setdefault((V.coeffs.tobytes(), n_bands), {})
    if ppw not in ladder:
        p = TWO_PI * np.arange(PPW_QUASIMOMENTA) / PPW_QUASIMOMENTA
        ref = max(2 * ppw, 2 * V.m_max + 2)
        coarse, fine = (np.linalg.eigvalsh(_collocation(V, n, p))[:, :n_bands]
                        for n in (ppw, ref))
        ladder[ppw] = float(np.max(np.abs(coarse - fine)))
    return ladder[ppw]


def points_per_period(V: PeriodicPotential, n_bands: int, tol: float) -> int:
    """Smallest even ppw >= PPW_MIN, n_bands with collocation error <= tol.

    ppw points per period hold ppw bands.  An energy error dE turns into a
    phase error dE t/eps over a run of length t, so a caller passes
    tol = (allowed phase error) eps / t.
    """
    ladder = range(max(PPW_MIN, n_bands + n_bands % 2), PPW_CAP + 1, 2)
    for ppw in ladder:
        if collocation_error(V, ppw, n_bands) <= tol:
            return ppw
    best = min(collocation_error(V, ppw, n_bands) for ppw in ladder)
    raise TruncationTooSmall(
        f"no ppw <= {PPW_CAP} resolves bands 1..{n_bands}: best collocation "
        f"energy difference {best:.3e} exceeds the tolerance {tol:.3e}")


def propagate(psi0: GridState, V: PeriodicPotential, W, dt: float, steps,
              check_collar: bool = True) -> PropagationResult:
    """Bloch-decomposition Strang steps of dt, a snapshot after each count.

    The steps split off the centred W - c; each snapshot is multiplied by
    e^{-i c t/eps}, so it is the solution under W itself.
    """
    grid = psi0.grid
    eps = grid.epsilon
    lk, ppw = grid.length * grid.k_inv, grid.ppw
    w, c = centred_external(W, grid)
    half = _half_phase(w, dt, eps, "external potential")
    fiber = _fiber_propagators(V, grid, dt)
    phi = np.empty((lk, ppw, 1), dtype=complex)
    out = np.empty_like(phi)

    def middle(psi):
        rows = psi.reshape(lk, ppw)    # a view: psi is contiguous
        np.fft.fft(rows, axis=0, out=phi[:, :, 0])
        np.matmul(fiber, phi, out=out)
        np.fft.ifft(out[:, :, 0], axis=0, out=rows)
        return psi

    result = _split_run(psi0, dt, steps, half, middle, check_collar)
    for snap in result.snapshots:
        snap.values *= np.exp(-1j * c * snap.t / eps)
    return result


def propagate_strang(psi0: GridState, V: PeriodicPotential, W, dt: float,
                     steps, check_collar: bool = True) -> PropagationResult:
    """Plain Strang steps (V + W split from the kinetic term); test oracle."""
    grid = psi0.grid
    eps = grid.epsilon
    half = _half_phase(grid_potential(V, W, grid), dt, eps,
                       "potential")
    kin_full = np.exp(-1j * dt * eps * grid.wavenumbers() ** 2 / 2.0)

    def middle(psi):
        return np.fft.ifft(kin_full * np.fft.fft(psi))

    return _split_run(psi0, dt, steps, half, middle, check_collar)


@dataclass
class ErrorReport:
    plain: float
    phase_optimized: float


def l2_error(psi: GridState, ansatz: GridState) -> ErrorReport:
    """L2 distance and its minimum over a global phase of the ansatz.

    The minimum is the distance to the ansatz turned by the phase of
    <ansatz|psi>, taken as a norm of the difference: the closed form
    |psi|^2 + |ansatz|^2 - 2 |<psi|ansatz>| cancels to roundoff, which its
    square root lifts to 1e-8 of the norm.
    """
    if psi.grid != ansatz.grid:
        raise GridMismatch("states live on different grids")
    dx = psi.grid.dx
    diff = psi.values - ansatz.values
    plain = float(np.sqrt(np.sum(np.abs(diff) ** 2) * dx))
    inner = np.vdot(ansatz.values, psi.values)
    turn = inner / abs(inner) if inner != 0 else 1.0
    diff = psi.values - turn * ansatz.values
    opt = float(np.sqrt(np.sum(np.abs(diff) ** 2) * dx))
    return ErrorReport(plain, opt)


# -- band-mass projection ----------------------------------------------------


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
    rest: float             # mass in the bands above n_bands
    total: float            # windowed ||psi||^2

    def band(self, n: int) -> float:
        return self.masses[n]


def band_mass(psi: GridState, V: PeriodicPotential, n_bands: int = 4,
              window=None) -> BandMassTable:
    """Windowed per-band mass by projection onto the solver's fiber eigenbasis.

    The amplitudes of fiber r are q[r]^H fft(vals.reshape(LK, ppw), axis=0)[r]
    with q the cached eigenbasis that ``propagate`` steps in, so band n is
    the nth eigenspace of the very operator the solver applies, and mass
    does not leak between bands through a mismatch of the two operators.
    q is unitary, so Parseval holds exactly on the grid: the band masses and
    ``rest`` (bands above n_bands) sum to the windowed norm.

    Where two adjacent energies of a fiber lie within DEGENERATE_GAP
    max(1, |E|) of each other (bands that touch, such as bands 2 and 3 of
    the one-gap Lame potential at p = 0), eigh may return any basis of
    their eigenspace, so the pair's mass is split equally between its two
    bands; the pair's total, and with it Parseval, does not depend on the
    basis.
    """
    grid = psi.grid
    mask = _window_mask(grid, window)
    vals = psi.values * mask
    total = float(np.sum(np.abs(vals) ** 2) * grid.dx)
    if window is not None and total < 1e-28:
        raise WindowEmpty("windowed state carries no mass")
    energies, q = _fiber_basis(V, grid)
    lk = grid.length * grid.k_inv
    phi = np.fft.fft(vals.reshape(lk, grid.ppw), axis=0)
    # conj(q^H phi) = conj(phi) q: the same moduli, and no conjugated copy
    # of the cached q
    amps = np.matmul(np.conj(phi)[:, None, :], q)[:, 0, :]
    dens = np.abs(amps) ** 2
    r, n = np.nonzero(np.diff(energies, axis=1) <= DEGENERATE_GAP
                      * np.maximum(1.0, np.abs(energies[:, 1:])))
    dens[r, n] = dens[r, n + 1] = 0.5 * (dens[r, n] + dens[r, n + 1])
    per_band = np.sum(dens, axis=0) * grid.dx / lk
    masses = {n + 1: float(m) for n, m in enumerate(per_band[:n_bands])}
    rest = float(per_band[n_bands:].sum())
    return BandMassTable(masses=masses, rest=rest, total=total)
