"""Direct solvers for i eps dpsi/dt = -eps^2/2 psi'' + (V(x/eps) + W(x)) psi.

``propagate`` is the production solver.  It runs in one of two frames,
chosen by its caller (harness.plan_solver):

- Bloch decomposition (BD), for every W: a Strang step (Huang, Jin,
  Markowich & Sparber, SIAM J. Sci. Comput. 29, 2007) of an external
  half-phase e^{-i dt W/(2 eps)}, then the exact propagator of
  H0 = -eps^2/2 d^2 + V(x/eps) in every commensurate Bloch fiber, then the
  other half-phase.  With grid index i = a + ppw c (a inside a period, c
  the period), one FFT over c puts fiber r in row r, and H0 acts there as
  a ppw x ppw matrix: the plane-wave kinetic diagonal plus V's Fourier
  coefficients aliased mod ppw (the coefficients of the samples
  V(a/ppw)), which is the pseudo-spectral collocation of H0 exactly.  For
  an even V (V.even) these are real, so every fiber matrix is real
  symmetric and its eigh runs the real solver.  Only the slow W is split,
  so the step size is set by W alone, not by the O(eps^-2) commutator of
  the kinetic term with V(x/eps).
- The accelerated (Houston) frame, for a linear W = W(0) - alpha x with
  alpha > 0 (``propagate`` with a guard; ``_accelerated``).  There every
  fiber's quasimomentum drifts, K = 2 pi r/LK + alpha t, under the same
  collocated fiber matrices, and nothing is split.  Its step is the
  lattice step 2 pi/(LK alpha), one fiber of drift; a mirrored table of
  LK/2 Magnus propagators, one per lattice point of the zone, serves every
  fiber and every step, and products of its entries give each snapshot
  with no time loop.  The planner runs it for a fast linear drive, where
  BD's step would be set by W's phase (about 7 BD steps per lattice
  step); gentle drives keep BD.  In this frame each fiber evolves alone
  and unitarily, so a fiber that starts empty stays empty, and leaving a
  set of fibers out changes every snapshot by exactly their initial norm.
  The solve therefore carries only a circular interval of fibers around
  the packet (kept_fibers) and builds only the table entries that those
  fibers pass through, so its cost follows the packet's fiber support and
  the K range it sweeps, not LK; the caller charges the dropped norm to
  its error target (harness.propagate_substeps).

``propagate_strang`` is the plain Strang step that splits V + W against
the kinetic term; it is kept as the test oracle.  The solvers share the
semi-discrete system and differ only by time error, and, for the
accelerated frame, at the box's cut.

Each takes the step dt and an increasing list of whole step counts, and
returns one snapshot after each count, at t = count * dt; the last count
ends the run.  The caller plans that grid (harness.plan_solver), so no time
is rounded onto steps here.

In BD the external potential is made periodic by a C-infinity collar
blend near x = L where no packet is allowed to travel.  A constant shift of
W changes the solution only by a global phase, so BD splits off W - c,
with c the midpoint of the periodized W's range (``centred_external``),
and multiplies each snapshot at time t by e^{-i c t/eps}.  The split-step
solution under W - c is exactly e^{i c t/eps} times that under W, so the
snapshots are the solution under W, while the half-step phase, and with it
the planned dt, reads max|W - c| rather than the gauge-dependent max|W|.
The accelerated frame has no collar: its box is cut at x = 0, and its
guard reads a unit interval that the caller places away from the packets.

Each BD step runs in place: the period-index FFTs and the fiber matvecs
write into buffers allocated once per run (numpy's ``out=``), so the step
allocates nothing.

The fiber eigenbasis is computed once per (V, grid) and cached in
``_FIBER_CACHE``.  One batched eigh solves the fibers r = 0..LK//2; by
time reversal (V is real), fiber LK-r is the complex conjugate of fiber r
and takes its energies and conjugated eigenvectors, so half the zone is
diagonalized.  The BD step builds its full (LK, ppw, ppw) propagator table
from the basis for each dt, and ``band_mass`` projects onto it, so band
masses are measured in the eigenbasis of the operator that the solver
applies (the accelerated frame's fiber matrices are the same operator).

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
    fibers_kept: int        # Bloch fibers propagated, of the grid's LK
    dropped_norm: float = 0.0   # norm of psi0 on the fibers left out


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
    _check_steps(dt, steps)
    grid = psi0.grid
    full = half * half
    collar = int(np.count_nonzero(grid.x < grid.length - COLLAR))

    psi = psi0.values.copy()
    norm0 = psi0.norm()
    scale = grid.dx / max(norm0 ** 2, 1e-300)
    snapshots = []
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
    return PropagationResult(snapshots, _norm_drift(snapshots, norm0),
                             steps[-1], dt, collar_peak,
                             grid.length * grid.k_inv)


def _check_steps(dt: float, steps):
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if (not steps or steps[0] < 0 or steps[-1] < 1
            or any(b <= a for a, b in zip(steps, steps[1:]))):
        raise ValueError(f"steps {steps} must be increasing counts >= 0 "
                         "ending at >= 1")


def _norm_drift(snapshots, norm0: float) -> float:
    """max over the snapshots at t > 0 of |norm - norm0| / t."""
    rates = [abs(s.norm() - norm0) / s.t for s in snapshots if s.t > 0]
    return float(max(rates, default=0.0))


def _aliased_potential(V: PeriodicPotential, ppw: int) -> np.ndarray:
    """The (ppw, ppw) circulant vhat[(m - m') mod ppw] of V in a fiber.

    vhat holds V's coefficients aliased mod ppw, which equal
    fft(V(a/ppw))/ppw; they are real, and the matrix float64, when V is
    even.
    """
    coeffs = V.coeffs.real if V.even else V.coeffs
    vhat = np.zeros(ppw, coeffs.dtype)
    np.add.at(vhat, np.arange(-V.m_max, V.m_max + 1) % ppw, coeffs)
    m = np.arange(ppw)
    return vhat[(m[:, None] - m[None, :]) % ppw]


def _collocation(V: PeriodicPotential, ppw: int, p: np.ndarray) -> np.ndarray:
    """Collocated fiber matrices of H0 at scaled quasimomenta p in [0, 2 pi).

    Mode m = 0 .. ppw-1 is the plane wave p + 2 pi m_s, where m_s = m (mod
    ppw) and m_s + p/(2 pi) lies in [-ppw/2, ppw/2), so its kinetic energy
    eps^2 k^2/2 is (p + 2 pi m_s)^2/2.  V enters through its aliased
    circulant (_aliased_potential).  Returns a (p.size, ppw, ppw) array.
    """
    m = np.arange(ppw)
    m_s = np.where(m[None, :] + p[:, None] / TWO_PI < ppw / 2, m, m - ppw)
    h = np.broadcast_to(_aliased_potential(V, ppw),
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

    The batched eigh runs on fibers r = 0..LK//2 alone.  V is real, so H0
    is real in x, and row LK-r of the FFT of conj(psi) is conj of row r of
    the FFT of psi: H0_{LK-r} = conj(H0_r) in the a-basis, for an even or
    an odd V.  So fiber LK-r takes the energies of fiber r and
    q[LK-r] = conj(q[r]).
    """
    key = (V.coeffs.tobytes(), grid.length, grid.k_inv, grid.ppw)
    with _FIBER_LOCK:
        if key not in _FIBER_CACHE:
            ppw = grid.ppw
            lk = grid.length * grid.k_inv
            half = lk // 2 + 1          # fibers solved; the rest mirror them
            r = np.arange(half)
            evals, vecs = np.linalg.eigh(_collocation(V, ppw, TWO_PI * r / lk))
            energies = np.empty((lk, ppw))
            energies[:half] = evals
            energies[half:] = evals[lk - half:0:-1]
            twist = np.exp(TWO_PI * 1j * r[:, None, None]
                           * np.arange(ppw)[None, :, None] / grid.n)
            # in place into one complex array: two concurrent cases
            # otherwise overlap their (LK, ppw, ppw) temporaries
            q = np.empty((lk, ppw, ppw), complex)
            np.fft.ifft(vecs, axis=1, out=q[:half])
            q[:half] *= np.sqrt(ppw) * twist
            np.conj(q[lk - half:0:-1], out=q[half:])
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
              check_collar: bool = True, guard: float | None = None,
              substeps: int = 1, fibers: tuple | None = None
              ) -> PropagationResult:
    """The direct solve from psi0, a snapshot after each count of steps.

    With guard None it runs Bloch-decomposition Strang steps of dt: the
    steps split off the centred W - c, and each snapshot is multiplied by
    e^{-i c t/eps}, so it is the solution under W itself.  With a guard it
    runs in the accelerated frame (_accelerated): W must be linear with
    alpha > 0, dt must be lattice_dt(grid, alpha), each table entry takes
    substeps Magnus substeps, the unit interval [guard, guard + 1) on
    the periodic box is read in place of the collar, and fibers, a
    circular interval (lo, count) of lab fibers (kept_fibers), limits the
    solve to psi0's part on them (None: every fiber).
    """
    if guard is not None:
        return _accelerated(psi0, V, W, dt, steps, check_collar, guard,
                            substeps, fibers)
    if fibers is not None:
        raise ValueError("only the accelerated frame keeps a fiber interval")
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


# -- the accelerated frame ---------------------------------------------------

LATTICE_BLOCK = 64        # table entries, and pass points, per batch
EXPM_NORM = 0.5           # inf-norm the Magnus exponent is scaled under
EXPM_TOL = 1e-17          # Taylor remainder left in exp of the exponent
G_SERIES = 0.2            # |x| below which g(x) is summed as its series


def linear_drive(W, grid: Grid):
    """alpha when W = W(0) - alpha x at every grid point, else None."""
    if W is None:
        return None
    x = grid.x
    if np.any(np.asarray(W.d2w(x)) != 0) or np.any(np.asarray(W.d3w(x)) != 0):
        return None
    return -float(W.dw(0.0))


def lattice_dt(grid: Grid, alpha: float) -> float:
    """The accelerated frame's step: K moves by one fiber, 2 pi/LK."""
    return TWO_PI / (grid.length * grid.k_inv * alpha)


def _window_fibers(V: PeriodicPotential, ppw: int, K: np.ndarray) -> tuple:
    """(h(K), kappa): fiber matrices in window positions and their momenta.

    Window position j = 0..ppw-1 holds the plane wave of scaled momentum
    kappa_j = K + 2 pi (j - ppw/2).  For K in [0, 2 pi] these are the
    grid's own modes, so h(K) = diag(kappa^2/2) + V's aliased circulant is
    the collocated H0 that band_mass projects on, and h(K + 2 pi) = h(K)
    in window positions.
    """
    j = np.arange(ppw)
    kappa = K[:, None] + TWO_PI * (j - ppw // 2)
    h = np.broadcast_to(_aliased_potential(V, ppw),
                        (K.size, ppw, ppw)).copy()
    h[:, j, j] += kappa ** 2 / 2.0
    return h, kappa


def _magnus_weight(x: np.ndarray, sin: np.ndarray,
                   cos: np.ndarray) -> np.ndarray:
    """g(x) = sin x/x^2 - cos x/x, given sin x and cos x.

    Below |x| = G_SERIES it is summed as its odd series through x^9, whose
    first omitted term is below 1e-15 relative there; the closed form
    loses digits to cancellation near 0.
    """
    small = np.abs(x) < G_SERIES
    y = np.where(small, 1.0, x)
    x2 = x * x
    series = x * (1 / 3 + x2 * (-1 / 30 + x2 * (1 / 840 + x2 * (
        -1 / 45360 + x2 / 3991680))))
    return np.where(small, series, (sin / y - cos) / y)


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of a stack of matrices: scaling, a Taylor sum, squaring.

    The stack is scaled by 2^-j until its largest inf-norm n is below
    EXPM_NORM, and summed to the first degree d with n^{d+1}/(d+1)! below
    EXPM_TOL, so a small exponent takes few terms.
    """
    norm = float(np.max(np.abs(a).sum(axis=-1), initial=0.0))
    halvings = (int(np.ceil(np.log2(norm / EXPM_NORM)))
                if norm > EXPM_NORM else 0)
    b = a / 2.0 ** halvings
    norm /= 2.0 ** halvings
    degree, term = 0, 1.0
    while term * norm / (degree + 1) > EXPM_TOL:
        degree += 1
        term *= norm / degree
    diag = np.arange(a.shape[-1])
    x = b / max(degree, 1)
    x[..., diag, diag] += 1.0
    for i in range(degree - 1, 0, -1):     # Horner: I + b (I + b/2 (...))
        x = b @ x
        x /= i
        x[..., diag, diag] += 1.0
    for _ in range(halvings):
        x = x @ x
    return x


def _magnus_substeps(V: PeriodicPotential, ppw: int, k_mid: np.ndarray,
                     a: float, alpha: float, eps: float) -> np.ndarray:
    """Window propagators of substeps of half-length a centred at k_mid.

    On the substep h(K_mid + alpha tau) = H + alpha tau P + (alpha tau)^2/2
    with P = diag(kappa) and H = Q diag(E) Q^H.  The first Magnus term of
    the interaction picture is A = (2 alpha/eps) a^2 (Q^H P Q) o g(w a),
    w_ab = (E_a - E_b)/eps, anti-Hermitian (real for an even V), plus the
    scalar -i alpha^2 a^3/(3 eps); the substep is
    Q e^{-iEa/eps} exp(A) e^{-iEa/eps} Q^H times that scalar's exponential.
    sin and cos of w_ab a come from those of E_a a/eps by the angle-sum
    rules, so only ppw phases per fiber are evaluated.
    """
    h, kappa = _window_fibers(V, ppw, k_mid)
    energies, q = np.linalg.eigh(h)
    qh = np.conj(q).transpose(0, 2, 1) if np.iscomplexobj(q) else \
        q.transpose(0, 2, 1)
    phase = energies * (a / eps)
    c, s = np.cos(phase), np.sin(phase)
    sin = s[:, :, None] * c[:, None, :] - c[:, :, None] * s[:, None, :]
    cos = c[:, :, None] * c[:, None, :] + s[:, :, None] * s[:, None, :]
    exponent = qh @ (kappa[:, :, None] * q)
    exponent *= _magnus_weight(phase[:, :, None] - phase[:, None, :], sin, cos)
    exponent *= 2.0 * alpha * a * a / eps
    rot = (c - 1j * s) * np.exp(-1j * alpha ** 2 * a ** 3 / (6.0 * eps))
    return (q * rot[:, None, :]) @ (_expm(exponent) * rot[:, None, :]) @ qh


def _lattice_table(V: PeriodicPotential, grid: Grid, alpha: float,
                   substeps: int, entries=None) -> np.ndarray:
    """Entries U_k, k = 0..ceil(LK/2)-1, of the window propagator table.

    U_k carries a fiber from K = k dp to (k+1) dp, dp = 2 pi/LK, in
    substeps Magnus substeps (later ones on the left).  The rest follow by
    the mirror U_{LK-1-k} = R U_k^T R (R reverses the window), which holds
    for any real V: R h(K) R = h(2 pi - K)^T.  Only the indices in
    entries are built (None: every one); the others stay zero.  Built
    LATTICE_BLOCK substeps at a time.
    """
    lk, ppw, eps = grid.length * grid.k_inv, grid.ppw, grid.epsilon
    dp = TWO_PI / lk
    a = dp / alpha / (2.0 * substeps)
    frac = (np.arange(substeps) + 0.5) / substeps
    table = np.zeros(((lk + 1) // 2, ppw, ppw), complex)
    if entries is None:
        entries = np.arange(len(table))
    block = max(1, LATTICE_BLOCK // substeps)
    for k0 in range(0, len(entries), block):
        ks = np.asarray(entries[k0:k0 + block])
        sub = _magnus_substeps(V, ppw, ((ks[:, None] + frac) * dp).ravel(),
                               a, alpha, eps)
        sub = sub.reshape(ks.size, substeps, ppw, ppw)
        u = sub[:, 0]
        for i in range(1, substeps):
            u = sub[:, i] @ u
        table[ks] = u
    return table


def _entry(table: np.ndarray, k: int, lk: int) -> np.ndarray:
    """The step from lattice point k to k + 1, rolled at a whole period.

    Past K = 2 pi the window positions roll by one (the plane wave at the
    top of the window becomes the one at its bottom), so the entry that
    reaches a multiple of 2 pi is rolled once.
    """
    i = k % lk
    u = table[i] if i < len(table) else table[lk - 1 - i].T[::-1, ::-1]
    return np.roll(u, 1, axis=0) if i == lk - 1 else u


def _to_window(values: np.ndarray, lk: int, ppw: int) -> np.ndarray:
    """(LK, ppw) lab fibers of grid values.

    Row k, position j holds the grid's plane wave k + LK m, m = j - ppw/2.
    """
    return np.fft.fftshift(np.fft.fft(values)).reshape(ppw, lk).T.copy()


def _from_window(fibers: np.ndarray) -> np.ndarray:
    """Grid values of (LK, ppw) lab fibers; the inverse of _to_window."""
    return np.fft.ifft(np.fft.ifftshift(fibers.T.ravel()))


def _fiber_masses(x0: np.ndarray, grid: Grid) -> np.ndarray:
    """||psi||^2 on each lab fiber of x0 = _to_window(psi) (Parseval)."""
    return np.sum(np.abs(x0) ** 2, axis=1) * grid.dx / grid.n


def _dropped_norm(masses: np.ndarray, lo: int, count: int) -> float:
    """The norm outside the circular interval (lo, count) of fibers.

    Summed over the dropped fibers themselves: total - kept would cancel
    to roundoff and read a dropped norm of 1e-9 as 0.
    """
    lk = masses.size
    return float(np.sqrt(np.sum(masses[(lo + count + np.arange(lk - count))
                                       % lk])))


def kept_fibers(psi0: GridState, budget: float) -> tuple:
    """(lo, count, dropped): the fibers a solve of psi0 keeps.

    The circular interval of lab fibers lo, lo + 1, .., lo + count - 1
    (mod LK) grows from psi0's peak fiber, taking whichever neighbour
    holds more mass, until psi0's norm on the other fibers, dropped, is
    at most budget.  A budget of 0 keeps every fiber that holds any mass.
    In the accelerated frame every fiber evolves alone and unitarily, so
    dropped is the error of the kept solve at every time.
    """
    grid = psi0.grid
    lk = grid.length * grid.k_inv
    masses = _fiber_masses(_to_window(psi0.values, lk, grid.ppw), grid)
    m = masses.tolist()
    left = right = int(np.argmax(masses))
    taken, starts = [m[left]], [left]   # in growth order; lo after each
    for _ in range(lk - 1):
        if m[(left - 1) % lk] > m[(right + 1) % lk]:
            left -= 1
            taken.append(m[left % lk])
        else:
            right += 1
            taken.append(m[right % lk])
        starts.append(left)
    # tail[i]: the mass of the fibers taken after the first i, each summed
    tail = np.append(np.cumsum(taken[::-1])[::-1], 0.0)
    count = max(1, int(np.argmax(tail <= budget ** 2)))
    lo = starts[count - 1] % lk
    return lo, count, _dropped_norm(masses, lo, count)


def _window_pass(table: np.ndarray, grid: Grid, x0: np.ndarray, times,
                 snaps, first_period: int, lo: int, count: int) -> tuple:
    """(lab fibers at each of snaps, guard values at each of times).

    Only the fibers r = lo .. lo + count - 1 (mod LK) of x0 are carried.
    The fiber at lattice point r at step 0 sits at point r + n after n
    steps, and its window is P_{r+n} P_r^H x0[r] with P_lo = 1 and
    P_{k+1} = U_k P_k.  One pass over k from lo keeps the P's of one
    LATTICE_BLOCK of points, and for every time n of times (snaps among
    them) whose fiber k - n is kept, writes P_k y_{k-n}, with
    y_r = P_r^H x0[r], to lab fiber k mod LK; the block reads only the
    times that have a kept fiber in its reach.  Snapshots keep their
    fibers, the dropped ones zero rows; every time keeps only the values
    of psi on the k_inv periods from first_period on (the guard interval),
    summed fiber by fiber as the pass reaches them, so no other state is
    stored.  Returns ({n: (LK, ppw) fibers}, (k_inv, len(times), ppw)
    guard values).
    """
    lk, ppw, n = grid.length * grid.k_inv, grid.ppw, grid.n
    times = np.asarray(times)
    cols = [int(np.searchsorted(times, t)) for t in snaps]
    # psi[a + ppw c] = sum_k e^{2 pi i k c/LK} (read_k fiber_k)[a], with
    # read_k[a, j] = e^{2 pi i (k + LK (j - ppw/2)) a/N}/N
    a = np.arange(ppw)[:, None]
    read = np.exp(TWO_PI * 1j * a * (np.arange(ppw) - ppw // 2) / ppw) / n
    fib = np.arange(lk)[:, None]
    twist = np.exp(TWO_PI * 1j * fib * a.T / n)
    wave = np.exp(TWO_PI * 1j * fib * ((first_period + np.arange(grid.k_inv))
                                       % lk) / lk)
    guard = np.zeros((grid.k_inv, times.size, ppw), complex)
    fibers = {int(t): np.zeros((lk, ppw), complex) for t in snaps}
    y = np.zeros((count + 1, ppw), complex)   # row count: no fiber in reach
    p = np.eye(ppw, dtype=complex)
    end = lo + count + int(times[-1])
    for k0 in range(lo, end, LATTICE_BLOCK):
        ks = np.arange(k0, min(end, k0 + LATTICE_BLOCK))
        block = np.empty((ks.size + 1, ppw, ppw), complex)
        block[0] = p
        for i, k in enumerate(ks):
            np.matmul(_entry(table, k, lk), block[i], out=block[i + 1])
        p, block = block[-1], block[:-1]
        new = ks[ks < lo + count]
        y[new - lo] = np.einsum("kji,kj->ki", np.conj(block[:new.size]),
                                x0[new % lk])
        # the times n with a kept fiber k - n for some k of the block
        t0, t1 = np.searchsorted(times, [ks[0] - lo - count, ks[-1] - lo],
                                 side="right")
        r = ks[:, None] - times[None, t0:t1] - lo
        r = np.where((r >= 0) & (r < count), r, count)
        rows = ks % lk
        state = y[r] @ block.transpose(0, 2, 1)    # (block, time, ppw)
        for t, col in zip(snaps, cols):
            if t0 <= col < t1:
                live = r[:, col - t0] < count
                fibers[int(t)][rows[live]] = state[live, col - t0]
        state @= (twist[rows][:, :, None] * read).transpose(0, 2, 1)
        guard[:, t0:t1] += np.tensordot(wave[rows], state, axes=(0, 0))
    return fibers, guard


def _accelerated(psi0: GridState, V: PeriodicPotential, W, dt: float, steps,
                 check_collar: bool, guard: float, substeps: int,
                 fibers: tuple | None) -> PropagationResult:
    """The solve in the accelerated (Houston) frame, with no time loop.

    psi = e^{-i W(0) t/eps} e^{i alpha t x/eps} phi turns W = W(0) - alpha x
    into a drift of every fiber's quasimomentum, K = 2 pi r/LK + alpha t,
    under the periodic h(K) (Houston 1940; Krieger & Iafrate 1986).  At a
    lattice time n dt, dt = lattice_dt, the factor e^{i alpha t x/eps} is a
    shift of the grid's modes by n, so the lab state is the grid's own
    fibers: each step carries lab fiber k to k + 1 by the table entry U_k
    (_lattice_table, _entry), and _window_pass applies the products of the
    entries.  No W is split, so there is no collar, phase rule or eps/10
    cap; the frame's box is cut at x = 0, where the linear W jumps.

    Every fiber evolves alone and unitarily, so the solve carries only the
    circular interval fibers = (lo, count) of them (None: all LK): the
    fibers left out keep their norm, dropped_norm, and the kept solve
    differs from the full one by exactly that at every time.  Only the
    table entries of the lattice points lo .. lo + count + n_last - 1 that
    the kept fibers pass through are built, and norm_drift is read against
    the kept part's norm.

    The cut's position is arbitrary (a roll of psi0 by whole periods rolls
    every snapshot, up to a global phase), so the guard reads the unit
    interval [guard, guard + 1), snapped to whole periods, that the caller
    places away from the packets.  It is read at every snapshot and every
    stride steps, with stride dt below the time the grid's fastest group
    velocity, pi ppw, takes to cross it.  The dropped fibers put at most
    their norm there, so the guard's mass fraction is bounded by
    (sqrt(kept fraction) + dropped_norm/||psi0||)^2; the peak of that bound
    is collar_mass, and with check_collar it must stay below
    COLLAR_MASS_TOL.
    """
    _check_steps(dt, steps)
    grid = psi0.grid
    eps, lk, ppw = grid.epsilon, grid.length * grid.k_inv, grid.ppw
    alpha = linear_drive(W, grid)
    if alpha is None or not alpha > 0:
        raise ValueError("the accelerated frame needs a linear W with "
                         "alpha > 0")
    if abs(dt - lattice_dt(grid, alpha)) > 1e-12 * dt:
        raise ValueError(f"dt {dt} is not the lattice step "
                         f"{lattice_dt(grid, alpha)}")
    lo, count = (0, lk) if fibers is None else fibers
    if not 1 <= count <= lk:
        raise ValueError(f"{count} kept fibers is not within 1..{lk}")
    stride = max(1, int(1.0 / (np.pi * ppw * dt)))
    times = sorted(set(steps) | set(range(0, steps[-1] + 1, stride)))
    first = int(round(guard / eps)) % lk
    x0 = _to_window(psi0.values, lk, ppw)
    masses = _fiber_masses(x0, grid)
    dropped = _dropped_norm(masses, lo, count)
    # the lattice points the kept fibers pass through, folded by the mirror
    points = (lo + np.arange(count + steps[-1])) % lk
    table = _lattice_table(V, grid, alpha, substeps,
                           np.unique(np.minimum(points, lk - 1 - points)))
    lab, amps = _window_pass(table, grid, x0, times, steps, first, lo, count)
    norm0 = psi0.norm()
    fracs = (np.sqrt(np.sum(np.abs(amps) ** 2, axis=(0, 2)) * grid.dx)
             + dropped) ** 2 / max(norm0 ** 2, 1e-300)
    peak = float(fracs.max())
    if check_collar and peak > COLLAR_MASS_TOL:
        i = int(np.argmax(fracs > COLLAR_MASS_TOL))
        left = first * eps
        raise GridOverflow(f"packet mass fraction up to {fracs[i]:.2e} "
                           f"inside the guard interval [{left:.3f}, "
                           f"{left + 1:.3f}) at t={times[i] * dt:.4f}")
    w0 = float(W.w(0.0))
    snapshots = [GridState(grid, _from_window(lab[n])
                           * np.exp(-1j * w0 * n * dt / eps), t=n * dt)
                 for n in steps]
    kept_norm = float(np.sqrt(np.sum(masses[(lo + np.arange(count)) % lk])))
    return PropagationResult(snapshots, _norm_drift(snapshots, kept_norm),
                             steps[-1], dt, peak, count, dropped)


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
