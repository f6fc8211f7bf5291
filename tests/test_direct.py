"""Direct solver tests: the Bloch-decomposition step and the Strang oracle."""
import sys
import threading

import numpy as np
import pytest

from bandcross import direct
from bandcross.ansatz import (
    Grid,
    GridState,
    assemble_wp0,
)
from bandcross.direct import (
    COLLAR,
    COLLAR_MASS_TOL,
    PPW_CAP,
    BandMassTable,
    _smoothstep,
    band_mass,
    centred_external,
    collocation_error,
    l2_error,
    periodize_external,
    points_per_period,
    propagate,
    propagate_strang,
)
from bandcross.envelope import Envelope, gaussian_envelope
from bandcross.errors import (
    GridMismatch,
    GridOverflow,
    StabilityViolation,
    TruncationTooSmall,
    WindowEmpty,
)
from bandcross.harness import branch_packet
from bandcross.potential import (
    EllipticParams,
    PeriodicPotential,
    cosine_external,
    evaluate_periodic,
    linear_ramp,
    make_cosine,
    make_m_gap,
    potential_from_coeffs,
)

FLAT = potential_from_coeffs({})


def flat_chi(m_cut: int = 8) -> np.ndarray:
    chi = np.zeros(2 * m_cut + 1, dtype=complex)
    chi[m_cut] = 1.0
    return chi


def free_gaussian_state(grid: Grid, q: float, sigma: float = 1.0) -> GridState:
    a0 = gaussian_envelope(sigma=sigma)
    return assemble_wp0(grid, q, 0.0, 0.0, a0, flat_chi())


class TestPeriodizeExternal:
    def test_identity_away_from_collar(self):
        grid = Grid(length=8, epsilon=1.0 / 8, ppw=32)
        W = linear_ramp(2.0, q_ref=4.0)
        w = periodize_external(W, grid, collar=1.0)
        x = grid.x
        inner = x < 7.0
        exact = np.array([W.w(xi) for xi in x[inner]])
        assert np.max(np.abs(w[inner] - exact)) < 1e-14

    def test_periodic_and_spectrally_smooth(self):
        grid = Grid(length=8, epsilon=1.0 / 8, ppw=32)
        W = linear_ramp(2.0, q_ref=4.0)
        w = periodize_external(W, grid, collar=1.0)
        spec = np.abs(np.fft.fft(w))
        n = grid.n
        # smooth periodic function: coefficients decay below roundoff scale
        head = np.max(spec[: n // 64])
        tail = np.max(spec[n // 4: n // 2])
        assert tail < 1e-12 * head

    def test_matches_pointwise_evaluation(self):
        grid = Grid(length=8, epsilon=1.0 / 8, ppw=32)
        x = grid.x
        sel = x >= grid.length - 1.0
        s = x[sel] - (grid.length - 1.0)
        for W in (linear_ramp(2.0, q_ref=4.0), cosine_external(0.5, 0.7)):
            exact = np.array([float(W.w(xi)) for xi in x])
            shift = np.array([float(W.w(xi - grid.length)) for xi in x[sel]])
            exact[sel] += _smoothstep(s) * (shift - exact[sel])
            np.testing.assert_allclose(periodize_external(W, grid, 1.0),
                                       exact, rtol=1e-15, atol=1e-15)

    def test_none_is_zero(self):
        grid = Grid(length=4, epsilon=1.0 / 8, ppw=32)
        assert np.all(periodize_external(None, grid) == 0.0)

    def test_bad_collar(self):
        grid = Grid(length=4, epsilon=1.0 / 8, ppw=32)
        with pytest.raises(ValueError):
            periodize_external(linear_ramp(1.0), grid, collar=3.0)


def bloch_eigenstate(grid: Grid, V, r: int):
    """Commensurate Bloch eigenstate of band 1 in fiber r, and its energy."""
    from bandcross.ansatz import evaluate_bloch_mode
    from bloch_oracle import eigensolve
    lk = grid.length * grid.k_inv
    p_r = 2 * np.pi * r / lk
    energies, vecs = eigensolve(V, p_r, 1, m_cut=12)
    z = grid.x / grid.epsilon
    chi = evaluate_bloch_mode(vecs[0], z)
    return (GridState(grid, np.exp(1j * p_r * z) * chi / np.sqrt(grid.length)),
            energies[0])


def bloch_packet(grid: Grid) -> GridState:
    from bloch_oracle import eigensolve
    _, vecs = eigensolve(make_cosine(4.0), 0.7, 1, m_cut=12)
    return assemble_wp0(grid, 4.0, 0.7, 0.0, gaussian_envelope(sigma=1.0),
                        vecs[0])


class SolverContract:
    """Properties both direct solvers share; a subclass sets ``solve``."""

    solve = None

    def test_free_gaussian_closed_form(self):
        eps = 1.0 / 16
        grid = Grid(length=8, epsilon=eps, ppw=32)
        state = free_gaussian_state(grid, q=4.0)
        res = self.solve(state, FLAT, None, 1e-3, [500])
        t = 0.5
        x = grid.x
        y = (x - 4.0) / np.sqrt(eps)
        exact = (eps ** (-0.25) * np.pi ** (-0.25) / np.sqrt(1 + 1j * t)
                 * np.exp(-y ** 2 / (2 * (1 + 1j * t))))
        err = np.sqrt(np.sum(np.abs(res.snapshots[-1].values - exact) ** 2)
                      * grid.dx)
        assert err < 1e-8

    def test_norm_conserved(self):
        eps = 1.0 / 8
        # at this coarse eps the packet develops physical dispersive tails
        # within a few units of the center, so give it a roomy domain and a
        # dt well below the planner's (whose splitting error radiates a
        # ~1e-4 tail of its own); the scheme must then stay unitary to
        # roundoff
        grid = Grid(length=16, epsilon=eps, ppw=32)
        from bloch_oracle import eigensolve
        V = make_cosine(4.0)
        _, vecs = eigensolve(V, 0.7, 1, m_cut=12)
        a0 = gaussian_envelope(sigma=1.0)
        state = assemble_wp0(grid, 8.0, 0.7, 0.0, a0, vecs[0])
        W = cosine_external(0.5, 0.7)
        res = self.solve(state, V, W, 1.25e-4, [1000, 2000, 3000, 4000])
        assert res.norm_drift_rate < 1e-10

    def test_second_order_in_dt(self):
        grid = Grid(length=8, epsilon=1.0 / 8, ppw=32)
        state = bloch_packet(grid)
        V = make_cosine(4.0)
        W = cosine_external(0.5, 0.7)
        T = 0.2

        def final(n):
            return self.solve(state, V, W, T / n, [n]).snapshots[-1].values

        ref = final(6400)
        e1 = np.linalg.norm(final(400) - ref)
        e2 = np.linalg.norm(final(800) - ref)
        assert e1 / e2 > 3.7

    def test_spatial_resolution_converged(self):
        eps = 1.0 / 8
        V = make_cosine(4.0)
        W = cosine_external(0.5, 0.7)
        finals = []
        for ppw in (32, 64):
            state = bloch_packet(Grid(length=8, epsilon=eps, ppw=ppw))
            finals.append(self.solve(state, V, W, 1e-3, [200]).snapshots[-1])
        coarse = finals[0].values
        fine_on_coarse = finals[1].values[::2]
        err = np.sqrt(np.sum(np.abs(coarse - fine_on_coarse) ** 2)
                      * finals[0].grid.dx)
        assert err < 1e-8

    def test_collar_guard_trips(self):
        eps = 1.0 / 4
        grid = Grid(length=8, epsilon=eps, ppw=32)
        a0 = gaussian_envelope(sigma=1.0)
        state = assemble_wp0(grid, 5.0, 1.0, 0.0, a0, flat_chi())
        with pytest.raises(GridOverflow):
            self.solve(state, FLAT, None, 1e-3, list(range(100, 1501, 100)))

    @staticmethod
    def collar_crossing_packet() -> GridState:
        # a narrow packet at q = 5 moving at speed 4: it fills the collar
        # [7, 8) around t = 0.6 and has left it by t = 1.3, while its collar
        # fraction reads below 1e-13 at t = 0.1 and at t = 1.3
        eps = 1.0 / 16
        grid = Grid(length=8, epsilon=eps, ppw=16)
        return assemble_wp0(grid, 5.0, 4.0, 0.0,
                            gaussian_envelope(sigma=1.0), flat_chi())

    def test_collar_guard_reads_between_snapshots(self):
        state = self.collar_crossing_packet()
        with pytest.raises(GridOverflow):
            self.solve(state, FLAT, None, 1e-2, [10, 130])

    def test_collar_mass_peak_recorded(self):
        # the recorded peak is the largest collar fraction over every step,
        # not only over the snapshots: a run with a snapshot after each step
        # shows the same peak
        state = self.collar_crossing_packet()
        grid = state.grid
        sparse = self.solve(state, FLAT, None, 1e-2, [10, 130],
                            check_collar=False)
        dense = self.solve(state, FLAT, None, 1e-2, list(range(1, 131)),
                           check_collar=False)
        collar = grid.x >= grid.length - COLLAR

        def fracs(res):
            return [np.sum(np.abs(s.values[collar]) ** 2)
                    / np.sum(np.abs(s.values) ** 2) for s in res.snapshots]

        assert max(fracs(sparse)) < 1e-13
        assert 0 < np.argmax(fracs(dense)) < 129
        assert sparse.collar_mass == pytest.approx(max(fracs(dense)),
                                                   rel=1e-12)
        assert dense.collar_mass == pytest.approx(sparse.collar_mass,
                                                  rel=1e-12)
        assert sparse.collar_mass > COLLAR_MASS_TOL

    @pytest.mark.parametrize("dt, steps", [
        (1e-3, []), (1e-3, [20, 20]), (1e-3, [30, 10]), (1e-3, [-5, 10]),
        (1e-3, [0]), (0.0, [10]), (-1e-3, [10]),
    ], ids=["empty", "not_increasing", "decreasing", "negative_count",
            "ends_before_a_step", "zero_dt", "negative_dt"])
    def test_step_list_validation(self, dt, steps):
        grid = Grid(length=4, epsilon=1.0 / 8, ppw=16)
        state = free_gaussian_state(grid, q=2.0)
        with pytest.raises(ValueError):
            self.solve(state, FLAT, None, dt, steps)

    def test_snapshot_times_are_whole_steps(self):
        # the snapshot after n steps sits at t = n dt exactly, a t = 0
        # snapshot included, and n_steps is the last count
        grid = Grid(length=4, epsilon=1.0 / 8, ppw=16)
        state = free_gaussian_state(grid, q=2.0)
        dt, steps = 0.2 / 3, [0, 1, 4, 7, 9]
        res = self.solve(state, FLAT, None, dt, steps, check_collar=False)
        assert [s.t for s in res.snapshots] == [n * dt for n in steps]
        assert (res.n_steps, res.dt) == (9, dt)
        assert np.array_equal(res.snapshots[0].values, state.values)


class TestPropagate(SolverContract):
    """The production Bloch-decomposition solver."""

    solve = staticmethod(propagate)

    def test_bloch_eigenstate_phase_rate(self):
        # with W = 0 the fiber propagator is exact: a commensurate Bloch
        # eigenstate picks up exactly e^{-i E t/eps} in one step of any size
        grid = Grid(length=4, epsilon=1.0 / 8, ppw=32)
        V = make_cosine(4.0)
        psi0, energy = bloch_eigenstate(grid, V, r=5)
        for dt in (0.3, 1.7):
            res = propagate(psi0, V, None, dt, [1], check_collar=False)
            assert res.n_steps == 1
            exact = np.exp(-1j * energy * dt / grid.epsilon) * psi0.values
            assert np.max(np.abs(res.snapshots[-1].values - exact)) < 1e-12

    def test_agrees_with_strang_oracle(self):
        # both solvers discretize the same semi-discrete system, so BD meets
        # the dt-extrapolated Strang answer to within its own time error
        grid = Grid(length=8, epsilon=1.0 / 8, ppw=32)
        state = bloch_packet(grid)
        V = make_cosine(4.0)
        W = cosine_external(0.5, 0.7)
        T = 0.2

        def final(solve, n):
            return solve(state, V, W, T / n, [n]).snapshots[-1].values

        oracle = (4 * final(propagate_strang, 6400)
                  - final(propagate_strang, 3200)) / 3
        err = np.sqrt(np.sum(np.abs(final(propagate, 800) - oracle) ** 2)
                      * grid.dx)
        assert err < 2e-8

    def test_stability_violation(self):
        # only the split-off W is guarded: a step that Strang refuses for
        # V's phase runs, and a steep W trips the guard
        eps = 1.0 / 8
        grid = Grid(length=8, epsilon=eps, ppw=32)
        state = free_gaussian_state(grid, q=4.0)
        V = make_cosine(4.0)
        propagate(state, V, None, 0.1, [1], check_collar=False)
        with pytest.raises(StabilityViolation):
            propagate(state, V, linear_ramp(40.0, q_ref=4.0), 1e-2, [50])

    def test_constant_shift_of_w_is_a_global_phase(self):
        # W + 200 (the ramp with q_ref moved by 400) changes the solution by
        # e^{-i 200 t/eps} alone: the steps split off the centred W, whose
        # phase per half step is 0.007 rad, not the 0.81 rad the shifted
        # max|W| would give, and each snapshot carries the phase of its own
        # gauge, so at equal dt the two runs agree to roundoff
        eps = 1.0 / 8
        grid = Grid(length=8, epsilon=eps, ppw=32)
        state = bloch_packet(grid)
        V = make_cosine(4.0)
        base, shifted = (propagate(state, V, linear_ramp(0.5, q_ref=q), 1e-3,
                                   [100, 200])
                         for q in (4.0, 404.0))
        assert [s.t for s in shifted.snapshots] == [0.1, 0.2]
        for a, b in zip(base.snapshots, shifted.snapshots):
            expected = np.exp(-1j * 200.0 * a.t / eps) * a.values
            scale = np.max(np.abs(a.values))
            assert np.max(np.abs(b.values - expected)) <= 1e-12 * scale


class TestFiberBasis:
    def test_concurrent_first_use_builds_once(self, monkeypatch):
        # more threads than cores ask for one uncached basis at once under a
        # short switch interval: one batched eigh runs, on the fibers
        # r = 0..LK//2 that the others mirror, and every thread gets the
        # same arrays
        monkeypatch.setattr(direct, "_FIBER_CACHE", {})
        calls = []
        real = np.linalg.eigh

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        grid = Grid(length=8, epsilon=1.0 / 16, ppw=16)
        V = make_cosine(4.0)
        n_threads = 6
        barrier = threading.Barrier(n_threads)
        results = []

        def first_use():
            barrier.wait(timeout=10)
            results.append(direct._fiber_basis(V, grid))

        threads = [threading.Thread(target=first_use)
                   for _ in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert calls == [(8 * 16 // 2 + 1, 16, 16)]
        assert len(results) == n_threads
        assert all(r is results[0] for r in results)

    @pytest.mark.parametrize("V", [make_cosine(4.0),
                                   potential_from_coeffs({1: 1.0, 2: -0.5j})],
                             ids=["even", "odd"])
    @pytest.mark.parametrize("length, k_inv", [(8, 16), (7, 17)],
                             ids=["even-LK", "odd-LK"])
    def test_mirrored_fibers_match_a_full_eigh(self, V, length, k_inv,
                                               monkeypatch):
        # fibers LK-r take conj(q[r]) instead of an eigh of their own; the
        # eigh of every fiber, as the basis was built before, is the
        # reference
        monkeypatch.setattr(direct, "_FIBER_CACHE", {})
        grid = Grid(length=length, epsilon=1.0 / k_inv, ppw=16)
        lk, ppw = length * k_inv, grid.ppw
        energies, q = direct._fiber_basis(V, grid)
        r = np.arange(1, (lk + 1) // 2)
        assert np.array_equal(q[lk - r], np.conj(q[r]))
        stack = direct._collocation(V, ppw, direct.TWO_PI * np.arange(lk) / lk)
        expected = np.linalg.eigvalsh(stack)
        assert np.all(np.abs(energies - expected)
                      <= 1e-12 * np.maximum(1.0, np.abs(expected)))
        gram = np.matmul(np.conj(q.transpose(0, 2, 1)), q)
        assert np.max(np.abs(gram - np.eye(ppw))) <= 1e-13
        full, vecs = np.linalg.eigh(stack)
        twist = np.exp(direct.TWO_PI * 1j * np.arange(lk)[:, None, None]
                       * np.arange(ppw)[None, :, None] / grid.n)
        q_full = np.fft.ifft(vecs, axis=1) * np.sqrt(ppw) * twist
        dt = 0.013
        ref = np.matmul(q_full * np.exp(-1j * dt * full / grid.epsilon)
                        [:, None, :], np.conj(q_full.transpose(0, 2, 1)))
        assert np.max(np.abs(direct._fiber_propagators(V, grid, dt) - ref)) \
            <= 1e-13

    @pytest.mark.parametrize("V", [make_cosine(4.0),
                                   potential_from_coeffs({1: 1.0, 2: -0.5j})],
                             ids=["even", "odd"])
    def test_products_agree_with_the_conjugated_copy_formulas(self, V):
        # the propagators and band_mass take q^H from conj(q) products; the
        # formulas with an explicit conjugated copy of q are the reference
        grid = Grid(length=6, epsilon=1.0 / 16, ppw=16)
        energies, q = direct._fiber_basis(V, grid)
        lk = grid.length * grid.k_inv
        q_h = np.conj(q.transpose(0, 2, 1))
        dt = 0.013
        ref = np.matmul(q * np.exp(-1j * dt * energies / grid.epsilon)
                        [:, None, :], q_h)
        assert np.max(np.abs(direct._fiber_propagators(V, grid, dt) - ref)) \
            < 1e-14
        rng = np.random.default_rng(3)
        state = GridState(grid, rng.standard_normal(grid.n)
                          + 1j * rng.standard_normal(grid.n))
        phi = np.fft.fft(state.values.reshape(lk, grid.ppw), axis=0)
        amps = np.matmul(q_h, phi[:, :, None])[:, :, 0]
        per_band = np.sum(np.abs(amps) ** 2, axis=0) * grid.dx / lk
        tab = band_mass(state, V, n_bands=4)
        masses = np.array([tab.band(n) for n in range(1, 5)] + [tab.rest])
        expected = np.append(per_band[:4], per_band[4:].sum())
        assert np.max(np.abs(masses - expected)) < 1e-14 * tab.total


class TestCentredExternal:
    def test_midpoint_removed(self):
        grid = Grid(length=8, epsilon=1.0 / 8, ppw=32)
        W = linear_ramp(0.5, q_ref=4.0)
        w, c = centred_external(W, grid)
        full = periodize_external(W, grid)
        assert c == pytest.approx(0.5 * (full.max() + full.min()), rel=1e-15)
        np.testing.assert_allclose(w, full - c, rtol=0, atol=1e-15)
        assert w.max() == pytest.approx(-w.min(), rel=1e-12)


class TestPropagateStrang(SolverContract):
    """The plain Strang step, kept as the test oracle."""

    solve = staticmethod(propagate_strang)

    def test_bloch_eigenstate_phase_rate(self):
        # on the torus a commensurate Bloch eigenstate evolves by a pure
        # phase at rate E_n(p)/eps
        eps = 1.0 / 8
        grid = Grid(length=4, epsilon=eps, ppw=32)
        V = make_cosine(4.0)
        psi0, exact = bloch_eigenstate(grid, V, r=5)
        inner0 = np.sum(np.conj(psi0.values) * psi0.values) * grid.dx

        def rate(n):
            # n steps between snapshots 0.01 apart
            res = propagate_strang(psi0, V, None, 0.1 / (10 * n),
                                   [n * k for k in range(1, 11)],
                                   check_collar=False)
            phases = [np.angle(np.sum(np.conj(psi0.values) * s.values)
                               * grid.dx / inner0) for s in res.snapshots]
            theta = np.unwrap(phases)
            ts = np.array([s.t for s in res.snapshots])
            return -np.polyfit(ts, theta, 1)[0] * eps

        # the splitting shifts the eigenphase rate by O(dt^2); the shift must
        # shrink accordingly and the dt-extrapolated rate must match E_n(p)
        e1, e2 = rate(100), rate(200)
        assert abs(e2 - exact) < abs(e1 - exact) / 3.5
        e_extr = (4 * e2 - e1) / 3
        assert abs(e_extr - exact) < 1e-6 * abs(exact)

    def test_stability_violation(self):
        eps = 1.0 / 8
        grid = Grid(length=8, epsilon=eps, ppw=32)
        state = free_gaussian_state(grid, q=4.0)
        V = make_cosine(4.0)
        with pytest.raises(StabilityViolation):
            propagate_strang(state, V, None, 0.1, [5])


class TestL2Error:
    def test_identical_is_zero(self):
        grid = Grid(length=4, epsilon=1.0 / 8, ppw=32)
        state = free_gaussian_state(grid, q=2.0)
        rep = l2_error(state, state)
        assert rep.plain == 0.0
        assert rep.phase_optimized < 1e-12

    def test_zero_ansatz_gives_norm(self):
        grid = Grid(length=4, epsilon=1.0 / 8, ppw=32)
        state = free_gaussian_state(grid, q=2.0)
        zero = GridState(grid, np.zeros(grid.n, dtype=complex))
        rep = l2_error(state, zero)
        assert abs(rep.plain - state.norm()) < 1e-12
        assert abs(rep.phase_optimized - state.norm()) < 1e-12

    def test_global_phase_removed(self):
        grid = Grid(length=4, epsilon=1.0 / 8, ppw=32)
        state = free_gaussian_state(grid, q=2.0)
        rotated = GridState(grid, np.exp(0.7j) * state.values)
        rep = l2_error(state, rotated)
        assert rep.plain > 0.1
        assert rep.phase_optimized < 1e-12

    def test_grid_mismatch(self):
        g1 = Grid(length=4, epsilon=1.0 / 8, ppw=32)
        g2 = Grid(length=4, epsilon=1.0 / 16, ppw=32)
        s1 = free_gaussian_state(g1, q=2.0)
        s2 = free_gaussian_state(g2, q=2.0)
        with pytest.raises(GridMismatch):
            l2_error(s1, s2)


@pytest.fixture(scope="module")
def crossing_setup():
    from bandcross.bloch import smooth_continuation
    from bandcross.classical import extend_through_crossing, integrate_flow
    from bandcross.potential import EllipticParams, make_m_gap

    V = make_m_gap(EllipticParams(1, 0.8), m_max=16)
    pair = smooth_continuation(V, 2, 0.0, halfwidth=0.5, n_samples=201,
                               m_cut=32)
    W = linear_ramp(-2.0)
    def rk4(band, W, q0, p0, t_span, s0):
        return integrate_flow(band, W, q0, p0, t_span, 1e-3, s0=s0)

    ext = extend_through_crossing(pair, W, q0=4.0, p0=0.4, s0=0.0, T=0.35,
                                  flow=rk4)
    return V, pair, W, ext


def two_branch_state(ext, grid, t, a0_plus, a0_minus) -> GridState:
    """Continued-branch WP1 (a1 = 0) plus sqrt(eps) excited-branch WP0."""
    a1 = Envelope(a0_plus.y, np.zeros_like(a0_plus.values))
    plus = branch_packet(ext.plus, grid, t, a0_plus, a1)
    minus = branch_packet(ext.minus, grid, t, a0_minus)
    return GridState(grid, plus.values + np.sqrt(grid.epsilon) * minus.values,
                     t=t)


class TestBandMass:
    def test_zero_state(self):
        grid = Grid(length=4, epsilon=1.0 / 8, ppw=32)
        zero = GridState(grid, np.zeros(grid.n, dtype=complex))
        tab = band_mass(zero, make_cosine(4.0), n_bands=3)
        assert tab.total == 0.0
        assert all(v == 0.0 for v in tab.masses.values())

    def test_single_band_packet_concentrates(self):
        from bloch_oracle import eigensolve
        V = make_cosine(4.0)
        _, vecs = eigensolve(V, 0.7, 1, m_cut=12)
        a0 = gaussian_envelope(sigma=1.0)
        for eps, floor in ((1.0 / 16, 0.999), (1.0 / 64, 0.9997)):
            grid = Grid(length=8, epsilon=eps, ppw=32)
            state = assemble_wp0(grid, 4.0, 0.7, 0.0, a0, vecs[0])
            tab = band_mass(state, V, n_bands=3)
            assert tab.masses[1] > floor
            assert abs(sum(tab.masses.values()) + tab.rest - tab.total) < 1e-12

    def test_two_band_masses_match_packet_norms(self, crossing_setup):
        # the momentum-gradient corrector of the upper packet deposits O(eps)
        # mass in the neighboring band by design, so compare the two-band
        # state against the upper-packet-only state: the difference isolates
        # the lower packet's mass up to the O(eps * <k^2> * |dp chi|^2) band
        # impurity of any finite-width packet
        V, pair, W, ext = crossing_setup
        eps = 1.0 / 64
        grid = Grid(length=8, epsilon=eps, ppw=32)
        a0p = gaussian_envelope(sigma=1.0)
        a0m_raw = gaussian_envelope(sigma=0.8)
        a0m = Envelope(a0m_raw.y, 0.7 * a0m_raw.values)
        zero = Envelope(a0m_raw.y, np.zeros_like(a0m_raw.values))
        t = 0.33
        both = band_mass(two_branch_state(ext, grid, t, a0p, a0m), V,
                         n_bands=4)
        only = band_mass(two_branch_state(ext, grid, t, a0p, zero), V,
                         n_bands=4)
        pm = ext.minus.state_at(t)[1]
        # identify the band indices of each branch at the current momenta
        from scipy.interpolate import CubicSpline
        e_minus = float(CubicSpline(pair.minus.p_samples,
                                    pair.minus.energies)(pm))
        from bloch_oracle import eigensolve
        evals, _ = eigensolve(V, np.mod(pm, 2 * np.pi), 4, m_cut=32)
        n_minus = int(np.argmin(np.abs(evals - e_minus))) + 1
        pp = ext.plus.state_at(t)[1]
        e_plus = float(CubicSpline(pair.plus.p_samples,
                                   pair.plus.energies)(pp))
        evals_p, _ = eigensolve(V, np.mod(pp, 2 * np.pi), 4, m_cut=32)
        n_plus = int(np.argmin(np.abs(evals_p - e_plus))) + 1
        assert n_plus != n_minus
        delta_minus = both.masses[n_minus] - only.masses[n_minus]
        assert abs(delta_minus - eps * a0m.norm() ** 2) < 2e-4
        assert abs(both.masses[n_plus] - only.masses[n_plus]) < 2e-4
        assert abs(only.masses[n_plus] - 1.0) < 3e-3

    def test_windowed_mass_isolates_packet(self, crossing_setup):
        V, pair, W, ext = crossing_setup
        eps = 1.0 / 64
        grid = Grid(length=8, epsilon=eps, ppw=32)
        a0p = gaussian_envelope(sigma=1.0)
        a0m_raw = gaussian_envelope(sigma=0.8)
        a0m = Envelope(a0m_raw.y, 0.7 * a0m_raw.values)
        t = 0.33
        state = two_branch_state(ext, grid, t, a0p, a0m)
        qp = ext.plus.state_at(t)[0]
        qm = ext.minus.state_at(t)[0]
        mid = 0.5 * (qp + qm)
        if qm < qp:
            window = (max(0.5, qm - 2.0), mid)
        else:
            window = (mid, min(7.5, qm + 2.0))
        tab = band_mass(state, V, n_bands=4, window=window)
        assert abs(tab.total - eps * a0m.norm() ** 2) < 2e-4
        assert abs(sum(tab.masses.values()) + tab.rest - tab.total) < 1e-10

    def test_masses_and_rest_sum_to_total(self, crossing_setup):
        # the fiber eigenbasis is unitary, so Parseval holds on the grid
        # whatever the number of bands reported
        V, pair, W, ext = crossing_setup
        grid = Grid(length=8, epsilon=1.0 / 64, ppw=24)
        a0 = gaussian_envelope(sigma=1.0)
        state = two_branch_state(ext, grid, 0.33, a0, a0)
        for n_bands in (1, 2, 4):
            tab = band_mass(state, V, n_bands=n_bands)
            assert len(tab.masses) == n_bands
            assert sum(tab.masses.values()) + tab.rest == pytest.approx(
                tab.total, rel=1e-12, abs=0.0)

    def test_two_branch_masses_agree_across_ppw(self, crossing_setup):
        # the same continuum state sampled at 24 and 32 points per period
        # must split into the same band masses; a projection onto a basis
        # other than the grid operator's own (truncated potential, continuum
        # Fourier modes) read band 3 7% apart on the two grids
        V, pair, W, ext = crossing_setup
        a0p = gaussian_envelope(sigma=1.0)
        a0m_raw = gaussian_envelope(sigma=0.8)
        a0m = Envelope(a0m_raw.y, 0.7 * a0m_raw.values)
        tabs = [band_mass(two_branch_state(ext,
                                           Grid(length=8, epsilon=1.0 / 64,
                                                ppw=ppw),
                                           0.33, a0p, a0m), V, n_bands=4)
                for ppw in (24, 32)]
        for n in (2, 3):
            assert tabs[0].masses[n] == pytest.approx(tabs[1].masses[n],
                                                      rel=1e-3)

    def test_degenerate_fiber_split_does_not_depend_on_eigh(self,
                                                             crossing_setup):
        # bands 2 and 3 touch at p = 0, so fiber r = 0 is degenerate to
        # round-off and eigh may return any basis of that pair: with the
        # split left to that basis, a one-ulp move of V moved band 2 by
        # 9e-7 at ppw 24.  The pair's mass is split equally, so the masses
        # agree across ppw and do not move with V's last bit.
        V, pair, W, ext = crossing_setup
        c = V.coeffs.copy()
        c[V.m_max + 1] = c[V.m_max - 1] = np.nextafter(c[V.m_max + 1].real,
                                                       np.inf)
        moved = PeriodicPotential(c)
        assert not np.array_equal(moved.coeffs, V.coeffs)
        a0p = gaussian_envelope(sigma=1.0)
        a0m_raw = gaussian_envelope(sigma=0.8)
        a0m = Envelope(a0m_raw.y, 0.7 * a0m_raw.values)
        tabs = []
        for ppw in (24, 32):
            state = two_branch_state(
                ext, Grid(length=8, epsilon=1.0 / 64, ppw=ppw), 0.33, a0p, a0m)
            tabs += [band_mass(state, U, n_bands=4) for U in (V, moved)]
        for n in (2, 3):
            for tab in tabs[1:]:
                assert tab.masses[n] == pytest.approx(tabs[0].masses[n],
                                                      rel=1e-12, abs=0.0)

    def test_window_empty(self):
        grid = Grid(length=4, epsilon=1.0 / 8, ppw=32)
        state = free_gaussian_state(grid, q=2.0)
        with pytest.raises(WindowEmpty):
            band_mass(state, FLAT, window=(3.0, 2.0))
        # a valid window far from the packet carries (almost) no mass
        tab = band_mass(state, FLAT, window=(3.8, 3.9))
        assert tab.total < 1e-10


def fft_collocation(V, ppw, p):
    """Reference fibers: the aliased coefficients as the FFT of V's samples."""
    vhat = np.fft.fft(evaluate_periodic(V, np.arange(ppw) / ppw)) / ppw
    m = np.arange(ppw)
    m_s = np.where(m[None, :] + p[:, None] / (2 * np.pi) < ppw / 2, m, m - ppw)
    h = np.broadcast_to(vhat[(m[:, None] - m[None, :]) % ppw],
                        (p.size, ppw, ppw)).copy()
    h[:, m, m] += (p[:, None] + 2 * np.pi * m_s) ** 2 / 2.0
    return h


class TestPointsPerPeriod:
    @pytest.mark.parametrize("ppw", [16, 20])
    @pytest.mark.parametrize("V", [
        make_m_gap(EllipticParams(1, 0.3), m_max=15),
        potential_from_coeffs({1: 1.0, 2: -0.5j, 9: 0.2 + 0.1j})])
    def test_collocation_aliases_the_coefficients(self, V, ppw):
        # harmonics beyond ppw/2 fold onto lower ones exactly as the samples'
        # FFT folds them; an even V gives real fibers
        p = 2 * np.pi * np.arange(8) / 8
        h = direct._collocation(V, ppw, p)
        assert h.dtype == (np.float64 if V.even else np.complex128)
        ref = fft_collocation(V, ppw, p)
        assert np.max(np.abs(h - ref)) < 1e-12 * np.max(np.abs(ref))

    def test_free_and_cosine_give_the_grid_floor(self):
        # plane waves are exact at any ppw, and a single harmonic leaves the
        # lowest bands converged to round-off at the floor
        assert points_per_period(FLAT, 3, 1e-10) == 16
        assert points_per_period(make_cosine(4.0), 3, 1e-10) == 16

    def test_ladder_starts_at_the_band_count(self):
        # a grid of ppw points per period holds ppw bands, so 18 bands start
        # the ladder at 18, not at PPW_MIN; 18 and 20 miss the tolerance
        V = make_cosine(4.0)
        assert points_per_period(V, 18, 1e-6) == 22
        assert min(collocation_error(V, n, 18) for n in (18, 20)) > 1e-6

    def test_alias_of_a_low_harmonic_is_not_converged(self):
        # m = 30 aliases to m = -2 at both 16 and 32 points; the reference
        # resolves it, so only a grid that holds it passes
        V = potential_from_coeffs({30: 1.0})
        assert collocation_error(V, 16, 3) > 0.1
        assert points_per_period(V, 3, 1e-9) == PPW_CAP

    def test_harmonic_near_the_cap_raises(self):
        V = potential_from_coeffs({31: 1.0})
        with pytest.raises(TruncationTooSmall, match="tolerance 1.000e-09"):
            points_per_period(V, 3, 1e-9)


# -- the accelerated frame ----------------------------------------------------


def frame_problem(V=None, substeps=2, alpha=1.0, k_inv=8):
    """A Bloch packet at q = 2 under a ramp on a 4-unit grid, ppw 16."""
    from bloch_oracle import eigensolve
    V = make_cosine(4.0) if V is None else V
    grid = Grid(length=4, epsilon=1.0 / k_inv, ppw=16)
    _, vecs = eigensolve(V, 0.7, 1, m_cut=12)
    psi0 = assemble_wp0(grid, 2.0, 0.7, 0.0, gaussian_envelope(sigma=1.0),
                        vecs[0])
    W = linear_ramp(alpha, q_ref=1.0)
    lk = grid.length * grid.k_inv
    table = direct._lattice_table(V, grid, alpha, substeps, np.arange(lk))
    return psi0, V, W, direct.lattice_dt(grid, alpha), table


def substep_midpoints(k, substeps, lk):
    """The K_mid of the substeps of table entry k, in K order."""
    return (k + (np.arange(substeps) + 0.5) / substeps) * 2 * np.pi / lk


class TestAcceleratedFrame:
    """propagate with a guard: the kept-fiber loop of a linear drive."""

    @pytest.mark.parametrize("V", [make_cosine(4.0),
                                   potential_from_coeffs({1: 1.0, 2: -0.5j})],
                             ids=["even", "odd"])
    def test_kept_fiber_loop_equals_an_every_fiber_loop(self, V):
        # the solve steps its kept fibers (here all of them, from lo = 0) by
        # slices of a table that runs on past LK; a loop that steps every
        # lab fiber k to k + 1 by entry k of the zone's table, 70 steps
        # through two rolls at K = 2 pi, is the reference
        psi0, V, W, dt, table = frame_problem(V)
        grid = psi0.grid
        lk = grid.length * grid.k_inv
        steps = [0, 3, 17, 40, 70]
        res = propagate(psi0, V, W, dt, steps, check_collar=False, guard=0.0,
                        substeps=2)
        fibers = direct._to_window(psi0.values, lk, grid.ppw)
        for n in range(steps[-1] + 1):
            if n in steps:
                snap = res.snapshots[steps.index(n)]
                loop = (direct._from_window(fibers)
                        * np.exp(-1j * W.w(0.0) * n * dt / grid.epsilon))
                assert np.max(np.abs(snap.values - loop)) < 1e-12
            fibers = np.stack([table[k] @ fibers[k] for k in range(lk)])
            fibers = np.roll(fibers, 1, axis=0)

    @pytest.mark.parametrize("V", [make_cosine(4.0),
                                   potential_from_coeffs({1: 1.0, 2: -0.5j})],
                             ids=["even", "odd"])
    @pytest.mark.parametrize("k_inv", [8, 9], ids=["even-LK", "odd-LK"])
    def test_mirrored_and_rolled_entries(self, V, k_inv):
        # entries past LK/2 come from the mirror R U^T R; built directly from
        # their own substeps they agree to the rounding of the window's top
        # plane waves, whose phases E a/eps reach about 80 rad here.  The
        # entry that reaches K = 2 pi is returned rolled: applied to lab
        # fiber LK - 1 it equals the unrolled entry followed by the shift of
        # the grid's modes by one
        substeps, alpha = 3, 4.0
        psi0, V, W, dt, table = frame_problem(V, substeps, alpha, k_inv)
        grid = psi0.grid
        lk, ppw, eps = grid.length * grid.k_inv, grid.ppw, grid.epsilon
        a = dt / (2 * substeps)
        assert len(table) == lk
        for k in range(lk):
            sub = direct._magnus_substeps(
                V, ppw, substep_midpoints(k, substeps, lk), a, alpha, eps)
            direct_entry = sub[2] @ sub[1] @ sub[0]
            entry = table[k]
            if k == lk - 1:
                entry = np.roll(entry, -1, axis=0)
            assert np.max(np.abs(entry - direct_entry)) < 1e-12
        rng = np.random.default_rng(5)
        fibers = np.zeros((lk, ppw), complex)
        fibers[lk - 1] = (rng.standard_normal(ppw)
                          + 1j * rng.standard_normal(ppw))
        top = np.roll(table[lk - 1], -1, axis=0)
        stepped = fibers.copy()
        stepped[lk - 1] = top @ fibers[lk - 1]
        shifted = np.roll(np.fft.fft(direct._from_window(stepped)), 1)
        expected = direct._to_window(np.fft.ifft(shifted), lk, ppw)
        assert np.max(np.abs(expected[1:])) < 1e-13
        rolled = table[lk - 1] @ fibers[lk - 1]
        assert np.max(np.abs(rolled - expected[0])) < 1e-13

    def test_free_particle_is_exact(self):
        # V = 0: every fiber matrix is diagonal, the Magnus exponent vanishes
        # and the entries are the exact plane-wave phases; psi is the
        # Avron-Herbst solution e^{-i W(0) t/eps} e^{i alpha t x/eps}
        # e^{-i alpha^2 t^3/(6 eps)} psi_free(x - alpha t^2/2, t)
        eps, alpha, q0 = 1.0 / 16, 2.0, 3.0
        grid = Grid(length=8, epsilon=eps, ppw=32)
        x = grid.x
        W = linear_ramp(alpha, q_ref=1.5)

        def exact(t):
            y = (x - alpha * t * t / 2 - q0) / np.sqrt(eps)
            free = (eps ** -0.25 * np.pi ** -0.25 / np.sqrt(1 + 1j * t)
                    * np.exp(-y ** 2 / (2 * (1 + 1j * t))))
            return (np.exp(-1j * (W.w(0.0) * t - alpha * t * x
                                  + alpha ** 2 * t ** 3 / 6) / eps) * free)

        dt = direct.lattice_dt(grid, alpha)
        res = propagate(GridState(grid, exact(0.0)), FLAT, W, dt, [10, 40],
                        guard=7.0)
        for snap in res.snapshots:
            err = np.sqrt(np.sum(np.abs(snap.values - exact(snap.t)) ** 2)
                          * grid.dx)
            assert err < 1e-12

    def test_agrees_with_strang_oracle_away_from_the_cut(self):
        # both frames solve the same grid system inside the box; the
        # frame's W jumps at the cut x = 0 where Strang's is blended, so
        # the two are compared on [1.5, L - 1.5]
        from bloch_oracle import eigensolve
        V = make_cosine(4.0)
        grid = Grid(length=8, epsilon=1.0 / 16, ppw=16)
        _, vecs = eigensolve(V, 0.7, 1, m_cut=12)
        psi0 = assemble_wp0(grid, 4.0, 0.7, 0.0,
                            gaussian_envelope(sigma=1.0), vecs[0])
        W = linear_ramp(2.0, q_ref=4.0)
        dt = direct.lattice_dt(grid, 2.0)
        res = propagate(psi0, V, W, dt, [4], guard=0.0, substeps=8)
        t = res.snapshots[-1].t

        def strang(n):
            return propagate_strang(psi0, V, W, t / n, [n]).snapshots[-1]

        oracle = (4 * strang(4000).values - strang(2000).values) / 3
        inside = (grid.x > 1.5) & (grid.x < grid.length - 1.5)
        diff = (res.snapshots[-1].values - oracle)[inside]
        assert np.sqrt(np.sum(np.abs(diff) ** 2) * grid.dx) < 1e-7

    def test_roll_by_whole_periods_rolls_every_snapshot(self):
        # the frame's box has no collar, so a roll of psi0 by d periods (and
        # of the guard with it) rolls each snapshot, up to a global phase
        psi0, V, W, dt, _ = frame_problem()
        grid = psi0.grid
        d = 5
        steps = [0, 7, 30, 61]
        runs = [propagate(GridState(grid, np.roll(psi0.values,
                                                  shift * grid.ppw)),
                          V, W, dt, steps, check_collar=False,
                          guard=3.5 + shift * grid.epsilon)
                for shift in (0, d)]
        assert runs[1].collar_mass == pytest.approx(runs[0].collar_mass,
                                                    rel=1e-9)
        for a, b in zip(runs[0].snapshots, runs[1].snapshots):
            moved = np.roll(a.values, d * grid.ppw)
            turn = np.vdot(moved, b.values)
            turn /= abs(turn)
            assert np.max(np.abs(b.values - turn * moved)) < 1e-12

    def test_mass_in_the_guard_raises(self):
        # a packet placed inside [guard, guard + 1) trips the guard at t = 0;
        # with the check off its mass fraction is the recorded peak
        psi0, V, W, dt, _ = frame_problem()
        with pytest.raises(GridOverflow, match="guard interval"):
            propagate(psi0, V, W, dt, [1, 4], guard=1.5)
        res = propagate(psi0, V, W, dt, [1, 4], check_collar=False,
                        guard=1.5)
        inside = (psi0.grid.x >= 1.5) & (psi0.grid.x < 2.5)
        first = (np.sum(np.abs(psi0.values[inside]) ** 2) * psi0.grid.dx
                 / psi0.norm() ** 2)
        assert res.collar_mass >= first > COLLAR_MASS_TOL

    def test_refuses_a_curved_drive_and_an_off_lattice_step(self):
        psi0, V, W, dt, _ = frame_problem()
        with pytest.raises(ValueError, match="linear W"):
            propagate(psi0, V, cosine_external(0.5, 0.7), dt, [2], guard=3.0)
        with pytest.raises(ValueError, match="lattice step"):
            propagate(psi0, V, W, 0.9 * dt, [2], guard=3.0)


EVEN_AND_ODD = pytest.mark.parametrize(
    "V", [make_cosine(4.0), potential_from_coeffs({1: 1.0, 2: -0.5j})],
    ids=["even", "odd"])


def on_fibers(psi: GridState, lo: int, count: int) -> GridState:
    """psi's part on the lab fibers lo .. lo + count - 1 (mod LK)."""
    grid = psi.grid
    lk = grid.length * grid.k_inv
    fibers = direct._to_window(psi.values, lk, grid.ppw)
    kept = np.zeros_like(fibers)
    rows = (lo + np.arange(count)) % lk
    kept[rows] = fibers[rows]
    return GridState(grid, direct._from_window(kept), t=psi.t)


class TestKeptFibers:
    """The accelerated frame's solve on a circular interval of fibers."""

    STEPS = [0, 3, 17, 40, 70]     # through two rolls at K = 2 pi (LK = 32)

    @staticmethod
    def _run(psi0, V, W, dt, fibers=None):
        return propagate(psi0, V, W, dt, TestKeptFibers.STEPS,
                         check_collar=False, guard=0.0, substeps=2,
                         fibers=fibers)

    @EVEN_AND_ODD
    def test_dropped_fibers_cost_exactly_their_norm(self, V):
        # every fiber evolves alone and unitarily, so at every snapshot the
        # kept solve is the full one less the dropped fibers' part, which
        # keeps the dropped norm of psi0
        psi0, V, W, dt, _ = frame_problem(V)
        lo, count, dropped = direct.kept_fibers(psi0, 1e-3)
        assert 1 < count < 32 and 0.0 < dropped <= 1e-3
        full = self._run(psi0, V, W, dt)
        kept = self._run(psi0, V, W, dt, (lo, count))
        assert (kept.fibers_kept, kept.dropped_norm) == (count, dropped)
        assert (full.fibers_kept, full.dropped_norm) == (32, 0.0)
        for a, b in zip(full.snapshots, kept.snapshots):
            assert l2_error(a, b).plain == pytest.approx(dropped, rel=1e-10)
        # the guard reads a bound on the full state's mass
        assert kept.collar_mass >= full.collar_mass
        assert kept.collar_mass >= dropped ** 2 / psi0.norm() ** 2

    @EVEN_AND_ODD
    def test_a_zero_budget_keeps_every_fiber(self, V):
        psi0, V, W, dt, _ = frame_problem(V)
        lo, count, dropped = direct.kept_fibers(psi0, 0.0)
        assert count == 32 and dropped == 0.0
        full = self._run(psi0, V, W, dt)
        kept = self._run(psi0, V, W, dt, (lo, count))
        for a, b in zip(full.snapshots, kept.snapshots):
            assert np.max(np.abs(a.values - b.values)) < 1e-12

    @EVEN_AND_ODD
    @pytest.mark.parametrize("lo, count", [(29, 9), (20, 8)],
                             ids=["wraps-r=0", "lattice-wraps-LK"])
    def test_kept_interval_solves_the_kept_part(self, V, lo, count):
        # the solve on (lo, count) is the full solve of psi0's part on those
        # fibers; (29, 9) keeps r = 29..31 and 0..5, and (20, 8) passes the
        # lattice points 20..94, past LK twice
        psi0, V, W, dt, _ = frame_problem(V)
        part = self._run(on_fibers(psi0, lo, count), V, W, dt)
        kept = self._run(psi0, V, W, dt, (lo, count))
        for n, a, b in zip(self.STEPS, part.snapshots, kept.snapshots):
            assert np.max(np.abs(a.values - b.values)) < 1e-12
            # after n steps the kept fibers sit on lab fibers lo + n, ..
            moved = on_fibers(b, lo + n, count)
            assert np.max(np.abs(moved.values - b.values)) < 1e-14
        assert kept.dropped_norm == pytest.approx(
            l2_error(psi0, on_fibers(psi0, lo, count)).plain, rel=1e-12)

    @EVEN_AND_ODD
    def test_table_of_a_point_sequence_equals_the_zone_table(self, V):
        # points past LK (32) are read mod LK, the top of the zone (31)
        # comes rolled, and 15 and 16, which the mirror folds together,
        # each equal their own entry
        psi0, V, W, dt, full = frame_problem(V, substeps=3)
        points = np.r_[30:38, 70, 5, 15, 16]
        seq = direct._lattice_table(V, psi0.grid, 1.0, 3, points)
        assert seq.shape == (points.size,) + full.shape[1:]
        assert np.max(np.abs(seq - full[points % 32])) < 1e-13

    def test_refuses_an_empty_interval_and_bd(self):
        psi0, V, W, dt, _ = frame_problem()
        with pytest.raises(ValueError, match="kept fibers"):
            propagate(psi0, V, W, dt, [2], guard=0.0, fibers=(3, 0))
        with pytest.raises(ValueError, match="accelerated frame"):
            propagate(psi0, V, cosine_external(0.5, 0.7), 1e-3, [2],
                      fibers=(0, 4))


class TestFramePlanning:
    """Which frame plan_solver picks, and the frame's step doubling."""

    @staticmethod
    def _crossing32():
        from dataclasses import replace

        from bandcross import harness
        cfg = replace(harness.default_config("crossing"),
                      epsilons=(1 / 32,), pair_halfwidth=1.9,
                      pair_samples=1789, domain_length=14)
        scenario = harness.build_crossing_scenario(cfg)
        signal = harness._signal(cfg, 1 / 32, scenario.signal_scale,
                                 1.0 - harness.XI_PRIME)
        ext = scenario.ext
        plan = harness.plan_solver(
            cfg, 1 / 32, signal, scenario.V, scenario.W,
            harness._crossing_times(cfg, scenario, 1 / 32),
            (ext.plus, ext.minus))
        a0, a1 = harness._initial_envelopes(cfg)
        psi0 = harness.branch_packet(ext.plus, plan.grid, 0.0, a0, a1)
        return plan, psi0, scenario

    def test_accepted_estimate_bounds_the_error_on_crossing32(self):
        # the accepted run's estimate is at least its error against s = 16
        from bandcross import harness
        plan, psi0, scenario = self._crossing32()
        steps = sorted(set(plan.steps.values()))
        result, est = harness.propagate_substeps(
            psi0, scenario.V, scenario.W, plan.dt, steps, plan.target,
            plan.guard)
        ref = propagate(psi0, scenario.V, scenario.W, plan.dt, steps,
                        guard=plan.guard, substeps=16)
        error = max(l2_error(a, b).plain
                    for a, b in zip(result.snapshots, ref.snapshots))
        assert est <= plan.target
        assert error <= est
        assert result.collar_mass < COLLAR_MASS_TOL

    @pytest.mark.parametrize("study", ["crossing", "inner", "breakdown",
                                       "isolated"])
    def test_plan_selects_the_frame_by_the_phase_rule(self, study):
        # the frame runs where W is linear with alpha > 0 and the BD step
        # would be set by the phase rule, 0.45 eps/max|W - c| < eps/10:
        # the crossing and inner defaults; breakdown and isolated keep BD
        # with the dt and steps of the phase rule and eps/10 cap
        from bandcross import harness
        cfg = harness.default_config(study)
        frame = study in ("crossing", "inner")
        if study == "isolated":
            scenario = harness.build_isolated_scenario(cfg)
            trajs = (scenario.traj,)
        else:
            scenario = harness.build_crossing_scenario(cfg)
            trajs = (scenario.ext.plus, scenario.ext.minus)
        for eps in cfg.epsilons:
            if study == "isolated":
                times = {"final": cfg.t_final}
            else:
                times = harness._crossing_times(cfg, scenario, eps)
            plan = harness.plan_solver(cfg, eps, 1.0, scenario.V, scenario.W,
                                       times, trajs)
            w_max = np.max(np.abs(centred_external(scenario.W,
                                                   plan.grid)[0]))
            assert (0.45 * eps / w_max < eps / 10) == frame
            assert (plan.guard is not None) == frame
            if frame:
                dt = direct.lattice_dt(plan.grid, cfg.external["alpha"])
                steps = {k: round(t / dt) for k, t in times.items()}
                assert 0.0 <= plan.guard < plan.grid.length
            else:
                dt, steps = harness._snap(
                    times, min(0.45 * eps / w_max, eps / 10),
                    max(times.values()))
            assert plan.dt == dt
            assert plan.steps == steps
