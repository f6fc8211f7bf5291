"""Wavepacket assembly tests."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandcross.ansatz import (
    Grid,
    GridState,
    assemble_wp0,
    assemble_wp1,
    evaluate_bloch_mode,
    path_dp_chi,
    predict_excited_mass,
)
from bandcross.envelope import (
    Envelope,
    excited_envelope,
    gaussian_envelope,
)
from bandcross.errors import EnvelopeClipped
from bandcross.harness import branch_packet


def flat_chi(m_cut: int = 8) -> np.ndarray:
    chi = np.zeros(2 * m_cut + 1, dtype=complex)
    chi[m_cut] = 1.0
    return chi


def mode_chi(m0: int, m_cut: int = 8) -> np.ndarray:
    chi = np.zeros(2 * m_cut + 1, dtype=complex)
    chi[m_cut + m0] = 1.0
    return chi


class TestGrid:
    def test_commensurate_size(self):
        g = Grid(length=8, epsilon=1.0 / 32, ppw=32)
        assert g.n == 8 * 32 * 32
        assert abs(g.dx * g.n - 8) < 1e-12

    def test_rejects_non_reciprocal_epsilon(self):
        with pytest.raises(ValueError):
            Grid(length=8, epsilon=0.03, ppw=32)

    def test_rejects_coarse_ppw(self):
        with pytest.raises(ValueError):
            Grid(length=8, epsilon=1.0 / 32, ppw=8)

    def test_fast_potential_exactly_periodic_on_grid(self):
        g = Grid(length=4, epsilon=1.0 / 16, ppw=32)
        z = g.x / g.epsilon
        vals = np.cos(2 * np.pi * np.round(np.mod(z, 1.0), 12))
        period = g.ppw
        tiled = vals.reshape(-1, period)
        assert np.max(np.abs(tiled - tiled[0])) < 1e-12


class TestEvaluateBlochMode:
    def test_single_mode(self):
        z = np.linspace(0, 3, 301)
        got = evaluate_bloch_mode(mode_chi(2), z)
        assert np.max(np.abs(got - np.exp(4j * np.pi * z))) < 1e-10

    def test_combination(self):
        rng = np.random.default_rng(7)
        m_cut = 5
        c = rng.normal(size=2 * m_cut + 1) + 1j * rng.normal(size=2 * m_cut + 1)
        z = rng.uniform(-2, 2, size=50)
        m = np.arange(-m_cut, m_cut + 1)
        direct = np.array([np.sum(c * np.exp(2j * np.pi * m * zi)) for zi in z])
        got = evaluate_bloch_mode(c, z)
        assert np.max(np.abs(got - direct)) < 1e-9


class TestAssembleWp0:
    def setup_method(self):
        self.grid = Grid(length=8, epsilon=1.0 / 32, ppw=32)
        self.a0 = gaussian_envelope(sigma=1.0)

    def test_flat_chi_is_pure_dilation(self):
        state = assemble_wp0(self.grid, 4.0, 0.0, 0.0, self.a0, flat_chi())
        x = self.grid.x
        eps = 1.0 / 32
        exact = eps ** (-0.25) * np.pi ** (-0.25) * np.exp(
            -((x - 4.0) ** 2) / (2 * eps))
        assert np.max(np.abs(state.values - exact)) < 1e-8
        assert abs(state.norm() - 1.0) < 1e-10

    def test_norm_factorization_rate(self):
        from bloch_oracle import eigensolve
        from bandcross.potential import EllipticParams, make_m_gap

        V = make_m_gap(EllipticParams(1, 0.8), m_max=16)
        for eps in (1.0 / 16, 1.0 / 64, 1.0 / 256):
            _, vecs = eigensolve(V, 1.1, 2, m_cut=24)
            grid = Grid(length=8, epsilon=eps, ppw=32)
            state = assemble_wp0(grid, 4.0, 1.1, 0.3, self.a0, vecs[0])
            assert abs(state.norm() - 1.0) < np.sqrt(eps)

    def test_gauge_neutrality(self):
        from bloch_oracle import eigensolve
        from bandcross.potential import make_cosine

        V = make_cosine(4.0)
        _, vecs = eigensolve(V, 0.7, 1, m_cut=16)
        theta = 1.234
        s1 = assemble_wp0(self.grid, 4.0, 0.7, 0.1, self.a0, vecs[0])
        s2 = assemble_wp0(self.grid, 4.0, 0.7, 0.1, self.a0,
                          np.exp(1j * theta) * vecs[0])
        assert abs(s1.norm() - s2.norm()) < 1e-12
        assert np.max(np.abs(s2.values - np.exp(1j * theta) * s1.values)) < 1e-9

    def test_envelope_clipped_near_boundary(self):
        with pytest.raises(EnvelopeClipped):
            assemble_wp0(self.grid, 0.05, 0.0, 0.0, self.a0, flat_chi())

    def test_chi_normalization_enforced(self):
        with pytest.raises(ValueError):
            assemble_wp0(self.grid, 4.0, 0.0, 0.0, self.a0, 2.0 * flat_chi())

    @settings(max_examples=20, deadline=None)
    @given(theta=st.floats(-np.pi, np.pi),
           p=st.floats(-2.0, 2.0),
           S=st.floats(-1.0, 1.0))
    def test_norm_invariant_under_phases(self, theta, p, S):
        grid = Grid(length=8, epsilon=1.0 / 16, ppw=32)
        a0 = gaussian_envelope(sigma=1.0)
        state = assemble_wp0(grid, 4.0, p, S, a0,
                             np.exp(1j * theta) * mode_chi(1))
        assert abs(state.norm() - 1.0) < 1e-9


class TestAssembleWp1:
    def setup_method(self):
        self.grid = Grid(length=8, epsilon=1.0 / 32, ppw=32)
        self.a0 = gaussian_envelope(sigma=1.0)

    def test_zero_correction_equals_wp0(self):
        zero = Envelope(self.a0.y, np.zeros_like(self.a0.values))
        w0 = assemble_wp0(self.grid, 4.0, 0.9, 0.2, self.a0, mode_chi(1))
        w1 = assemble_wp1(self.grid, 4.0, 0.9, 0.2, self.a0, zero,
                          mode_chi(1), np.zeros_like(mode_chi(1)))
        assert np.array_equal(w0.values, w1.values)

    def test_single_mode_correction_norm(self):
        # chi a pure plane-wave mode, dp_chi = 0: correction is
        # sqrt(eps) a1 chi, so ||WP1 - WP0|| = sqrt(eps) ||a1||
        a1 = gaussian_envelope(sigma=0.7)
        w0 = assemble_wp0(self.grid, 4.0, 0.9, 0.2, self.a0, mode_chi(1))
        w1 = assemble_wp1(self.grid, 4.0, 0.9, 0.2, self.a0, a1, mode_chi(1),
                          np.zeros_like(mode_chi(1)))
        diff = np.sqrt(np.sum(np.abs(w1.values - w0.values) ** 2)
                       * self.grid.dx)
        assert abs(diff - np.sqrt(1.0 / 32)) < 1e-6

    def test_corrector_orthogonal_mode_adds_in_quadrature(self):
        # dp_chi along an orthogonal plane wave: the correction norm is
        # sqrt(eps) sqrt(||a1||^2 + ||d_y a0||^2) when modes are orthogonal
        a1 = gaussian_envelope(sigma=0.7)
        dpc = mode_chi(3).astype(complex)
        w0 = assemble_wp0(self.grid, 4.0, 0.4, 0.0, self.a0, mode_chi(1))
        w1 = assemble_wp1(self.grid, 4.0, 0.4, 0.0, self.a0, a1, mode_chi(1),
                          dpc)
        diff2 = np.sum(np.abs(w1.values - w0.values) ** 2) * self.grid.dx
        ky = self.a0.k_grid()
        da0 = np.fft.ifft(ky * np.fft.fft(self.a0.values))
        da0_norm2 = np.sum(np.abs(da0) ** 2) * self.a0.dy
        expect = (1.0 / 32) * (1.0 + da0_norm2)
        assert abs(diff2 - expect) < 1e-6


@pytest.fixture(scope="module")
def crossing_setup():
    from bandcross.bloch import smooth_continuation
    from bandcross.classical import extend_through_crossing, integrate_flow
    from bandcross.potential import EllipticParams, linear_ramp, make_m_gap

    V = make_m_gap(EllipticParams(1, 0.8), m_max=16)
    pair = smooth_continuation(V, 2, 0.0, halfwidth=0.5, n_samples=201,
                               m_cut=32)
    W = linear_ramp(-2.0)   # dW/dq = +2 so dp/dt = -2: approach from above
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


class TestTwoBandAnsatz:
    def test_zero_minus_envelope_is_single_branch(self, crossing_setup):
        V, pair, W, ext = crossing_setup
        grid = Grid(length=8, epsilon=1.0 / 32, ppw=32)
        a0p = gaussian_envelope(sigma=1.0)
        zero = Envelope(a0p.y, np.zeros_like(a0p.values))
        t = 0.3
        state = two_branch_state(ext, grid, t, a0p, zero)
        qp, pp, Sp = ext.plus.state_at(t)
        direct = assemble_wp1(grid, qp, pp, Sp, a0p,
                              Envelope(a0p.y, np.zeros_like(a0p.values)),
                              pair.plus.chi_at(pp), path_dp_chi(pair.plus, pp))
        assert np.array_equal(state.values, direct.values)
        assert branch_packet(ext.plus, grid, t, a0p).t == t

    def test_mass_split_with_separated_centers(self, crossing_setup):
        V, pair, W, ext = crossing_setup
        eps = 1.0 / 64
        grid = Grid(length=8, epsilon=eps, ppw=32)
        a0p = gaussian_envelope(sigma=1.0)
        a0m_raw = gaussian_envelope(sigma=0.8)
        a0m = Envelope(a0m_raw.y, 0.7 * a0m_raw.values)
        t = 0.33  # centers well separated by opposite group velocities
        qp = ext.plus.state_at(t)[0]
        qm = ext.minus.state_at(t)[0]
        assert abs(qp - qm) > 0.5
        state = two_branch_state(ext, grid, t, a0p, a0m)
        total2 = state.norm() ** 2
        expect = 1.0 + eps * a0m.norm() ** 2
        # wp1 corrector shifts the plus mass at O(eps); centers separated
        assert abs(total2 - expect) < 1e-4 + 2 * eps ** 1.5 + 3 * eps

    def test_centers_separate_linearly(self, crossing_setup):
        V, pair, W, ext = crossing_setup
        ts = np.array([0.24, 0.28, 0.32])
        gaps = []
        for t in ts:
            qp = ext.plus.state_at(t)[0]
            qm = ext.minus.state_at(t)[0]
            gaps.append(qp - qm)
        gaps = np.array(gaps)
        d1 = gaps[1] - gaps[0]
        d2 = gaps[2] - gaps[1]
        assert abs(d2 - d1) < 1e-3 * max(abs(d1), 1e-9) + 1e-6
        slope = (gaps[-1] - gaps[0]) / (ts[-1] - ts[0])
        dplus = ext.plus.state_at(0.28)
        dminus = ext.minus.state_at(0.28)
        # rate equals the group-velocity difference at the midpoint time
        from scipy.interpolate import CubicSpline
        vp = CubicSpline(pair.plus.p_samples, pair.plus.dE)(dplus[1])
        vm = CubicSpline(pair.minus.p_samples, pair.minus.dE)(dminus[1])
        assert abs(slope - (vp - vm)) < 5e-3 * abs(vp - vm)


class TestPredictExcitedMass:
    def test_zero_coupling(self):
        assert predict_excited_mass(1.0, 0.0, 2 * np.pi, 1.0, 1.0 / 64) == 0.0

    def test_reference_value(self):
        got = predict_excited_mass(1.0, 0.1, 2 * np.pi, 1.0, 1.0 / 256)
        assert abs(got - 3.90625e-5) < 1e-18

    def test_consistency_with_excited_envelope(self):
        a_star = gaussian_envelope(sigma=1.0, half_width=40.0, n=1024)
        dqW, sg, kappa, eps = 1.0, 2 * np.pi, 0.1, 1.0 / 128
        a_minus = excited_envelope(a_star, dqW, sg, kappa)
        predicted = predict_excited_mass(dqW, kappa, sg, a_star.norm(), eps)
        assert abs(predicted - eps * a_minus.norm() ** 2) < 1e-8

    def test_bad_slope_gap(self):
        with pytest.raises(ValueError):
            predict_excited_mass(1.0, 0.1, 0.0, 1.0, 1.0 / 64)
