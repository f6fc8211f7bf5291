"""Wavepacket assembly tests."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandcross.ansatz import (
    Grid,
    GridState,
    WavepacketParams,
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
from bandcross.errors import EnvelopeClipped, GridMismatch
from bandcross.harness import branch_packet
from bandcross.io import read_state_binary


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
        params = WavepacketParams(S=0.0, q=4.0, p=0.0, a0=self.a0,
                                  epsilon=1.0 / 32, chi=flat_chi())
        state = assemble_wp0(params, self.grid)
        x = self.grid.x
        eps = 1.0 / 32
        exact = eps ** (-0.25) * np.pi ** (-0.25) * np.exp(
            -((x - 4.0) ** 2) / (2 * eps))
        assert np.max(np.abs(state.values - exact)) < 1e-8
        assert abs(state.norm() - 1.0) < 1e-10

    def test_norm_factorization_rate(self):
        from bandcross.bloch import eigensolve
        from bandcross.potential import EllipticParams, make_m_gap

        V = make_m_gap(EllipticParams(1, 0.8), m_max=16)
        for eps in (1.0 / 16, 1.0 / 64, 1.0 / 256):
            _, vecs = eigensolve(V, 1.1, 2, m_cut=24)
            grid = Grid(length=8, epsilon=eps, ppw=32)
            params = WavepacketParams(S=0.3, q=4.0, p=1.1, a0=self.a0,
                                      epsilon=eps, chi=vecs[0])
            state = assemble_wp0(params, grid)
            assert abs(state.norm() - 1.0) < np.sqrt(eps)

    def test_gauge_neutrality(self):
        from bandcross.bloch import eigensolve
        from bandcross.potential import make_cosine

        V = make_cosine(4.0)
        _, vecs = eigensolve(V, 0.7, 1, m_cut=16)
        base = WavepacketParams(S=0.1, q=4.0, p=0.7, a0=self.a0,
                                epsilon=1.0 / 32, chi=vecs[0])
        theta = 1.234
        turned = WavepacketParams(S=0.1, q=4.0, p=0.7, a0=self.a0,
                                  epsilon=1.0 / 32,
                                  chi=np.exp(1j * theta) * vecs[0])
        s1 = assemble_wp0(base, self.grid)
        s2 = assemble_wp0(turned, self.grid)
        assert abs(s1.norm() - s2.norm()) < 1e-12
        assert np.max(np.abs(s2.values - np.exp(1j * theta) * s1.values)) < 1e-9

    def test_envelope_clipped_near_boundary(self):
        params = WavepacketParams(S=0.0, q=0.05, p=0.0, a0=self.a0,
                                  epsilon=1.0 / 32, chi=flat_chi())
        with pytest.raises(EnvelopeClipped):
            assemble_wp0(params, self.grid)

    def test_epsilon_mismatch(self):
        params = WavepacketParams(S=0.0, q=4.0, p=0.0, a0=self.a0,
                                  epsilon=1.0 / 16, chi=flat_chi())
        with pytest.raises(GridMismatch):
            assemble_wp0(params, self.grid)

    def test_chi_normalization_enforced(self):
        with pytest.raises(ValueError):
            WavepacketParams(S=0.0, q=4.0, p=0.0, a0=self.a0,
                             epsilon=1.0 / 32, chi=2.0 * flat_chi())

    @settings(max_examples=20, deadline=None)
    @given(theta=st.floats(-np.pi, np.pi),
           p=st.floats(-2.0, 2.0),
           S=st.floats(-1.0, 1.0))
    def test_norm_invariant_under_phases(self, theta, p, S):
        grid = Grid(length=8, epsilon=1.0 / 16, ppw=32)
        a0 = gaussian_envelope(sigma=1.0)
        params = WavepacketParams(
            S=S, q=4.0, p=p, a0=a0, epsilon=1.0 / 16,
            chi=np.exp(1j * theta) * mode_chi(1))
        state = assemble_wp0(params, grid)
        assert abs(state.norm() - 1.0) < 1e-9


class TestAssembleWp1:
    def setup_method(self):
        self.grid = Grid(length=8, epsilon=1.0 / 32, ppw=32)
        self.a0 = gaussian_envelope(sigma=1.0)

    def test_zero_correction_equals_wp0(self):
        zero = Envelope(self.a0.y, np.zeros_like(self.a0.values))
        params = WavepacketParams(
            S=0.2, q=4.0, p=0.9, a0=self.a0, a1=zero, epsilon=1.0 / 32,
            chi=mode_chi(1), dp_chi=np.zeros_like(mode_chi(1)))
        w0 = assemble_wp0(params, self.grid)
        w1 = assemble_wp1(params, self.grid)
        assert np.array_equal(w0.values, w1.values)

    def test_missing_pieces_rejected(self):
        params = WavepacketParams(S=0.0, q=4.0, p=0.0, a0=self.a0,
                                  epsilon=1.0 / 32, chi=flat_chi())
        with pytest.raises(ValueError):
            assemble_wp1(params, self.grid)

    def test_single_mode_correction_norm(self):
        # chi a pure plane-wave mode, dp_chi = 0: correction is
        # sqrt(eps) a1 chi, so ||WP1 - WP0|| = sqrt(eps) ||a1||
        a1 = gaussian_envelope(sigma=0.7)
        params = WavepacketParams(
            S=0.2, q=4.0, p=0.9, a0=self.a0, a1=a1, epsilon=1.0 / 32,
            chi=mode_chi(1), dp_chi=np.zeros_like(mode_chi(1)))
        w0 = assemble_wp0(params, self.grid)
        w1 = assemble_wp1(params, self.grid)
        diff = np.sqrt(np.sum(np.abs(w1.values - w0.values) ** 2)
                       * self.grid.dx)
        assert abs(diff - np.sqrt(1.0 / 32)) < 1e-6

    def test_corrector_orthogonal_mode_adds_in_quadrature(self):
        # dp_chi along an orthogonal plane wave: the correction norm is
        # sqrt(eps) sqrt(||a1||^2 + ||d_y a0||^2) when modes are orthogonal
        a1 = gaussian_envelope(sigma=0.7)
        dpc = mode_chi(3).astype(complex)
        params = WavepacketParams(
            S=0.0, q=4.0, p=0.4, a0=self.a0, a1=a1, epsilon=1.0 / 32,
            chi=mode_chi(1), dp_chi=dpc)
        w0 = assemble_wp0(params, self.grid)
        w1 = assemble_wp1(params, self.grid)
        diff2 = np.sum(np.abs(w1.values - w0.values) ** 2) * self.grid.dx
        ky = self.a0.k_grid()
        da0 = np.fft.ifft(ky * np.fft.fft(self.a0.values))
        da0_norm2 = np.sum(np.abs(da0) ** 2) * self.a0.dy
        expect = (1.0 / 32) * (1.0 + da0_norm2)
        assert abs(diff2 - expect) < 1e-6


@pytest.fixture(scope="module")
def crossing_setup():
    from bandcross.bloch import smooth_continuation
    from bandcross.classical import (
        SplineBand, extend_through_crossing, integrate_flow,
    )
    from bandcross.potential import EllipticParams, linear_ramp, make_m_gap

    V = make_m_gap(EllipticParams(1, 0.8), m_max=16)
    pair = smooth_continuation(V, 2, 0.0, halfwidth=0.5, n_samples=201,
                               m_cut=32)
    W = linear_ramp(-2.0)   # dW/dq = +2 so dp/dt = -2: approach from above
    incoming = integrate_flow(SplineBand(pair.plus), W, q0=4.0, p0=0.4,
                              t_span=(0.0, 0.1), dt=1e-3)
    ext = extend_through_crossing(pair, W, incoming, T=0.35, dt=1e-3)
    return V, pair, W, ext


def two_branch_state(ext, pair, grid, t, a0_plus, a0_minus) -> GridState:
    """Continued-branch WP1 (a1 = 0) plus sqrt(eps) excited-branch WP0."""
    a1 = Envelope(a0_plus.y, np.zeros_like(a0_plus.values))
    plus = branch_packet(ext.plus, pair.plus, grid, t, a0_plus, a1)
    minus = branch_packet(ext.minus, pair.minus, grid, t, a0_minus)
    return GridState(grid, plus.values + np.sqrt(grid.epsilon) * minus.values,
                     t=t)


class TestTwoBandAnsatz:
    def test_zero_minus_envelope_is_single_branch(self, crossing_setup):
        V, pair, W, ext = crossing_setup
        grid = Grid(length=8, epsilon=1.0 / 32, ppw=32)
        a0p = gaussian_envelope(sigma=1.0)
        zero = Envelope(a0p.y, np.zeros_like(a0p.values))
        t = 0.3
        state = two_branch_state(ext, pair, grid, t, a0p, zero)
        qp, pp, Sp = ext.plus.state_at(t)
        params = WavepacketParams(
            S=Sp, q=qp, p=pp, a0=a0p,
            a1=Envelope(a0p.y, np.zeros_like(a0p.values)),
            chi=pair.plus.chi_at(pp), dp_chi=path_dp_chi(pair.plus, pp),
            epsilon=1.0 / 32)
        direct = assemble_wp1(params, grid)
        assert np.array_equal(state.values, direct.values)
        assert branch_packet(ext.plus, pair.plus, grid, t, a0p).t == t

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
        state = two_branch_state(ext, pair, grid, t, a0p, a0m)
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


class TestStateDump:
    def test_roundtrip(self, tmp_path):
        grid = Grid(length=4, epsilon=1.0 / 16, ppw=32)
        a0 = gaussian_envelope(sigma=1.0)
        params = WavepacketParams(S=0.0, q=2.0, p=1.0, a0=a0,
                                  epsilon=1.0 / 16, chi=mode_chi(1))
        state = assemble_wp0(params, grid)
        state.t = 0.7
        prefix = str(tmp_path / "snap")
        state.dump(prefix)
        vals, sidecar = read_state_binary(prefix + ".state")
        assert sidecar["L"] == 4
        assert sidecar["N"] == grid.n
        assert sidecar["epsilon"] == 1.0 / 16
        assert sidecar["t"] == 0.7
        scale = np.max(np.abs(state.values))
        assert np.max(np.abs(vals - state.values)) < 1e-6 * scale
        assert (tmp_path / "snap_preview.csv").exists()
