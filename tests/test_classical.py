"""Classical flow, action, crossing-event and branch-extension tests.

Oracles: with a parabolic band and a linear ramp the flow and the action
integral have closed forms (RK4 reproduces them to roundoff because the
integrands are low-degree polynomials in time); the free band pair gives
closed-form plus/minus branches through the crossing.
"""
import numpy as np
import pytest

from bandcross import classical
from bandcross.bloch import BandPath, band_path, smooth_continuation
from bandcross.classical import (
    ExtendedTrajectory,
    SplineBand,
    Trajectory,
    detect_crossing_time,
    extend_through_crossing,
    integrate_flow,
)
from bandcross.errors import (
    ConvergenceFailure,
    LeftBrillouinWindow,
    NoCrossing,
    SecondCrossing,
    TangentialApproach,
)
from bandcross.envelope import coefficients_from_trajectory
from bandcross.potential import (
    ExternalPotential,
    cosine_external,
    linear_ramp,
    make_cosine,
    potential_from_coeffs,
    zero_external,
)

TWO_PI = 2.0 * np.pi


def rk4(dt):
    """A branch flow for extend_through_crossing: integrate_flow at dt.

    integrate_flow is looked up on the module at call time, so a test can
    count its calls.
    """
    def flow(band, W, q0, p0, t_span, s0):
        return classical.integrate_flow(band, W, q0, p0, t_span, dt, s0=s0)
    return flow


class ParabolicBand:
    """Analytic band E(p) = 1/2 (p - center)^2 on the whole line."""

    def __init__(self, center: float = 0.0):
        self.center = float(center)
        self.p_min = -np.inf
        self.p_max = np.inf

    def energy(self, p):
        return 0.5 * (np.asarray(p) - self.center) ** 2

    def slope(self, p):
        return np.asarray(p) - self.center

    def energy_slope(self, p: float) -> tuple[float, float]:
        d = p - self.center
        return 0.5 * d ** 2, d


def free_potential():
    return potential_from_coeffs({1: 0.0, 2: 0.0})


@pytest.fixture(scope="module")
def free_pair():
    return smooth_continuation(free_potential(), 1, np.pi, halfwidth=0.45,
                               n_samples=181, m_cut=16)


@pytest.fixture(scope="module")
def cosine_path():
    # the lowest band of V = 4 cos z over the isolated study's window
    return band_path(make_cosine(4.0, 1), 1, (0.7, 2.1), n_samples=129,
                     m_cut=15)


def array_rk4(band, W, q0, p0, t_span, dt, s0=0.0):
    """The flow as an RK4 on a (q, p, S) array, one band call per value."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    n_steps = max(1, int(round(abs(t1 - t0) / dt)))
    h = (t1 - t0) / n_steps

    def rhs(y):
        q, p, _ = y
        dE = float(band.slope(p))
        return np.array([dE,
                         -float(W.dw(q)),
                         p * dE - float(band.energy(p)) - float(W.w(q))])

    out = np.empty((n_steps + 1, 3))
    out[0] = (q0, p0, s0)
    y = out[0].copy()
    for k in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k + 1] = y
    return out


def pointwise(W: ExternalPotential) -> ExternalPotential:
    """W with every callable evaluated one point at a time."""
    def each(f):
        return lambda q: np.array([float(f(x)) for x in np.ravel(q)]
                                  ).reshape(np.shape(q))
    return ExternalPotential(w=each(W.w), dw=each(W.dw), d2w=each(W.d2w),
                             d3w=each(W.d3w), label=W.label)


def closed_form_action(t, q0, p0, alpha, s0=0.0):
    # E = p^2/2, W = -alpha q: S' = p^2/2 + alpha q
    return (s0
            + ((p0 + alpha * t) ** 3 - p0 ** 3) / (6 * alpha)
            + alpha * q0 * t
            + alpha * p0 * t ** 2 / 2
            + alpha ** 2 * t ** 3 / 6)


class TestIntegrateFlow:
    def test_no_drive_means_straight_line(self):
        band = ParabolicBand()
        tr = integrate_flow(band, zero_external(), 0.3, 1.1, (0, 2.0), 1e-3)
        assert np.max(np.abs(tr.p - 1.1)) < 1e-12
        assert np.max(np.abs(tr.q - (0.3 + 1.1 * tr.t_grid))) < 1e-10

    def test_linear_ramp_gives_linear_momentum(self):
        band = ParabolicBand()
        tr = integrate_flow(band, linear_ramp(2.5), -0.2, 0.7, (0, 1.5), 1e-3)
        assert np.max(np.abs(tr.p - (0.7 + 2.5 * tr.t_grid))) < 1e-11

    def test_action_matches_closed_form(self):
        band = ParabolicBand()
        q0, p0, alpha = 0.4, 1.3, 1.7
        tr = integrate_flow(band, linear_ramp(alpha), q0, p0, (0, 1.0), 1e-3,
                            s0=0.25)
        ref = closed_form_action(tr.t_grid, q0, p0, alpha, s0=0.25)
        assert np.max(np.abs(tr.S - ref)) < 1e-8

    def test_energy_conserved_with_nonlinear_drive(self):
        band = ParabolicBand()
        W = cosine_external(1.3, 0.9)
        tr = integrate_flow(band, W, 0.1, 1.9, (0, 2.0), 5e-4)
        assert tr.energy_drift < 1e-10

    def test_large_step_raises(self):
        band = ParabolicBand()
        with pytest.raises(ConvergenceFailure):
            integrate_flow(band, cosine_external(2.0, 2.0), 0.0, 1.0,
                           (0, 5.0), 0.5)

    def test_fourth_order_convergence(self):
        band = ParabolicBand()
        W = cosine_external(1.1, 1.4)

        def end_state(dt):
            tr = integrate_flow(band, W, 0.0, 1.2, (0, 1.0), dt)
            return np.array([tr.q[-1], tr.p[-1], tr.S[-1]])

        ref = end_state(1e-4)
        e1 = np.linalg.norm(end_state(4e-3) - ref)
        e2 = np.linalg.norm(end_state(2e-3) - ref)
        assert e1 / e2 > 14.0

    def test_time_reversal(self):
        band = ParabolicBand()
        W = cosine_external(1.0, 1.0)
        fwd = integrate_flow(band, W, 0.2, 1.4, (0, 1.2), 1e-3)
        back = integrate_flow(band, W, float(fwd.q[-1]), float(fwd.p[-1]),
                              (1.2, 0.0), 1e-3)
        assert abs(back.q[-1] - 0.2) < 1e-8
        assert abs(back.p[-1] - 1.4) < 1e-8

    def test_action_seed_shifts_constantly(self):
        band = ParabolicBand()
        W = cosine_external(1.0, 1.0)
        a = integrate_flow(band, W, 0.0, 1.0, (0, 1.0), 1e-3, s0=0.0)
        b = integrate_flow(band, W, 0.0, 1.0, (0, 1.0), 1e-3, s0=1.7)
        d = b.S - a.S
        assert np.max(np.abs(d - 1.7)) < 1e-12

    def test_spline_band_window_guard(self, free_pair):
        band = SplineBand(free_pair.plus)
        with pytest.raises(LeftBrillouinWindow):
            integrate_flow(band, linear_ramp(1.0), 0.0, np.pi - 0.3,
                           (0, 1.0), 1e-3)

    def test_spline_band_slope_consistent_with_spectral_velocity(self, free_pair):
        band = SplineBand(free_pair.plus)
        assert band.slope_check < 1e-8


class TestEnergySlope:
    def test_spline_band_matches_energy_and_slope(self, cosine_path):
        band = SplineBand(cosine_path)
        rng = np.random.default_rng(7)
        p = np.concatenate([
            cosine_path.p_samples,
            [band.p_min, band.p_max, band.p_min - 1e-12, band.p_max + 1e-12],
            rng.uniform(band.p_min, band.p_max, 10 ** 4),
        ])
        pairs = np.array([band.energy_slope(float(x)) for x in p])
        assert np.array_equal(pairs[:, 0], band.energy(p))
        assert np.array_equal(pairs[:, 1], band.slope(p))

    def test_spline_band_guard(self, cosine_path):
        band = SplineBand(cosine_path)
        for p in (band.p_min - 1e-9, band.p_max + 1e-9):
            with pytest.raises(LeftBrillouinWindow):
                band.energy_slope(p)

    def test_guard_names_the_momentum_outside_the_window(self, cosine_path):
        band = SplineBand(cosine_path)
        with pytest.raises(LeftBrillouinWindow, match=r"p=5\.000000 outside"):
            band.energy([1.0, 5.0])
        with pytest.raises(LeftBrillouinWindow, match=r"p=0\.500000 outside"):
            band.slope(np.array([[1.0, 1.5], [0.5, 3.0]]))
        with pytest.raises(LeftBrillouinWindow, match=r"p=2\.500000 outside"):
            band.energy(2.5)

    def test_parabolic_band_closed_form(self):
        band = ParabolicBand(center=0.4)
        for p in (-1.3, 0.4, 2.75):
            E, dE = band.energy_slope(p)
            assert E == pytest.approx(0.5 * (p - 0.4) ** 2, rel=1e-15, abs=0.0)
            assert dE == p - 0.4


class TestScalarFlowMatchesArrayRK4:
    def _check(self, band, W, q0, p0, t_span, dt, s0=0.0):
        tr = integrate_flow(band, W, q0, p0, t_span, dt, s0=s0)
        ref = array_rk4(band, W, q0, p0, t_span, dt, s0=s0)
        assert np.array_equal(tr.q, ref[:, 0])
        assert np.array_equal(tr.p, ref[:, 1])
        assert np.array_equal(tr.S, ref[:, 2])

    def test_spline_band_linear_ramp(self, cosine_path):
        self._check(SplineBand(cosine_path), linear_ramp(0.25), 3.5, 1.3,
                    (0.0, 0.52), 1e-4)

    def test_spline_band_cosine_external(self, cosine_path):
        self._check(SplineBand(cosine_path), cosine_external(0.3, 0.9), 0.4,
                    1.2, (0.0, 0.6), 1e-3, s0=0.3)

    def test_parabolic_band_backwards(self):
        self._check(ParabolicBand(0.2), cosine_external(1.1, 1.4), 0.1, 1.5,
                    (1.0, 0.0), 2e-3)


class TestVectorisedExternalCalls:
    """Whole-array W calls agree with one call per point."""

    @pytest.mark.parametrize("W", [linear_ramp(0.8, 1.0),
                                   cosine_external(0.6, 1.3)])
    def test_energy_drift(self, W):
        band = ParabolicBand()
        a = integrate_flow(band, W, 0.3, -1.2, (0.0, 1.5), 1e-3)
        b = integrate_flow(band, pointwise(W), 0.3, -1.2, (0.0, 1.5), 1e-3)
        assert np.array_equal(a.q, b.q)
        H0 = float(band.energy(a.p[0]) + W.w(a.q[0]))
        scale = max(1.0, abs(H0))
        assert abs(a.energy_drift - b.energy_drift) <= 1e-14 * scale

    @pytest.mark.parametrize("W", [linear_ramp(0.25),
                                   cosine_external(0.3, 0.9)])
    def test_oscillator_coefficients(self, W, cosine_path):
        traj = integrate_flow(SplineBand(cosine_path), W, 0.4, 1.3,
                              (0.0, 0.5), 1e-3)
        a = coefficients_from_trajectory(traj, W)
        b = coefficients_from_trajectory(traj, pointwise(W))
        for name in ("d2W", "d3W"):
            x, y = getattr(a, name), getattr(b, name)
            assert np.all(np.abs(x - y) <= 1e-14 * np.abs(y)), name


class TestDetectCrossing:
    def test_linear_drive_exact_time(self):
        band = ParabolicBand()
        W = linear_ramp(1.0)
        tr = integrate_flow(band, W, 0.0, np.pi - 0.5, (0, 1.0), 1e-3)
        t_star, q_star = detect_crossing_time(tr, np.pi)
        assert abs(t_star - 0.5) < 1e-12
        q_ref = (np.pi - 0.5) * 0.5 + 0.5 ** 3 / 6 + 0.5 * 0.5 ** 2 / 2
        # q(t) = q0 + p0 t + t^2/2 integrated of p = p0 + t
        q_ref = (np.pi - 0.5) * 0.5 + 0.5 ** 2 / 2
        assert abs(q_star - q_ref) < 1e-10

    def test_monotone_retreat_raises(self):
        band = ParabolicBand()
        W = linear_ramp(1.0)
        tr = integrate_flow(band, W, 0.0, np.pi + 0.1, (0, 1.0), 1e-3)
        with pytest.raises(NoCrossing):
            detect_crossing_time(tr, np.pi)

    def test_wrapped_target_found(self):
        band = ParabolicBand()
        W = linear_ramp(2.0)
        tr = integrate_flow(band, W, 0.0, TWO_PI - 0.8, (0, 1.0), 1e-3)
        t_star, _ = detect_crossing_time(tr, 0.0)
        assert abs(t_star - 0.4) < 1e-12

    def test_slow_crossing_flagged_tangential(self):
        band = ParabolicBand()
        W = linear_ramp(0.3)
        tr = integrate_flow(band, W, 0.0, np.pi - 0.15, (0, 1.0), 1e-3)
        with pytest.raises(TangentialApproach):
            detect_crossing_time(tr, np.pi, slope_threshold=0.5)

    def test_event_time_stable_under_dt_halving(self):
        band = ParabolicBand()
        W = cosine_external(1.2, 1.1)
        times = []
        for dt in (1e-3, 5e-4):
            tr = integrate_flow(band, W, 0.0, np.pi - 0.4, (0, 1.2), dt)
            times.append(detect_crossing_time(tr, np.pi)[0])
        assert abs(times[0] - times[1]) < 1e-10


class TestExtendThroughCrossing:
    def _extend(self, pair, W=None, T=0.6):
        # free pair under a unit ramp: p = pi - 0.3 + t reaches pi at t* = 0.3
        W = W or linear_ramp(1.0)
        return extend_through_crossing(pair, W, 0.0, np.pi - 0.3, 0.0, T=T,
                                       flow=rk4(1e-3))

    def test_free_pair_branches_match_closed_form(self, free_pair):
        ext = self._extend(free_pair)
        t = ext.plus.t_grid
        assert abs(ext.t_star - 0.3) < 1e-10
        # plus branch: E+ = p^2/2 -> q' = p = p0 + t
        p0 = np.pi - 0.3
        assert np.max(np.abs(ext.plus.p - (p0 + t))) < 1e-10
        assert np.max(np.abs(ext.plus.q - (p0 * t + t ** 2 / 2))) < 1e-9
        # minus branch: E- = (p - 2 pi)^2/2, launched at (q*, pi) at t*
        tm = ext.minus.t_grid
        q_star = ext.q_star
        ref_q = q_star + (np.pi - TWO_PI) * (tm - 0.3) + (tm - 0.3) ** 2 / 2
        assert np.max(np.abs(ext.minus.q - ref_q)) < 1e-8

    def test_opposite_group_velocities(self, free_pair):
        ext = self._extend(free_pair)
        i = np.searchsorted(ext.plus.t_grid, 0.3)
        # the minus branch starts at t*, so its velocity there is the
        # one-sided second-order difference at its first sample
        dq_plus = np.gradient(ext.plus.q, ext.plus.t_grid)[i]
        dq_minus = np.gradient(ext.minus.q, ext.minus.t_grid,
                               edge_order=2)[0]
        assert abs(dq_plus - np.pi) < 1e-6
        assert abs(dq_minus + np.pi) < 1e-6

    def test_action_seeded_continuously(self, free_pair):
        ext = self._extend(free_pair)
        _, _, s_plus = ext.plus.state_at(ext.t_star)
        _, _, s_minus = ext.minus.state_at(ext.t_star)
        assert abs(s_plus - s_minus) < 1e-10

    def test_minus_branch_starts_at_the_crossing_point(self, free_pair):
        ext = self._extend(free_pair)
        _, p_star, s_star = ext.plus.state_at(ext.t_star)
        assert ext.minus.t_grid[0] == ext.t_star
        assert ext.minus.t_grid[-1] == pytest.approx(0.6, abs=1e-12)
        q, p, S = ext.minus.state_at(ext.t_star)
        assert abs(q - ext.q_star) < 1e-12
        assert abs(p - p_star) < 1e-12
        assert abs(S - s_star) < 1e-12

    def test_crossing_point_is_the_plus_state_at_t_star(self, free_pair):
        # q*, p* and S* all come from the plus branch's splines at t*, and
        # the minus branch starts from exactly that point; a cosine drive
        # makes q(t) no polynomial, so a second interpolant of q would read
        # a different q*
        ext = extend_through_crossing(free_pair, cosine_external(1.0, 1.0),
                                      1.0, np.pi - 0.3, 0.0, T=0.6,
                                      flow=rk4(1e-3))
        state = ext.plus.state_at(ext.t_star)
        assert ext.q_star == state[0]
        assert (ext.minus.q[0], ext.minus.p[0], ext.minus.S[0]) == state

    def test_one_forward_flow_per_branch(self, free_pair, monkeypatch):
        spans = []

        def counting(band, W, q0, p0, t_span, dt, s0=0.0):
            spans.append(tuple(t_span))
            return integrate_flow(band, W, q0, p0, t_span, dt, s0=s0)

        monkeypatch.setattr(classical, "integrate_flow", counting)
        ext = self._extend(free_pair)
        assert spans == [(0.0, 0.6), (ext.t_star, 0.6)]

    def test_trajectories_carry_their_band_splines(self, free_pair):
        ext = self._extend(free_pair)
        p = np.linspace(np.pi - 0.4, np.pi + 0.4, 9)
        for traj, path in ((ext.plus, free_pair.plus),
                           (ext.minus, free_pair.minus)):
            assert isinstance(traj.band, SplineBand)
            assert np.array_equal(traj.band.energy(p),
                                  SplineBand(path).energy(p))

    def test_restart_oracle_both_sides(self, free_pair):
        W = linear_ramp(1.0)
        ext = self._extend(free_pair, W)
        band = SplineBand(free_pair.plus)
        for t_restart in (0.15, 0.45):
            q_r, p_r, s_r = ext.plus.state_at(t_restart)
            fresh = integrate_flow(band, W, q_r, p_r, (t_restart, 0.6),
                                   1e-3, s0=s_r)
            qf, pf, sf = ext.plus.state_at(0.6)
            assert abs(fresh.q[-1] - qf) < 1e-9
            assert abs(fresh.p[-1] - pf) < 1e-9
            assert abs(fresh.S[-1] - sf) < 1e-9

    def test_second_crossing_guard(self):
        # synthetic wide parabolic pair so the flow can reach the next image
        p_star = np.pi
        p = p_star + np.linspace(-7.0, 7.0, 1401)
        e = 0.5 * p ** 2
        dE = p.copy()
        d2 = np.ones_like(p)
        chi = np.zeros((p.size, 1), dtype=complex)
        path = BandPath(None, p, e, chi, dE, d2, np.zeros_like(p), 0)
        pair_like = type("PairLike", (), {})()
        pair_like.plus = path
        pair_like.minus = path
        pair_like.p_star = p_star
        W = linear_ramp(1.0)
        with pytest.raises(SecondCrossing):
            extend_through_crossing(pair_like, W, 0.0, np.pi - 0.5, 0.0,
                                    T=6.8, flow=rk4(1e-3))


class TestTrajectoryInterpolant:
    def test_splines_built_once_and_exact(self, cosine_path, monkeypatch):
        from bandcross.numerics import UniformHermite
        traj = integrate_flow(SplineBand(cosine_path), linear_ramp(0.25),
                              3.5, 1.3, (0.0, 0.5), 1e-3, s0=0.2)
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return UniformHermite(*args, **kwargs)

        monkeypatch.setattr(classical, "UniformHermite", counting)
        times = (0.01234, 0.25, 0.4999, 0.1)
        states = [traj.state_at(t) for t in times]
        assert len(built) == 3
        states += [traj.state_at(t) for t in times]
        assert len(built) == 3
        for t, state in zip(times * 2, states):
            fresh = tuple(float(UniformHermite(traj.t_grid, y)(t))
                          for y in (traj.q, traj.p, traj.S))
            assert state == fresh
