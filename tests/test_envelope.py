"""Envelope propagation, excited-envelope integral, and buildup tests."""
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from bandcross import harness
from bandcross.ansatz import predict_excited_mass
from bandcross.envelope import (
    BOUNDARY_TOL,
    Envelope,
    OscillatorCoefficients,
    _chirp_params,
    _fresnel_lower,
    _spectral_refine,
    coefficients_from_trajectory,
    evaluate_envelope,
    evolve_a0,
    evolve_a1,
    excited_buildup,
    excited_envelope,
    gaussian_envelope,
    make_grid,
)
from bandcross.errors import (
    DegenerateSlopes,
    GridMismatch,
    GridOverflow,
    SolverBudgetExceeded,
)
from bandcross.numerics import UniformHermite


def l2_diff(e1: Envelope, e2_vals) -> float:
    return float(np.sqrt(np.sum(np.abs(e1.values - e2_vals) ** 2) * e1.dy))


class TestGridAndGaussian:
    def test_grid_symmetric_uniform(self):
        y = make_grid(20.0, 512)
        assert y.size == 512
        assert y[0] == -20.0
        assert np.allclose(np.diff(y), y[1] - y[0])
        # periodic symmetric convention: -Y ... Y - dy
        assert abs(y[-1] - (20.0 - (y[1] - y[0]))) < 1e-12

    def test_gaussian_normalized(self):
        for sigma in (0.5, 1.0, 3.5):
            g = gaussian_envelope(sigma=sigma)
            assert abs(g.norm() - 1.0) < 1e-12

    def test_gaussian_center_momentum(self):
        g = gaussian_envelope(sigma=1.0, center=2.0, momentum=3.0)
        assert abs(g.norm() - 1.0) < 1e-12
        i_max = np.argmax(np.abs(g.values))
        assert abs(g.y[i_max] - 2.0) < g.dy

    def test_rejects_nonuniform_grid(self):
        y = np.linspace(-5, 5, 64) ** 3 / 25.0
        with pytest.raises(ValueError):
            Envelope(y, np.exp(-(y ** 2)))


class TestEvaluateEnvelope:
    def test_offgrid_gaussian(self):
        g = gaussian_envelope(sigma=1.0)
        pts = np.array([-3.123456, -0.777, 0.0501, 1.9999, 4.321])
        exact = np.pi ** (-0.25) * np.exp(-(pts ** 2) / 2.0)
        got = evaluate_envelope(g, pts)
        assert np.max(np.abs(got - exact)) < 1e-9

    def test_outside_is_zero(self):
        g = gaussian_envelope(sigma=1.0)
        got = evaluate_envelope(g, np.array([-25.0, 31.0]))
        assert np.all(got == 0)


class TestEvolveA0:
    def test_free_gaussian_closed_form(self):
        # i da/dt = 1/2 k^2 a from a normalized Gaussian:
        # a(y,t) = pi^{-1/4} (1+it)^{-1/2} exp(-y^2 / (2 (1+it)))
        g = gaussian_envelope(sigma=1.0)
        co = OscillatorCoefficients.constant((0.0, 1.0), d2E=1.0)
        a, _ = evolve_a0(co, g, (0.0, 1.0), dt=1e-3)
        t = 1.0
        exact = np.pi ** (-0.25) / np.sqrt(1 + 1j * t) * np.exp(
            -g.y ** 2 / (2 * (1 + 1j * t))
        )
        assert a.t == 1.0
        assert l2_diff(a, exact) < 1e-8

    def test_pure_phase_drive(self):
        # H = 1/2 d2W(t) y^2 with d2W = cos t and no kinetic part:
        # a(T) = exp(-i y^2/2 Int d2W) a0
        g = gaussian_envelope(sigma=1.0)
        t = np.linspace(0.0, 1.0, 201)
        co = OscillatorCoefficients(
            t, np.zeros_like(t), np.cos(t), np.zeros_like(t),
            np.zeros_like(t),
        )
        a, _ = evolve_a0(co, g, (0.0, 1.0), dt=1e-3)
        exact = np.exp(-0.5j * np.sin(1.0) * g.y ** 2) * g.values
        assert l2_diff(a, exact) < 1e-6

    def test_harmonic_period_flips_sign(self):
        # U(2 pi) = -1 for H = 1/2 (k^2 + y^2): every eigenphase is
        # e^{-i 2 pi (n + 1/2)} = -1, so a displaced Gaussian returns to
        # minus itself after one classical period.
        g = gaussian_envelope(sigma=1.0, center=1.5)
        T = 2 * np.pi
        co = OscillatorCoefficients.constant((0.0, T), d2E=1.0, d2W=1.0)
        a, _ = evolve_a0(co, g, (0.0, T), dt=T / 2 ** 14)
        assert l2_diff(a, -g.values) < 1e-6

    def test_norm_conservation(self):
        g = gaussian_envelope(sigma=1.0)
        t = np.linspace(0.0, 3.0, 301)
        co = OscillatorCoefficients(
            t, 1.0 + 0.2 * np.sin(t), 1.0 + 0.5 * np.cos(2 * t),
            np.zeros_like(t), np.zeros_like(t),
        )
        # consecutive spans, each march starting from the last one's state
        a = g
        for span in [(0.0, 0.5), (0.5, 1.2), (1.2, 2.0), (2.0, 3.0)]:
            a, _ = evolve_a0(co, a, span, dt=1e-3)
            assert abs(a.norm() - g.norm()) < 1e-10

    def test_second_order_in_dt(self):
        g = gaussian_envelope(sigma=1.0)
        t = np.linspace(0.0, 1.0, 201)
        co = OscillatorCoefficients(
            t, np.ones_like(t), 1.0 + 0.5 * np.sin(2 * t), np.zeros_like(t),
            np.zeros_like(t),
        )

        def final(dt):
            return evolve_a0(co, g, (0.0, 1.0), dt=dt)[0].values

        ref = final(1.0 / 2 ** 13)
        e1 = np.linalg.norm(final(1.0 / 250) - ref)
        e2 = np.linalg.norm(final(1.0 / 500) - ref)
        assert e1 / e2 > 3.5

    def test_grid_overflow_raises(self):
        g = gaussian_envelope(sigma=1.0, half_width=5.0, n=128)
        co = OscillatorCoefficients.constant((0.0, 3.0), d2E=1.0)
        with pytest.raises(GridOverflow):
            evolve_a0(co, g, (0.0, 3.0), dt=1e-2)

    def test_outside_coefficient_span(self):
        g = gaussian_envelope(sigma=1.0)
        co = OscillatorCoefficients.constant((0.0, 0.5), d2E=1.0)
        with pytest.raises(GridMismatch):
            evolve_a0(co, g, (0.0, 1.0), dt=1e-2)


class TestEvolveA1:
    def _free_coeffs(self, d3W=0.0, T=1.0):
        return OscillatorCoefficients.constant((0.0, T), d3W=d3W)

    def test_zero_source_matches_a0(self):
        g = gaussian_envelope(sigma=1.0)
        co = OscillatorCoefficients.constant((0.0, 1.0), d2E=1.0, d2W=0.5)
        _, a1, _ = evolve_a1(co, g, g, (0.0, 1.0), dt=1e-3)
        a0_ref, _ = evolve_a0(co, g, (0.0, 1.0), dt=1e-3)
        assert l2_diff(a1, a0_ref.values) < 1e-12

    def test_cubic_position_source(self):
        # H = 0, I = (d3W/6) y^3: a1(t) = a1(0) - i t (d3W/6) y^3 a0(0)
        g = gaussian_envelope(sigma=1.0)
        co = self._free_coeffs(d3W=1.2)
        _, a1, _ = evolve_a1(co, g, g, (0.0, 1.0), dt=1e-3)
        exact = g.values - 1j * 1.0 * (1.2 / 6.0) * g.y ** 3 * g.values
        assert l2_diff(a1, exact) < 1e-9

    def test_roundoff_a1_is_measured_against_the_packet(self):
        # with no source a1 stays at roundoff size; its edge mass is
        # negligible next to a0, whatever fraction of a1's own it is
        g = gaussian_envelope(sigma=1.0)
        noise = np.random.default_rng(3).standard_normal((2, g.y.size))
        a1_init = Envelope(g.y, 1e-30 * (noise[0] + 1j * noise[1]))
        co = OscillatorCoefficients.constant((0.0, 1.0), d2E=1.0)
        _, a1, peak = evolve_a1(co, g, a1_init, (0.0, 1.0), dt=1e-2)
        assert peak < BOUNDARY_TOL
        assert a1.norm() < 1e-28

    def test_second_order_in_dt(self):
        g = gaussian_envelope(sigma=1.0)
        t = np.linspace(0.0, 1.0, 201)
        co = OscillatorCoefficients(
            t, np.ones_like(t), 1.0 + 0.5 * np.sin(2 * t),
            0.4 * np.ones_like(t), 0.3 * (1 + t),
        )

        def final(dt):
            return evolve_a1(co, g, g, (0.0, 1.0), dt=dt)[1].values

        ref = final(1.0 / 2 ** 12)
        e1 = np.linalg.norm(final(1.0 / 125) - ref)
        e2 = np.linalg.norm(final(1.0 / 250) - ref)
        assert e1 / e2 > 3.5


def _drive(d2W_zero: bool):
    """Smooth coefficient series; d2W = d3W = 0 is a linear W."""
    t = np.linspace(0.0, 0.6, 121)
    zero = np.zeros_like(t)
    q = 0.3 + 1.2 * t
    return OscillatorCoefficients(
        t, 1.0 + 0.3 * np.sin(t),
        zero if d2W_zero else -0.5 * np.cos(0.9 * q),
        0.2 * np.cos(t),
        zero if d2W_zero else 0.45 * np.sin(0.9 * q),
    )


class _StepLoop:
    """The transport written step by step: a scalar spline call per
    coefficient and step, numpy.fft, and the y phase always applied."""

    def __init__(self, co):
        self.sp = {n: UniformHermite(co.t_grid, getattr(co, n))
                   for n in ("d2E", "d2W", "d3E", "d3W")}
        self.lo, self.hi = co.t_grid[0], co.t_grid[-1]

    def at(self, t, name):
        return self.sp[name].value_slope(min(max(t, self.lo), self.hi))[0]

    @staticmethod
    def strang(values, k, y, dt, d2E, d2W):
        half_kin = np.exp(-0.25j * dt * d2E * k ** 2)
        pot = np.exp(-1j * dt * (0.5 * d2W * y ** 2))
        v = np.fft.ifft(half_kin * np.fft.fft(values))
        v *= pot
        return np.fft.ifft(half_kin * np.fft.fft(v))

    def a0(self, a_init, t_span, dt):
        t0, t1 = t_span
        n = max(1, int(round((t1 - t0) / dt)))
        h = (t1 - t0) / n
        y, k = a_init.y, a_init.k_grid()
        vals = a_init.values.copy()
        out = [vals]
        for j in range(n):
            tm = t0 + (j + 0.5) * h
            vals = self.strang(vals, k, y, h, self.at(tm, "d2E"),
                               self.at(tm, "d2W"))
            out.append(vals)
        return np.array(out)

    def a1(self, a_init, a0_vals, t_span, dt):
        t0, t1 = t_span
        n = max(1, int(round((t1 - t0) / dt)))
        h = (t1 - t0) / n
        y, k = a_init.y, a_init.k_grid()
        vals = a_init.values.copy()
        out = [vals]
        for j in range(n):
            tm = t0 + (j + 0.5) * h
            d2E, d2W = self.at(tm, "d2E"), self.at(tm, "d2W")
            d3E, d3W = self.at(tm, "d3E"), self.at(tm, "d3W")
            vals = self.strang(vals, k, y, h, d2E, d2W)
            a0_mid = a0_vals[2 * j + 1]
            src = (np.fft.ifft(d3E / 6.0 * k ** 3 * np.fft.fft(a0_mid))
                   + d3W / 6.0 * y ** 3 * a0_mid)
            half_kin = np.exp(-0.125j * h * d2E * k ** 2)
            pot = np.exp(-0.5j * h * (0.5 * d2W * y ** 2))
            src = np.fft.ifft(half_kin * np.fft.fft(src))
            src = np.fft.ifft(half_kin * np.fft.fft(pot * src))
            vals = vals - 1j * h * src
            out.append(vals)
        return np.array(out)


def _rows_close(a, b, rel):
    err = np.linalg.norm(a - b, axis=1)
    return bool(np.all(err <= rel * np.linalg.norm(b, axis=1)))


def _closed_form(co, a0_init, a1_init, t_span):
    """a0 and a1 at t_span[1] for a linear drive, in Fourier space:
    a0^ = e^{-i k^2 Phi2/2} a0^(t0), a1^ = e^{-i k^2 Phi2/2} (a1^(t0) -
    i (k^3/6) Phi3 a0^(t0)), Phi2 and Phi3 by quadrature of the d2E and d3E
    splines, piece by piece."""
    t0, t1 = t_span
    cuts = [t0, *co.t_grid[(co.t_grid > t0) & (co.t_grid < t1)], t1]

    def phi(name):
        sp = UniformHermite(co.t_grid, getattr(co, name))
        return sum(quad(lambda t: float(sp(t)), c0, c1)[0]
                   for c0, c1 in zip(cuts[:-1], cuts[1:]))

    k = a0_init.k_grid()
    spec0 = np.fft.fft(a0_init.values)
    phase = np.exp(-0.5j * k ** 2 * phi("d2E"))
    a0 = np.fft.ifft(phase * spec0)
    a1 = np.fft.ifft(phase * (np.fft.fft(a1_init.values)
                              - 1j * k ** 3 / 6.0 * phi("d3E") * spec0))
    return a0, a1


class TestTransportMatchesStepLoop:
    """A linear drive against the closed form, a curved one against the
    midpoint Strang march written step by step."""

    @pytest.mark.parametrize("d2W_zero", [True, False])
    def test_a0_and_a1(self, d2W_zero):
        co = _drive(d2W_zero)
        g = gaussian_envelope(sigma=1.0, center=0.5, momentum=0.3,
                              half_width=24.0, n=768)
        a1_init = Envelope(g.y, 0.1 * g.values)
        span, dt = (0.05, 0.55), 2e-3
        if d2W_zero:
            a0_ref, a1_ref = (v[None] for v in _closed_form(co, g, a1_init,
                                                            span))
        else:
            ref = _StepLoop(co)
            a0_path = ref.a0(g, span, dt / 2)
            a0_ref = a0_path[-1:]
            a1_ref = ref.a1(a1_init, a0_path, span, dt)[-1:]
        a0, _ = evolve_a0(co, g, span, dt / 2)
        assert _rows_close(a0.values[None], a0_ref, 1e-13)
        a0, a1, _ = evolve_a1(co, g, a1_init, span, dt)
        assert _rows_close(a0.values[None], a0_ref, 1e-13)
        assert _rows_close(a1.values[None], a1_ref, 1e-13)


class TestLinearDrive:
    """The closed-form transport of a drive with d2W = d3W = 0."""

    def test_refocused_overshoot_still_raises(self):
        # d2E changes sign, so Phi2 rises and falls back to 0 by t1: the
        # packet spreads past the grid edge mid-span and refocuses, and
        # only the step-time checks can see it
        t = np.linspace(0.0, 2.0, 201)
        zero = np.zeros_like(t)
        co = OscillatorCoefficients(t, 6.0 * np.cos(np.pi * t), zero, zero,
                                    zero)
        g = gaussian_envelope(sigma=0.5, half_width=4.0, n=128)
        a1 = Envelope(g.y, np.zeros(g.y.size, dtype=complex))
        assert co.linear_drive

        def edge_fraction(vals):
            n_edge = 3    # 5% of the half grid
            return (np.sum(np.abs(vals[:n_edge]) ** 2
                           + np.abs(vals[-n_edge:]) ** 2)
                    / np.sum(np.abs(vals) ** 2))

        final, _ = _closed_form(co, g, a1, (0.0, 2.0))
        middle, _ = _closed_form(co, g, a1, (0.0, 0.5))
        assert edge_fraction(final) < 1e-3 * BOUNDARY_TOL
        assert edge_fraction(middle) > 1e3 * BOUNDARY_TOL
        with pytest.raises(GridOverflow):
            evolve_a0(co, g, (0.0, 2.0), dt=0.05)
        with pytest.raises(GridOverflow):
            evolve_a1(co, g, a1, (0.0, 2.0), dt=0.05)

    def test_curved_path_agrees_within_its_estimate(self):
        # d2W = 1e-12 sends the same d2E and d3E through the Strang march;
        # its accepted states agree with the closed form within the march's
        # own step-doubling estimate
        eps, tol = 1.0 / 32.0, 1e-6
        t = np.linspace(0.0, 0.6, 121)
        d2E, d3E = 0.8 + 0.6 * np.sin(5.0 * t), 0.5 * np.cos(3.0 * t)
        zero = np.zeros_like(t)
        curved = OscillatorCoefficients(t, d2E, np.full_like(t, 1e-12), d3E,
                                        zero)
        linear = OscillatorCoefficients(t, d2E, zero, d3E, zero)
        assert linear.linear_drive and not curved.linear_drive
        g = gaussian_envelope(sigma=1.0, center=0.5, momentum=0.3,
                              half_width=12.0, n=256)
        a1 = Envelope(g.y, 0.1 * g.values)
        weights = (1.0, np.sqrt(eps))
        march = harness.march_envelopes(curved, (g, a1), [0.3, 0.6], weights,
                                        tol)
        assert harness.ROUNDOFF_FLOOR < march.error <= tol
        for t1, states in march.states.items():
            exact = evolve_a1(linear, g, a1, (0.0, t1), t1)[:2]
            err = sum(w * l2_diff(a, b.values)
                      for w, a, b in zip(weights, states, exact))
            assert err <= march.error, t1


class TestSample:
    def test_matches_pointwise_spline(self):
        co = _drive(False)
        t = np.concatenate([co.t_grid, np.linspace(0.0, 0.6, 997),
                            [0.6 + 5e-10]])
        for name in ("d2E", "d2W", "d3E", "d3W"):
            sp = UniformHermite(co.t_grid, getattr(co, name))
            each = [sp.value_slope(min(ti, 0.6))[0] for ti in t]
            assert np.array_equal(co.sample(t, name), each), name

    def test_outside_span_raises(self):
        co = _drive(True)
        for t in ([0.1, 0.6 + 1e-6], [-1e-6, 0.2]):
            with pytest.raises(GridMismatch):
                co.sample(np.array(t), "d2E")


class TestEnvelopeMarchMemory:
    def test_march_matches_a_march_storing_every_step(self):
        # the reference is one evolve_a1 march per gap between stops
        co = _drive(False)
        g = gaussian_envelope(sigma=1.0, center=0.5, momentum=0.3,
                              half_width=24.0, n=768)
        a1 = Envelope(g.y, 0.1 * g.values)
        stops, steps = [0.3, 0.58], [150, 140]
        got, peak = harness._march(co, (g, a1), 0.0, stops, steps)
        a0, ref_peak, t_now = g, 0.0, 0.0
        for i, (t, n) in enumerate(zip(stops, steps)):
            a0, a1, mass = evolve_a1(co, a0, a1, (t_now, t), (t - t_now) / n)
            ref_peak, t_now = max(ref_peak, mass), t
            assert np.array_equal(got[i][0].values, a0.values)
            assert np.array_equal(got[i][1].values, a1.values)
        assert peak == ref_peak

    def test_peak_is_far_below_a_stored_a0_path(self):
        # a stored a0 path would hold 2 n + 1 half-step states; the march
        # keeps a few states and the sampled coefficient series
        co = _drive(False)
        g = gaussian_envelope(sigma=1.0, half_width=24.0, n=768)
        a1 = Envelope(g.y, np.zeros(g.y.size, dtype=complex))
        t_stop = 0.5
        for n_steps in (250, 1000):
            path_bytes = (2 * n_steps + 1) * g.values.nbytes
            tracemalloc.start()
            try:
                harness._march(co, (g, a1), 0.0, [t_stop], [n_steps])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 0.1 * path_bytes, n_steps


class TestMarchEnvelopes:
    """The envelope step chosen by step doubling (harness.march_envelopes)."""

    EPS = 1.0 / 32.0
    TOL = 1e-7
    D2E, D3E = 0.8, 0.5

    def _derived(self, d2W):
        co = OscillatorCoefficients.constant((0.0, 0.6), d2E=self.D2E,
                                             d2W=d2W, d3E=self.D3E)
        g = gaussian_envelope(sigma=1.0, center=0.5, momentum=0.3,
                              half_width=10.0, n=128)
        a1 = Envelope(g.y, 0.1 * g.values)
        return g, a1, harness.march_envelopes(
            co, (g, a1), [0.3, 0.6], (1.0, np.sqrt(self.EPS)), self.TOL)

    def test_exact_solution_without_a_y_potential(self):
        # constant d2E, d3E and d2W = d3W = 0:
        #   a0^(t) = e^{-i d2E k^2 t/2} a0^(0)
        #   a1^(t) = e^{-i d2E k^2 t/2} (a1^(0) - i t (d3E/6) k^3 a0^(0))
        g, a1, march = self._derived(d2W=0.0)
        k, spec0 = g.k_grid(), np.fft.fft(g.values)
        assert march.error <= self.TOL
        for t, (a0_t, a1_t) in march.states.items():
            phase = np.exp(-0.5j * self.D2E * k ** 2 * t)
            exact0 = np.fft.ifft(phase * spec0)
            exact1 = np.fft.ifft(phase * (np.fft.fft(a1.values) - 1j * t
                                          * self.D3E / 6.0 * k ** 3 * spec0))
            assert l2_diff(a0_t, exact0) <= self.TOL
            assert np.sqrt(self.EPS) * l2_diff(a1_t, exact1) <= self.TOL

    def test_y_potential_needs_a_finer_step(self):
        # with d2W != 0 the split y phase makes the march second order, so
        # its step must shrink; the accepted march meets the tolerance
        # against a march at a far finer step
        _, _, free = self._derived(d2W=0.0)
        g, a1, osc = self._derived(d2W=1.0)
        assert osc.dt < free.dt
        assert osc.error <= self.TOL
        co = OscillatorCoefficients.constant((0.0, 0.6), d2E=self.D2E,
                                             d2W=1.0, d3E=self.D3E)
        a0_ref, a1_ref, _ = evolve_a1(co, g, a1, (0.0, 0.6), 0.6 / 2048)
        a0_t, a1_t = osc.states[0.6]
        err = (l2_diff(a0_t, a0_ref.values)
               + np.sqrt(self.EPS) * l2_diff(a1_t, a1_ref.values))
        assert err <= self.TOL

    def test_first_estimate_is_never_accepted(self):
        # whatever the tolerance, the march runs at 16, 32 and 64 steps
        # before a fall of the estimate can show; the boundary mass is the
        # peak over all three marches
        co = OscillatorCoefficients.constant((0.0, 0.6), d2E=1.0, d2W=1.0)
        g = gaussian_envelope(sigma=1.0, center=2.0, half_width=10.0, n=128)
        march = harness.march_envelopes(co, (g,), [0.3, 0.6], (1.0,), 1.0)
        assert march.dt == pytest.approx(0.6 / 64)
        peaks = [harness._march(co, (g,), 0.0, [0.3, 0.6], [n, n])[1]
                 for n in (8, 16, 32)]
        assert march.boundary_mass == max(peaks) > 0.0

    def test_unreachable_tolerance_raises(self):
        co = OscillatorCoefficients.constant((0.0, 0.6), d2E=1.0, d2W=1.0)
        g = gaussian_envelope(sigma=1.0, center=0.5, half_width=12.0, n=128)
        with pytest.raises(SolverBudgetExceeded,
                           match=r"estimate \d\.\d{3}e-\d+ exceeds the "
                                 r"tolerance 1\.000e-300 after 8 halvings"):
            harness.march_envelopes(co, (g,), [0.6], (1.0,), 1e-300)

    def test_stops_must_increase(self):
        co = OscillatorCoefficients.constant((0.0, 0.6), d2E=1.0)
        g = gaussian_envelope(sigma=1.0, half_width=12.0, n=128)
        with pytest.raises(ValueError):
            harness.march_envelopes(co, (g,), [0.4, 0.2], (1.0,), 1.0)


class TestBoundaryMass:
    def test_peak_edge_fraction_recorded(self):
        # a displaced packet swinging back to the centre: the edge mass
        # peaks at the first step, not the last
        g = gaussian_envelope(sigma=1.0, half_width=8.0, n=256, center=2.5)
        co = OscillatorCoefficients.constant((0.0, 1.5), d2E=1.0, d2W=1.0)
        _, peak = evolve_a0(co, g, (0.0, 1.5), dt=1e-2)
        rows = _StepLoop(co).a0(g, (0.0, 1.5), 1e-2)
        n_edge = 6    # 5% of the half grid
        edge = (np.sum(np.abs(rows[:, :n_edge]) ** 2, axis=1)
                + np.sum(np.abs(rows[:, -n_edge:]) ** 2, axis=1))
        frac = (edge / np.sum(np.abs(rows) ** 2, axis=1))[1:]
        assert np.argmax(frac) < frac.size - 1
        assert 0.0 < peak <= BOUNDARY_TOL
        assert peak == pytest.approx(np.max(frac), rel=1e-9, abs=0.0)


CASES = [
    # (envelope builder, dqW, slope_gap); the chirp convolution spreads the
    # input by roughly slope_gap / (|dqW| sigma), so these live on Y = 40
    (lambda: gaussian_envelope(sigma=1.0, half_width=40.0, n=1024),
     1.0, 2 * np.pi),
    (lambda: gaussian_envelope(sigma=0.8, center=1.5, momentum=1.0,
                               half_width=40.0, n=1024), -2.0, 4.0),
    (lambda: _hermite_like(), 2.3, 9.0),
]


def _hermite_like():
    y = make_grid(40.0, 1024)
    vals = y * np.exp(-(y ** 2) / 2.0)
    vals = vals / np.sqrt(np.sum(np.abs(vals) ** 2) * (y[1] - y[0]))
    return Envelope(y, vals.astype(complex))


def _excited_by_quadrature(a_star, dqW_star, slope_gap, coupling,
                           refine: int = 4):
    """Oracle for excited_envelope: direct chirp-kernel convolution.

    Convolves a* with K(u) = e^{i a u^2/sg^2}/sg by composite Simpson weights
    and a smooth endpoint taper, fully independent of the frequency route.
    """
    a_coef = _chirp_params(dqW_star, slope_gap)
    y, dy = a_star.y, a_star.dy
    # band-limited refinement of a* onto an r-times finer grid, fine enough
    # to resolve the chirp phase over the whole grid (>= 10 points per pi)
    r = refine
    rate = 2.0 * abs(a_coef) * a_star.half_width / slope_gap ** 2
    while np.pi / (rate * dy / r + 1e-300) < 10 and r < 64:
        r *= 2
    fine_vals = _spectral_refine(a_star.values, r)
    du = dy / r
    m = fine_vals.size
    # kernel support must cover [y - supp, y + supp] for every y on the
    # grid, supp being the numerical support radius of a*: pad beyond the
    # y window so the oscillatory cancellation is never cut mid-envelope
    amax = np.max(np.abs(fine_vals))
    alive = np.nonzero(np.abs(fine_vals) > 1e-14 * amax)[0]
    y_fine = y[0] + du * np.arange(m)
    supp = max(abs(y_fine[alive[0]]), abs(y_fine[alive[-1]]))
    pad_cells = int(np.ceil((supp + 4.0) / du))
    if (m + 2 * pad_cells) % 2 == 0:
        pad_cells += 1
    mk = m + 2 * pad_cells
    u = -(a_star.half_width + pad_cells * du) + du * np.arange(mk)
    kern = np.exp(1j * (a_coef / slope_gap ** 2) * u ** 2) / slope_gap
    # composite Simpson weights (mk odd) over the kernel support
    w = np.ones(mk)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= du / 3.0
    # smooth endpoint damping, confined to the pad so no on-grid y loses
    # kernel coverage of the envelope support
    n_taper = max(4, int(round(2.0 / du)))
    ramp = np.sin(0.5 * np.pi * np.arange(n_taper) / n_taper) ** 2
    w[:n_taper] *= ramp
    w[-n_taper:] *= ramp[::-1]
    # alignment: a* index i sits at y = -Y + i du, kernel index l at
    # u = -(Y + pad) + l du, so the result at y index j is the full linear
    # convolution at index j + m//2 + pad_cells
    conv = np.convolve(fine_vals, kern * w)
    start = m // 2 + pad_cells
    vals = dqW_star * coupling * conv[start: start + m: r]
    return Envelope(y, vals, t=a_star.t)


class TestExcitedEnvelope:
    def test_zero_coupling_gives_zero(self):
        g = gaussian_envelope(sigma=1.0)
        out = excited_envelope(g, 1.0, 2 * np.pi, 0.0)
        assert out.norm() == 0.0

    def test_degenerate_slopes_raises(self):
        g = gaussian_envelope(sigma=1.0)
        with pytest.raises(DegenerateSlopes):
            excited_envelope(g, 1.0, 0.0, 0.1)

    def test_zero_drive_raises(self):
        g = gaussian_envelope(sigma=1.0)
        with pytest.raises(ValueError):
            excited_envelope(g, 0.0, 2 * np.pi, 0.1)

    @pytest.mark.parametrize("case", range(3))
    def test_routes_agree(self, case):
        build, dqW, sg = CASES[case]
        a_star = build()
        spect = excited_envelope(a_star, dqW, sg, 0.1)
        quad = _excited_by_quadrature(a_star, dqW, sg, 0.1)
        assert l2_diff(spect, quad.values) < 1e-6

    @pytest.mark.parametrize("case", range(3))
    def test_norm_identity(self, case):
        build, dqW, sg = CASES[case]
        a_star = build()
        out = excited_envelope(a_star, dqW, sg, 0.1)
        predicted = predict_excited_mass(dqW, 0.1, sg, a_star.norm(), 1.0)
        assert abs(out.norm() ** 2 - predicted) < 1e-6

    def test_reference_mass_value(self):
        # dqW = 1, sg = 2 pi, kappa = 0.1, unit-norm input: mass = 0.01
        g = gaussian_envelope(sigma=1.0)
        out = excited_envelope(g, 1.0, 2 * np.pi, 0.1)
        assert abs(out.norm() ** 2 - 0.01) < 1e-10
        assert abs(predict_excited_mass(1.0, 0.1, 2 * np.pi, 1.0, 1.0)
                   - 0.01) < 1e-15

    def test_unknown_route(self):
        # the closed form is the only route; the quadrature is a test oracle
        g = gaussian_envelope(sigma=1.0)
        with pytest.raises(TypeError):
            excited_envelope(g, 1.0, 2 * np.pi, 0.1, route="quadrature")


class TestFresnelLower:
    def test_complete_limit(self):
        for a in (0.5, -2.0, np.pi):
            full = np.sqrt(np.pi / abs(a)) * np.exp(
                1j * np.sign(a) * np.pi / 4)
            got = _fresnel_lower(np.array([1e4]), a)[0]
            assert abs(got - full) < 1e-3 * abs(full)

    def test_zero_is_half(self):
        for a in (0.5, -2.0):
            full = np.sqrt(np.pi / abs(a)) * np.exp(
                1j * np.sign(a) * np.pi / 4)
            got = _fresnel_lower(np.array([0.0]), a)[0]
            assert abs(got - full / 2) < 1e-12

    def test_antisymmetry_identity(self):
        # I(u0) + I(-u0) = I_complete, by evenness of exp(i a u^2)
        a = 1.7
        u0 = np.linspace(-8.0, 8.0, 41)
        full = np.sqrt(np.pi / a) * np.exp(1j * np.pi / 4)
        s = _fresnel_lower(u0, a) + _fresnel_lower(-u0, a)
        assert np.max(np.abs(s - full)) < 1e-12

    def test_against_quadrature(self):
        from scipy.integrate import quad
        a = -1.3
        for u0 in (-2.0, 0.7, 3.1):
            re = quad(lambda u: np.cos(a * u * u), -60.0, u0, limit=4000)[0]
            im = quad(lambda u: np.sin(a * u * u), -60.0, u0, limit=4000)[0]
            tail = _fresnel_lower(np.array([-60.0]), a)[0]
            got = _fresnel_lower(np.array([u0]), a)[0]
            assert abs(got - (tail + re + 1j * im)) < 1e-6


class TestExcitedBuildup:
    def setup_method(self):
        self.a_star = gaussian_envelope(sigma=1.0, half_width=40.0, n=1024)
        self.dqW, self.sg, self.kappa = 1.0, 2 * np.pi, 0.1
        self.full = excited_envelope(self.a_star, self.dqW, self.sg, self.kappa)

    def test_far_past_is_small(self):
        path = excited_buildup(self.a_star, self.dqW, self.sg, self.kappa,
                               [-50.0])
        assert path[-1].norm() < 0.02 * self.full.norm()

    def test_far_future_matches_full(self):
        path = excited_buildup(self.a_star, self.dqW, self.sg, self.kappa,
                               [80.0])
        assert l2_diff(self.full, path[-1].values) < 0.02 * self.full.norm()

    def test_seed_at_zero_is_half_scale(self):
        # at s = 0 the k = 0 component is exactly half the complete integral
        path = excited_buildup(self.a_star, self.dqW, self.sg, self.kappa,
                               [0.0])
        dy = self.a_star.dy
        mean_seed = np.sum(path[-1].values) * dy
        mean_full = np.sum(self.full.values) * dy
        assert abs(mean_seed - 0.5 * mean_full) < 1e-10 * abs(mean_full)

    def test_path_interpolates_monotone_mass_envelope(self):
        s = np.linspace(-40.0, 60.0, 51)
        path = excited_buildup(self.a_star, self.dqW, self.sg, self.kappa, s)
        norms = [e.norm() for e in path]
        assert norms[0] < 0.05 * norms[-1]
        assert abs(norms[-1] - self.full.norm()) < 0.03 * self.full.norm()


class TestCoefficientsFromTrajectory:
    def test_free_band_linear_ramp(self):
        from bandcross.bloch import band_path
        from bandcross.classical import SplineBand, integrate_flow
        from bandcross.potential import linear_ramp, potential_from_coeffs

        V = potential_from_coeffs({})
        path = band_path(V, 1, (1.2, 2.8), n_samples=257, m_cut=24)
        W = linear_ramp(0.5)
        traj = integrate_flow(SplineBand(path), W, q0=0.0, p0=1.5,
                              t_span=(0.0, 2.0), dt=1e-3)
        co = coefficients_from_trajectory(traj, W)
        assert np.allclose(co.d2E, 1.0, atol=1e-7)
        assert np.allclose(co.d3E, 0.0, atol=1e-5)
        assert np.allclose(co.d2W, 0.0, atol=1e-14)
