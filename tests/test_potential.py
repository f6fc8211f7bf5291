"""Potential families: Fourier representations and the finite-gap series.

The finite-gap coefficients come from the closed q-series of the
Weierstrass function; their oracle is wp's ODE (wp')^2 = 4 wp^3 - g2 wp - g3,
read off the series itself as "(u')^2 - 4 u^3 is affine in u", together with
the spectrum it must produce (one open gap) and pinned values.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bloch_oracle import eigensolve
from bandcross.potential import (
    EllipticParams,
    PeriodicPotential,
    cosine_external,
    evaluate_periodic,
    linear_ramp,
    make_cosine,
    make_m_gap,
    potential_from_coeffs,
    zero_external,
)


def ode_residual(V: PeriodicPotential, g: float) -> float:
    """Least-squares residual of (u')^2 - 4 u^3 against a line in u = V/g.

    The line is fitted on 64 points of the period; u' comes from the series
    (coefficients times 2 pi i m); the residual is relative to
    max |(u')^2 - 4 u^3|.
    """
    m = np.arange(-V.m_max, V.m_max + 1)
    x = np.arange(64) / 64
    u = evaluate_periodic(V, x) / g
    du = evaluate_periodic(PeriodicPotential(2j * np.pi * m * V.coeffs), x) / g
    lhs = du**2 - 4.0 * u**3
    A = np.column_stack([u, np.ones_like(u)])
    fit, *_ = np.linalg.lstsq(A, lhs, rcond=None)
    return float(np.abs(lhs - A @ fit).max() / np.abs(lhs).max())


class TestCosine:
    def test_coefficients(self):
        V = make_cosine(4.0)
        assert V.coeff(1) == pytest.approx(2.0)
        assert V.coeff(-1) == pytest.approx(2.0)
        assert V.coeff(0) == 0.0
        assert V.coeff(2) == 0.0

    def test_values(self):
        V = make_cosine(4.0)
        assert evaluate_periodic(V, 0.0) == pytest.approx(4.0, abs=1e-14)
        assert evaluate_periodic(V, 0.25) == pytest.approx(0.0, abs=1e-14)
        assert evaluate_periodic(V, 0.5) == pytest.approx(-4.0, abs=1e-14)

    def test_half_periodic_harmonics(self):
        V = make_cosine(4.0, harmonics=2)
        z = np.linspace(0, 1, 37)
        np.testing.assert_allclose(
            evaluate_periodic(V, z), 4.0 * np.cos(4 * np.pi * z), atol=1e-13
        )

    def test_decay_floor_guard_modes(self):
        assert make_cosine(4.0).decay_floor() == 0.0


class TestPeriodicRepresentation:
    def test_rejects_non_real(self):
        with pytest.raises(ValueError):
            potential_from_coeffs({0: 1j})

    def test_from_coeffs_round_trip(self):
        V = potential_from_coeffs({0: 0.5, 1: 1.0 + 0.25j, 3: -0.125j})
        z = np.linspace(0, 2, 41)
        expected = (
            0.5
            + 2 * np.real((1.0 + 0.25j) * np.exp(2j * np.pi * z))
            + 2 * np.real(-0.125j * np.exp(6j * np.pi * z))
        )
        np.testing.assert_allclose(evaluate_periodic(V, z), expected, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                                       allow_infinity=False), min_size=1, max_size=6))
    def test_periodicity_random_coeffs(self, vals):
        vals[0] = vals[0].real  # the constant mode must be real
        V = potential_from_coeffs({m: v for m, v in enumerate(vals)})
        z = np.linspace(-1.3, 1.3, 17)
        np.testing.assert_allclose(
            evaluate_periodic(V, z), evaluate_periodic(V, z + 1.0), atol=1e-10
        )


class TestMGap:
    @pytest.mark.parametrize("omega_prime", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("gaps", [1, 2])
    def test_ode_invariant(self, omega_prime, gaps):
        V = make_m_gap(EllipticParams(gaps, omega_prime))
        assert ode_residual(V, gaps * (gaps + 1) / 2.0) < 1e-12

    def test_one_open_gap(self):
        # the one-gap Lame potential: bands 1 and 2 are split at p = pi,
        # every higher gap is closed (bands 2-3 touch at 0, 3-4 at pi, 4-5
        # at 0)
        V = make_m_gap(EllipticParams(1, 0.3), m_max=15)
        e0, _ = eigensolve(V, 0.0, 5, m_cut=40)
        epi, _ = eigensolve(V, np.pi, 5, m_cut=40)
        assert epi[1] - epi[0] > 1.0
        for gap in (e0[2] - e0[1], epi[3] - epi[2], e0[4] - e0[3]):
            assert gap < 1e-9

    def test_pinned_coefficients(self):
        V = make_m_gap(EllipticParams(1, 0.3), m_max=15)
        assert V.coeff(0) == pytest.approx(-1.339664510743031, rel=1e-14)
        for k in (1, -1):
            assert V.coeff(k) == pytest.approx(-6.13569007651669, rel=1e-14)

    def test_gap_count_scaling(self):
        par = EllipticParams(2, 0.5)
        V = make_m_gap(par)
        base = make_m_gap(EllipticParams(1, 0.5))
        np.testing.assert_allclose(V.coeffs, 3.0 * base.coeffs, atol=1e-12)

    def test_even_potential_real_coeffs(self):
        V = make_m_gap(EllipticParams(1, 0.3))
        assert np.abs(V.coeffs.imag).max() < 1e-10
        z = np.linspace(0, 1, 17)
        np.testing.assert_allclose(
            evaluate_periodic(V, z), evaluate_periodic(V, -z), atol=1e-10
        )

    def test_coefficient_decay(self):
        V = make_m_gap(EllipticParams(1, 0.3))
        scale = np.abs(V.coeffs).max()
        assert V.decay_floor() < 1e-12 * scale


class TestExternal:
    def test_linear_ramp(self):
        W = linear_ramp(0.25, q_ref=2.0)
        q = np.array([0.0, 2.0, 6.0])
        np.testing.assert_allclose(W(q), [0.5, 0.0, -1.0])
        np.testing.assert_allclose(W.dw(q), -0.25)
        np.testing.assert_allclose(W.d2w(q), 0.0)
        np.testing.assert_allclose(W.d3w(q), 0.0)

    def test_cosine_derivatives(self):
        W = cosine_external(0.5, 1.5)
        q = np.linspace(-3, 3, 11)
        h = 1e-5
        fd = (W(q + h) - W(q - h)) / (2 * h)
        np.testing.assert_allclose(W.dw(q), fd, atol=1e-8)
        fd2 = (W.dw(q + h) - W.dw(q - h)) / (2 * h)
        np.testing.assert_allclose(W.d2w(q), fd2, atol=1e-8)
        fd3 = (W.d2w(q + h) - W.d2w(q - h)) / (2 * h)
        np.testing.assert_allclose(W.d3w(q), fd3, atol=1e-8)

    def test_zero(self):
        W = zero_external()
        assert W(np.array([1.0, 2.0])).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("alpha", [2.0, 0.0, -0.25])
    def test_constant_callables_keep_the_argument_kind(self, alpha):
        # the scalar flow calls dw with a float at every RK4 stage: a float
        # comes back, bit for bit the value of the array formula
        W, Z = linear_ramp(alpha, q_ref=1.0), zero_external()
        q = np.linspace(-3.0, 3.0, 7)
        cases = [(W.dw, lambda x: -alpha * np.ones_like(x)),
                 (W.d2w, np.zeros_like), (W.d3w, np.zeros_like)]
        cases += [(f, np.zeros_like) for f in (Z.w, Z.dw, Z.d2w, Z.d3w)]
        for f, formula in cases:
            assert type(f(0.7)) is float
            assert (np.float64(f(0.7)).tobytes()
                    == np.asarray(formula(0.7), dtype=float).tobytes())
            assert isinstance(f(q), np.ndarray)
            assert f(q).tobytes() == formula(q).tobytes()
