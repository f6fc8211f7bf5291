"""Potential families: Fourier representations and elliptic evaluation.

The Weierstrass ODE invariant (wp')^2 = 4 wp^3 - g2 wp - g3 is the primary
oracle; the raw (tail-corrected) lattice sum cross-checks the row-summed
evaluator against the defining series.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bandcross.errors import PoleProximity
from bandcross.potential import (
    EllipticParams,
    cosine_external,
    eisenstein_invariants,
    evaluate_periodic,
    linear_ramp,
    make_cosine,
    make_m_gap,
    potential_from_coeffs,
    weierstrass_p,
    weierstrass_p_prime,
    zero_external,
)


def lattice_sum_wp(z, omega_prime, R=110):
    """Literal truncated lattice sum with quadratic/quartic tail correction.

    Beyond the symmetric truncation box the summand expands as
    3 z^2 / Omega^4 + 5 z^4 / Omega^6 + odd terms that cancel pairwise, so the
    tail is recovered from full-minus-truncated Eisenstein sums.
    """
    m = np.arange(-R, R + 1)
    M, N = np.meshgrid(m, m, indexing="ij")
    Om = (M + 2j * N * omega_prime)[(M != 0) | (N != 0)]
    raw = 1.0 / z**2 + np.sum(1.0 / (z - Om) ** 2 - 1.0 / Om**2)
    s4_trunc = np.sum(1.0 / Om**4)
    s6_trunc = np.sum(1.0 / Om**6)
    g2, g3 = eisenstein_invariants(omega_prime)
    s4_full, s6_full = g2 / 60.0, g3 / 140.0
    return raw + 3.0 * z**2 * (s4_full - s4_trunc) + 5.0 * z**4 * (s6_full - s6_trunc)


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


class TestWeierstrass:
    @pytest.mark.parametrize("omega_prime", [0.3, 0.5, 0.8])
    def test_ode_invariant(self, omega_prime):
        par = EllipticParams(1, omega_prime)
        g2, g3 = par.invariants
        x = np.linspace(0.0, 1.0, 23)
        z = x + 1j * omega_prime
        p = weierstrass_p(z, par)
        pp = weierstrass_p_prime(z, par)
        residual = np.abs(pp**2 - (4 * p**3 - g2 * p - g3))
        assert residual.max() < 1e-10

    def test_matches_lattice_definition(self):
        par = EllipticParams(1, 0.4)
        for z in (0.23 + 0.4j, 0.41 + 0.17j, -0.32 + 0.55j):
            assert abs(weierstrass_p(z, par) - lattice_sum_wp(z, 0.4)) < 1e-8

    def test_double_periodicity_and_evenness(self):
        par = EllipticParams(1, 0.35)
        z = 0.27 + 0.22j
        p0 = weierstrass_p(z, par)
        assert abs(weierstrass_p(z + 1.0, par) - p0) < 1e-12
        assert abs(weierstrass_p(z + 0.7j, par) - p0) < 1e-12
        assert abs(weierstrass_p(-z, par) - p0) < 1e-12

    def test_real_on_evaluation_line(self):
        par = EllipticParams(1, 0.3)
        vals = weierstrass_p(np.linspace(0, 1, 31) + 0.3j, par)
        assert np.abs(vals.imag).max() < 1e-12 * np.abs(vals.real).max()

    def test_pole_proximity(self):
        par = EllipticParams(1, 0.5)
        with pytest.raises(PoleProximity):
            weierstrass_p(1e-9 + 0j, par)
        with pytest.raises(PoleProximity):
            weierstrass_p(1.0 + 1.0000000001j, par)  # lattice point 1 + 2i w'

    def test_pole_proximity_names_the_first_point_of_an_array(self):
        par = EllipticParams(1, 0.5)
        z = np.array([[0.3 + 0.1j, 2.0 + 1e-8j],
                      [1.0 + 1.0000000001j, 0.5j]])
        for f in (weierstrass_p, weierstrass_p_prime):
            with pytest.raises(PoleProximity, match=r"z = \(2\+1e-08j\) "):
                f(z, par)

    def test_lemniscatic_g3_vanishes(self):
        # square lattice (w' = 1/2): g3 = 0 by symmetry
        g2, g3 = eisenstein_invariants(0.5)
        assert abs(g3) < 1e-10 * abs(g2)


class TestMGap:
    def test_reconstruction(self):
        par = EllipticParams(1, 0.8)
        V = make_m_gap(par)
        z = np.linspace(0, 1, 64, endpoint=False)
        direct = weierstrass_p(z + 0.8j, par).real
        np.testing.assert_allclose(evaluate_periodic(V, z), direct, atol=1e-8)

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
