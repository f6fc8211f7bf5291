"""Tests for the two-level Landau-Zener propagator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandcross.ansatz import predict_excited_mass
from bandcross.lz import simulate


def linear_gap(slope, t_star=1.0):
    return lambda t: slope * (np.asarray(t) - t_star)


def constant(value):
    return lambda t: np.full(np.shape(t), value, dtype=complex)


def transfer(gap, coupling, eps, t_span=(0.0, 2.0)):
    return abs(simulate(gap, coupling, eps, t_span)[1, 0]) ** 2


class TestSimulate:
    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            simulate(linear_gap(1.0), constant(0.1), 0.0, (0.0, 2.0))

    def test_t_span_must_increase(self):
        with pytest.raises(ValueError):
            simulate(linear_gap(1.0), constant(0.1), 1e-2, (2.0, 2.0))

    def test_zero_coupling_is_identity(self):
        U = simulate(linear_gap(1.0), constant(0.0), 1e-2, (0.0, 2.0))
        assert np.all(U == np.eye(2))

    def test_norm_conserved(self):
        U = simulate(linear_gap(1.0), constant(0.1), 1e-3, (0.0, 2.0))
        assert np.max(np.abs(U.conj().T @ U - np.eye(2))) <= 1e-10

    def test_reference_transition(self):
        # slope 1, coupling 0.1, eps 1e-4: transferred mass 2 pi 1e-6
        target = 2.0 * np.pi * 0.01 * 1e-4
        got = transfer(linear_gap(1.0), constant(0.1), 1e-4)
        assert abs(got - target) < 0.05 * target

    def test_matches_adaptive_oracle(self):
        # independent integrator family as oracle: DOP853 on the same system,
        # with the phase referenced at t_span[0]
        from scipy.integrate import solve_ivp

        eps = 1e-2
        U = simulate(linear_gap(1.0),
                     lambda t: 0.3 * np.exp(1j * np.asarray(t) ** 2),
                     eps, (0.0, 2.0))

        def rhs(t, y):
            phi = 0.5 * t * t - t
            f = 0.3 * np.exp(1j * t * t) * np.exp(1j * phi / eps)
            return [f * y[1], -np.conj(f) * y[0]]

        sol = solve_ivp(rhs, (0.0, 2.0), [1.0 + 0.0j, 0.0 + 0.0j],
                        method="DOP853", rtol=1e-12, atol=1e-14)
        assert abs(U[1, 0] - sol.y[1, -1]) < 1e-8
        assert abs(U[0, 0] - sol.y[0, -1]) < 1e-8

    def test_time_varying_coupling(self):
        # a coupling that vanishes at the crossing transfers only O(eps^2)
        eps = 1e-4
        gated = transfer(linear_gap(1.0),
                         lambda t: 0.1 * (np.asarray(t) - 1.0), eps)
        flat = transfer(linear_gap(1.0), constant(0.1), eps)
        assert gated < 0.05 * flat

    @settings(max_examples=10, deadline=None)
    @given(slope=st.floats(0.5, 2.0), kappa=st.floats(0.01, 0.3),
           phase=st.floats(0.0, 6.28))
    def test_unitary_for_any_coupling(self, slope, kappa, phase):
        U = simulate(linear_gap(slope), constant(kappa * np.exp(1j * phase)),
                     1e-2, (0.0, 2.0))
        # exactly unitary steps; only roundoff accumulates
        assert np.max(np.abs(U.conj().T @ U - np.eye(2))) <= 5e-12


class TestPredict:
    def test_simulate_converges_to_predict(self):
        # slope 1, coupling 0.1: the transfer approaches 2 pi |c|^2 eps
        devs = []
        for eps in (1e-2, 1e-3, 1e-4):
            got = transfer(linear_gap(1.0), constant(0.1), eps)
            law = predict_excited_mass(1.0, 0.1, 1.0, 1.0, eps)
            devs.append(abs(got / law - 1.0))
        assert devs[2] < 0.05
        assert devs[2] < devs[1] < devs[0]

    def test_matches_excited_mass_dictionary(self):
        # dictionary: gap slope sg |pdot| and coupling pdot kappa make the
        # leading order of the transfer the pipeline's excited-mass law
        sg, dqw, kappa_p = 7.3, -1.7, 0.004 + 0.001j
        pdot = -dqw
        devs = []
        for eps in (1e-2, 1e-3, 1e-4):
            got = transfer(linear_gap(sg * abs(pdot)),
                           constant(pdot * kappa_p), eps)
            law = predict_excited_mass(dqw, kappa_p, sg, 1.0, eps)
            devs.append(abs(got / law - 1.0))
        assert devs[2] < 0.05
        assert devs[2] < devs[1] < devs[0]
