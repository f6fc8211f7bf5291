"""Band structure, band touchings, gauge transport and coupling tests.

Oracle strategy: the free fiber diagonalizes exactly (folded parabolas), so
every derived quantity (slopes, curvature tables, Berry connection, coupling)
is checked there against closed forms first; potentials with known gap
structure (single cosine: all gaps open; half-periodic cosine: odd gaps
closed with zero coupling; one-gap elliptic: only the lowest gap open) pin
down where the fiber eigenvalues touch; the perturbative coupling route is
cross-checked against centered finite differences of the gauge-fixed
eigenvector path.
"""
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bandcross import bloch
from bandcross.ansatz import path_dp_chi
from bandcross.bloch import (
    band_path,
    coupling_coefficient,
    fix_gauge,
    smooth_continuation,
)
from bandcross.errors import (
    IsolationFailure,
    NoCrossing,
    NotLinearCrossing,
    OverlapCollapse,
    TruncationTooSmall,
)
from bandcross.potential import (
    EllipticParams,
    PeriodicPotential,
    make_cosine,
    make_m_gap,
    potential_from_coeffs,
)
from bloch_oracle import assemble, eigensolve

TWO_PI = 2.0 * np.pi


def free_potential():
    return potential_from_coeffs({1: 0.0, 2: 0.0})


@pytest.fixture(scope="module")
def one_gap():
    return make_m_gap(EllipticParams(gap_count=1, omega_prime=0.8), m_max=16)


@pytest.fixture(scope="module")
def one_gap_pair(one_gap):
    return smooth_continuation(one_gap, 2, 0.0, halfwidth=0.5,
                               n_samples=201, m_cut=32)


def free_levels(p, count):
    m = np.arange(-40, 41)
    return np.sort(0.5 * (p + TWO_PI * m) ** 2)[:count]


# a pair gap below this counts as a band touching
TOUCH = 1e-8


def pair_gaps(V, p_grid, n_pairs, m_cut):
    """E_{n+1} - E_n for n = 1 .. n_pairs at every p of the grid."""
    return np.array([np.diff(eigensolve(V, float(p), n_pairs + 1, m_cut)[0])
                     for p in p_grid])


def touchings(V, n_points, n_pairs, m_cut):
    """{n: grid momenta where bands (n, n+1) touch} over [0, 2 pi]."""
    p = np.linspace(0, TWO_PI, n_points)
    g = pair_gaps(V, p, n_pairs, m_cut)
    return {n: set(np.round(p[g[:, n - 1] < TOUCH], 9))
            for n in range(1, n_pairs + 1)}


ZERO, PI = {0.0, round(TWO_PI, 9)}, {round(np.pi, 9)}


def _berry_connection(p_samples, chi_path):
    """A(p) = i <chi|d_p chi> from centered differences of a gauge-fixed path.

    The estimator -Im <chi_k|(chi_{k+1} - chi_{k-1})>/(2 dp) is exactly real;
    one-sided differences close the ends.
    """
    p = np.asarray(p_samples, dtype=float)
    n = p.size
    A = np.empty(n)
    for k in range(n):
        lo, hi = max(k - 1, 0), min(k + 1, n - 1)
        A[k] = -np.imag(np.vdot(chi_path[k], chi_path[hi] - chi_path[lo])) / (p[hi] - p[lo])
    return A


def _verify_symmetry_identity(pair):
    """Sup over the window of || chi_-(p) - e^{i phi} T chi_+(2 pi - p) ||.

    T is the antiunitary map chi -> e^{-2 pi i z} conj(chi), which sends the
    fiber at p to the fiber at 2 pi - p and exchanges the branches of a
    crossing at p_star = pi.  The constant phase phi is fixed at p_star.
    """
    if abs(pair.p_star - np.pi) > 1e-6:
        raise ValueError("symmetry identity applies at p_star = pi only")

    def tmap(c):
        # (T c)_m = conj(c_{-m-1}); the source index -m-1 runs off the top of
        # the truncation for m = m_cut, where the coefficient is negligible.
        M = (c.size - 1) // 2
        return np.append(np.conj(c[:2 * M][::-1]), 0.0)

    i_star = pair.i_star
    n = pair.plus.p_samples.size
    t_at_star = tmap(pair.plus.chi[i_star])
    ov = np.vdot(pair.minus.chi[i_star], t_at_star)
    if abs(ov) < 1e-12:
        return float(np.sqrt(2.0))
    phase = np.conj(ov) / abs(ov)
    worst = 0.0
    for i in range(n):
        j = n - 1 - i  # mirrored sample: p_j = 2 p_star - p_i
        pred = phase * tmap(pair.plus.chi[j])
        worst = max(worst, float(np.linalg.norm(pair.minus.chi[i] - pred)))
    return worst


def resolvent_dp_chi(V, p, energy, chi, m_cut):
    """d_p chi in the gauge <chi|d_p chi> = 0 by first-order perturbation.

    sum_k |k><k|velocity|chi> / (E - E_k) over the fiber's eigenpairs k
    other than chi's own, where the velocity operator p - i d/dz is diagonal
    with symbol p + 2 pi m.
    """
    velocity = p + TWO_PI * np.arange(-m_cut, m_cut + 1)
    evals, vecs = eigensolve(V, p, velocity.size, m_cut)
    rest = np.arange(evals.size) != np.argmax(np.abs(vecs.conj() @ chi))
    amps = (vecs[rest].conj() @ (velocity * chi)) / (energy - evals[rest])
    return vecs[rest].T @ amps


class TestFreeBands:
    def test_eigenvalues_match_folded_parabolas(self):
        V = free_potential()
        for p in np.linspace(0.05, TWO_PI - 0.05, 17):
            evals, _ = eigensolve(V, float(p), 8, m_cut=24)
            assert np.max(np.abs(evals - free_levels(p, 8))) < 1e-12

    def test_degenerate_pair_at_pi(self):
        evals, _ = eigensolve(free_potential(), np.pi, 2, m_cut=24)
        assert abs(evals[0] - np.pi ** 2 / 2) < 1e-12
        assert abs(evals[1] - np.pi ** 2 / 2) < 1e-12

    def test_eigenvectors_orthonormal(self):
        _, vecs = eigensolve(free_potential(), 1.3, 6, m_cut=16)
        G = vecs.conj() @ vecs.T
        assert np.max(np.abs(G - np.eye(6))) < 1e-12


class TestAssemble:
    def test_hermitian(self, one_gap):
        for p in (0.0, 0.7, np.pi):
            H = assemble(one_gap, p, m_cut=20)
            assert np.max(np.abs(H - H.conj().T)) == 0.0

    def test_truncation_guard(self, one_gap):
        with pytest.raises(TruncationTooSmall):
            assemble(one_gap, 0.3, m_cut=one_gap.m_max - 1)

    @given(p=st.floats(-10, 10), amp=st.floats(0.1, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_energies_sorted_any_fiber(self, p, amp):
        V = make_cosine(amp)
        evals, _ = eigensolve(V, p, 6, m_cut=12)
        assert np.all(np.diff(evals) >= -1e-13)


class TestDetectCrossings:
    """Where the fiber eigenvalues of the known potentials touch."""

    def test_free_bands_touch_on_half_lattice(self):
        found = touchings(free_potential(), 257, 4, m_cut=16)
        assert found == {1: PI, 2: ZERO, 3: PI, 4: ZERO}

    def test_single_cosine_all_gaps_open(self):
        p = np.linspace(0, TWO_PI, 257)
        assert pair_gaps(make_cosine(4.0), p, 4, m_cut=16).min() > TOUCH

    def test_half_periodic_odd_gaps_closed(self):
        V = potential_from_coeffs({2: 2.0, 3: 0.0, 4: 0.0})  # 4 cos(4 pi z)
        found = touchings(V, 513, 4, m_cut=24)
        assert found == {1: PI, 2: set(), 3: PI, 4: set()}

    def test_one_gap_only_lowest_gap_open(self, one_gap):
        # the finite-gap property: gap (1, 2) open, every higher pair touches
        found = touchings(one_gap, 513, 4, m_cut=32)
        assert found == {1: set(), 2: ZERO, 3: PI, 4: ZERO}

    def test_one_gap_lowest_gap_width_positive(self, one_gap):
        p = np.linspace(0, TWO_PI, 129)
        assert pair_gaps(one_gap, p, 1, m_cut=32).min() > 0.1


class TestFixGauge:
    def _path(self, n=41):
        V = make_cosine(3.0)
        p = np.linspace(0.4, 2.2, n)
        chi = np.empty((n, 25), dtype=complex)
        for i, pi in enumerate(p):
            _, vecs = eigensolve(V, float(pi), 1, m_cut=12)
            chi[i] = vecs[0]
        return p, chi

    def test_successive_overlaps_real_positive(self):
        _, chi = self._path()
        fixed = fix_gauge(chi, anchor=20)
        ov = np.einsum("ij,ij->i", fixed[:-1].conj(), fixed[1:])
        assert np.all(ov.real > 0.9)
        assert np.max(np.abs(ov.imag)) < 1e-12

    def test_norms_preserved(self):
        _, chi = self._path()
        fixed = fix_gauge(chi)
        assert np.allclose(np.linalg.norm(fixed, axis=1),
                           np.linalg.norm(chi, axis=1), atol=1e-13)

    @given(seed=st.integers(0, 2 ** 31))
    @settings(max_examples=10, deadline=None)
    def test_result_independent_of_input_phases(self, seed):
        _, chi = self._path(21)
        rng = np.random.default_rng(seed)
        scrambled = chi * np.exp(1j * rng.uniform(-np.pi, np.pi, 21))[:, None]
        a = fix_gauge(chi, anchor=10)
        b = fix_gauge(scrambled, anchor=10)
        # agree up to the anchor's global phase
        rel = np.vdot(b[10], a[10])
        rel /= abs(rel)
        assert np.max(np.abs(a - b * rel)) < 1e-12

    def test_collapse_on_orthogonal_neighbours(self):
        chi = np.eye(4, dtype=complex)[:2]
        with pytest.raises(OverlapCollapse):
            fix_gauge(chi)


class TestBerryConnection:
    def test_transported_gauge_has_vanishing_connection(self):
        V = make_cosine(3.0)
        path = band_path(V, 1, (0.5, 2.5), n_samples=201, m_cut=16)
        A = _berry_connection(path.p_samples, path.chi)
        assert np.max(np.abs(A[1:-1])) < 1e-10

    def test_gauge_covariance(self):
        V = make_cosine(3.0)
        path = band_path(V, 1, (0.5, 2.5), n_samples=201, m_cut=16)
        p = path.p_samples
        theta = 0.3 * np.sin(p)
        rotated = path.chi * np.exp(1j * theta)[:, None]
        A = _berry_connection(p, rotated)
        # A picks up -d(theta)/dp under chi -> e^{i theta} chi
        expected = -0.3 * np.cos(p)
        assert np.max(np.abs(A[2:-2] - expected[2:-2])) < 1e-3


class TestDpChi:
    def test_matches_finite_difference(self):
        V = make_cosine(3.0)
        path = band_path(V, 1, (1.0 - 0.02, 1.0 + 0.02), n_samples=5,
                         m_cut=16)
        i = 2
        h = path.p_samples[1] - path.p_samples[0]
        fd = (path.chi[i + 1] - path.chi[i - 1]) / (2 * h)
        u = resolvent_dp_chi(V, float(path.p_samples[i]),
                             float(path.energies[i]), path.chi[i], 16)
        # remove the component along chi (FD path is transported so it is tiny)
        fd -= np.vdot(path.chi[i], fd) * path.chi[i]
        assert np.linalg.norm(u - fd) < 5e-4
        # the spline derivative the first-order packet uses
        assert np.linalg.norm(path_dp_chi(path, 1.0) - u) < 5e-4

    def test_fd_convergence_second_order(self):
        V = make_cosine(3.0)
        errs = []
        for h in (0.02, 0.01):
            path = band_path(V, 1, (1.0 - h, 1.0 + h), n_samples=3, m_cut=16)
            fd = (path.chi[2] - path.chi[0]) / (2 * h)
            u = resolvent_dp_chi(V, float(path.p_samples[1]),
                                 float(path.energies[1]), path.chi[1], 16)
            fd -= np.vdot(path.chi[1], fd) * path.chi[1]
            errs.append(np.linalg.norm(u - fd))
        assert errs[1] < errs[0] / 3.0


class TestChiAt:
    def test_crossing_fiber_and_norm_from_the_spline(self, one_gap_pair):
        # a fresh eigh at p_star returns an arbitrary basis of the degenerate
        # eigenspace; the spline returns the velocity-split branch state
        i = one_gap_pair.i_star
        p = np.linspace(one_gap_pair.plus.p_min, one_gap_pair.plus.p_max,
                        2001)
        for branch in (one_gap_pair.plus, one_gap_pair.minus):
            at_star = branch.chi_at(one_gap_pair.p_star)
            assert np.max(np.abs(at_star - branch.chi[i])) < 1e-14
            norms = [np.linalg.norm(branch.chi_at(pk)) for pk in p]
            assert np.max(np.abs(np.array(norms) - 1.0)) < 1e-12


class TestSmoothContinuation:
    def test_free_pair_slopes_exact(self):
        pair = smooth_continuation(free_potential(), 1, np.pi,
                                   halfwidth=0.4, n_samples=161, m_cut=16)
        assert abs(pair.slope_plus - np.pi) < 1e-10
        assert abs(pair.slope_minus + np.pi) < 1e-10
        assert pair.slope_fd_mismatch < 1e-6

    def test_free_branches_are_exact_parabolas(self):
        pair = smooth_continuation(free_potential(), 1, np.pi,
                                   halfwidth=0.4, n_samples=161, m_cut=16)
        p = pair.plus.p_samples
        assert np.max(np.abs(pair.plus.energies - 0.5 * p ** 2)) < 1e-12
        assert np.max(np.abs(pair.minus.energies - 0.5 * (p - TWO_PI) ** 2)) < 1e-12
        assert np.max(np.abs(pair.plus.d2E - 1.0)) < 1e-10

    def test_branch_energies_smooth_through_crossing(self, one_gap_pair):
        for pathside in (one_gap_pair.plus, one_gap_pair.minus):
            d2 = np.diff(pathside.energies, 2)
            h = pathside.p_samples[1] - pathside.p_samples[0]
            # second differences of a C2 function stay O(h^2 E'')
            assert np.max(np.abs(d2)) < 10 * h ** 2 * np.max(
                np.abs(pathside.d2E))

    def test_one_gap_slopes_opposite(self, one_gap_pair):
        assert one_gap_pair.slope_plus > 1.0
        assert abs(one_gap_pair.slope_plus
                   + one_gap_pair.slope_minus) < 1e-9
        assert one_gap_pair.slope_fd_mismatch < 1e-5

    def test_hf_velocity_table_matches_energy_gradient(self, one_gap_pair):
        path = one_gap_pair.plus
        interior = slice(2, -2)
        fd = np.gradient(path.energies, path.p_samples, edge_order=2)
        assert np.max(np.abs(fd[interior] - path.dE[interior])) < 5e-4

    def test_open_gap_raises(self, one_gap):
        with pytest.raises(NoCrossing):
            smooth_continuation(one_gap, 1, np.pi, halfwidth=0.2,
                                n_samples=41, m_cut=32)


def reference_table(V, p, band_index, m_cut):
    """Per-sample oracle: eigensolve and the scalar second-order sum.

    band_index[i] is the 0-based band whose energy, eigenvector, Hellmann-
    Feynman slope and E'' = 1 + 2 sum_k |<k|v|i>|^2 / (E_i - E_k) are taken at
    p[i].
    """
    m = np.arange(-m_cut, m_cut + 1)
    energies, chi, dE, d2E = [], [], [], []
    for pi, i in zip(p, band_index):
        evals, vecs = eigensolve(V, float(pi), m.size, m_cut)
        vel = pi + TWO_PI * m
        amps = vecs.conj() @ (vel * vecs[i])
        d2 = 1.0
        for k in range(m.size):
            if k != i:
                d2 += 2.0 * abs(amps[k]) ** 2 / (evals[i] - evals[k])
        energies.append(evals[i])
        chi.append(vecs[i])
        dE.append(np.sum(vel * np.abs(vecs[i]) ** 2))
        d2E.append(d2)
    return (np.array(energies), np.array(chi), np.array(dE), np.array(d2E))


def assert_matches_reference(path, rows, band_index, m_cut):
    p = path.p_samples[rows]
    energies, chi, dE, d2E = reference_table(path.potential, p, band_index,
                                             m_cut)
    assert np.max(np.abs(path.energies[rows] - energies)) < 1e-12
    overlap = np.abs(np.sum(chi.conj() * path.chi[rows], axis=1))
    assert np.min(overlap) > 1 - 1e-12
    assert np.max(np.abs(path.dE[rows] - dE)) < 1e-10
    assert np.max(np.abs(path.d2E[rows] - d2E) / np.abs(d2E)) < 1e-12


TABLES = ("p_samples", "energies", "chi", "dE", "d2E", "d3E")


class TestBatchedTables:
    """The blocked assembly and eigh against a per-sample reference."""

    def test_band_path_matches_per_sample_reference(self, one_gap):
        path = band_path(one_gap, 1, (0.5, 2.5), n_samples=201, m_cut=32)
        rows = np.arange(path.p_samples.size)
        assert_matches_reference(path, rows, np.zeros(rows.size, int), 32)

    def test_pair_matches_per_sample_reference(self, one_gap_pair):
        # band 2 below p* = 0 and band 3 above for the plus branch; the
        # crossing fiber itself is split by velocity and checked elsewhere
        p = one_gap_pair.plus.p_samples
        rows = np.flatnonzero(np.arange(p.size) != one_gap_pair.i_star)
        below = p[rows] < one_gap_pair.p_star
        assert_matches_reference(one_gap_pair.plus, rows,
                                 np.where(below, 1, 2), 32)
        assert_matches_reference(one_gap_pair.minus, rows,
                                 np.where(below, 2, 1), 32)

    @pytest.mark.parametrize("block", [1, 7])
    def test_block_size_leaves_tables_unchanged(self, one_gap, one_gap_pair,
                                                monkeypatch, block):
        path = band_path(one_gap, 1, (0.5, 2.5), n_samples=201, m_cut=32)
        monkeypatch.setattr(bloch, "_BLOCK", block)
        pair = smooth_continuation(one_gap, 2, 0.0, halfwidth=0.5,
                                   n_samples=201, m_cut=32)
        blocked = band_path(one_gap, 1, (0.5, 2.5), n_samples=201, m_cut=32)
        for ours, ref in ((pair.plus, one_gap_pair.plus),
                          (pair.minus, one_gap_pair.minus), (blocked, path)):
            for name in TABLES:
                assert np.array_equal(getattr(ours, name), getattr(ref, name))
        assert (pair.slope_plus, pair.slope_minus, pair.margin) == (
            one_gap_pair.slope_plus, one_gap_pair.slope_minus,
            one_gap_pair.margin)

    def test_free_pair_builds_without_floating_point_exceptions(self):
        # the crossing fiber is degenerate: its second-order sums must skip
        # the partner branch instead of dividing 0 by 0
        with np.errstate(all="raise"):
            pair = smooth_continuation(free_potential(), 1, np.pi,
                                       halfwidth=0.4, n_samples=161, m_cut=16)
        assert np.all(np.isfinite(pair.plus.d2E))
        assert np.all(np.isfinite(pair.minus.d3E))

    @pytest.mark.parametrize("block", [1, 7, 128])
    def test_isolation_failure_names_the_first_offending_p(
            self, one_gap, monkeypatch, block):
        # bands 2 and 3 touch at p = 0: samples from p = -0.015 on fall
        # under the floor, and the message names the first of them
        monkeypatch.setattr(bloch, "_BLOCK", block)
        with pytest.raises(IsolationFailure,
                           match=r"band 2 gap 1\.88e-01 at p=-0\.015000 "):
            band_path(one_gap, 2, (-0.5, 0.5), n_samples=201, m_cut=32,
                      isolation_floor=0.2)

    @pytest.mark.parametrize("block", [1, 7])
    def test_pair_must_be_isolated_on_the_requested_window(
            self, one_gap, monkeypatch, block):
        # bands 3 and 4 approach towards p = pi: at halfwidth 2 the margin
        # reads 7.19, at halfwidth 1 it reads 13.47; a margin under the
        # floor on the requested window raises
        monkeypatch.setattr(bloch, "_BLOCK", block)
        with pytest.raises(IsolationFailure,
                           match=r"margin 7\.19 .* floor 10\.0 "):
            smooth_continuation(one_gap, 2, 0.0, halfwidth=2.0,
                                n_samples=201, m_cut=32, isolation_floor=10.0)
        pair = smooth_continuation(one_gap, 2, 0.0, halfwidth=1.0,
                                   n_samples=201, m_cut=32,
                                   isolation_floor=10.0)
        assert (pair.plus.p_samples[0], pair.plus.p_samples[-1]) == (-1.0, 1.0)
        assert pair.margin == pytest.approx(13.467306469771934, rel=1e-12)
        with pytest.raises(IsolationFailure, match="margin 13.5 "):
            smooth_continuation(one_gap, 2, 0.0, halfwidth=1.0,
                                n_samples=201, m_cut=32, isolation_floor=20.0)

    def test_crossing_checks_survive_blocking(self, one_gap, monkeypatch):
        monkeypatch.setattr(bloch, "_BLOCK", 7)
        with pytest.raises(NoCrossing):
            smooth_continuation(one_gap, 1, np.pi, halfwidth=0.2,
                                n_samples=41, m_cut=32)
        with pytest.raises(NotLinearCrossing):
            smooth_continuation(one_gap, 2, 0.0, halfwidth=0.2, n_samples=41,
                                m_cut=32, slope_floor=100.0)


class TestCoupling:
    def test_free_coupling_zero(self):
        pair = smooth_continuation(free_potential(), 1, np.pi,
                                   halfwidth=0.4, n_samples=161, m_cut=16)
        assert abs(coupling_coefficient(pair)) < 1e-13

    def test_half_periodic_coupling_below_floor(self):
        V = potential_from_coeffs({2: 2.0, 3: 0.0, 4: 0.0})
        for n, p_star in ((1, np.pi), (3, np.pi)):
            pair = smooth_continuation(V, n, p_star, halfwidth=0.3,
                                       n_samples=121, m_cut=24)
            assert abs(coupling_coefficient(pair)) < 1e-8

    def test_one_gap_regression_value(self, one_gap_pair):
        ref = 2.7390080238335636e-05
        val = abs(coupling_coefficient(one_gap_pair))
        assert val > 1e-7
        assert abs(val - ref) / ref < 1e-6

    def test_modulus_gauge_independent(self, one_gap):
        a = smooth_continuation(one_gap, 2, 0.0, halfwidth=0.5,
                                n_samples=201, m_cut=32)
        b = smooth_continuation(one_gap, 2, 0.0, halfwidth=0.3,
                                n_samples=87, m_cut=32)
        assert abs(abs(coupling_coefficient(a))
                   - abs(coupling_coefficient(b))) < 1e-12

    def test_matches_finite_difference_of_gauge_fixed_path(self, one_gap):
        # independent route: centered differences of the transported
        # eigenvector path projected on the other branch
        for h in (2e-3, 1e-3):
            pair = smooth_continuation(one_gap, 2, 0.0, halfwidth=2 * h,
                                       n_samples=5, m_cut=32)
            i = pair.i_star
            dchi = (pair.plus.chi[i + 1] - pair.plus.chi[i - 1]) / (2 * h)
            fd = complex(np.vdot(pair.minus.chi[i], dchi))
            kappa = coupling_coefficient(pair)
            assert abs(fd - kappa) < 1e-7

    def test_dp_chi_at_crossing_reports_coupling(self, one_gap_pair):
        # the packet's d_p chi_+ carries kappa along chi_- at the crossing
        i = one_gap_pair.i_star
        dchi = path_dp_chi(one_gap_pair.plus, one_gap_pair.p_star)
        kappa = coupling_coefficient(one_gap_pair)
        assert abs(np.vdot(one_gap_pair.minus.chi[i], dchi) - kappa) \
            < 1e-4 * abs(kappa)
        assert abs(np.vdot(one_gap_pair.plus.chi[i], dchi)) < 1e-9


class TestSymmetryIdentity:
    def test_free_crossing_exact(self):
        pair = smooth_continuation(free_potential(), 1, np.pi,
                                   halfwidth=0.4, n_samples=161, m_cut=16)
        assert _verify_symmetry_identity(pair) < 1e-12

    def test_half_periodic_crossing(self):
        V = potential_from_coeffs({2: 2.0, 3: 0.0, 4: 0.0})
        pair = smooth_continuation(V, 1, np.pi, halfwidth=0.3,
                                   n_samples=121, m_cut=24)
        assert _verify_symmetry_identity(pair) < 1e-6

    def test_one_gap_pi_crossing(self, one_gap):
        pair = smooth_continuation(one_gap, 3, np.pi, halfwidth=0.3,
                                   n_samples=121, m_cut=32)
        assert _verify_symmetry_identity(pair) < 1e-6

    def test_rejects_zero_crossing(self, one_gap_pair):
        with pytest.raises(ValueError):
            _verify_symmetry_identity(one_gap_pair)


def sequential_fix_gauge(coeffs, anchor=0):
    """Reference transport: one neighbour overlap at a time from the anchor."""
    out = np.array(coeffs, dtype=complex, copy=True)

    def step(i_from, i_to):
        ov = np.vdot(out[i_from], out[i_to])
        if abs(ov) < 0.5:
            raise OverlapCollapse(
                f"|<chi_{i_from}|chi_{i_to}>| = {abs(ov):.3f} < 0.5")
        out[i_to] *= np.conj(ov) / abs(ov)

    for i in range(anchor, out.shape[0] - 1):
        step(i, i + 1)
    for i in range(anchor, 0, -1):
        step(i, i - 1)
    return out


class TestOnePassGauge:
    @staticmethod
    def _random_path(seed, n=301, dim=9):
        # a smooth unit-vector path, each sample with a random phase
        rng = np.random.default_rng(seed)
        s = np.linspace(0.0, 1.0, n)[:, None]
        a, b = rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim))
        path = np.cos(2.0 * s) * a + np.sin(3.0 * s) * b + 0.3j * s * a
        path /= np.linalg.norm(path, axis=1)[:, None]
        return path * np.exp(1j * rng.uniform(-np.pi, np.pi, n))[:, None]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("where", ["start", "middle", "end"])
    def test_equals_sequential_transport(self, seed, where):
        path = self._random_path(seed)
        anchor = {"start": 0, "middle": path.shape[0] // 2,
                  "end": path.shape[0] - 1}[where]
        ours = fix_gauge(path, anchor=anchor)
        ref = sequential_fix_gauge(path, anchor=anchor)
        assert np.max(np.abs(ours - ref)) < 1e-13

    @pytest.mark.parametrize("anchor", [0, 150, 300])
    @pytest.mark.parametrize("swap", [40, 220])
    def test_swapped_pair_collapses_at_the_same_link(self, anchor, swap):
        # the path follows one family up to sample swap and a second family,
        # orthogonal to it sample by sample, after it: a missed band swap
        first, second = self._random_path(5), self._random_path(6)
        second -= first * np.einsum("ij,ij->i", first.conj(), second)[:, None]
        second /= np.linalg.norm(second, axis=1)[:, None]
        path = np.concatenate([first[:swap + 1], second[swap + 1:]])
        with pytest.raises(OverlapCollapse) as ref:
            sequential_fix_gauge(path, anchor=anchor)
        with pytest.raises(OverlapCollapse) as ours:
            fix_gauge(path, anchor=anchor)
        assert str(ours.value) == str(ref.value)
        link = sorted(int(k) for k in re.findall(r"chi_(\d+)", str(ref.value)))
        assert link == [swap, swap + 1]


def _complex_stacks(monkeypatch):
    """Make bloch build every fiber stack as complex, whatever V is."""
    real = bloch._fibers
    monkeypatch.setattr(bloch, "_fibers",
                        lambda V, p, m_cut: real(V, p, m_cut).astype(complex))


def _assert_same_tables(ours, ref, anchor):
    for name in ("energies", "dE", "d2E", "d3E"):
        assert np.max(np.abs(getattr(ours, name) - getattr(ref, name))) \
            < 1e-11, name
    # the transported gauge agrees up to the phase of the anchor sample
    rel = np.vdot(ours.chi[anchor], ref.chi[anchor])
    assert np.max(np.abs(ours.chi * rel / abs(rel) - ref.chi)) < 1e-11


class TestRealFiberStacks:
    def test_even_potentials_give_real_stacks(self, one_gap):
        assert one_gap.even and make_cosine(4.0).even
        assert bloch._fibers(one_gap, [0.3, 1.1], 20).dtype == np.float64
        odd = potential_from_coeffs({1: 1.0, 2: -0.5j})
        assert not odd.even
        assert bloch._fibers(odd, [0.3], 20).dtype == np.complex128

    def test_band_path_equals_the_complex_stack_path(self, one_gap,
                                                     monkeypatch):
        path = band_path(one_gap, 1, (0.5, 2.5), n_samples=201, m_cut=32)
        _complex_stacks(monkeypatch)
        ref = band_path(one_gap, 1, (0.5, 2.5), n_samples=201, m_cut=32)
        assert ref.chi.dtype == path.chi.dtype == np.complex128
        _assert_same_tables(path, ref, 100)

    def test_pair_equals_the_complex_stack_pair(self, one_gap_pair,
                                                monkeypatch):
        _complex_stacks(monkeypatch)
        ref = smooth_continuation(one_gap_pair.plus.potential, 2, 0.0,
                                  halfwidth=0.5, n_samples=201, m_cut=32)
        i = one_gap_pair.i_star
        _assert_same_tables(one_gap_pair.plus, ref.plus, i)
        _assert_same_tables(one_gap_pair.minus, ref.minus, i)
        assert abs(abs(coupling_coefficient(one_gap_pair))
                   - abs(coupling_coefficient(ref))) < 1e-15

    def test_odd_potential_builds_a_band_path(self):
        # 2 cos(2 pi z) + sin(4 pi z): complex coefficients, complex stacks
        from bandcross.classical import SplineBand
        V = potential_from_coeffs({1: 1.0, 2: -0.5j})
        path = band_path(V, 1, (0.7, 2.1), n_samples=513, m_cut=15)
        assert path.chi.dtype == np.complex128
        assert SplineBand(path).slope_check <= 1e-8


def shifted(V, z0):
    """V(z - z0): a real V whose coefficients are complex, the same bands."""
    m = np.arange(-V.m_max, V.m_max + 1)
    return PeriodicPotential(V.coeffs * np.exp(-TWO_PI * 1j * m * z0))


class TestTimeReversal:
    """A sample at -p takes its partner's eigenpairs, mirrored, not an eigh."""

    def test_pair_mirror_matches_direct_eigh(self, one_gap_pair):
        p = one_gap_pair.plus.p_samples
        rows = np.flatnonzero(p < 0)
        assert rows.size == p.size // 2
        assert_matches_reference(one_gap_pair.plus, rows, np.ones(rows.size,
                                                                  int), 32)
        assert_matches_reference(one_gap_pair.minus, rows,
                                 np.full(rows.size, 2), 32)

    def test_odd_part_mirror_matches_direct_eigh(self, one_gap):
        # translating V keeps it real and its bands, and makes its
        # coefficients complex, so the mirror's conj acts
        V = shifted(one_gap, 0.13)
        assert not V.even
        pair = smooth_continuation(V, 2, 0.0, halfwidth=0.5, n_samples=201,
                                   m_cut=32)
        assert pair.plus.chi.dtype == np.complex128
        rows = np.flatnonzero(pair.plus.p_samples < 0)
        assert_matches_reference(pair.plus, rows, np.ones(rows.size, int), 32)
        assert_matches_reference(pair.minus, rows, np.full(rows.size, 2), 32)

    @pytest.mark.parametrize("z0", [0.0, 0.13], ids=["even", "odd"])
    def test_symmetric_band_path_matches_direct_eigh(self, one_gap, z0):
        V = shifted(one_gap, z0)
        path = band_path(V, 1, (-1.0, 1.0), n_samples=201, m_cut=32)
        rows = np.arange(path.p_samples.size)
        assert_matches_reference(path, rows, np.zeros(rows.size, int), 32)
        # the mirror holds E(-p) = E(p) exactly, sample by sample
        assert np.array_equal(path.energies, path.energies[::-1])

    def test_partners_come_from_the_samples(self):
        p = np.linspace(-1.9, 1.9, 1789)
        assert np.array_equal(bloch._partners(p), np.arange(p.size)[::-1])
        assert np.all(bloch._partners(np.linspace(0.7, 2.1, 513)) == -1)
        assert np.all(bloch._partners(np.pi + np.linspace(-0.3, 0.3, 121))
                      == -1)
        # a window reaching further on one side pairs only its middle
        partner = bloch._partners(np.linspace(-0.3, 0.9, 121))
        assert np.array_equal(partner[:61], np.arange(61)[::-1])
        assert np.all(partner[61:] == -1)

    @pytest.mark.parametrize("build, fibers", [
        (lambda V: smooth_continuation(V, 2, 0.0, halfwidth=0.5,
                                       n_samples=201, m_cut=32), 101),
        (lambda V: band_path(V, 1, (-1.0, 1.0), n_samples=201, m_cut=32),
         101),
        (lambda V: band_path(V, 1, (0.7, 2.1), n_samples=513, m_cut=32), 513),
        (lambda V: smooth_continuation(V, 3, np.pi, halfwidth=0.3,
                                       n_samples=121, m_cut=32), 121),
    ], ids=["pair_at_0", "path_about_0", "isolated_window", "pair_at_pi"])
    def test_eigh_count(self, one_gap, monkeypatch, build, fibers):
        seen = []
        real = np.linalg.eigh

        def counting(a, *args, **kwargs):
            if np.ndim(a) == 3:
                seen.append(len(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        build(one_gap)
        assert sum(seen) == fibers

