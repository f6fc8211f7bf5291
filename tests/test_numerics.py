"""The numpy-only interpolant and Fresnel integrals, scipy as their oracle."""
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.special import fresnel as scipy_fresnel

from bandcross import harness
from bandcross.ansatz import path_dp_chi
from bandcross.bloch import BandPath, _fibers, smooth_continuation
from bandcross.numerics import UniformHermite, fresnel


class TestFresnel:
    def test_matches_scipy(self):
        x = np.concatenate([
            np.linspace(-60.0, 60.0, 100_001), [0.0, -0.0],
            [np.nextafter(1.5, 0.0), 1.5, np.nextafter(1.5, 2.0)],
            -np.array([np.nextafter(1.5, 0.0), 1.5, np.nextafter(1.5, 2.0)]),
            np.geomspace(1e-8, 1e-3, 50)])
        S, C = fresnel(x)
        S_ref, C_ref = scipy_fresnel(x)
        assert np.max(np.abs(S - S_ref)) < 1e-14
        assert np.max(np.abs(C - C_ref)) < 1e-14

    def test_limits_and_shape(self):
        S, C = fresnel(np.array([[np.inf, -np.inf], [0.0, np.nan]]))
        assert S.shape == C.shape == (2, 2)
        assert S[0].tolist() == C[0].tolist() == [0.5, -0.5]
        assert S[1, 0] == C[1, 0] == 0.0
        assert np.isnan(S[1, 1]) and np.isnan(C[1, 1])


def _crossing_pair():
    # the band pair of the crossing32 benchmark workload
    cfg = harness.default_config("crossing")
    scenario = harness.build_crossing_scenario(cfg)
    return cfg, scenario.V, smooth_continuation(
        scenario.V, cfg.band, scenario.pair.p_star, halfwidth=1.9,
        n_samples=1789, m_cut=harness.M_CUT)


class TestUniformHermite:
    def test_reproduces_cubics_and_samples(self):
        x = np.linspace(-0.4, 1.3, 41)

        def cubic(t):
            return 1.0 + t - 2.0 * t ** 2 + 0.5 * t ** 3

        f = UniformHermite(x, cubic(x))
        t = np.linspace(-0.4, 1.3, 997)
        assert np.max(np.abs(f(t) - cubic(t))) < 1e-14
        assert np.max(np.abs(f(t, 1) - (1.0 - 4.0 * t + 1.5 * t ** 2))) < 1e-12
        assert np.max(np.abs(f(x) - cubic(x))) < 1e-15

    def test_scalar_path_is_bit_identical(self):
        x = np.linspace(0.3, 2.1, 301)
        f = UniformHermite(x, np.sin(3 * x) + x ** 2)
        t = np.concatenate([np.linspace(0.3, 2.1, 2001), x,
                            [0.3 - 1e-12, 2.1 + 1e-12]])
        each = np.array([f.value_slope(float(ti)) for ti in t])
        assert np.array_equal(each[:, 0], f(t))
        assert np.array_equal(each[:, 1], f(t, 1))

    def test_trailing_shape_and_columns(self):
        x = np.linspace(0.0, 1.0, 65)
        y = np.stack([np.cos(x), np.exp(x) + 1j * x], axis=1)
        f = UniformHermite(x, y)
        t = np.array([[0.1, 0.45], [0.7, 0.99]])
        assert f(t).shape == (2, 2, 2)
        assert np.array_equal(f(t)[..., 1], UniformHermite(x, y[:, 1])(t))
        assert f(0.3).shape == (2,)

    def test_first_root(self):
        x = np.linspace(0.0, 2.0, 201)
        f = UniformHermite(x, np.sin(3.0 * x))
        root = f.first_root(0.5)
        assert abs(root - np.arcsin(0.5) / 3.0) < 1e-9
        assert abs(f(root) - 0.5) < 1e-15
        assert f.first_root(1.5) is None
        # a curve that dips below the level and back between two nodes
        g = UniformHermite(x, (x - 1.0005) ** 2)
        assert abs(g.first_root(1e-8) - (1.0005 - 1e-4)) < 1e-9

    def test_integral_exact_on_cubics(self):
        x = np.linspace(-0.4, 1.3, 41)

        def antiderivative(t):
            return t + t ** 2 / 2 - 2.0 * t ** 3 / 3 + t ** 4 / 8

        f = UniformHermite(x, 1.0 + x - 2.0 * x ** 2 + 0.5 * x ** 3)
        b = np.linspace(-0.4, 1.3, 997)
        for a in (-0.4, 0.123, 1.3):
            err = f.integral(a, b) - (antiderivative(b) - antiderivative(a))
            assert np.max(np.abs(err)) < 1e-14, a

    def test_integral_matches_quadrature_of_the_interpolant(self):
        # limits on nodes, inside pieces and at both ends, in one call
        x = np.linspace(0.2, 1.7, 61)
        f = UniformHermite(x, np.sin(4.0 * x) * np.exp(x))
        b = np.array([[0.2, 1.7, x[17], x[40]],
                      [0.2 + 1e-3, x[5] + 0.3 * f.h, 1.0, 1.7 - 1e-9]])
        for a in (0.2, x[23], 1.0 + 0.5 * f.h, 1.7):
            got = f.integral(a, b)
            assert got.shape == b.shape
            for bi, gi in zip(b.flat, got.flat):
                # piece by piece, where the interpolant is one cubic
                lo, hi = sorted((a, bi))
                cuts = [lo, *x[(x > lo) & (x < hi)], hi]
                ref = sum(quad(lambda t: float(f(t)), c0, c1)[0]
                          for c0, c1 in zip(cuts[:-1], cuts[1:]))
                ref = ref if bi >= a else -ref
                assert abs(gi - ref) < 1e-13, (a, bi)

    def test_integral_of_columns(self):
        x = np.linspace(0.0, 1.0, 65)
        y = np.stack([np.cos(x), np.exp(x) + 1j * x], axis=1)
        t = np.array([0.1, 0.45, 0.99])
        got = UniformHermite(x, y).integral(0.3, t)
        assert got.shape == (3, 2)
        assert np.array_equal(got[:, 1],
                              UniformHermite(x, y[:, 1]).integral(0.3, t))

    def test_grid_checked(self):
        with pytest.raises(ValueError):
            UniformHermite(np.array([0.0, 0.1, 0.3, 0.4, 0.5]), np.zeros(5))
        with pytest.raises(ValueError):
            UniformHermite(np.linspace(0.0, 1.0, 4), np.zeros(4))
        with pytest.raises(ValueError):
            UniformHermite(np.linspace(0.0, 1.0, 6), np.zeros(5))

    def test_band_pair_no_worse_than_scipy_spline(self):
        # chi and E at every midpoint of the crossing32 pair table, against a
        # fresh eigh there; the largest errors of both interpolants sit at
        # the same fiber next to p*, where the table's own roundoff rules
        cfg, V, pair = _crossing_pair()
        p = pair.plus.p_samples
        mid = 0.5 * (p[:-1] + p[1:])
        evals, evecs = np.linalg.eigh(_fibers(V, mid, harness.M_CUT))
        rows = np.arange(mid.size)
        for branch, below in ((pair.plus, cfg.band - 1),
                              (pair.minus, cfg.band)):
            idx = np.where(mid < pair.p_star, below, 2 * cfg.band - 1 - below)
            energy, chi = evals[rows, idx], evecs[rows, :, idx]
            errors = {}
            for name, make in (("hermite", UniformHermite),
                               ("spline", CubicSpline)):
                c = make(p, branch.chi)(mid)
                ov = np.sum(chi.conj() * c, axis=1)
                errors[name] = (
                    np.abs(make(p, branch.energies)(mid) - energy),
                    np.linalg.norm(c - (ov / np.abs(ov))[:, None] * chi,
                                   axis=1))
            for ours, theirs in zip(errors["hermite"], errors["spline"]):
                assert np.sqrt(np.mean(ours ** 2)) <= np.sqrt(
                    np.mean(theirs ** 2))
                assert ours.max() <= 1.05 * theirs.max()
                assert ours.max() < 5e-12

    def test_chi_reads_no_copy_of_the_table(self):
        # at one momentum chi and d_p chi read six rows of the table; a
        # spline of the whole (1789, 31) table would allocate over 10 times
        # its size
        rng = np.random.default_rng(1)
        p = np.linspace(-1.9, 1.9, 1789)
        chi = rng.standard_normal((p.size, 31)) + 1j * rng.standard_normal(
            (p.size, 31))
        path = BandPath(None, p, p, chi, p, p, p, 15)
        tracemalloc.start()
        try:
            path.chi_at(0.3)
            path_dp_chi(path, 0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < chi.nbytes / 10
