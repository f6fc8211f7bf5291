"""Numpy-only interpolation and Fresnel integrals.

UniformHermite is the package's interpolant for every sampled table (band
energies and eigenvectors over p, trajectories and oscillator coefficients
over t, refined envelopes over y): a piecewise cubic Hermite curve through
the samples of a uniform grid, whose node slopes are fourth-order finite
differences of the samples, worked out for the nodes a call needs, so it
builds no coefficient table; its integral is the curve's closed-form
antiderivative.  fresnel evaluates the Fresnel integrals S and C by their
power series near 0 and a continued fraction beyond.
"""
from __future__ import annotations

import math
from functools import cached_property

import numpy as np

__all__ = ["UniformHermite", "fresnel"]

# twelve times the 5-point first-derivative weights over x_0 .. x_4 at node
# r of the stencil, for the two nodes at each end of the grid; the nodes
# between use the central difference (1, -8, 0, 8, -1)
_END_STENCILS = {0: (-25.0, 48.0, -36.0, 16.0, -3.0),
                 1: (-3.0, -10.0, 18.0, -6.0, 1.0),
                 3: (-1.0, 6.0, -18.0, 10.0, 3.0),
                 4: (3.0, -16.0, 36.0, -48.0, 25.0)}


class UniformHermite:
    """Piecewise cubic Hermite interpolant of samples y on a uniform grid x.

    y has the grid along axis 0 and any trailing shape.  The slope at node i
    is the 5-point difference over x_{i-2} .. x_{i+2}, shifted to the first
    or last five nodes at the two ends, so the curve is C1 with O(h^4)
    values and O(h^3) slopes, and reproduces cubics exactly.  A call reads
    the samples from two nodes before the first piece its points fall in
    to two nodes after the last, six rows for one point; points outside
    [x_0, x_{n-1}] take the end piece's cubic.  value_slope is the scalar
    path of a 1-d table, bit-identical to the array path.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        self.y = np.asarray(y)
        self.n = x.size
        if x.ndim != 1 or self.n < 5 or self.y.shape[:1] != (self.n,):
            raise ValueError("need 5 or more grid points, a sample row each")
        self.x0 = float(x[0])
        self.h = (float(x[-1]) - self.x0) / (self.n - 1)
        off = x - (self.x0 + self.h * np.arange(self.n))
        if not self.h > 0 or np.max(np.abs(off)) > 1e-9 * self.h:
            raise ValueError("grid must be uniform and increasing")

    def _locate(self, x):
        """Piece index and local coordinate in [0, 1] of each point."""
        s = np.asarray(x, dtype=float) - self.x0
        s /= self.h
        i = np.clip(np.floor(s), 0, self.n - 2)
        s -= i
        return i.astype(np.intp), s

    def _slopes(self, lo: int, hi: int) -> np.ndarray:
        """h times the node slopes at nodes lo .. hi - 1."""
        y, n = self.y, self.n
        out = np.empty((hi - lo,) + y.shape[1:], np.result_type(y, float))
        a, b = max(lo, 2), min(hi, n - 2)
        if a < b:
            # (y[k-2] - 8 y[k-1] + 8 y[k+1] - y[k+2]) / 12, in place
            mid = out[a - lo:b - lo]
            np.multiply(y[a - 1:b - 1], -8.0, out=mid)
            mid += y[a - 2:b - 2]
            mid += 8 * y[a + 1:b + 1]
            mid -= y[a + 2:b + 2]
            mid /= 12.0
        for k in (*range(lo, min(hi, 2)), *range(max(lo, n - 2), hi)):
            start = min(max(k - 2, 0), n - 5)
            w = _END_STENCILS[k - start]
            acc = w[0] * y[start]
            for j in range(1, 5):
                acc = acc + w[j] * y[start + j]
            out[k - lo] = acc / 12.0
        return out

    def __call__(self, x, nu: int = 0):
        """Values (nu = 0) or first derivatives (nu = 1) at x, any shape.

        The result has shape x.shape + y.shape[1:].
        """
        if nu not in (0, 1):
            raise ValueError("nu must be 0 or 1")
        i, t = self._locate(x)
        t = t[(...,) + (None,) * (self.y.ndim - 1)]
        # the slopes of the nodes that the points' pieces span
        lo = int(i.min()) if i.size else 0
        m = self._slopes(lo, int(i.max()) + 2 if i.size else 0)
        # np.take gathers rows several times faster than y[i], and the
        # in-place steps keep few point-sized arrays alive; both do
        # value_slope's operations in its order
        y0 = np.take(self.y, i, axis=0)
        d = np.take(self.y, i + 1, axis=0)
        d -= y0
        m0 = np.take(m, i - lo, axis=0)
        c2 = 3 * d
        c2 -= 2 * m0
        m1 = np.take(m, i + 1 - lo, axis=0)
        del m
        c2 -= m1
        c3 = m0 + m1
        del m1
        c3 -= 2 * d
        del d
        if nu == 0:
            # y0 + t (m0 + t (c2 + t c3))
            c3 *= t
            c3 += c2
            c3 *= t
            c3 += m0
            c3 *= t
            c3 += y0
            return c3
        # (m0 + t (2 c2 + 3 t c3)) / h
        c3 *= 3 * t
        c2 *= 2
        c2 += c3
        c2 *= t
        c2 += m0
        c2 /= self.h
        return c2

    @cached_property
    def _node_integrals(self):
        # the curve's integral from x_0 to each node; piece i adds
        # h ((y_i + y_{i+1}) / 2 + (m_i - m_{i+1}) / 12), m the h-scaled
        # node slopes
        m = self._slopes(0, self.n)
        piece = 0.5 * (self.y[:-1] + self.y[1:]) + (m[:-1] - m[1:]) / 12.0
        out = np.zeros((self.n,) + piece.shape[1:], piece.dtype)
        np.cumsum(piece, axis=0, out=out[1:])
        out *= self.h
        return out, m

    def integral(self, a: float, b):
        """Integral of the curve from a to each b, any shape, exactly.

        The piecewise cubic's antiderivative in closed form: the whole
        pieces' integrals summed from x_0 to the piece's left node, plus
        h t (y_0 + t (m_0/2 + t (c2/3 + t c3/4))) within it.  Limits
        outside [x_0, x_{n-1}] integrate the end piece's cubic, as __call__
        evaluates it.  The result has shape b.shape + y.shape[1:].
        """
        nodes, m = self._node_integrals

        def antiderivative(x):
            i, t = self._locate(x)
            t = t[(...,) + (None,) * (self.y.ndim - 1)]
            y0, m0, m1 = self.y[i], m[i], m[i + 1]
            d = self.y[i + 1] - y0
            c2 = 3 * d - 2 * m0 - m1
            c3 = m0 + m1 - 2 * d
            return nodes[i] + self.h * t * (
                y0 + t * (m0 / 2 + t * (c2 / 3 + t * c3 / 4)))

        return antiderivative(b) - antiderivative(a)

    @cached_property
    def _lists(self):
        # the 1-d samples and node slopes as floats, for value_slope
        return self.y.tolist(), self._slopes(0, self.n).tolist()

    def value_slope(self, x: float) -> tuple[float, float]:
        """(value, first derivative) at one point of a 1-d table.

        The operations of __call__ on Python floats, in the same order, so
        both paths give the same bits.
        """
        ys, ms = self._lists
        s = (x - self.x0) / self.h
        i = math.floor(s)
        if i < 0:
            i = 0
        elif i > self.n - 2:
            i = self.n - 2
        t = s - i
        y0, m0, m1 = ys[i], ms[i], ms[i + 1]
        d = ys[i + 1] - y0
        c2 = 3 * d - 2 * m0 - m1
        c3 = m0 + m1 - 2 * d
        return (y0 + t * (m0 + t * (c2 + t * c3)),
                (m0 + t * (2 * c2 + 3 * t * c3)) / self.h)

    def first_root(self, level: float) -> float | None:
        """Smallest x in [x_0, x_{n-1}] where a 1-d table's curve equals
        level, or None.

        Each piece is split at the zeros of its slope, and the first part
        whose ends straddle level is bisected to the last bit.
        """
        n = self.n
        g = np.asarray(self.y, dtype=float) - level
        m = self._slopes(0, n)
        m0, m1, g0 = m[:-1], m[1:], g[:-1]
        d = g[1:] - g0
        c2 = 3 * d - 2 * m0 - m1
        c3 = m0 + m1 - 2 * d
        # zeros in (0, 1) of the slope m0 + 2 c2 t + 3 c3 t^2, else t = 1,
        # by the quadratic formula that does not cancel as c3 -> 0
        qa, qb = 3 * c3, 2 * c2
        q = -0.5 * (qb + np.copysign(
            np.sqrt(np.maximum(qb * qb - 4 * qa * m0, 0.0)), qb))
        with np.errstate(divide="ignore", invalid="ignore"):
            roots = np.stack([q / qa, m0 / q], axis=1)
        roots = np.where((roots > 0) & (roots < 1), roots, 1.0)
        ts = np.concatenate([np.zeros((n - 1, 1)), np.sort(roots, axis=1),
                             np.ones((n - 1, 1))], axis=1)
        vals = g0[:, None] + ts * (m0[:, None] + ts * (c2[:, None]
                                                     + ts * c3[:, None]))
        hit = (np.sign(vals[:, :-1]) * np.sign(vals[:, 1:]) <= 0)
        if not hit.any():
            return None
        piece, part = np.unravel_index(np.argmax(hit), hit.shape)
        lo, hi = float(ts[piece, part]), float(ts[piece, part + 1])
        cubic = (float(g0[piece]), float(m0[piece]), float(c2[piece]),
                 float(c3[piece]))

        def at(t):
            return cubic[0] + t * (cubic[1] + t * (cubic[2] + t * cubic[3]))

        if at(lo) == 0.0:
            hi = lo
        sign_lo = math.copysign(1.0, at(lo))
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            value = at(mid)
            if value != 0.0 and math.copysign(1.0, value) == sign_lo:
                lo = mid
            else:
                hi = mid
        return self.x0 + (piece + hi) * self.h


# |x| at which fresnel switches from the power series to the fraction; the
# series keeps 40 terms, the fraction 64 levels, both past convergence on
# their side of the switch
_SERIES_MAX = 1.5
_SERIES_K = np.arange(1, 40)
# real and imaginary parts of i^k over 2k + 1, the weights of the k-th term
_SERIES_C = (np.array([1.0, 0.0, -1.0, 0.0])[_SERIES_K % 4]
             / (2 * _SERIES_K + 1))
_SERIES_S = (np.array([0.0, 1.0, 0.0, -1.0])[_SERIES_K % 4]
             / (2 * _SERIES_K + 1))
_FRACTION_DEPTH = 64
# beyond this |x| both integrals are within 1/(pi |x|) < 1e-17 of +-1/2
_TAIL = 1e17


def fresnel(x):
    """Fresnel integrals (S(x), C(x)) of sin and cos(pi t^2 / 2) over [0, x].

    Below |x| = 1.5 the power series C + iS = sum_k (i pi/2)^k
    x^(2k+1) / (k! (2k+1)); above it the continued fraction of the
    complementary error function, evaluated from its tail; exactly +-1/2
    beyond |x| = 1e17, at +-inf included.  Agrees with
    scipy.special.fresnel to 1e-14 absolute.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    S = np.full(x.shape, np.nan)
    C = np.full(x.shape, np.nan)

    small = ax < _SERIES_MAX
    xs = x[small]
    z = (0.5 * np.pi) * xs * xs
    terms = xs[:, None] * np.cumprod(z[:, None] / _SERIES_K, axis=1)
    S[small], C[small] = terms @ _SERIES_S, xs + terms @ _SERIES_C

    far = ax > _TAIL
    S[far] = C[far] = np.copysign(0.5, x[far])

    mid = (ax >= _SERIES_MAX) & (ax <= _TAIL)
    a = ax[mid]
    # h = 1 / (b_0 + a_1 / (b_1 + a_2 / (b_2 + ...))), a_k = -(2k-1) 2k,
    # b_k = 1 + 4k - i pi x^2
    b0 = 1.0 - 1j * np.pi * a * a
    tail = np.zeros_like(b0)
    for k in range(_FRACTION_DEPTH, 0, -1):
        tail = -(2 * k - 1) * 2 * k / (b0 + 4 * k + tail)
    h = (a - 1j * a) / (b0 + tail)
    phase = (0.5 * np.pi) * (a * a)
    cs = (0.5 + 0.5j) * (1.0 - (np.cos(phase) + 1j * np.sin(phase)) * h)
    sign = np.sign(x[mid])
    S[mid], C[mid] = sign * cs.imag, sign * cs.real
    return S, C
