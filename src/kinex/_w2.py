"""The exact 1-D W2 of two quantile tables, for diagnostics.wasserstein2.

A table (u, lo, hi) holds a quantile function Q: it runs linearly from
lo[k] to hi[k] on [u[k], u[k + 1]], and u rises from 0 to 1. Between the
merged values of two tables both are linear, so W2^2, the integral of
(Q_p - Q_r)^2 over [0, 1], is one quadratic per merged interval. The merge
takes its slots from searchsorted into the other table, _BLOCK values at a
time, in one workspace of _ROWS rows of _BLOCK floats (512 KiB) made per
call, and makes no array as long as a table.

Its own module: as part of diagnostics.py, these lines raised the peak of
that module's compile by about 0.11 MB, and with it the peak RSS of a
contraction study run without a bytecode cache, by about 0.1 MB.
"""

import numpy as np

_ROWS, _BLOCK = 8, 1 << 13
_TINY = float(np.finfo(float).smallest_subnormal)


def squared(p, r) -> float:
    """W2^2 of tables p and r."""
    work = np.empty((_ROWS, _BLOCK))
    return (_side(p, r, "left", work) + _side(r, p, "right", work)) / 3.0


def _side(own, other, side: str, work: np.ndarray) -> float:
    """Three times the part of W2^2 on the merged intervals that start at a value of own's table.

    An interval runs from u0 = u[k] to u1, the lesser of u[k + 1] and the
    first value of other's table at or above u0 (side "left") or above it
    ("right"). The first table passed to squared takes "left", so a value
    both tables hold starts an interval only from the second's side. On
    [u0, u1] own's Q is on its segment k and other's on the segment that
    ends at that first value, both linear, so with the gaps g0 and g1 at
    the ends (the right limit at u0, the left limit at u1) the interval
    adds h (g0^2 + g0 g1 + g1^2), h = u1 - u0. Positions on a segment are
    read as fractions of its width, which lie in [0, 1]; a width of 0 (a
    flat stretch of a CDF, where Q jumps) is read as the least subnormal,
    which turns 0/0 into 0 and leaves every other width as it is, so an
    interval of width 0 adds exactly 0.
    """
    u, lo, hi = own
    u_other, lo_other, hi_other = other
    total = 0.0
    for start in range(0, u.size - 1, _BLOCK):
        stop = min(start + _BLOCK, u.size - 1)
        u0, u_next = u[start:stop], u[start + 1 : stop + 1]
        end, seg, h, dg, tmp, base, rise, g0 = (row[: u0.size] for row in work)
        j = np.searchsorted(u_other, u0, side)  # other's segment j - 1 ends at u_other[j]
        np.minimum(j, u_other.size - 1, out=j)
        np.take(u_other, j, out=end)
        j -= 1
        np.maximum(j, 0, out=j)
        np.take(u_other, j, out=seg)
        np.minimum(end, u_next, out=h)
        h -= u0  # interval width
        end -= seg
        np.maximum(end, _TINY, out=end)  # other's segment width
        np.subtract(u_next, u0, out=dg)
        np.maximum(dg, _TINY, out=dg)  # own's segment width
        np.divide(h, dg, out=dg)
        dg *= np.subtract(hi[start:stop], lo[start:stop], out=tmp)  # own's Q rises by dg on [u0, u1]
        np.take(lo_other, j, out=base)
        np.take(hi_other, j, out=rise)
        rise -= base
        np.divide(h, end, out=tmp)
        tmp *= rise
        dg -= tmp  # g1 - g0
        np.subtract(u0, seg, out=g0)
        g0 /= end
        g0 *= rise
        g0 += base  # other's Q at u0
        np.subtract(lo[start:stop], g0, out=g0)
        g1 = np.add(g0, dg, out=dg)
        np.add(g0, g1, out=tmp)
        tmp *= g0
        tmp += np.multiply(g1, g1, out=rise)  # g0^2 + g0 g1 + g1^2
        tmp *= h
        total += float(np.sum(tmp))
    return total
