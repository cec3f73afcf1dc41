"""The mass fraction's inverse with a compacting loop, for the tests: the
same bracketed Newton iteration as `MonotoneProfile._solve_panels`, with
the same stop at a panel's right edge, but after every step in which a
target converges the state is re-indexed down to the targets still
iterating.  The package instead keeps every target in its arrays, with
a settled target's w frozen, and writes the depths once after its last
sweep.  Each target's arithmetic is the same in both, so the two must
return the same depths bit for bit."""

import copy
import functools

import numpy as np

from monge1d.errors import MaxIterations
from monge1d.numerics import _EPS, _INVERT_MAX_ITER, _horner


def invert_many(profile, fractions):
    """`profile.invert_many(fractions)` with the panel roots taken by
    `solve_panels`."""
    reference = copy.copy(profile)
    reference._solve_panels = functools.partial(solve_panels, profile)
    return reference.invert_many(fractions)


def solve_panels(profile, k, f):
    """Depth in panel k where the profile's mass fraction reaches f, each
    target iterating only until it converges."""
    left, right = profile.edges[k], profile.edges[k + 1]
    half, size = profile.half[k], profile._size[k]
    at_right = np.abs(profile.fractions[k + 1] - f) <= 2.0 * _EPS * f
    res = np.spacing(np.maximum(np.abs(left), np.abs(right))) / half
    rows = [row[k] for row in profile._taylor]
    gap, lin, quad = f - rows[0], rows[1], rows[2]
    disc = np.sqrt(np.maximum(lin * lin + 4.0 * quad * gap, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.clip(2.0 * gap / (lin + disc), 0.0, 2.0)
    a, b = np.zeros_like(w), np.full_like(w, 2.0)
    prev, last = b, b
    out = np.empty_like(w)
    live = np.arange(w.size)
    for _ in range(_INVERT_MAX_ITER):
        value, slope = _horner(rows, w)
        r = value - f
        done = np.abs(r) <= 2.0 * _EPS * f
        close = ~done & (last <= res)
        if close.any():
            bound = 2.0 * np.abs(slope) * res + 32.0 * _EPS * (size + f)
            miss = close & ~(np.abs(r) <= bound)
            if miss.any():
                i = int(np.argmax(miss))
                raise MaxIterations(
                    f"panel inversion stalled in panel {int(k[live[i]])}: "
                    f"residual {abs(r[i]):.3e} above its bound {bound[i]:.3e}")
            done |= close
        below = r < 0.0
        a = np.where(below, w, a)
        b = np.where(below, b, w)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = r / slope
        nxt = w - step
        newton = (a <= nxt) & (nxt <= b) & (np.abs(step) <= 0.5 * prev)
        edge = ~done & ~newton & (nxt >= 2.0) & at_right
        nxt = np.where(newton, nxt, 0.5 * (a + b))
        prev, last = last, np.abs(nxt - w)
        if done.any() or edge.any():
            out[live[done]] = left[done] + half[done] * w[done]
            out[live[edge]] = right[edge]
            keep = ~(done | edge)
            live, f, a, b, prev, last, res, left, right, half, size, at_right, nxt = (
                arr[keep] for arr in (live, f, a, b, prev, last, res, left, right, half,
                                      size, at_right, nxt))
            rows = [row[keep] for row in rows]
            if not live.size:
                return out
        w = nxt
    raise MaxIterations(f"panel inversion left {live.size} targets "
                        f"unconverged after {_INVERT_MAX_ITER} steps")
