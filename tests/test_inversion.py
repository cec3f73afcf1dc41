"""The slope inversion `duality._invert_stress_sq` against an independent
arbitrary-precision oracle, and the work it does on the canonical solves.

The inversion solves T = e^{2l} (alpha^2 + 2 eps l) for l.  With
u = alpha^2 + 2 eps l this is (u/eps) e^{u/eps} = T e^{alpha^2/eps}/eps,
so u = eps W(T e^{alpha^2/eps}/eps) with W the Lambert W function, and
l = ln(T/u)/2.  The oracle evaluates that at 40 digits with mpmath, by
`mpmath.lambertw` or, for large arguments, by Newton's iteration on the
log form w + ln w = ln(argument): it shares no formula with the package.
"""

import inspect
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest

from monge1d import duality
from monge1d.duality import assemble_density
from monge1d.errors import MaxIterations
from monge1d.problem import uniform_spec

_DIGITS = 40
# Unit roundoff: a rounded operation's relative error is at most this,
# and numpy's exp and log stay within twice it (one ulp).
_ROUNDOFF = 2.0 ** -53

_CASES = [(alpha, eps) for alpha in (0.5, 1.0, 4.0)
          for eps in (1e-6, 1e-3, 0.1, 0.5)]
# eps > alpha^2/2, so body nodes with slope^2 < eps read slope^2 as e^w
# and not as alpha^2 + 2 eps l.
_GUARD_CASE = (0.1, 0.5)


def oracle(t, alpha, eps):
    """(l, u) solving t = e^{2l} (alpha^2 + 2 eps l), at _DIGITS digits."""
    with mpmath.workdps(_DIGITS):
        t, a2, e = mpmath.mpf(t), mpmath.mpf(alpha) ** 2, mpmath.mpf(eps)
        log_arg = mpmath.log(t) + a2 / e - mpmath.log(e)
        if log_arg > 50:
            w = log_arg - mpmath.log(log_arg)
            for _ in range(100):
                dw = (w + mpmath.log(w) - log_arg) / (1 + 1 / w)
                w -= dw
                if abs(dw) <= mpmath.mpf(10) ** (2 - _DIGITS) * w:
                    break
            else:
                raise AssertionError("log-form Lambert W did not converge")
        else:
            w = mpmath.lambertw(mpmath.exp(log_arg)).real
        u = e * w
        return mpmath.log(t / u) / 2, u


def switch_z(u, alpha, eps):
    """z = ln(T/alpha^2) of the stress whose slope^2 is u, by the forward
    map T = e^{2l} u with l = (u - alpha^2)/(2 eps)."""
    return math.log(u / (alpha * alpha)) + (u - alpha * alpha) / eps


def switches(alpha, eps):
    """z of the read-out's switches: slope^2 = alpha^2/2 and, where
    eps > alpha^2/2, slope^2 = eps."""
    a2 = alpha * alpha
    slopes_sq = (0.5 * a2, eps) if eps > 0.5 * a2 else (0.5 * a2,)
    return [switch_z(u, alpha, eps) for u in slopes_sq]


def stresses(alpha, eps):
    """Squared stresses from the deep tail, T = 1e-300, up to 4 alpha^2,
    evenly in z = ln(T/alpha^2): 640 over that range and 80 over the
    body's part of it, plus T = alpha^2 and points on both sides of each
    switch where it is representable."""
    a2 = alpha * alpha
    lowest, half = math.log(1e-300 / a2), switch_z(0.5 * a2, alpha, eps)
    z = list(np.linspace(lowest, math.log(4.0), 640))
    z += list(np.linspace(max(lowest, half), math.log(4.0), 80))
    z += [s * (1.0 + d) for s in switches(alpha, eps)
          for d in (-1e-3, -1e-9, 0.0, 1e-9, 1e-3)]
    t = a2 * np.exp(np.array(z + [0.0]))
    return t[t >= 1e-300]


def body_nodes(t, alpha, eps):
    """The nodes with slope^2 >= alpha^2/2, where l is read as
    (ln T - w)/2 and not as (e^w - alpha^2)/(2 eps)."""
    return np.log(t / (alpha * alpha)) >= switch_z(0.5 * alpha * alpha, alpha, eps)


def errors(t, alpha, eps):
    """Absolute errors of l and relative errors of u at each t."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        l, u = duality._invert_stress_sq(t, alpha, eps)
    err_l, err_u = [], []
    for ti, li, ui in zip(t, l, u):
        l_ref, u_ref = oracle(float(ti), alpha, eps)
        err_l.append(float(abs(mpmath.mpf(float(li)) - l_ref)))
        err_u.append(float(abs(mpmath.mpf(float(ui)) - u_ref) / u_ref))
    return np.array(err_l), np.array(err_u)


def bounds(t, alpha, eps):
    """Bounds on the absolute error of l and the relative error of
    u = slope^2 at each t, summed from the rounding of each operation the
    inversion performs, in the read-out's error analysis
    (`_invert_stress_sq`'s docstring).

    w: Newton settles where the rounded phi vanishes, so w is off by
    phi's rounding over phi' = u/eps + 1, plus half an ulp for w - step
    and Newton's remainder phi''/(2 phi') delta^2 after a last step delta
    of at most 1e-9 max(1, |w|), with phi''/phi' = u/(u + eps).  phi's
    rounding is one ulp of e^w and half an ulp of alpha^2 (each over
    eps), half an ulp of e^w - alpha^2 over eps and of the partial sum,
    which is ln T at the root, and one ulp of ln T: in all
    (4 u + 3 alpha^2)/eps + 3 |ln T| roundoffs at most.
    l read as (ln T - w)/2 carries one ulp of ln T, half an ulp of the
    difference 2 l, and half of w's error; read as (e^w - alpha^2)/(2 eps)
    it carries e^w's error (w's, plus one ulp of exp) and half an ulp of
    alpha^2 and of the difference, over 2 eps, and half an ulp of l.
    Read as alpha^2 + 2 eps l, u adds the rounding of alpha^2, of 2 eps l
    and of the sum to 2 eps times l's error; read as e^w, it carries w's
    error whole plus one ulp of exp."""
    a2, r = alpha * alpha, _ROUNDOFF
    l, u = duality._invert_stress_sq(t, alpha, eps)
    w, log_t = np.log(u), np.log(t)
    phi = (4.0 * u + 3.0 * a2) / eps + 3.0 * np.abs(log_t)
    err_w = (r * (phi / (u / eps + 1.0) + np.abs(w))
             + 0.5 * u / (u + eps) * (1e-9 * np.maximum(1.0, np.abs(w))) ** 2)
    upper = u >= 0.5 * a2
    err_l = np.where(upper, r * (np.abs(log_t) + np.abs(l)) + 0.5 * err_w,
                     (u * (err_w + 2.0 * r) + r * (a2 + np.abs(u - a2))) / (2.0 * eps)
                     + r * np.abs(l))
    by_sum = (r * (a2 + 2.0 * eps * np.abs(l) + u) + 2.0 * eps * err_l) / u
    return err_l, np.where(upper & (u >= eps), by_sum, err_w + 2.0 * r)


class TestAgainstTheOracle:

    @pytest.mark.parametrize("alpha,eps", _CASES + [_GUARD_CASE])
    def test_log_scale_and_slope_squared(self, alpha, eps):
        # Over these samples the largest error measured is 0.57 of its
        # bound for l and 0.46 for u: the bounds sum worst cases, the
        # roundings do not.
        t = stresses(alpha, eps)
        err_l, err_u = errors(t, alpha, eps)
        bound_l, bound_u = bounds(t, alpha, eps)
        assert np.all(err_l <= bound_l)
        assert np.all(err_u <= bound_u)

    @pytest.mark.parametrize("alpha,eps", _CASES + [_GUARD_CASE])
    def test_samples_straddle_the_split(self, alpha, eps):
        # Wherever a switch is representable both sides are sampled,
        # within about 1e-9 of z on each side.
        z = np.log(stresses(alpha, eps) / (alpha * alpha))
        for s in switches(alpha, eps):
            if s > math.log(1e-300 / (alpha * alpha)):
                near = np.abs(z - s) <= 2e-9 * abs(s)
                assert np.any(near & (z < s)) and np.any(near & (z >= s))

    def test_guard_case_reads_slope_squared_off_w(self):
        # eps > alpha^2/2 leaves body nodes with slope^2 < eps, where
        # alpha^2 + 2 eps l would scale l's error by 2 eps/slope^2 > 2:
        # the inversion reads slope^2 = e^w there, and those nodes meet
        # the bound on the e^w read (test_log_scale_and_slope_squared).
        alpha, eps = _GUARD_CASE
        t = stresses(alpha, eps)
        below_eps = np.log(t / (alpha * alpha)) < switch_z(eps, alpha, eps)
        assert np.any(body_nodes(t, alpha, eps) & below_eps)

    @pytest.mark.parametrize("alpha,eps", _CASES)
    def test_subnormal_stress(self, alpha, eps):
        # Down to the least subnormal T, l meets the oracle and nothing
        # overflows.  slope^2 is itself subnormal there, a few bits wide,
        # and is not pinned.
        t = np.array([5e-324, 1e-320, 1e-310])
        assert np.all(errors(t, alpha, eps)[0] <= bounds(t, alpha, eps)[0])

    @pytest.mark.parametrize("alpha,eps", _CASES)
    def test_floor_nan_and_warnings(self, alpha, eps):
        # T <= 0 reads the floor exactly, a NaN or infinite T raises at
        # once naming its node, and none of them warns.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            l, u = duality._invert_stress_sq(np.array([0.0, -1e-300, -1.0]), alpha, eps)
            assert np.all(l == -alpha * alpha / (2.0 * eps)) and np.all(u == 0.0)
            for bad in (math.nan, math.inf):
                with pytest.raises(MaxIterations, match=f"non-finite .* {bad} at node 1"):
                    duality._invert_stress_sq(np.array([alpha, bad]), alpha, eps)


def inversion_work(run):
    """Newton steps of the inversion, summed over every call run() makes
    to `_invert_stress_sq` and to its float form `_invert_stress_sq_one`.
    A step is one execution of a form's step line, the one line of each
    that starts `step = `, counted by a line tracer on those frames alone."""
    at = {}
    for form in (duality._invert_stress_sq, duality._invert_stress_sq_one):
        lines, first = inspect.getsourcelines(form)
        anchors = [first + i for i, text in enumerate(lines)
                   if text.lstrip().startswith("step = ")]
        assert len(anchors) == 1
        at[form.__code__] = anchors[0]
    steps = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == at[frame.f_code]:
            steps.append(1)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code in at else None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(previous)
    return len(steps)


# (alpha, eps): Newton steps of one canonical solve, grid 2001, and its
# slope maximum's first read, over all of their inversion calls: one per
# Newton pass and one, in the float form, for the stress maximum.  A pass's call takes 2 steps when eps is small next to alpha^2,
# where the start is the root to first order in eps z, and up to 7 at
# alpha 1, eps 0.1, where the graded nodes next to the stress zeros reach
# far below slope^2 = alpha^2/2.  The coupled solve's tabulated start
# leaves it one pass at every point.
_CANONICAL_WORK = {
    (1.0, 1e-1): 17, (1.0, 1e-2): 6, (1.0, 1e-3): 5, (1.0, 1e-4): 3,
    (4.0, 1e-1): 6, (4.0, 1e-2): 4, (4.0, 1e-3): 4, (4.0, 1e-4): 3,
}


@pytest.mark.parametrize("alpha,eps", list(_CANONICAL_WORK))
def test_canonical_inversion_work_is_pinned(alpha, eps):
    # The counts do not depend on the machine: a change that makes the
    # inversion iterate more shows here.  Re-pin them only with a change
    # that means to move them.
    spec = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", alpha)
    work = inversion_work(lambda: assemble_density(spec, eps).max_abs_slope)
    assert work == _CANONICAL_WORK[alpha, eps]


@pytest.mark.parametrize("alpha,eps", [(1.0, 1e-1), (1.0, 1e-3), (4.0, 1e-4)])
def test_assembly_inverts_one_array_per_round(monkeypatch, alpha, eps):
    # Every `_adaptive` round of the solve's passes inverts its nodes in one
    # array call.  The stress maximum takes the float form once, on the
    # first read of the slope maximum and not in the assembly, and no
    # array call of its own; both maxima share that one call.
    rounds, arrays, floats = [], [], []
    adaptive, plain, one = (duality._adaptive, duality._invert_stress_sq,
                            duality._invert_stress_sq_one)

    def counted_adaptive(fn, *args, **kwargs):
        def round_(s):
            rounds.append(1)
            return fn(s)
        return adaptive(round_, *args, **kwargs)

    def counted_array(stress_sq, *args):
        arrays.append(np.size(stress_sq))
        return plain(stress_sq, *args)

    def counted_float(stress_sq, *args):
        floats.append(stress_sq)
        return one(stress_sq, *args)

    monkeypatch.setattr(duality, "_adaptive", counted_adaptive)
    monkeypatch.setattr(duality, "_invert_stress_sq", counted_array)
    monkeypatch.setattr(duality, "_invert_stress_sq_one", counted_float)
    sol = assemble_density(uniform_spec((6.0, 8.0), (0.0, 5.0), "I", alpha), eps)
    assert rounds and len(arrays) == len(rounds)
    assert not floats
    for _ in range(2):
        sol.max_abs_slope, sol.max_log_lambda
    assert len(floats) == 1 and len(arrays) == len(rounds)


def _as_hex(l, u):
    return float(l).hex(), float(u).hex()


def _float_form_stresses(alpha, eps, rng):
    """Squared stresses spread evenly in z = ln(T/alpha^2) from the deep
    tail, T = 1e-300, up to alpha^2 e^20, 300 at random and both sides of
    each read-out switch and of the start's switch z = -alpha^2/eps; then
    the subnormal T 5e-324 and 1e-310, and T <= 0."""
    a2 = alpha * alpha
    lowest = math.log(1e-300 / a2)
    z = list(rng.uniform(lowest, 20.0, 300))
    z += [s * (1.0 + d) for s in switches(alpha, eps) + [-a2 / eps]
          for d in (-1e-3, -1e-12, 0.0, 1e-12, 1e-3) if s * (1.0 + d) > lowest]
    t = [a2 * math.exp(x) for x in z]
    return [x for x in t if x >= 1e-300] + [a2, 5e-324, 1e-310, 0.0, -0.0, -1e-300, -1.0]


_FLOAT_FORM_CASES = [(alpha, eps) for alpha in (0.05, 0.3, 1.0, 4.0, 100.0)
                     for eps in (1e-6, 1e-3, 0.1, 10.0)]


class TestFloatForm:
    """`_invert_stress_sq_one` against `_invert_stress_sq` on the array
    [T], bit for bit."""

    @pytest.mark.parametrize("alpha,eps", _FLOAT_FORM_CASES)
    def test_equals_the_array_form(self, alpha, eps):
        rng = np.random.default_rng(int(alpha * 1000) + int(-math.log10(eps) * 7))
        for t in _float_form_stresses(alpha, eps, rng):
            want = _as_hex(*(a[0] for a in duality._invert_stress_sq(np.array([t]), alpha, eps)))
            assert _as_hex(*duality._invert_stress_sq_one(t, alpha, eps)) == want, t

    def test_cases_reach_every_branch(self):
        # Both starts, ln(alpha^2 + eps z) and ln T + alpha^2/eps, and all
        # three read-outs: l off e^w below slope^2 = alpha^2/2, and above
        # it slope^2 as alpha^2 + 2 eps l or, below eps, as e^w.
        starts, readouts = set(), set()
        rng = np.random.default_rng(0)
        for alpha, eps in _FLOAT_FORM_CASES:
            a2 = alpha * alpha
            for t in _float_form_stresses(alpha, eps, rng):
                if t <= 0.0:
                    continue
                starts.add(math.log(t) - math.log(a2) > -a2 / eps)
                u = duality._invert_stress_sq_one(t, alpha, eps)[1]
                readouts.add("low" if u < 0.5 * a2 else "sum" if u >= eps else "exp")
        assert starts == {True, False}
        assert readouts == {"low", "sum", "exp"}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises_in_both(self, bad):
        with pytest.raises(MaxIterations, match="non-finite .* at node 0"):
            duality._invert_stress_sq_one(bad, 1.0, 1e-3)
        with pytest.raises(MaxIterations, match="non-finite .* at node 0"):
            duality._invert_stress_sq(np.array([bad]), 1.0, 1e-3)

    def test_returns_floats(self):
        l, u = duality._invert_stress_sq_one(np.float64(2.0), 1.0, 1e-3)
        assert type(l) is float and type(u) is float
