"""The coupled zero solve's tabulated start, rebuilt and measured.

The smoothed problem in depth has an exact scaling law.  For sigma > 0
with alpha^2 + 8 eps ln sigma > 0, the problem (alpha, eps, W) on a
target of width W is the problem (alpha-hat, eps-hat, W/sigma) with
eps-hat = sigma^4 eps and alpha-hat^2 = sigma^4 (alpha^2 + 8 eps ln sigma),
its depths scaled by sigma.  The sigma with alpha-hat = 1 maps every
(alpha, eps) onto one curve: the alpha = 1 depth zeros (z-hat, c-hat) as
functions of eps-hat, which do not depend on the width while the free
zero lies inside the target.

The law keeps alpha^2/eps - 2 ln eps fixed, so every (alpha, eps) has
its alpha = 1 twin, at eps-hat = 1/(2 W(e^{alpha^2/(2 eps)}/(2 eps)))
with W the principal Lambert W.  `duality._ZERO_TABLE` holds that curve
at closure aim 0, past its cubic series (`duality._expansion_step`), and
the zeros' derivative in the aim, each as a Chebyshev series in eps-hat
over [0, top]; the solve starts from it at every (alpha, eps), with a
free end and on a full target, reading it at the top where eps-hat
exceeds top.  This script rebuilds it: it solves the alpha = 1 problem
on a target ten sharp widths wide at M Chebyshev points of the first
kind, each solve started from the series, not from the table.  The aim
derivative is J^-1 (1, 0), with J the exact Jacobian
of the solution's own pass, and the zeros at aim 0 are the solved ones
less aim times it.  At those points the Chebyshev polynomials are
discretely orthogonal, so the least-squares fit of degree N < M is a
cosine sum.  In eps-hat itself, the z row needs degree 56 and the c row
degree 40 to land within the solve's 4-ulp stop; the aim rows need 6.

It prints the largest change against the committed coefficients, then
the committed start's miss in ulps of the larger depth, against zeros
solved from the sharp-limit tent (a start that reads no table, made
here), over alpha and eps-hat down to 1e-6: within 4 ulps the solve
returns from the start's own pass.  Pass
`--print` to print the coefficients as Python literals.
"""

import math
import sys
from unittest import mock

import numpy as np

from monge1d import duality
from monge1d.problem import uniform_spec

DEGREES = tuple(len(row) - 1 for row in duality._ZERO_TABLE)
M = 4 * (max(DEGREES) + 1)
top = duality._ZERO_TABLE_TOP


def spec_at(alpha, factor=10.0):
    """Target [0, factor 2/sqrt(alpha)], uniform source beyond it."""
    w = factor * 2.0 / math.sqrt(alpha)
    return uniform_spec((w + 0.5, w + 2.5), (0.0, w), "I", alpha)


def series(alpha, eps, width):
    """The alpha = 1 tent moved by the series and the closure aim's shift,
    the start of the rebuild's solves, which all run at alpha 1."""
    assert alpha == 1.0
    dz, dc = duality._expansion_step(eps)
    return 2.0 + (dz - duality._CLOSURE_AIM), 1.0 + dc


def tent(alpha, eps, width):
    """The sharp-limit tent z0 = 2/sqrt(alpha), c = z0/2, with z moved by
    the closure aim's first-order shift -aim/alpha."""
    z0 = 2.0 / math.sqrt(alpha)
    return z0 - duality._CLOSURE_AIM / alpha, 0.5 * z0


def solved(spec, eps, start=tent):
    """Zeros solved from `start`, a function of (alpha, eps, width)."""
    with mock.patch.object(duality, "_tabulated_start", start):
        return duality._solve_zeros(spec, eps).zeros


theta = np.pi * (np.arange(M) + 0.5) / M
eps_hat = 0.5 * top * (1.0 + np.cos(theta))
one = spec_at(1.0)
aim = duality._CLOSURE_AIM
remainders = []
for e in eps_hat:
    zeros = solved(one, e, series)
    # The zeros' derivative in the aim, J^-1 (1, 0), off the solution's pass.
    jacobian = duality._zero_residuals(zeros, one, e, aim)[1]
    response = np.linalg.solve(jacobian, [1.0, 0.0])
    dz, dc = duality._expansion_step(e)
    z, c = np.subtract(zeros, aim * response)
    remainders.append((z - 2.0 - dz, c - 1.0 - dc, response[0] + 1.0, response[1]))
remainders = np.array(remainders)
table = []
for row, degree in enumerate(DEGREES):
    cosines = np.cos(np.outer(np.arange(degree + 1), theta))
    coefficients = 2.0 / M * cosines @ remainders[:, row]
    coefficients[0] *= 0.5
    table.append(coefficients)
    change = np.max(np.abs(coefficients - duality._ZERO_TABLE[row]))
    print(f"{('z', 'c', 'dz/da + 1', 'dc/da')[row]}: degree {degree}, fitted at {M} points, "
          f"largest change against the table {change:.1e}")

if "--print" in sys.argv:
    for row in table:
        print("(" + ",\n ".join(", ".join(repr(float(a)) for a in row[i:i + 3])
                                for i in range(0, row.size, 3)) + "),")

print()
print("the start's miss in ulps of the larger depth (z, c), "
      "against zeros solved from the tent")
grid = np.geomspace(1e-6, 0.95 * top, 7)
print("alpha \\ eps-hat " + " ".join(f"{e:>11.1e}" for e in grid))
for alpha in (0.5, 1.0, 2.0, 4.0):
    spec = spec_at(alpha)
    cells = []
    for e in grid:
        # eps = e/r with r = sigma^4: r alpha^2 + 2 e ln r = 1, by Newton in ln r.
        ln_r = -2.0 * math.log(alpha)
        for _ in range(8):
            r = math.exp(ln_r)
            ln_r -= (alpha * alpha * r + 2.0 * e * ln_r - 1.0) / (alpha * alpha * r + 2.0 * e)
        eps = e / math.exp(ln_r)
        start = duality._tabulated_start(alpha, eps, spec.target_width)
        z, c = solved(spec, eps)
        ulp = np.spacing(max(z, c))
        cells.append(f"{abs(start[0] - z) / ulp:4.1f},{abs(start[1] - c) / ulp:4.1f}")
    print(f"{alpha:>15g} " + " ".join(f"{cell:>11}" for cell in cells))
