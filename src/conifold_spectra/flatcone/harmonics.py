"""Harmonic polynomials and divergence-free polynomial 1-forms on R^n.

The flat model realizes link eigendata as global polynomial objects: a
degree-d harmonic polynomial restricts to a scalar eigenfunction with
eigenvalue d(d+n-2), and a tangential divergence-free 1-form with degree-k
componentwise-harmonic components restricts to a coclosed eigenform of the
connection Laplacian with eigenvalue k(k+n-2) - 1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from typing import List

from .expr import FieldExpr, PolyR, divergence, laplacian, radial_contraction


def _monomials(n: int, d: int) -> List[tuple]:
    """Degree-d exponent multi-indices in a fixed deterministic order."""
    out = []
    for combo in combinations_with_replacement(range(n), d):
        alpha = [0] * n
        for i in combo:
            alpha[i] += 1
        out.append(tuple(alpha))
    return out


def _seed_monomial(n: int, d: int, seed: int) -> tuple:
    """``_monomials(n, d)[seed % len]`` without listing the C(n+d-1, d) monomials.

    The combinations are in lexicographic order, so the seed-th one is read
    off digit by digit: C(n-v+k-1, k) combinations start at digit v with k
    digits still to place.
    """
    rank = seed % comb(n + d - 1, d)
    alpha = [0] * n
    low = 0
    for k in range(d - 1, -1, -1):
        v = low
        while rank >= comb(n - v + k - 1, k):
            rank -= comb(n - v + k - 1, k)
            v += 1
        alpha[v] += 1
        low = v
    return tuple(alpha)


def harmonic_polynomial(n: int, d: int, seed: int = 0) -> FieldExpr:
    """The harmonic projection of a seed monomial of degree d.

    H = sum_k c_k r^{2k} L^k P with c_0 = 1 and
    c_{k+1} = -c_k / (2(k+1)(2d + n - 4 - 2k)), where L = sum d_i^2 and P is
    the seed-th degree-d monomial (seed 0 gives x_1^d).  The projection has
    leading term P, hence is never zero, and is exactly harmonic.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    seed_poly = PolyR.monomial(n, _seed_monomial(n, d, seed))
    if d < 2:
        return FieldExpr.scalar(seed_poly)
    result = seed_poly
    coeff = Fraction(1)
    power = seed_poly
    for k in range(d // 2):
        power = -power.laplacian()
        if power.is_zero():
            break
        coeff = -coeff / (2 * (k + 1) * (2 * d + n - 4 - 2 * k))
        result = result + PolyR.r_power(n, 2 * (k + 1)) * power * coeff
    field = FieldExpr.scalar(result)
    assert laplacian(field).is_zero()
    return field


def rotational_form(n: int, k: int) -> FieldExpr:
    """A degree-k coclosed tangential 1-form: Q_{k-1}(x3, x4) * (x1 dx2 - x2 dx1).

    Q_j = Re((x3 + i*x4)^j) is harmonic and independent of x1, x2, so the
    components are harmonic, the Euclidean divergence vanishes and the form
    annihilates the radial direction.  Requires n >= 4 for k >= 2.
    """
    if k < 1:
        raise ValueError("degree must be >= 1")
    if k >= 2 and n < 4:
        raise ValueError("degree >= 2 generators need n >= 4")
    re, im = PolyR.constant(n, 1), PolyR(n)
    if k >= 2:
        x3, x4 = PolyR.coordinate(n, 2), PolyR.coordinate(n, 3)
        for _ in range(k - 1):
            re, im = re * x3 - im * x4, re * x4 + im * x3
    q = re
    out = FieldExpr(n, 1)
    out.set_component((0,), -(q * PolyR.coordinate(n, 1)))
    out.set_component((1,), q * PolyR.coordinate(n, 0))
    assert divergence(out).is_zero()
    assert radial_contraction(out).is_zero()
    assert laplacian(out).is_zero()
    return out
