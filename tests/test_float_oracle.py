"""The float path against mpmath, used here as an independent oracle.

The library runs on Python floats with one integer-exact rounding routine;
these properties pin it to the correctly rounded values, bit for bit:

* ``Scalar.sqrt`` of an irrational is ``mpmath.sqrt`` at 120 digits,
  rounded to the nearest double;
* every real and imaginary view of a branch weight, of its shifts and of
  its dual is the 120-digit value of the exact weight rounded to the
  nearest double, a float input counting as its exact binary rational;
* a rational p/q on the float path equals mpf(p)/mpf(q) at 53 bits;
* ``str`` of a float scalar equals ``mpmath.nstr(x, 17)``.
"""

import math
from fractions import Fraction

import mpmath
from hypothesis import example, given, settings, strategies as st

from conifold_spectra import Scalar, dual_weight, xi_pair

ORACLE_SETTINGS = settings(max_examples=400, deadline=None)

big = st.integers(1, 10**45)
positive_floats = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
# doubles near the fixed/exponent switch points 1e-5 and 1e17, and near
# every other power of ten in between
near_powers = st.builds(
    lambda k, m, sign: sign * m * 10.0**k,
    st.integers(-7, 18),
    st.floats(0.9, 10.0),
    st.sampled_from((1.0, -1.0)),
)


def _mp(value):
    """An int, Fraction or float as an mpf at the working precision."""
    p, q = value.as_integer_ratio()
    return mpmath.mpf(p) / q


def _oracle_sqrt(value) -> float:
    """sqrt(value) at 120 digits, rounded to the nearest double by ``float``."""
    with mpmath.workdps(120):
        return float(mpmath.sqrt(_mp(value)))


@ORACLE_SETTINGS
@given(big, big)
@example(2, 1)
@example(7, 1)
@example(10**45 - 1, 3)
@example(1, 10**45 - 7)
# Near-ties, found by search around (odd 54-bit integer)^2.  In the /49
# case two roundings (to 169 bits, then to 53) give 1.2474269432948923e+25,
# one ulp above the nearest double 1.247426943294892e+25.
@example(4086661673366335789516336381710662071727884811108360, 3)
@example(7624762496404386811301294406514830295260873726361577, 49)
@example(14220629755558932422102392407796305152590084346802684543972660330433095439220701, 17180131329)
def test_sqrt_of_rationals_is_correctly_rounded(p, q):
    value = Fraction(p, q)
    root = Scalar(value).sqrt()
    if root.exact:
        assert root.value * root.value == value
    else:
        assert root.value == _oracle_sqrt(value)


@ORACLE_SETTINGS
@given(positive_floats)
@example(2.0)
@example(5e-324)
@example(1.7976931348623157e308)
def test_sqrt_of_floats_is_correctly_rounded(x):
    assert Scalar(x, exact=False).sqrt().value == _oracle_sqrt(x)


@st.composite
def cones_and_eigenvalues(draw):
    """(n, nu): nu exact or a float, anywhere or within 1e-8..1e-40 of 0 or the resonance."""
    n = draw(st.integers(3, 12))
    edge = draw(st.sampled_from((0, Fraction(-((n - 2) ** 2), 4))))
    sign = draw(st.sampled_from((1, -1)))
    kind = draw(st.sampled_from(("rational", "near", "float", "near float")))
    if kind == "rational":
        return n, Fraction(draw(st.integers(-(10**6), 10**6)), draw(st.integers(1, 10**4)))
    if kind == "near":
        return n, edge + sign * Fraction(draw(st.integers(1, 99)), 10 ** draw(st.integers(10, 40)))
    if kind == "float":
        return n, draw(st.floats(-1e6, 1e6))
    return n, float(edge) + sign * draw(st.floats(1e-40, 1e-8))


def _discriminant(n, nu) -> Fraction:
    """(n-2)^2/4 + nu; a float nu meets (n-2)^2/4 in one double add, as on the float path."""
    disc = Fraction((n - 2) ** 2, 4)
    return disc + nu if isinstance(nu, Fraction) else Fraction(float(disc) + nu)


def _oracle_views(disc, base, sign):
    """Re and Im of base + sign*sqrt(disc) at 120 digits, rounded to the nearest doubles."""
    with mpmath.workdps(120):
        root = sign * mpmath.sqrt(_mp(abs(disc)))
        if disc < 0:
            return float(_mp(base)), float(root)
        return float(_mp(base) + root), 0.0


@settings(max_examples=300, deadline=None)
@given(cones_and_eigenvalues())
@example((6, Fraction(1, 10**30)))  # xi_plus is 2.5e-31, not -2.0 + fl(sqrt(4 + 1e-30)) = 0.0
@example((6, Fraction(-1, 10**30)))
@example((6, Fraction(-4) + Fraction(1, 10**40)))
@example((6, Fraction(3)))
@example((6, Fraction(-1)))
@example((10, 5.0))
@example((10, Fraction(319, 27)))  # the shift by 2 of xi_minus was one ulp off
def test_weight_views_are_correctly_rounded(case):
    n, nu = case
    half = Fraction(-(n - 2), 2)
    disc = _discriminant(n, nu)
    # a view is exact where the value is rational and nu exact, else a float
    exact_root = isinstance(nu, Fraction) and all(
        math.isqrt(v) ** 2 == v for v in (abs(disc.numerator), disc.denominator)
    )
    exact = (exact_root or (isinstance(nu, Fraction) and disc < 0), exact_root or disc >= 0)
    for sign, weight in zip((1, -1), xi_pair(n, nu)):
        views = [(weight, half, sign), (dual_weight(n, weight), 2 - n - half, -sign)]
        views += [(weight + d, half + d, sign) for d in (1, -1, 2, -2)]
        for view, base, s in views:
            assert (float(view.real.value), float(view.imag.value)) == _oracle_views(disc, base, s), (base, s)
            assert (view.real.exact, view.imag.exact) == exact


@ORACLE_SETTINGS
@given(st.integers(-(10**40), 10**40), st.integers(1, 10**40))
def test_rationals_round_both_operands_before_the_quotient(p, q):
    value = Fraction(p, q)  # in lowest terms
    expected = float(mpmath.mpf(value.numerator) / mpmath.mpf(value.denominator))
    assert Scalar(value, exact=False).value == expected
    assert (Scalar(value) + Scalar(0.0, exact=False)).value == expected


@ORACLE_SETTINGS
@given(st.one_of(finite_floats, near_powers))
@example(0.0)
@example(-0.0)
@example(1e-5)
@example(9.999999999999999e-05)
@example(-0.0001)
@example(1e16)
@example(9.999999999999998e16)
@example(1e17)
@example(-1.2345e17)
@example(0.64575131106459072)
@example(5e-324)
@example(1.7976931348623157e308)
@example(2251799813685246.25)  # an exact tie at 17 digits: rounds up
@example(-2251799813685246.25)
def test_str_matches_nstr_17(x):
    assert str(Scalar(x, exact=False)) == mpmath.nstr(mpmath.mpf(x), 17)
