"""The float path against mpmath, used here as an independent oracle.

The library runs on Python floats with one integer square root; these
properties pin it to the chain it replaces, bit for bit:

* ``Scalar.sqrt`` of an irrational equals ``mpmath.sqrt`` at 50 digits
  (169 bits, with p and q each rounded first), rounded to 53 bits;
* a rational p/q on the float path equals mpf(p)/mpf(q) at 53 bits;
* ``str`` of a float scalar equals ``mpmath.nstr(x, 17)``.
"""

from fractions import Fraction

import mpmath
from hypothesis import example, given, settings, strategies as st

from conifold_spectra import Scalar

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


def _oracle_sqrt(value) -> float:
    with mpmath.workdps(50):
        if isinstance(value, Fraction):
            x = mpmath.mpf(value.numerator) / mpmath.mpf(value.denominator)
        else:
            x = mpmath.mpf(value)
        root = mpmath.sqrt(x)
    return float(root * 1)  # *1 rounds to the 53-bit default context


@ORACLE_SETTINGS
@given(big, big)
@example(2, 1)
@example(7, 1)
@example(10**45 - 1, 3)
@example(1, 10**45 - 7)
# Near-ties, found by search around (odd 54-bit integer)^2: each fails if
# one step of the chain is dropped or rounds differently (168 bits, no
# sticky bit, p and q not rounded first, ties away from even).
@example(4086661673366335789516336381710662071727884811108360, 3)
@example(7624762496404386811301294406514830295260873726361577, 49)
@example(14220629755558932422102392407796305152590084346802684543972660330433095439220701, 17180131329)
def test_sqrt_of_rationals_matches_the_50_digit_chain(p, q):
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
def test_sqrt_of_floats_matches_the_50_digit_chain(x):
    assert Scalar(x, exact=False).sqrt().value == _oracle_sqrt(x)


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
