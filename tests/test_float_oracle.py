"""Float inputs and views against mpmath, used here as an independent oracle.

A float input is its exact binary rational, and every shown value is one
rounding of an exact value; these properties pin it to the correctly
rounded values, bit for bit:

* ``round_surd(0, 1, q)``, the rounded square root, is ``mpmath.sqrt``
  at 120 digits, rounded to the nearest double;
* every real and imaginary view of a branch weight, of its shifts and of
  its dual is the 400-digit value of the exact weight rounded to the
  nearest double, a float input counting as its exact binary rational;
* with float kappa near 0 and near -(n-2)^2/4, for n up to 10^4, E_plus and
  E_minus hold the elements, signs, minima and views of a 400-digit
  evaluation of each float's exact binary rational;
* a rational of float provenance is its exact value, shown as float(p/q);
* ``str`` of a float scalar is "~" and the 17 significant digits of its
  double (``format(x, ".17g")``), which read back as the same double.
"""

import math
from fractions import Fraction

import mpmath
from hypothesis import example, given, settings, strategies as st

from conifold_spectra import DEFAULT_EPSILON, LinkAnalysis, Scalar, dual_weight, load_spectrum, xi_pair
from conifold_spectra.core import rational_sqrt, round_surd

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


def _double(x) -> float:
    """The double nearest an mpf, ties to even.

    ``float(mpf)`` rounds to 53 bits before it scales, which rounds twice
    where the result is subnormal; the exact dyadic value rounds once.
    """
    man, exp = x.man_exp  # the mantissa of abs(x)
    return math.copysign(float(Fraction(man) * Fraction(2) ** exp), x)


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
    root = rational_sqrt(value)
    if root is not None:
        assert root * root == value
    assert round_surd(0, 1, value) == _oracle_sqrt(value)


@ORACLE_SETTINGS
@given(positive_floats)
@example(2.0)
@example(5e-324)
@example(1.7976931348623157e308)
def test_sqrt_of_floats_is_correctly_rounded(x):
    assert round_surd(0, 1, x) == _oracle_sqrt(x)


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
    """(n-2)^2/4 + nu, exactly; a float nu is its exact binary rational."""
    return Fraction((n - 2) ** 2, 4) + Fraction(nu)


def _oracle_views(disc, base, sign):
    """Re and Im of base + sign*sqrt(disc) at 400 digits, rounded to the nearest doubles.

    Where base and the root have opposite signs, the real value is taken as
    (base^2 - disc)/(base - root), which does not cancel: a float nu such as
    4e-159 at n = 3 leaves xi_plus far below 10^-120 of the terms.  400
    digits, not 120: xi_plus(nu) is about nu/4 at n = 6, which for a
    subnormal nu such as -2.225073858507e-311 lies within a relative 10^-312
    of the midpoint between two subnormals.
    """
    with mpmath.workdps(400):
        root = sign * mpmath.sqrt(_mp(abs(disc)))
        if disc < 0:
            return _double(_mp(base)), _double(root)
        if base * sign < 0:
            return _double(_mp(base * base - disc) / (_mp(base) - root)), 0.0
        return _double(_mp(base) + root), 0.0


@settings(max_examples=300, deadline=None)
@given(cones_and_eigenvalues())
@example((6, Fraction(1, 10**30)))  # xi_plus is 2.5e-31, not -2.0 + fl(sqrt(4 + 1e-30)) = 0.0
@example((6, Fraction(-1, 10**30)))
@example((6, Fraction(-4) + Fraction(1, 10**40)))
@example((6, Fraction(3)))
@example((6, Fraction(-1)))
@example((10, 5.0))
@example((10, Fraction(319, 27)))  # the shift by 2 of xi_minus was one ulp off
# the float 1.032456302611813e-09 loses digits in a double add to 1/4: xi_plus
# is 1.032456301545847..e-09, not 1.0324562860651457e-09
@example((3, 1.032456302611813e-09))
@example((6, 29.56))  # 3.7930993431840955027...: one ulp below the view of -2 + sqrt(fl(4 + 29.56))
@example((6, -2.225073858507e-311))  # nu/4 is a midpoint of subnormals; xi_plus lies just off it
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


@st.composite
def float_kappas_near_thresholds(draw):
    """(n, kappas, eps): one float kappa near -(n-2)^2/4 and one near 0.

    Each is a few ulps off its threshold, or the threshold's double plus an
    offset between 1e-300 and 1e-3, which a double add may absorb.
    """
    n = draw(st.one_of(st.integers(4, 12), st.integers(13, 10**4)))

    def near(edge):
        x = float(edge)
        if draw(st.booleans()):
            return x + draw(st.integers(-64, 64)) * math.ulp(x)
        return x + draw(st.sampled_from((1.0, -1.0))) * draw(st.floats(1e-300, 1e-3))

    kappas = (near(Fraction(-((n - 2) ** 2), 4)), near(0))
    return n, kappas, draw(st.sampled_from((0.0, DEFAULT_EPSILON)))


def _link_document(n, kappas):
    # lambda = 3n and mu = n - 1 are exact and far from every threshold
    def block(values, top):
        return {"entries": [{"value": v, "multiplicity": None} for v in values],
                "complete_below": top, "mode": "exact"}

    scalar = block([0, str(3 * n)], str(3 * n))
    scalar["entries"][0]["multiplicity"] = 1
    return {
        "dim_cone": n,
        "name": "float kappa near a threshold",
        "scalar": scalar,
        "coclosed_one_form": block([str(n - 1)], str(n - 1)),
        "tt_einstein": block(list(kappas), str(3 * n)),
        "ends": [{"kind": "AC"}, {"kind": "CS"}],
    }


def _oracle_rate_sets(n, kappas, eps):
    """E_plus values and E_minus (value, part) pairs, at the working precision.

    Each float kappa is its exact binary rational, moved onto -(n-2)^2/4 or
    0 when its exact distance is at most eps.  xi_plus(nu) = -h + sqrt(h^2 +
    nu) is evaluated as nu/(h + sqrt(h^2 + nu)), which does not cancel.
    """
    h = Fraction(n - 2, 2)
    critical = -h * h
    plus, minus = [], []
    lam = Fraction(3 * n)
    for nu in [Fraction(k) for k in kappas] + [lam]:
        nearest = min((critical, Fraction(0)), key=lambda t: abs(nu - t))
        if nu is not lam and abs(nu - nearest) <= eps:
            nu = nearest
        if h * h + nu < 0:
            minus.append((_mp(h), "below-window"))
            continue
        root = mpmath.sqrt(_mp(h * h + nu))
        xi_plus = _mp(nu) / (_mp(h) + root)
        if nu > 0:
            plus.append(xi_plus)
        minus.append((_mp(h) + root, "minus-branch"))
        if nu is not lam and critical <= nu < 0:
            minus.append((-xi_plus, "window"))
    return plus, minus


@settings(max_examples=150, deadline=None)
@given(float_kappas_near_thresholds())
@example((1000, (-249001.0, 2e-12), DEFAULT_EPSILON))  # xi_plus was 0.0: CS order 2
@example((1000, (-249001.0, -2e-12), DEFAULT_EPSILON))  # window view 0.0 raised AssertionError
@example((6, (-4.0, 1e-16), 0.0))
@example((6, (-4.0 - 8 * math.ulp(4.0), -1e-16), 0.0))
@example((10**4, (-24980001.0 + math.ulp(24980001.0), 5e-324), 0.0))
@example((4, (-1.0, 1.5e-323), 0.0))  # rounds down from just below a tie
@example((4, (-1.0, -5e-324), 0.0))  # the window view rounds up from just above a tie
def test_float_kappa_rate_sets_match_a_high_precision_oracle(case):
    n, kappas, eps = case
    analysis = LinkAnalysis(load_spectrum(_link_document(n, kappas), eps=eps), eps)
    # 400 digits, not 120: xi_plus(1.5e-323) at n = 4 lies within a relative
    # 2**-1076 of the midpoint between two subnormals
    with mpmath.workdps(400):
        plus, minus = _oracle_rate_sets(n, kappas, eps)
        e_plus, e_minus = analysis.e_plus.elements, analysis.e_minus.elements
        assert all(el.sign() == 1 for el in e_plus + e_minus)
        # ordered by exact value: the views are the sorted oracle values, rounded
        assert [float(el.value) for el in e_plus] == [_double(v) for v in sorted(plus)]
        assert [float(el.value) for el in e_minus] == [_double(v) for v, _ in sorted(minus)]
        assert sorted((float(el.value), el.part) for el in e_minus) == sorted(
            (_double(v), part) for v, part in minus
        )
        xi_plus, xi_minus = analysis.rates
        assert float(xi_plus.value) == _double(min(plus))
        best, part = min(minus)
        assert (float(xi_minus.value), xi_minus.part) == (_double(best), part)


@ORACLE_SETTINGS
@given(st.integers(-(10**40), 10**40), st.integers(1, 10**40))
def test_float_provenance_rationals_are_rounded_once(p, q):
    # p/q keeps its exact value when a float meets it; only its view rounds,
    # once: float(Fraction) is the double nearest p/q, not float(p)/float(q)
    value = Fraction(p, q)  # in lowest terms
    with mpmath.workdps(120):
        expected = _double(mpmath.mpf(value.numerator) / value.denominator)
    zero = xi_pair(4, Scalar(0.0, exact=False))[0]  # xi_plus(0) = 0, of float provenance
    for s in (Scalar(value, exact=False), (zero + value).real):
        assert not s.exact and s == value and s.value == value
        assert float(s) == float(value) == expected


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
@example(2251799813685246.25)  # an exact tie at 17 digits: "~2251799813685246.2"
@example(-2251799813685246.25)
def test_str_is_the_17_digit_text_of_the_double(x):
    text = str(Scalar(x, exact=False))
    assert text == "~" + format(x + 0.0, ".17g")  # a Scalar holds no -0.0
    assert float(text[1:]) == x
