"""Unit tests for the branch-pair algebra."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from conifold_spectra import (
    DimensionTooSmall,
    Scalar,
    Weight,
    dual_weight,
    eta,
    resonance_pair,
    weight_pair_product,
    weight_pair_sum,
    xi_pair,
)

from conifold_spectra.core import rational, rational_sqrt, round_surd, surd_cmp, surd_sign
from conifold_spectra.links import EigenvalueEntry, LinkSpectrum, SpectrumList, snap_to_thresholds
from oracles import branch_pair, eta_of


def test_discriminant_rejects_small_dimension():
    # the discriminant (n-2)^2/4 + nu of xi_pair is refused below n = 3
    with pytest.raises(DimensionTooSmall):
        xi_pair(2, Scalar(0))


def test_xi_pair_basic():
    plus, minus = xi_pair(4, Scalar(0))
    assert plus.real == Scalar(0) and minus.real == Scalar(-2)
    plus, minus = xi_pair(4, Scalar(8))
    assert plus.real == Scalar(2) and minus.real == Scalar(-4)
    assert plus.imag.is_zero() and minus.imag.is_zero()


def test_xi_pair_complex_convention():
    plus, minus = xi_pair(10, Scalar(-20))
    assert plus.real == Scalar(-4) and minus.real == Scalar(-4)
    assert plus.imag == Scalar(2) and minus.imag == Scalar(-2)


def test_xi_pair_double_root():
    plus, minus = xi_pair(10, Scalar(-16))
    assert plus.real == minus.real == Scalar(-4)
    assert plus.imag.is_zero() and not plus.log_factor and not minus.log_factor


def test_eta_examples():
    assert eta(4, Weight((2, 0, 0))) == Scalar(8)
    assert eta(4, Scalar(0)) == Scalar(0)
    assert eta(4, Weight((-4, 0, 0))) == Scalar(8)
    assert eta(7, 0) == Scalar(0)


def test_eta_on_general_complex_weight_returns_pair():
    plus, _ = xi_pair(10, Scalar(-20))
    shifted = plus - 1
    value = eta(10, shifted)
    assert isinstance(value, tuple)
    re, im = value
    # (-5 + 2i)(3 + 2i) = -19 - 4i
    assert re.exact and re == Scalar(-19)
    assert im == Scalar(-4)


def test_dual_weight():
    assert dual_weight(4, Weight((0, 0, 0))).real == Scalar(-2)
    fixed = dual_weight(10, Weight((-4, 0, 0)))
    assert fixed.real == Scalar(-4)
    assert dual_weight(4, Weight((2, 0, 0))).real == Scalar(-4)


def test_resonance_pair():
    for n, expected in ((4, -1), (6, -2), (10, -4)):
        plain, logged = resonance_pair(n)
        assert plain.real == Scalar(expected) and not plain.log_factor
        assert logged.real == Scalar(expected) and logged.log_factor
        assert logged.imag.is_zero()


@pytest.mark.parametrize("n", range(4, 9))
def test_shifts_keep_the_log_companion(n):
    logged = resonance_pair(n)[1]
    assert logged + 0 == logged and logged - 0 == logged
    for k in (1, -3, Fraction(1, 2)):
        assert (logged + k) - k == logged and (logged + k).log_factor


def test_round_trip_against_oracle_on_square_discriminants():
    cases = [(4, Fraction(0)), (4, Fraction(8)), (4, Fraction(3)), (10, Fraction(-16)),
             (10, Fraction(-20)), (5, Fraction(18)), (6, Fraction(-3))]
    for n, nu in cases:
        expected = branch_pair(n, nu)
        plus, minus = xi_pair(n, Scalar(nu))
        assert (plus.real.value, plus.imag.value) == expected[0]
        assert (minus.real.value, minus.imag.value) == expected[1]
        if expected[0][1] == 0:
            assert eta_of(n, expected[0][0]) == nu


def test_identities_exact_for_irrational_radicals():
    # discriminant 2 is not a perfect square: views go to the float path but
    # the identity computations stay exact
    n = 4
    nu = Scalar(1)  # disc = 1 + 1 = 2
    plus, minus = xi_pair(n, nu)
    assert not plus.real.exact
    assert eta(n, plus) == nu
    assert eta(n, minus) == nu
    assert weight_pair_sum(plus, minus) == Scalar(2 - n)
    assert weight_pair_product(plus, minus) == Scalar(-1)
    assert dual_weight(n, plus) == minus


def test_a_real_pair_with_one_irrational_radical_sums_with_one_rounding():
    # at n = 6, xi_plus(3) = -2 + sqrt(7) and xi_plus(5) = -2 + 3 = 1
    root7, one = xi_pair(6, Scalar(3))[0], xi_pair(6, Scalar(5))[0]
    for total in (weight_pair_sum(root7, one), weight_pair_sum(one, root7)):
        assert not total.exact and total.value == round_surd(-1, 1, 7) == 1.6457513110645905
    assert weight_pair_sum(one, one) == 2 and weight_pair_sum(one, one).exact
    with pytest.raises(ValueError):
        weight_pair_sum(root7, xi_pair(6, Scalar(4))[0])  # -2 + sqrt(8): two irrational radicals


def test_pairs_that_leave_a_radical_or_an_imaginary_part_are_refused():
    # at n = 6: xi(-20) = -2 +- 4i, xi(-5) = -2 +- i, xi(3) = -2 +- sqrt(7), xi_plus(5) = 1
    up, down = xi_pair(6, Scalar(-20))
    root7, minus7 = xi_pair(6, Scalar(3))
    one = xi_pair(6, Scalar(5))[0]
    refused = [
        (weight_pair_sum, one, up),  # real + imaginary
        (weight_pair_sum, down, one),
        (weight_pair_product, one, up),
        (weight_pair_sum, up, up),  # imaginary parts 4 + 4
        (weight_pair_sum, up, xi_pair(6, Scalar(-5))[1]),  # imaginary parts 4 - 1
        (weight_pair_product, root7, one),  # irrational times rational
        (weight_pair_product, one, minus7),
        (weight_pair_product, root7, minus7 + 1),  # conjugate radicals, c = -2 and -1
        (weight_pair_product, up, down - 1),
    ]
    for pair, a, b in refused:
        with pytest.raises(ValueError):
            pair(a, b)
    assert weight_pair_sum(up, down) == -4 and weight_pair_product(up, down) == 20
    assert weight_pair_sum(root7, minus7 + 1) == -3 and weight_pair_product(root7, minus7) == -3


def test_weights_compare_by_their_exact_values():
    # xi_minus(10^-30) at n = 6 is -4 - 2.5e-31, whose view is the double -4.0
    tiny = xi_pair(6, Scalar(Fraction(1, 10**30)))[1]
    assert float(tiny.real) == -4.0 and tiny != Weight((-4, 0, 0))
    # a rational radical folds into the base: xi_plus(12) = -2 + 4
    assert xi_pair(6, Scalar(12))[0] == Weight((2, 0, 0))
    assert xi_pair(6, Scalar(-20))[0] == Weight((-2, 0, 0), (4, 0, 0))
    # the view of -2 + sqrt(2)i is a double whose square is not 2
    plus = xi_pair(6, Scalar(-6))[0]
    assert plus.im == (0, 1, 2) and plus != Weight(plus.re, (rational(plus.imag.value), 0, 0))
    assert resonance_pair(6)[0] != resonance_pair(6)[1]


def test_branch_inversion_identities():
    # the roots of eta(y) = eta(x) are y = x and y = 2-n-x; which branch
    # carries x depends on which side of the axis -(n-2)/2 it lies
    for n in (4, 7):
        for x in (Fraction(3), Fraction(1, 2), Fraction(2 - n, 2), Fraction(-1), Fraction(-n)):
            nu = x * (x + n - 2)
            plus, minus = xi_pair(n, Scalar(nu))
            if 2 * x >= 2 - n:
                assert plus.real == Scalar(x)
                assert minus.real == Scalar(2 - n - x)
            else:
                assert minus.real == Scalar(x)
                assert plus.real == Scalar(2 - n - x)


def test_monotonicity_of_branches():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(3, 12)
        base = Fraction(-(n - 2) ** 2, 4)
        a = base + Fraction(rng.randint(0, 10**6), 1009)
        b = a + Fraction(rng.randint(1, 10**6), 1009)
        pa, ma = xi_pair(n, Scalar(a))
        pb, mb = xi_pair(n, Scalar(b))
        assert pa.real < pb.real
        assert ma.real > mb.real


def test_scalar_parse_and_paths():
    assert Scalar.parse("3/4").value == Fraction(3, 4)
    assert Scalar.parse(7).exact
    assert not Scalar.parse(0.5).exact
    with pytest.raises(ValueError):
        Scalar.parse("1/2/3")
    with pytest.raises(ValueError):
        Scalar.parse(True)


def test_scalar_threshold_comparison_epsilon():
    # the threshold decision is the snap; comparisons after it are exact.
    # At n = 4 the resonance -(n-2)^2/4 is -1.
    def snapped_kappa(kappa, eps=1e-12):
        zero = SpectrumList((EigenvalueEntry(Scalar(0)),), Scalar(0))
        tt = SpectrumList((EigenvalueEntry(kappa),), Scalar(0))
        link = LinkSpectrum(4, "snap", zero, zero, tt, has_killing_fields=False)
        return snap_to_thresholds(link, eps).tt_einstein.entries[0].value

    exactly = Scalar(Fraction(-1))
    assert snapped_kappa(exactly) == Fraction(-1)
    nearly = Scalar(-1.0 + 1e-13, exact=False)
    assert snapped_kappa(nearly, eps=1e-12) == Fraction(-1)
    assert not snapped_kappa(nearly, eps=1e-12).exact
    assert snapped_kappa(nearly, eps=1e-14) > Fraction(-1)


def test_discriminant_root_paths():
    # the square root of a discriminant is taken once: a rational root is
    # kept exactly, an irrational one is None and its views are rounded once
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2) and rational_sqrt(2) is None
    assert xi_pair(4, Scalar(Fraction(5, 4)))[0].re == (Fraction(1, 2), 0, 0)  # -1 + sqrt(9/4)
    irr = xi_pair(4, Scalar(1))[0]  # disc = 2
    assert irr.re == (-1, 1, 2) and not irr.real.exact
    assert round_surd(0, 1, Fraction(9, 4)) == 1.5
    with pytest.raises(ValueError):
        round_surd(0, 1, -1)


def _nearest_double_to_surd(view, c, s, q):
    # view is the double nearest c + s*sqrt(q) for irrational sqrt(q): the
    # root s*(view - c) lies strictly inside view's half-ulp interval
    half_ulp = Fraction(math.ulp(view)) / 2
    lo, hi = sorted((s * (Fraction(view) - c - half_ulp), s * (Fraction(view) - c + half_ulp)))
    return 0 <= lo and lo * lo < q < hi * hi


def test_float_views_are_double_precision():
    # The square root and every weight view are doubles, each the double
    # nearest its exact value: xi_plus = -2 + sqrt(7) is rounded once, not
    # as the double sum -2.0 + fl(sqrt(7)).
    plus, minus = xi_pair(6, Scalar(3))
    root = round_surd(0, 1, 7)
    assert type(root) is float and _nearest_double_to_surd(root, 0, 1, 7)
    for weight, sign in ((plus, 1), (minus, -1)):
        assert type(weight.real.value) is float
        assert _nearest_double_to_surd(weight.real.value, -2, sign, 7)
        assert abs(weight.real.value - (-2.0 + sign * root)) <= math.ulp(weight.real.value)


def test_shifted_view_is_the_view_plus_the_shift():
    # x + d moves c by d and keeps the radical; its float view is the
    # exact value x + d rounded once.  For this weight the double sum
    # view(x) + d is one ulp off.
    _, minus = xi_pair(10, Scalar(Fraction(319, 27)))
    shifted = minus + 2
    assert minus.re == (-4, -1, Fraction(751, 27)) and shifted.re == (-2, -1, Fraction(751, 27))
    assert (shifted.im, shifted.exact) == (minus.im, minus.exact)
    assert _nearest_double_to_surd(shifted.real.value, -2, -1, Fraction(751, 27))
    assert shifted.real.value - (Fraction(minus.real.value) + 2) == math.ulp(shifted.real.value)
    # eta(x) = x(x + 8) = -12 + q - 4*sqrt(q) for x = -2 - sqrt(q), q = 751/27,
    # about -5.281086138617750944488641939069273753360, rounded once
    value = eta(10, shifted)
    assert not value.exact and type(value.value) is float
    assert _nearest_double_to_surd(value.value, Fraction(751, 27) - 12, -1, 16 * Fraction(751, 27))


def test_a_float_with_a_square_discriminant_keeps_the_exact_formulas():
    # kappa = 5.0 at n = 6: the discriminant 9 is a square, read from the
    # value, so the weights, eta and the surd are exact rationals, shown "~"
    plus, minus = xi_pair(6, Scalar(5.0))
    assert (plus.real.value, minus.real.value) == (1, -5)
    assert type(plus.real.value) is int and not plus.real.exact
    value = eta(6, plus + 1)  # 2 * (2 + 4)
    assert value == 12 and type(value.value) is int and not value.exact
    assert minus.re == (-5, 0, 0)
    assert weight_pair_product(plus, xi_pair(6, Scalar(12))[0]) == 2
    assert str(plus.real) == "~1" and repr(plus.real) == "Scalar(1.0, float)"


def test_float_path_has_no_negative_zero():
    # A float view is never -0.0, so it renders as 0 in every format, "~0" in text.
    zero = Scalar(0.0, exact=False)
    plus, minus = xi_pair(4, Scalar(-0.0, exact=False))  # 0 and -2
    views = (plus.real, -plus.real, dual_weight(4, minus).real, (minus + 2).real, eta(4, plus), eta(4, zero))
    for value in (-zero, *views, Scalar(-0.0, exact=False), Scalar.parse(-0.0)):
        assert not value.exact and math.copysign(1.0, value.value) == 1.0
        assert str(value) == "~0"


def _assert_normal(value):
    # an integral exact value is an int, any other rational a Fraction
    assert type(value) is int or (type(value) is Fraction and value.denominator != 1), value


def test_integral_exact_values_are_ints():
    half = Weight((Fraction(1, 2), 0, 0))
    values = [
        Scalar(Fraction(4, 2)),
        Scalar(True),
        Scalar(0.5, exact=True),
        Scalar.parse("6/3"),
        Scalar.parse("1/3"),
        (half + Fraction(1, 2)).real,
        weight_pair_sum(half, half),
        weight_pair_product(half, Weight((4, 0, 0))),
        eta(5, half - Fraction(1, 2)),
        xi_pair(4, Scalar(8))[0].real,
        xi_pair(4, Scalar(Fraction(5, 4)))[0].real,
        -Scalar(Fraction(8, 4)),
    ]
    for s in values:
        assert s.exact
        _assert_normal(s.value)
    assert weight_pair_sum(half, half).value == 1
    for plus, minus in (xi_pair(6, Scalar(12)), xi_pair(5, Scalar(4)), xi_pair(4, Scalar(Fraction(5, 4)))):
        for value in (plus.real.value, minus.real.value, *plus.re, *plus.im):
            _assert_normal(value)


def test_int_values_keep_every_fraction_view():
    # hash, ==, str, repr and the float view match the Fraction they replace
    for q in (Fraction(7), Fraction(-3), Fraction(2**70), Fraction(0)):
        s = Scalar(q)
        assert type(s.value) is int
        assert hash(s) == hash(q) and s == Scalar(q) and s.value == q
        assert str(s) == str(q) and repr(s) == f"Scalar({q}, exact)"
        assert float(s) == float(q.numerator) / float(q.denominator)
        assert type(s.as_fraction()) is Fraction and s.as_fraction() == q
    assert type(Scalar(Fraction(1, 3)).as_fraction()) is Fraction


def _mp_surd(x):
    c, s, q = x
    def mp(x):
        return mpmath.mpf(x.numerator) / x.denominator

    return mp(c) + s * mpmath.sqrt(mp(q))


_small_rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
_surds = st.tuples(
    _small_rationals,
    st.sampled_from((-1, 0, 1)),
    st.builds(Fraction, st.integers(0, 60), st.integers(1, 12)),
)


@settings(max_examples=300, deadline=None)
@given(_surds, _surds)
def test_surd_order_matches_a_high_precision_oracle(x, y):
    # equal values are exactly equal, since sqrt(q1) - sqrt(q2) is
    # rational only when both are; elsewhere 60 digits settle the sign
    with mpmath.workdps(60):
        diff = _mp_surd(x) - _mp_surd(y)
        expected = 0 if abs(diff) < mpmath.mpf(10) ** -40 else (1 if diff > 0 else -1)
    assert surd_cmp(x, y) == expected == -surd_cmp(y, x)
    assert surd_sign(*x) == surd_cmp(x, (0, 0, 0))


def test_exact_sign_of_a_cancelling_weight():
    # xi_plus(1e-30) at n = 6 is about 2.5e-31, where -2.0 + fl(sqrt(4 + 1e-30))
    # would cancel to 0.0; the view is the double nearest the exact value
    tiny = Fraction(1, 10**30)
    plus, minus = xi_pair(6, Scalar(tiny))
    assert plus.real.value == 2.5e-31
    assert surd_sign(*plus.re) == 1 and surd_sign(*minus.re) == -1
    plus_neg, _ = xi_pair(6, Scalar(-tiny))
    assert surd_sign(*plus_neg.re) == -1
    assert surd_cmp(plus.re, plus_neg.re) == 1
    # a rational weight is its own value, also from a float input; a float
    # input is its exact binary rational, so its weight has an exact surd
    assert xi_pair(6, Scalar(12))[0].re == (2, 0, 0)
    assert xi_pair(6, Scalar(12.0))[0].re == (2, 0, 0)
    assert xi_pair(6, Scalar(0.5))[0].re == (-2, 1, Fraction(9, 2))
