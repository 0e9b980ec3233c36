"""Hypothesis properties of the weight algebra and the rate sets.

* On random exact links whose discriminants are perfect squares, E_plus and
  E_minus equal the brute-force sets of ``tests/oracles.py``; with kappa
  within 10^-8 to 10^-40 of 0 or of the resonance, irrational radicals
  included, they equal and are ordered as a 120-digit evaluation.
* On random rationals nu, irrational radicals included, eta inverts both
  branches exactly, the pair sum and product are exact, and dual_weight is
  an involution exchanging the branches.
* Away from the thresholds nu = -(n-2)^2/4 and nu = 0, a float input
  agrees with the exact input to 1e-12 relative.
* A document of small dyadic floats k/2^j, which are exact binary
  rationals, gives the same verdicts, E± minima and root values as the
  same document written as "p/q" strings.
"""

import math
from fractions import Fraction

import mpmath
from hypothesis import assume, given, settings, strategies as st

from conifold_spectra import (
    EndKind,
    LinkAnalysis,
    Scalar,
    Weight,
    dual_weight,
    e_minus_set,
    e_plus_set,
    eta,
    load_spectrum,
    weight_pair_product,
    weight_pair_sum,
    xi_pair,
    xi_rates,
)

from conifold_spectra.core import rational
from oracles import brute_e_minus, brute_e_plus
from test_rates import synthetic_link

PROPERTY_SETTINGS = settings(max_examples=80, deadline=None)

rationals = st.builds(Fraction, st.integers(-400, 400), st.integers(1, 24))


def _eta(n, x):
    return x * (x + n - 2)


@st.composite
def square_links(draw):
    """An exact link whose lambda and kappa discriminants are squares.

    lambda = eta(x) for x >= 1 and kappa = eta(x) for x >= -(n-2)/2 (real
    pairs) or kappa = -(n-2)^2/4 - y^2 (below the window).  The last lambda
    is large, and both lists are certified below it, so every rate is.
    """
    n = draw(st.integers(4, 10))
    half = Fraction(n - 2, 2)
    xs = draw(st.lists(st.builds(Fraction, st.integers(0, 240), st.integers(4, 16)), min_size=1, max_size=4))
    lambdas = sorted({_eta(n, 1 + x) for x in xs})
    kappas = set()
    for _ in range(draw(st.integers(1, 5))):
        t = draw(st.builds(Fraction, st.integers(0, 40), st.integers(1, 6)))
        if draw(st.booleans()):
            kappas.add(_eta(n, t - half))
        else:
            kappas.add(-half * half - t * t)
    kappas = sorted(kappas)
    top = _eta(n, Fraction(100))
    link = synthetic_link(n, kappas=kappas, lambdas=[Fraction(0)] + lambdas + [top], kappa_complete=top)
    return link, n, kappas, lambdas + [top]


@PROPERTY_SETTINGS
@given(square_links())
def test_rate_sets_match_the_brute_force_oracle(case):
    link, n, kappas, lambdas = case
    assert {v.as_fraction() for v in e_plus_set(link).values()} == brute_e_plus(n, kappas, lambdas)
    assert {v.as_fraction() for v in e_minus_set(link).values()} == brute_e_minus(n, kappas, lambdas)


def _mp(q):
    return mpmath.mpf(q.numerator) / q.denominator


def _real_parts(n, nu):
    """Re of both branch roots at 120 digits; a complex pair shares one."""
    disc = _mp(Fraction((n - 2) ** 2, 4) + nu)
    half = _mp(Fraction(-(n - 2), 2))
    if disc < 0:
        return [half]
    return [half + mpmath.sqrt(disc), half - mpmath.sqrt(disc)]


def _distinct(values):
    out = []
    for v in sorted(values):
        if not out or v - out[-1] > mpmath.mpf(10) ** -100:
            out.append(v)
    return out


@PROPERTY_SETTINGS
@given(st.integers(4, 10), st.integers(8, 40), st.sampled_from((1, -1)), st.booleans())
def test_rate_sets_near_the_thresholds_match_a_high_precision_oracle(n, k, sign, at_resonance):
    # kappa = +-10^-k off 0 or off -(n-2)^2/4: the double views of the
    # nearby weights cancel to 0.0 or coincide; the exact sign and order do not
    edge = Fraction(-((n - 2) ** 2), 4) if at_resonance else Fraction(0)
    kappa = edge + Fraction(sign, 10**k)
    top = Fraction(3 * n)
    link = synthetic_link(n, kappas=[kappa, top])
    with mpmath.workdps(120):
        roots = [r for nu in (kappa, top, Fraction(2 * n)) for r in _real_parts(n, nu)]
        oracles = ([r for r in roots if r > 0], [-r for r in roots if r < 0])
        for rates, expected in zip((e_plus_set(link), e_minus_set(link)), oracles):
            got = []
            for el in rates.elements:
                c, s, q = el.surd()
                got.append(_mp(Fraction(c)) + s * mpmath.sqrt(_mp(Fraction(q))))
            assert got == sorted(got)
            got, expected = _distinct(got), _distinct(expected)
            assert len(got) == len(expected)
            assert all(abs(a - b) < mpmath.mpf(10) ** -100 for a, b in zip(got, expected))


@PROPERTY_SETTINGS
@given(st.integers(3, 12), rationals)
def test_branch_algebra_is_exact(n, nu):
    s_nu = Scalar(nu)
    plus, minus = xi_pair(n, s_nu)
    for weight in (plus, minus):
        value = eta(n, weight)
        assert isinstance(value, Scalar) and value.exact and value == s_nu
    total = weight_pair_sum(plus, minus)
    assert total.exact and total == Scalar(2 - n)
    product = weight_pair_product(plus, minus)
    assert product.exact and product == Scalar(-nu)
    assert dual_weight(n, plus) == minus
    assert dual_weight(n, minus) == plus
    assert dual_weight(n, dual_weight(n, plus)) == plus


@PROPERTY_SETTINGS
@given(st.integers(3, 12), rationals, st.integers(-3, 3), st.integers(0, 6))
def test_equal_weights_hash_alike(n, nu, k, j):
    # one value reached by shifts, duals, float provenance and the constructor
    dyadic = Fraction(round(nu * 2**j), 2**j)
    weights = []
    for value in (Scalar(nu), Scalar(dyadic), Scalar(float(dyadic), exact=False)):
        plus, minus = xi_pair(n, value)
        assert (plus + k) - k == plus and dual_weight(n, minus) == plus
        weights += [plus, minus, (plus + k) - k, dual_weight(n, minus), dual_weight(n, minus + k)]
        weights += [Weight(plus.re, plus.im, value.exact), Weight(minus.re) + k]
    for a in weights:
        for b in weights:
            if a == b:
                assert hash(a) == hash(b)


@st.composite
def sources(draw):
    """(n, nu): nu exact or a float, its discriminant a square or (mostly) not."""
    n = draw(st.integers(3, 12))
    x = draw(rationals)
    nu = draw(st.sampled_from((x, x * (x + n - 2))))  # eta(x) has a square discriminant
    return n, draw(st.sampled_from((Scalar(nu), Scalar(float(nu), exact=False))))


def _is_square(q):
    return all(math.isqrt(m) ** 2 == m for m in (q.numerator, q.denominator))


def _mp_part(surd):
    c, s, q = surd
    return _mp(Fraction(c)) + s * mpmath.sqrt(_mp(Fraction(q)))


@PROPERTY_SETTINGS
@given(st.integers(3, 12), rationals, rationals, st.integers(-3, 3))
def test_weights_are_in_normal_form(n, nu, x, k):
    # each part is c + s*sqrt(q) with a rational radical folded into c, at
    # most one part carries a radical, and one value has one form: weights
    # within 10^-40 of each other at 60 digits are equal and hash alike
    weights = [Weight((rational(x), 0, 0))]
    for source in (nu, x * (x + n - 2)):  # eta(x) has a square discriminant
        plus, minus = xi_pair(n, Scalar(source))
        weights += [plus, minus, plus + k, minus - k, dual_weight(n, plus), dual_weight(n, minus + k)]
    for weight in weights:
        assert not (weight.re[1] and weight.im[1])
        for c, s, q in (weight.re, weight.im):
            assert type(c) is int or type(c) is Fraction and c.denominator != 1
            assert type(q) is int or type(q) is Fraction and q.denominator != 1
            assert s in (-1, 0, 1) and q >= 0
            assert (s != 0) == (not _is_square(Fraction(q))) and (s != 0 or q == 0)
    with mpmath.workdps(60):
        values = [mpmath.mpc(_mp_part(w.re), _mp_part(w.im)) for w in weights]
        for a, va in zip(weights, values):
            for b, vb in zip(weights, values):
                if abs(va - vb) < mpmath.mpf(10) ** -40:
                    assert (a.re, a.im) == (b.re, b.im) and a == b and hash(a) == hash(b)


@PROPERTY_SETTINGS
@given(sources(), st.integers(-3, 3))
def test_a_view_is_exact_iff_its_source_is_exact_and_it_is_rational(case, k):
    # every weight below is -(n-2)/2 + shift +- sqrt(disc); its real part is
    # rational when the radical is (or lies on the imaginary axis), and
    # eta = a(a+n-2) -+ disc + 2*shift*(+-sqrt(disc)) when shift != 0
    n, source = case
    disc = Fraction((n - 2) ** 2, 4) + source.as_fraction()
    rational_root = _is_square(abs(disc))
    plus, minus = xi_pair(n, source)
    shifted = ((plus, 0), (minus, 0), (plus + k, k), (minus - k, -k))
    duals = ((dual_weight(n, plus), 0), (dual_weight(n, minus + k), -k))
    for weight, shift in shifted + duals:
        views = [(weight.real, disc < 0 or rational_root)]
        if disc < 0:  # the imaginary part of a real weight is the constant 0
            views.append((weight.imag, rational_root))
        value = eta(n, weight)
        assert isinstance(value, tuple) == (disc < 0 and shift != 0)
        re, im = value if isinstance(value, tuple) else (value, None)
        views.append((re, disc < 0 or rational_root or shift == 0))
        if im is not None:
            views.append((im, rational_root))
        for view, rational in views:
            assert view.exact == (source.exact and rational), (weight, view)


def _exact_value(s):
    return mpmath.mpf(s.value.numerator) / s.value.denominator if s.exact else float(s)


@PROPERTY_SETTINGS
@given(st.integers(3, 12), rationals)
def test_float_path_agrees_with_exact_path_away_from_thresholds(n, nu):
    assume(abs(nu) >= 1 and abs(nu - Fraction(-((n - 2) ** 2), 4)) >= 1)
    exact = xi_pair(n, Scalar(nu))
    floats = xi_pair(n, Scalar(float(nu), exact=False))
    for e, f in zip(exact, floats):
        assert f.imag.is_zero() == e.imag.is_zero()
        for part in ("real", "imag"):
            ev, fv = _exact_value(getattr(e, part)), _exact_value(getattr(f, part))
            assert abs(fv - ev) <= 1e-12 * abs(ev)


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 8), st.lists(st.integers(-120, 240), min_size=1, max_size=4, unique=True))
def test_float_document_rates_agree_with_exact_document(n, kappa_sevenths):
    # every kappa at least 1 away from the window edge and from 0, every
    # lambda above the Obata bound: no threshold decision is near a tie
    critical = Fraction(-((n - 2) ** 2), 4)
    kappas = sorted(
        k for k in (Fraction(t, 7) + Fraction(1, 3) for t in kappa_sevenths)
        if abs(k) >= 1 and abs(k - critical) >= 1
    ) or [Fraction(2 * n)]
    lambdas = [Fraction(0), Fraction(n) + Fraction(1, 3), Fraction(3 * n) + Fraction(2, 7)]
    mus = [Fraction(n - 2), Fraction(n) + Fraction(1, 5)]
    top = max(kappas[-1], lambdas[-1]) + 1

    def document(number):
        def block(values, first_one=False):
            entries = [{"value": number(v), "multiplicity": None} for v in values]
            if first_one:
                entries[0]["multiplicity"] = 1
            return {"entries": entries, "complete_below": number(top), "mode": "exact"}

        return {
            "dim_cone": n,
            "name": "float against exact",
            "scalar": block(lambdas, first_one=True),
            "coclosed_one_form": block(mus),
            "tt_einstein": block(kappas),
            "has_killing_fields": True,
            "ends": [{"kind": "AC"}, {"kind": "CS"}],
        }

    exact = xi_rates(load_spectrum(document(str)))
    floats = xi_rates(load_spectrum(document(float)))
    for e, f in ((exact.xi_plus, floats.xi_plus), (exact.xi_minus, floats.xi_minus)):
        assert f.part == e.part
        ev, fv = _exact_value(e.value), _exact_value(f.value)
        assert abs(fv - ev) <= 1e-12 * abs(ev)


@st.composite
def dyadic_spectra(draw):
    """(n, lambdas, mus, kappas): strictly increasing dyadic rationals k/2^j.

    Lambdas are 0 and values from n - 1 up, mus from n - 2 up, kappas from
    below the window to above 0; thresholds themselves are allowed.
    """
    n = draw(st.integers(4, 9))
    j = draw(st.integers(0, 6))

    def dyadics(low, high, **size):
        ks = draw(st.lists(st.integers(low * 2**j, high * 2**j), unique=True, **size))
        return sorted(Fraction(k, 2**j) for k in ks)

    lambdas = [Fraction(0)] + dyadics(n - 1, 6 * n, min_size=1, max_size=3)
    mus = dyadics(n - 2, 6 * n, min_size=1, max_size=3)
    kappas = dyadics(-(n * n), 6 * n, min_size=1, max_size=4)
    return n, lambdas, mus, kappas


@settings(max_examples=60, deadline=None)
@given(dyadic_spectra())
def test_dyadic_float_document_matches_the_rational_document(case):
    n, lambdas, mus, kappas = case
    top = max(lambdas[-1], mus[-1], kappas[-1]) + 1

    def document(number):
        def block(values):
            entries = [{"value": number(v), "multiplicity": None} for v in values]
            return {"entries": entries, "complete_below": number(top), "mode": "exact"}

        return {
            "dim_cone": n,
            "name": "dyadic",
            "scalar": block(lambdas),
            "coclosed_one_form": block(mus),
            "tt_einstein": block(kappas),
            "ends": [{"kind": "AC"}, {"kind": "CS"}],
        }

    exact, floats = (LinkAnalysis(load_spectrum(document(number))) for number in (str, float))
    assert floats.resonance.dominated == exact.resonance.dominated
    assert floats.stability[:3] == exact.stability[:3]
    assert floats.adm.verdict == exact.adm.verdict
    for kind in (EndKind.AC, EndKind.CS):
        e, f = exact.end_order(kind), floats.end_order(kind)
        assert (f.order, f.weak) == (e.order, e.weak)
    for e, f in zip(exact.rates, floats.rates):
        assert (f.surd(), f.part, f.value) == (e.surd(), e.part, e.value)
    assert len(floats.full) == len(exact.full)
    for e, f in zip(exact.full, floats.full):
        assert (f.family, f.source_index, f.branch, f.shift) == (e.family, e.source_index, e.branch, e.shift)
        assert (f.weight.real, f.weight.imag, f.tangential_value) == (e.weight.real, e.weight.imag, e.tangential_value)
        assert (f.weight.re, f.weight.im) == (e.weight.re, e.weight.im)
