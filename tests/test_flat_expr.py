"""The exact tensor engine: calculus, zero testing, proportionality."""

from fractions import Fraction
from math import gcd

from hypothesis import assume, given, settings, strategies as st

from conifold_spectra.flatcone import (
    FieldExpr,
    PolyR,
    bianchi_op,
    divergence,
    euclidean_metric,
    gradient,
    harmonic_polynomial,
    laplacian,
    proportionality,
    radial_contraction,
    radial_form,
    sym_gradient,
    sym_product,
    trace,
)
from oracles import add_terms, diff_terms, expand_is_zero, second_derivative_laplacian


def sum_of_squares(n):
    """sum_i x_i^2 as coordinate products; the x_n rewrite gives r^2."""
    total = PolyR.constant(n, 0)
    for i in range(n):
        total = total + PolyR.coordinate(n, i) * PolyR.coordinate(n, i)
    return total


def scalar_field(poly):
    return FieldExpr.scalar(poly)


def test_partial_derivative_of_radial_power():
    n = 4
    f = scalar_field(PolyR.r_power(n, Fraction(-3)))
    df = f.map_components(lambda p: p.diff(0))
    # d_1 r^s = s x_1 r^{s-2}
    expected = PolyR.monomial(n, (1, 0, 0, 0), coeff=Fraction(-3), r_power=Fraction(-5))
    assert (df.component() - expected).is_zero()


def test_laplacian_examples():
    n = 4
    assert laplacian(scalar_field(PolyR.coordinate(n, 0))).is_zero()
    assert laplacian(scalar_field(PolyR.r_power(n, 2 - n))).is_zero()
    # x_1 * r^{-4} is the Kelvin transform of x_1 on R^4
    kelvin = PolyR.coordinate(n, 0).mul_r_power(Fraction(-4))
    assert laplacian(scalar_field(kelvin)).is_zero()
    # r^2 is not harmonic: Delta(r^2) = -2n
    r2 = scalar_field(PolyR.r_power(n, 2))
    value = laplacian(r2).component()
    assert (value - PolyR.constant(n, -2 * n)).is_zero()


def test_bianchi_of_metric_vanishes():
    for n in (4, 6):
        assert bianchi_op(euclidean_metric(n)).is_zero()


def test_delta_star_radial_form_is_metric():
    for n in (4, 5):
        assert (sym_gradient(radial_form(n)) - euclidean_metric(n)).is_zero()


def test_divergence_sign_convention():
    n = 4
    w = FieldExpr(n, 1)
    w.set_component((0,), PolyR.coordinate(n, 0))
    # delta(x_1 dx_1) = -d_1 x_1 = -1
    assert (divergence(w).component() - PolyR.constant(n, -1)).is_zero()


def test_trace_and_radial_contraction():
    n = 4
    g = euclidean_metric(n)
    assert (trace(g).component() - PolyR.constant(n, n)).is_zero()
    contracted = radial_contraction(g)
    # g(d_r, .) = dr = x dx / r
    expected = radial_form(n).mul_r_power(Fraction(-1))
    assert all(
        (contracted.component(i) - expected.component(i)).is_zero() for i in range(n)
    )


def test_is_zero_mixed_representations():
    n = 4
    r2 = sum_of_squares(n)
    assert (r2 - PolyR.r_power(n, 2)).is_zero()
    assert (r2.mul_r_power(Fraction(-2)) - PolyR.constant(n, 1)).is_zero()
    odd = PolyR.r_power(n, 1) - PolyR.coordinate(n, 0)
    assert not odd.is_zero()
    fractional = PolyR.r_power(n, Fraction(1, 2))
    assert not (fractional - PolyR.constant(n, 1)).is_zero()


def test_normalize_prunes_and_collects():
    n = 4
    poly = PolyR.coordinate(n, 0) + PolyR.coordinate(n, 0)
    # symmetric keys (0,1) and (1,0) collapse onto one slot and cancel
    f = FieldExpr(n, 2, {(0, 1): poly, (1, 0): -poly})
    assert f.is_zero()
    g = FieldExpr(n, 2, {(0, 1): poly, (1, 0): poly})
    assert (g.component(0, 1) - poly * 2).is_zero()


def test_homogeneity():
    n = 4
    h = harmonic_polynomial(n, 3)
    assert h.component().homogeneity() == Fraction(3)
    assert h.mul_r_power(Fraction(-4)).component().homogeneity() == Fraction(-1)
    mixed = scalar_field(PolyR.coordinate(n, 0) + PolyR.r_power(n, 2))
    assert mixed.component().homogeneity() is None


def test_harmonic_polynomial_construction():
    for n in (4, 5):
        for d in range(5):
            for seed in (0, 1, 5):
                h = harmonic_polynomial(n, d, seed)
                assert laplacian(h).is_zero()
                assert h.component().terms
                assert h.component().homogeneity() == Fraction(d)


def test_harmonic_polynomial_examples():
    n = 4
    assert (
        harmonic_polynomial(n, 1).component() - PolyR.coordinate(n, 0)
    ).is_zero()
    # degree-2 projection of x_1^2 is x_1^2 - r^2/4, a traceless quadratic
    h2 = harmonic_polynomial(n, 2).component()
    expected = PolyR.monomial(n, (2, 0, 0, 0)) + PolyR.r_power(n, 2) * Fraction(-1, 4)
    assert (h2 - expected).is_zero()


def test_proportionality_exact_division():
    n = 4
    g = gradient(harmonic_polynomial(n, 2))
    f = g.scale(Fraction(7, 3)).mul_r_power(Fraction(0))
    assert proportionality(f, g) == Fraction(7, 3)
    assert proportionality(g, g) == Fraction(1)
    shifted = g.mul_r_power(Fraction(2))
    assert proportionality(shifted, g) is None
    # equivalent representations: r^2 * g vs (sum x_i^2) * g
    r2_version = g.mul_r_power(Fraction(2))
    poly_version = g.scale_poly(sum_of_squares(n))
    assert proportionality(r2_version, poly_version) == Fraction(1)


def test_laplacian_trace_commute_on_hessians():
    n = 4
    h = sym_gradient(gradient(scalar_field(PolyR.r_power(n, Fraction(-1)))))
    assert (trace(laplacian(h)).component() - laplacian(trace(h)).component()).is_zero()


def test_normal_form_keeps_last_exponent_below_two():
    n = 4
    xn = PolyR.coordinate(n, n - 1)
    # x_4^2 = r^2 - x_1^2 - x_2^2 - x_3^2
    square = xn * xn
    assert all(alpha[-1] <= 1 for alpha, _s in square.terms)
    assert (square - PolyR.r_power(n, 2) + PolyR.monomial(n, (2, 0, 0, 0))
            + PolyR.monomial(n, (0, 2, 0, 0)) + PolyR.monomial(n, (0, 0, 2, 0))).is_zero()
    assert sum_of_squares(n).terms == PolyR.r_power(n, 2).terms
    assert (xn * xn * xn).homogeneity() == Fraction(3)


# -- properties against the independent references in tests/oracles.py -----

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def radial_terms(draw, n, max_terms=5, denominators=(2,)):
    """A raw {(alpha, s): c} sum: sparse monomials on any of the n
    coordinates (x_n included), r-powers in halves (or over one of
    ``denominators``), rational coefficients."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        alpha = [0] * n
        for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
            alpha[i] += draw(st.integers(1, 2))
        s = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from(denominators)))
        c = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
        terms = add_terms(terms, {(tuple(alpha), s): c})
    return terms


def vanishing(n, terms):
    """(r^2 - sum_i x_i^2) * terms written out term by term: zero, unreduced."""
    out = {}
    for (alpha, s), c in terms.items():
        parts = [{(alpha, s + 2): c}]
        for i in range(n):
            raised = alpha[:i] + (alpha[i] + 2,) + alpha[i + 1:]
            parts.append({(raised, s): -c})
        out = add_terms(out, *parts)
    return out


@st.composite
def fields(draw, n):
    rank = draw(st.sampled_from((1, 2)))
    out = FieldExpr(n, rank)
    for key in draw(st.lists(st.sampled_from(out.keys()), min_size=1, max_size=3, unique=True)):
        out.set_component(key, PolyR(n, draw(radial_terms(n, max_terms=3))))
    return out


def in_normal_form(poly):
    return all(alpha[-1] <= 1 for alpha, _s in poly.terms)


@PROPERTY_SETTINGS
@given(st.data())
def test_is_zero_matches_expansion_reference(data):
    n = data.draw(st.integers(3, 8))
    noise = data.draw(radial_terms(n)) if data.draw(st.booleans()) else {}
    terms = add_terms(noise, vanishing(n, data.draw(radial_terms(n, max_terms=3))))
    poly = PolyR(n, terms)
    assert in_normal_form(poly)
    assert poly.is_zero() == expand_is_zero(n, terms)
    # the normal form is the same function
    assert expand_is_zero(n, add_terms(poly.terms, terms, scale=[1, -1]))


@PROPERTY_SETTINGS
@given(st.data())
def test_laplacian_matches_second_derivative_reference(data):
    n = data.draw(st.integers(3, 8))
    terms = data.draw(radial_terms(n))
    value = laplacian(scalar_field(PolyR(n, terms))).component()
    assert in_normal_form(value)
    reference = second_derivative_laplacian(n, terms)
    assert expand_is_zero(n, add_terms(value.terms, reference, scale=[1, -1]))


@PROPERTY_SETTINGS
@given(st.data())
def test_proportionality_recovers_the_scale(data):
    n = data.draw(st.integers(3, 8))
    g = data.draw(fields(n))
    assume(not g.is_zero())
    c = Fraction(data.draw(st.integers(-9, 9)), data.draw(st.integers(1, 5)))
    assert proportionality(g.scale(c), g) == c


@PROPERTY_SETTINGS
@given(st.data())
def test_proportionality_rejects_non_proportional_pairs(data):
    n = data.draw(st.integers(3, 8))
    g = data.draw(fields(n))
    assume(not g.is_zero())
    c = Fraction(data.draw(st.integers(-9, 9)), data.draw(st.integers(1, 5)))
    s = Fraction(data.draw(st.integers(1, 6)), 2) * data.draw(st.sampled_from((1, -1)))
    # (c + r^s) * g is a nonconstant multiple of a nonzero field
    f = g.scale(c) + g.mul_r_power(s)
    assert proportionality(f, g) is None
    assert proportionality(g, f) is None


def _assert_normal(value):
    assert type(value) is int or (type(value) is Fraction and value.denominator != 1), value


def test_integral_powers_and_coefficients_are_ints():
    # the x_n rewrite, products, derivatives and r-power shifts all keep an
    # integral r-power or coefficient an int; here every r-power is integral
    n = 6
    h = sym_gradient(gradient(harmonic_polynomial(n, 4, -1).mul_r_power(Fraction(2 - n - 8))))
    h = h.mul_r_power(Fraction(1, 2)).mul_r_power(Fraction(3, 2)).scale(Fraction(4, 2))
    xn_squared = PolyR.monomial(n, (0,) * (n - 1) + (2,), coeff=Fraction(1, 3), r_power=Fraction(-2))
    h = h + h.scale_poly(xn_squared)
    polys = list(h.comps.values()) + [laplacian(h).comps[(0, 0)], bianchi_op(h).comps[(0,)]]
    for poly in polys:
        assert poly.terms
        for (alpha, s), c in poly.terms.items():
            assert all(type(e) is int for e in alpha)
            assert type(s) is int
            _assert_normal(c)
    assert any(type(c) is Fraction for poly in polys for c in poly.terms.values())
    assert [type(s) for (_a, s) in PolyR.r_power(n, Fraction(1, 2)).terms] == [Fraction]


def test_proportionality_returns_a_fraction_for_int_coefficients():
    n = 4
    g = gradient(harmonic_polynomial(n, 2))
    c = proportionality(g.scale(2), g)
    assert type(c) is Fraction and c == 2
    c = proportionality(g.scale(3), g.scale(2))
    assert type(c) is Fraction and c == Fraction(3, 2)
    assert type(proportionality(FieldExpr(n, 1), g)) is Fraction


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_sum_walks_only_present_components(data):
    # the sum equals the componentwise sum over every key, and a zero
    # operand leaves the other field's components as they are
    n = data.draw(st.integers(3, 8))
    f, g = data.draw(fields(n)), data.draw(fields(n))
    assume(f.rank == g.rank)
    total = f + g
    for key in f.keys():
        expected = f.component(*key) + g.component(*key)
        assert total.component(*key).terms == expected.terms
    assert all(poly.terms for poly in total.comps.values())
    zero = FieldExpr(n, f.rank)
    assert (f + zero).comps == f.comps and (zero + f).comps == f.comps


@st.composite
def raw_fields(draw, n, rank):
    """{key: raw terms} of a rank-1 or symmetric rank-2 field (keys i <= j),
    with r-powers such as r^(1/2) and r^(-1/3) and fractional coefficients."""
    keys = [(i,) for i in range(n)] if rank == 1 else [(i, j) for i in range(n) for j in range(i, n)]
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=4, unique=True))
    return {key: draw(radial_terms(n, max_terms=2, denominators=(1, 2, 3, 6))) for key in chosen}


def mul_terms(p, q):
    """The product of two raw term sums, unreduced."""
    out = {}
    for (a1, s1), c1 in p.items():
        for (a2, s2), c2 in q.items():
            out = add_terms(out, {(tuple(x + y for x, y in zip(a1, a2)), s1 + s2): c1 * c2})
    return out


def agrees(n, value, reference):
    """Each component of ``value`` is reduced, in normal form and equal to
    the raw reference terms, by expansion."""
    for key in set(value.comps) | set(reference):
        poly = value.component(*key)
        assert poly.den > 0 and gcd(poly.den, *poly.num.values()) == 1
        assert in_normal_form(poly)
        assert expand_is_zero(n, add_terms(poly.terms, reference.get(key, {}), scale=[1, -1])), key
    return True


@PROPERTY_SETTINGS
@given(st.data())
def test_fused_operators_match_their_textbook_definitions(data):
    # divergence, sym_gradient, trace, bianchi_op and sym_product run one
    # kernel over every component's numerators, on one denominator per
    # field; the reference differentiates, multiplies and sums the raw
    # rational terms one operator at a time, on fractional powers and every
    # n the verifier runs at
    n = data.draw(st.integers(3, 8))
    w_raw, v_raw = data.draw(raw_fields(n, 1)), data.draw(raw_fields(n, 1))
    h_raw = data.draw(raw_fields(n, 2))
    w, v, h = FieldExpr(n, 1), FieldExpr(n, 1), FieldExpr(n, 2)
    for field, raw in ((w, w_raw), (v, v_raw), (h, h_raw)):
        for key, terms in raw.items():
            field.set_component(key, PolyR(n, terms))

    def w_at(i):
        return w_raw.get((i,), {})

    def v_at(i):
        return v_raw.get((i,), {})

    def h_at(i, j):
        return h_raw.get((min(i, j), max(i, j)), {})

    half, minus = [Fraction(1, 2)] * 2, [-1] * n
    div_w = add_terms(*(diff_terms(w_at(i), i) for i in range(n)), scale=minus)
    div_h = [add_terms(*(diff_terms(h_at(i, k), i) for i in range(n)), scale=minus) for k in range(n)]
    tr = add_terms(*(h_at(i, i) for i in range(n)))
    sym = {
        (i, j): add_terms(diff_terms(w_at(j), i), diff_terms(w_at(i), j), scale=half)
        for i in range(n)
        for j in range(i, n)
    }
    assert agrees(n, divergence(w), {(): div_w})
    assert agrees(n, divergence(h), {(k,): div_h[k] for k in range(n)})
    assert agrees(n, trace(h), {(): tr})
    assert agrees(n, sym_gradient(w), sym)
    product = {
        (i, j): add_terms(mul_terms(w_at(i), v_at(j)), mul_terms(w_at(j), v_at(i)))
        for i in range(n)
        for j in range(i, n)
    }
    assert agrees(n, sym_product(w, v), product)
    bianchi = {(k,): add_terms(div_h[k], diff_terms(tr, k), scale=[1, Fraction(1, 2)]) for k in range(n)}
    assert agrees(n, bianchi_op(h), bianchi)
    assert agrees(n, laplacian(h), {key: second_derivative_laplacian(n, t) for key, t in h_raw.items()})
    composed = divergence(h) + gradient(trace(h)).scale(Fraction(1, 2))
    assert (bianchi_op(h) - composed).is_zero()


@PROPERTY_SETTINGS
@given(st.data())
def test_field_operators_match_the_polynomial_ones(data):
    # the field Laplacian takes one r-power denominator q for all components,
    # which carry different denominators and r-powers; each component still
    # reduces to exactly what the component alone gives, and so does the
    # gradient of the sum of the components against PolyR.diff
    n = data.draw(st.integers(3, 8))
    f = FieldExpr(n, data.draw(st.sampled_from((1, 2))))
    for key, terms in data.draw(raw_fields(n, f.rank)).items():
        f.set_component(key, PolyR(n, terms))
    value = laplacian(f)
    for key in f.keys():
        got, expected = value.component(*key), f.component(*key).laplacian()
        assert (got.num, got.den) == (expected.num, expected.den), key
    total = PolyR(n)
    for poly in f.comps.values():
        total = total + poly
    grad = gradient(FieldExpr.scalar(total))
    for i in range(n):
        got, expected = grad.component(i), total.diff(i)
        assert (got.num, got.den) == (expected.num, expected.den), i
