"""Tangential spectra, drop rules and the three indicial sets."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conifold_spectra import core, indicial
from conifold_spectra import (
    Box1Family,
    BoxLFamily,
    DimensionTooSmall,
    DropReason,
    Scalar,
    box1_spectrum,
    boxL_spectrum,
    eta,
    indicial_set_bianchi,
    indicial_set_essential,
    indicial_set_full,
    sphere_link,
    sphere_quotient_link,
    xi_pair,
)

from oracles import branch_pair, brute_bianchi_weights, brute_full_weights, eta_of, order_at_120_digits
from test_rates import synthetic_link


def _values(entries, family):
    return [e.value for e in entries if e.family is family and not e.dropped]


def test_box1_sphere_n4():
    link = sphere_link(4)
    table = box1_spectrum(link)
    # mu_0 + 1 = 3 shifts
    assert Scalar(3) in _values(table, Box1Family.ONE_FORM_SHIFT)
    # lambda_1 = 3: eta(xi(3) - 1) = eta(0), eta(-4) = 0, 8  [oracle-checked]
    (re_p, _), (re_m, _) = branch_pair(4, 3)
    assert eta_of(4, re_p - 1) == 0 and eta_of(4, re_m - 1) == 8
    assert Scalar(0) in _values(table, Box1Family.SCALAR_L1_PLUS)
    assert Scalar(8) in _values(table, Box1Family.SCALAR_L1_MINUS)
    # the constant contributes n-1 on the minus branch only
    radial = [
        e
        for e in table
        if e.family is Box1Family.SCALAR_L1_MINUS and e.source_value.is_zero()
    ]
    assert len(radial) == 1 and radial[0].value == Scalar(3)
    dropped = [e for e in table if e.dropped]
    assert len(dropped) == 1
    assert dropped[0].drop_reason is DropReason.CONSTANT
    assert dropped[0].family is Box1Family.SCALAR_L1_PLUS


def test_boxL_requires_n4():
    from conifold_spectra import EigenvalueEntry, LinkSpectrum, SpectrumList

    tiny = LinkSpectrum(
        n=3,
        name="n=3 link",
        scalar=SpectrumList((EigenvalueEntry(Scalar(0), 1), EigenvalueEntry(Scalar(2), None)), Scalar(2)),
        coclosed_one_form=SpectrumList((EigenvalueEntry(Scalar(1), None),), Scalar(1)),
        tt_einstein=SpectrumList((EigenvalueEntry(Scalar(5), None),), Scalar(5)),
        has_killing_fields=True,
    )
    assert box1_spectrum(tiny)  # the 1-form table works from n = 3 on
    with pytest.raises(DimensionTooSmall):
        boxL_spectrum(tiny)


def test_boxL_sphere_n4_values():
    link = sphere_link(4)
    table = boxL_spectrum(link)
    # kappa values verbatim
    assert Scalar(8) in _values(table, BoxLFamily.TT_KAPPA)
    # Killing drop: mu_0 = 2 loses its plus branch, keeps mu-minus = 2n
    killing_dropped = [
        e for e in table if e.dropped and e.drop_reason is DropReason.KILLING
    ]
    assert len(killing_dropped) == 1 and killing_dropped[0].source_value == Scalar(2)
    assert Scalar(8) in _values(table, BoxLFamily.MU_MINUS)  # 2n = 8
    # Obata drop on the round sphere: lambda_1 = 3 loses the shifted plus branch
    obata_dropped = [
        e for e in table if e.dropped and e.drop_reason is DropReason.OBATA
    ]
    assert len(obata_dropped) == 1 and obata_dropped[0].source_value == Scalar(3)
    # its minus companion 3(n+1) = 15 is present
    assert Scalar(15) in _values(table, BoxLFamily.LAMBDA2_MINUS)
    # specials always present
    assert _values(table, BoxLFamily.SPECIAL_ZERO) == [Scalar(0)]
    assert _values(table, BoxLFamily.SPECIAL_2N) == [Scalar(8)]


def test_boxL_quotient_has_no_obata_drop():
    table = boxL_spectrum(sphere_quotient_link(4))
    assert not any(e.drop_reason is DropReason.OBATA for e in table)


def test_boxL_non_sphere_at_obata_value_keeps_with_note(caplog):
    # a generic link carrying lambda_1 = n-1 without the round-sphere flag
    link = sphere_link(4)
    generic = type(link)(
        n=link.n,
        name="generic",
        scalar=link.scalar,
        coclosed_one_form=link.coclosed_one_form,
        tt_einstein=link.tt_einstein,
        has_killing_fields=True,
        is_round_sphere=False,
    )
    table = boxL_spectrum(generic)
    kept = [
        e
        for e in table
        if e.family is BoxLFamily.LAMBDA2_PLUS
        and e.source_value == Scalar(3)
        and not e.dropped
    ]
    assert len(kept) == 1 and kept[0].note is not None


def test_every_drop_has_a_reason():
    for link in (sphere_link(4), sphere_link(7), sphere_quotient_link(5)):
        for entry in box1_spectrum(link) + boxL_spectrum(link):
            assert entry.dropped == (entry.drop_reason is not None)


def test_indicial_sets_match_brute_force():
    for n in (4, 6):
        lams = [Fraction(i * (i + n - 2)) for i in range(6)]
        mus = [Fraction((k + 1) * (k + n - 3) - (n - 2)) for k in range(1, 6)]
        kaps = [Fraction((i + 1) * (i + n - 1)) for i in range(1, 6)]
        # round sphere: brute sets with the Obata drop applied
        link = sphere_link(n, count=5)
        got_full = {
            (r.weight.real.value, r.weight.imag.value) for r in indicial_set_full(link)
        }
        assert got_full == brute_full_weights(n, kaps, mus, lams, round_sphere=True)
        got_b = {
            (r.weight.real.value, r.weight.imag.value)
            for r in indicial_set_bianchi(link)
        }
        assert got_b == brute_bianchi_weights(n, kaps, mus, lams, round_sphere=True)
        # nontrivial quotient: lambda_1 absent, raw formulas apply
        quotient = sphere_quotient_link(n, count=5)
        qlams = [l for l in lams if l != n - 1]
        got_full = {
            (r.weight.real.value, r.weight.imag.value)
            for r in indicial_set_full(quotient)
        }
        assert got_full == brute_full_weights(n, kaps, mus, qlams)
        got_b = {
            (r.weight.real.value, r.weight.imag.value)
            for r in indicial_set_bianchi(quotient)
        }
        assert got_b == brute_bianchi_weights(n, kaps, mus, qlams)


def test_set_inclusions_and_specials():
    for maker in (lambda: sphere_link(4), lambda: sphere_quotient_link(10)):
        link = maker()
        wl = {(str(r.weight.real), str(r.weight.imag)) for r in indicial_set_full(link)}
        wb = {
            (str(r.weight.real), str(r.weight.imag))
            for r in indicial_set_bianchi(link)
        }
        we = {
            (str(r.weight.real), str(r.weight.imag))
            for r in indicial_set_essential(link)
        }
        assert we <= wb <= wl
        n = link.n
        for special in (-n, 2 - n, 0, 2):
            assert (str(special), "0") in wl


def test_special_family_weights_in_full_vs_bianchi():
    link = sphere_link(6)
    n = link.n
    full_specials = {
        float(r.weight.real)
        for r in indicial_set_full(link)
        if r.family in (BoxLFamily.SPECIAL_ZERO, BoxLFamily.SPECIAL_2N)
    }
    assert full_specials == {float(-n), float(2 - n), 0.0, 2.0}
    b_specials = {
        float(r.weight.real)
        for r in indicial_set_bianchi(link)
        if r.family in (BoxLFamily.SPECIAL_ZERO, BoxLFamily.SPECIAL_2N)
    }
    assert b_specials == {float(-n), 0.0}


def test_full_set_real_parts_self_dual():
    for n in (4, 5, 8):
        link = sphere_link(n, count=6)
        reals = Counter(r.weight.real.value for r in indicial_set_full(link))
        mapped = Counter(Fraction(2 - n) - v for v in reals.elements())
        assert reals == mapped


def test_full_set_duality_with_complex_roots():
    from test_rates import synthetic_link

    link = synthetic_link(6, kappas=[Fraction(-7), Fraction(5)], kappa_complete=5)
    full = indicial_set_full(link)
    complex_roots = [r for r in full if not r.weight.imag.is_zero()]
    assert len(complex_roots) == 2  # the kappa below the window
    for r in complex_roots:
        assert r.weight.real == Scalar(-2)  # -(n-2)/2
        assert r.weight.im in ((0, 1, 3), (0, -1, 3))  # |disc| = 3, irrational radical
        assert not r.weight.imag.exact
    reals = Counter(r.weight.real.value for r in full)
    assert reals == Counter(Fraction(2 - 6) - v for v in reals.elements())


def test_flat_link_contains_expected_roots():
    link = sphere_link(4)
    wl = {r.weight.real.value for r in indicial_set_full(link)}
    assert {Fraction(0), Fraction(2)} <= wl
    we = {r.weight.real.value for r in indicial_set_essential(link)}
    assert Fraction(1) in we  # xi_plus(lambda_1 = n-1)


def test_essential_set_families_and_flags():
    link = sphere_quotient_link(4)
    roots = indicial_set_essential(link)
    assert roots
    for r in roots:
        assert r.family in (BoxLFamily.TT_KAPPA, BoxLFamily.LAMBDA_DIRECT)
        assert not r.lie_derivative and r.bianchi_compatible
        assert not r.source_value.is_zero() or r.family is BoxLFamily.TT_KAPPA
    # most negative real part is -n = -4 via xi_minus(kappa_1 = 8)
    assert min(float(r.weight.real) for r in roots) == -11.0  # deepest listed
    assert Fraction(-4) in {r.weight.real.value for r in roots}


def test_root_shift_reconstruction():
    # eta(weight - shift) reconstructs the family input exactly: kappa, mu+1
    # or lambda, and 0 for the two specials
    link = sphere_link(5, count=4)
    for root in indicial_set_full(link):
        source = root.source_value.value
        plus_one = root.family in (BoxLFamily.MU_PLUS, BoxLFamily.MU_MINUS)
        assert eta(5, root.weight - root.shift) == (source + 1 if plus_one else source), root


def test_branch_and_shift_provenance():
    link = sphere_link(4, count=3)
    for root in indicial_set_full(link):
        if root.family is BoxLFamily.MU_PLUS:
            base = xi_pair(4, root.source_value.value + 1)[0 if root.branch == "+" else 1]
            assert root.weight.real == (base + root.shift).real
        if root.family is BoxLFamily.LAMBDA2_MINUS:
            base = xi_pair(4, root.source_value)[0 if root.branch == "+" else 1]
            assert root.weight.real == (base + root.shift).real


def test_sphere_drops_are_killing_obata_and_constant():
    # on S^3 the box_L table drops exactly the Killing, Obata and
    # constant-function entries, whose eigentensors vanish
    link = sphere_link(4)
    dropped = [e for e in boxL_spectrum(link) if e.dropped]
    assert {(e.family, e.source_index, e.drop_reason) for e in dropped} == {
        (BoxLFamily.MU_PLUS, 0, DropReason.KILLING),
        (BoxLFamily.LAMBDA2_PLUS, 1, DropReason.OBATA),
        (BoxLFamily.LAMBDA2_PLUS, 0, DropReason.CONSTANT),
    }


@st.composite
def near_tie_links(draw):
    """A link whose kappas lie within 10^-8..10^-40 of eta(x) for an integer x, or on it.

    Their weights then lie within a rounding of the integer weights of the
    other families (or of -(n-2)/2, below the window), so views tie.
    """
    n = draw(st.integers(4, 8))
    kappas = set()
    for _ in range(draw(st.integers(1, 4))):
        x = draw(st.integers(-(n + 2), 4))
        offset = draw(st.one_of(st.just(0), st.builds(
            lambda sign, k: Fraction(sign, 10**k), st.sampled_from((1, -1)), st.integers(8, 40)
        )))
        kappas.add(x * (x + n - 2) + offset)
    return n, synthetic_link(n, sorted(kappas), mus=[Fraction(n - 2), Fraction(2 * n - 1)])


def assert_in_exact_order(n, roots):
    """E_L is ordered by exact weight (real part, then imaginary part), and
    equal weights by family, source index and shift, as a 120-digit sort
    from the provenance alone orders them."""
    weights = []
    for root in roots:
        nu = root.source_value.as_fraction()  # 0 for the special families
        if root.family in (BoxLFamily.MU_PLUS, BoxLFamily.MU_MINUS):
            nu += 1
        weights.append((nu, root.branch, root.shift))
    ties = [(root.family.value, root.source_index, root.shift) for root in roots]
    assert order_at_120_digits(n, weights, ties) == list(range(len(roots)))


@settings(max_examples=150, deadline=None)
@given(near_tie_links())
def test_root_order_matches_a_120_digit_sort(case):
    n, link = case
    assert_in_exact_order(n, indicial_set_full(link))


def _eta6(x):
    return x * (x + 4)


@pytest.mark.parametrize(
    "kappas",
    [
        # xi_plus = 1 and 1 -+ 2^-60: rationals that round to the double 1
        [_eta6(1 - Fraction(1, 2**60)), _eta6(1), _eta6(1 + Fraction(1, 2**60))],
        # xi_plus = 1 and 1 -+ 10^-30: an int and non-dyadic rationals with its view
        [_eta6(1 - Fraction(1, 10**30)), _eta6(1), _eta6(1 + Fraction(1, 10**30))],
        # kappa = 5 -+ 10^-40: irrational weights about 1 -+ 10^-41, whose view is the int 1
        [5 - Fraction(1, 10**40), 5, 5 + Fraction(1, 10**40)],
    ],
    ids=["rationals-round-alike", "int-and-non-dyadic", "irrational-with-int-view"],
)
def test_exact_order_where_a_view_hides_different_values(kappas):
    # the three TT-kappa roots xi_plus(kappa) share the view 1 with the exact
    # weight 1 = xi_plus(12) - 1 of OneForm-mu-plus at mu = 11, which sorts
    # before them by family: only the exact values can order this run.
    roots = indicial_set_full(synthetic_link(6, kappas, mus=[Fraction(4), Fraction(11)]))
    run = [root for root in roots if float(root.weight.real) == 1.0]
    assert {root.family for root in run} >= {BoxLFamily.TT_KAPPA, BoxLFamily.MU_PLUS}
    assert len([root for root in run if root.family is BoxLFamily.TT_KAPPA]) == 3
    assert_in_exact_order(6, roots)


def test_int_weights_need_no_exact_tie_break(monkeypatch):
    # every weight of sphere_link at n = 6 is an int, whose view is its value,
    # so equal views are equal values and no surd is computed
    calls = []
    exact_sorted, surd_cmp = indicial.exact_sorted, core.surd_cmp

    def spy(items, key, surds, plain):
        return exact_sorted(items, key, lambda item: calls.append("surds") or surds(item), plain)

    monkeypatch.setattr(indicial, "exact_sorted", spy)
    monkeypatch.setattr(core, "surd_cmp", lambda x, y: calls.append("surd_cmp") or surd_cmp(x, y))
    roots = indicial_set_full(sphere_link(6, count=64))
    assert len(roots) > 700 and calls == []
    assert_in_exact_order(6, roots)
