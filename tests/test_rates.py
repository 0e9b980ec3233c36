"""Rate sets, stability, end orders, bootstrap and mass verdicts."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings, strategies as st

from conifold_spectra import (
    EigenvalueEntry,
    EmptyRateSet,
    EndKind,
    InsufficientSpectrum,
    LinkAnalysis,
    LinkSpectrum,
    NonTerminating,
    Scalar,
    SchemaError,
    SpectrumList,
    adm_mass_verdict,
    bootstrap_decay,
    e_minus_set,
    e_plus_set,
    end_order,
    is_resonance_dominated,
    linear_stability,
    load_spectrum,
    product_einstein_example,
    resonance_analysis,
    sphere_link,
    sphere_quotient_link,
    xi_rates,
)

from conifold_spectra.rates import _by_value
from oracles import bootstrap_sequence, brute_e_minus, brute_e_plus


def synthetic_link(
    n,
    kappas,
    lambdas=None,
    mus=None,
    kappa_complete=None,
    name="synthetic",
    ends=(EndKind.AC, EndKind.CS),
):
    """A hand-built exact link for rate fixtures.

    The scalar list defaults to {0, 2n} (safely above the Obata bound) and
    the 1-form list to the Killing value alone.
    """
    lambdas = lambdas if lambdas is not None else [Fraction(0), Fraction(2 * n)]
    mus = mus if mus is not None else [Fraction(n - 2)]
    kappas = [Fraction(k) for k in kappas]
    lam_entries = tuple(EigenvalueEntry(Scalar(v), None) for v in lambdas)
    link = LinkSpectrum(
        n=n,
        name=name,
        scalar=SpectrumList(lam_entries, Scalar(lambdas[-1])),
        coclosed_one_form=SpectrumList(
            tuple(EigenvalueEntry(Scalar(v), None) for v in mus), Scalar(mus[-1])
        ),
        tt_einstein=SpectrumList(
            tuple(EigenvalueEntry(Scalar(v), None) for v in kappas),
            Scalar(kappa_complete if kappa_complete is not None else kappas[-1]),
        ),
        has_killing_fields=True,
        ends=tuple(ends),
    )
    link.validate()
    return link


def test_e_plus_sphere_quotient_minimum():
    link = sphere_quotient_link(4)
    eplus = e_plus_set(link)
    assert eplus.minimum().value == Scalar(2)
    # brute-force value set agrees on the listed data
    kaps = [e.value.value for e in link.tt_einstein.entries]
    lams = [e.value.value for e in link.scalar.entries]
    assert {v.value for v in eplus.values()} == brute_e_plus(4, kaps, lams)


def test_e_plus_trivial_sphere_minimum():
    assert e_plus_set(sphere_link(4)).minimum().value == Scalar(1)


def test_e_plus_scaling_monotonicity():
    small = synthetic_link(5, kappas=[Fraction(10)])
    big = synthetic_link(5, kappas=[Fraction(1000)], lambdas=[Fraction(0), Fraction(2000)])
    assert e_plus_set(big).minimum().value > e_plus_set(small).minimum().value


def test_e_minus_sphere_cases():
    quotient = sphere_quotient_link(4)
    assert e_minus_set(quotient).minimum().value == Scalar(4)
    trivial = sphere_link(4)
    assert e_minus_set(trivial).minimum().value == Scalar(3)
    kaps = [e.value.value for e in quotient.tt_einstein.entries]
    lams = [e.value.value for e in quotient.scalar.entries]
    assert {v.value for v in e_minus_set(quotient).values()} == brute_e_minus(
        4, kaps, lams
    )


def test_e_minus_three_part_classification():
    n = 6
    window_edge = Fraction(-4)  # -(n-2)^2/4
    link = synthetic_link(
        n, kappas=[window_edge - 1, window_edge, Fraction(-2), Fraction(5)],
        kappa_complete=Fraction(5),
    )
    eset = e_minus_set(link)
    parts = {}
    for el in eset.elements:
        parts.setdefault(el.part, []).append(el.value.value)
    # kappa below the window contributes only (n-2)/2
    assert Fraction(2) in parts["below-window"]
    # kappa in the window contributes both branches
    assert any(v == Fraction(2) for v in parts["minus-branch"])  # resonant kappa
    assert "window" in parts
    # the positive kappa contributes its minus branch only
    assert all(v > 0 for vs in parts.values() for v in vs)


def test_e_minus_independent_classification_under_scaling():
    # scaling entries above the window never changes part membership
    n = 5
    base = synthetic_link(n, kappas=[Fraction(-1), Fraction(3)], kappa_complete=3)
    scaled = synthetic_link(n, kappas=[Fraction(-1), Fraction(30)], kappa_complete=30)
    parts_base = sorted(
        el.part for el in e_minus_set(base).elements if el.root is not None
        and el.root.family.value == "TT-kappa"
    )
    parts_scaled = sorted(
        el.part for el in e_minus_set(scaled).elements if el.root is not None
        and el.root.family.value == "TT-kappa"
    )
    assert parts_base == parts_scaled


def test_stenzel_fixture_minima():
    # A synthetic link on the n = 2m cone whose only listed TT eigenvalue is
    # kappa = eta(-tau), tau = 2m/(m-1) the Stenzel order; kappa_complete = 0
    for m, expected in ((4, Fraction(8, 3)), (5, Fraction(5, 2))):
        n = 2 * m
        tau = Fraction(2 * m, m - 1)
        kappa = -tau * (-tau + n - 2)
        assert kappa < 0
        link = synthetic_link(n, kappas=[kappa], kappa_complete=0)
        assert e_minus_set(link).minimum().value == Scalar(expected)


def test_stenzel_m3_dual_branch_dominates():
    # At m = 3 the listed kappa sits inside the window, so the dual branch
    # -xi_plus(kappa) = 1 undercuts -xi_minus(kappa) = 3 = 2m/(m-1).
    m = 3
    n = 2 * m
    tau = Fraction(2 * m, m - 1)
    kappa = -tau * (-tau + n - 2)
    assert kappa == Fraction(-3)
    link = synthetic_link(n, kappas=[kappa], kappa_complete=0)
    eset = e_minus_set(link)
    values = {v.value for v in eset.values()}
    assert tau in values  # membership, as the optimal-order example asserts
    assert eset.minimum().value == Scalar(1)


def test_xi_rates_sphere_quotient():
    rates = xi_rates(sphere_quotient_link(4))
    assert rates.xi_plus.value == Scalar(2)
    assert rates.xi_minus.value == Scalar(4)
    rates = xi_rates(sphere_link(4))
    assert rates.xi_plus.value == Scalar(1)
    assert rates.xi_minus.value == Scalar(3)


def test_insufficient_spectrum_for_rates():
    link = synthetic_link(5, kappas=[Fraction(7)], kappa_complete=Fraction(7))
    # E_plus minimum comes from kappa=7 -> xi_plus; eta of it is 7 < lambda
    # completeness is fine, but a shallow kappa certificate must refuse:
    shallow = synthetic_link(5, kappas=[Fraction(7)], kappa_complete=Fraction(0))
    with pytest.raises(InsufficientSpectrum) as err:
        e_plus_set(shallow)
    assert err.value.required == Scalar(7)  # the kappa behind the minimum
    # negative certificate below 0 refuses E_minus outright
    neg = synthetic_link(5, kappas=[Fraction(7)], kappa_complete=Fraction(-1))
    with pytest.raises(InsufficientSpectrum) as err:
        e_minus_set(neg)
    assert err.value.required == Scalar(0)


def test_resonance_dominated_cases():
    assert is_resonance_dominated(product_einstein_example(10))
    assert not is_resonance_dominated(sphere_link(5))
    n = 10
    edge = Fraction(-16)
    second_in_window = synthetic_link(
        n, kappas=[edge, Fraction(-2)], kappa_complete=0
    )
    assert not is_resonance_dominated(second_in_window)
    off_edge = synthetic_link(n, kappas=[Fraction(-8)], kappa_complete=0)
    assert not is_resonance_dominated(off_edge)


def test_resonance_float_coercion_flag():
    n = 10
    near = -16.0 + 1e-13
    link = LinkSpectrum(
        n=n,
        name="float resonance",
        scalar=SpectrumList(
            (EigenvalueEntry(Scalar(0), 1), EigenvalueEntry(Scalar(20), None)),
            Scalar(20),
        ),
        coclosed_one_form=SpectrumList(
            (EigenvalueEntry(Scalar(8), None),), Scalar(8)
        ),
        tt_einstein=SpectrumList(
            (EigenvalueEntry(Scalar(near, exact=False), None),), Scalar(0)
        ),
        has_killing_fields=True,
    )
    analysis = resonance_analysis(link)
    assert analysis.dominated
    assert analysis.coercions


@pytest.mark.parametrize("n", range(5, 9))
def test_only_a_lambda2_plus_value_warns_in_the_window(n):
    # a kept lambda with n-1 <= lambda < 2n puts eta(xi_+(lambda) - 2) in
    # [3-n, 0); lambda = 2n gives 0, and the round sphere drops lambda = n-1
    for lam in (Fraction(n - 1), Fraction(n), Fraction(n + 1), Fraction(4 * n - 1, 2)):
        link = synthetic_link(n, kappas=[n], lambdas=[Fraction(0), lam, Fraction(3 * n)])
        (warning,) = resonance_analysis(link).tangential_warnings
        assert warning.startswith("non-TT tangential eigenvalue "), warning
        assert warning.endswith(" (Scalar-lambda2-plus[1]) lies in the resonance window"), warning
        if n == 6 and lam == 7:
            assert "~-2.266499161421599" in warning
    at_2n = synthetic_link(n, kappas=[n], lambdas=[Fraction(0), Fraction(2 * n)])
    assert resonance_analysis(at_2n).tangential_warnings == ()
    assert resonance_analysis(sphere_link(n)).tangential_warnings == ()


@st.composite
def window_links(draw):
    """n in 4..10 and exact kappas drawn around the threshold -(n-2)^2/4."""
    n = draw(st.integers(4, 10))
    threshold = Fraction(-((n - 2) ** 2), 4)
    near = st.fractions(threshold - 2, 2, max_denominator=12)
    kappas = draw(st.sets(st.one_of(st.just(threshold), near), min_size=1, max_size=5))
    return n, threshold, sorted(kappas)


@settings(max_examples=60, deadline=None)
@given(window_links())
def test_every_verdict_reads_the_same_window_position(case):
    n, threshold, kappas = case
    below = [k for k in kappas if k < threshold]
    at = [k for k in kappas if k == threshold]
    window = [k for k in kappas if threshold <= k < 0]
    link = synthetic_link(n, kappas, kappa_complete=max(kappas[-1], 0))
    analysis = LinkAnalysis(link)
    stability, resonance = analysis.stability, analysis.resonance
    assert stability.witness == (Scalar(below[0]) if below else None)
    assert stability.boundary == tuple(Scalar(k) for k in at)
    assert resonance.window_values == tuple(Scalar(k) for k in window)
    assert resonance.resonant_present == bool(at)
    assert resonance.dominated == (bool(at) and len(window) == 1)
    sources = {}
    for el in analysis.e_minus.elements:
        sources.setdefault(el.part, []).append(el.root.source_value)
    assert sorted(sources.get("below-window", [])) == [Scalar(k) for k in below]
    assert sorted(sources.get("window", [])) == [Scalar(k) for k in window]


def test_linear_stability_cases():
    for n in range(4, 11):
        assert linear_stability(sphere_link(n)).stable
    n = 6
    bad_value = Fraction(-4) - Fraction(1, 10)
    unstable = synthetic_link(n, kappas=[bad_value], kappa_complete=0)
    verdict = linear_stability(unstable)
    assert not verdict.stable
    assert verdict.witness == Scalar(bad_value)
    boundary = synthetic_link(n, kappas=[Fraction(-4)], kappa_complete=0)
    verdict = linear_stability(boundary)
    assert verdict.stable and verdict.boundary == (Scalar(Fraction(-4)),)


def test_minus_branch_elements_bounded_below():
    # every minus-branch element satisfies -xi_minus >= (n-2)/2, and the
    # below-window part appears exactly when stability fails strictly
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(4, 10)
        edge = Fraction(-((n - 2) ** 2), 4)
        kappas = sorted(
            {
                edge + Fraction(rng.randint(-100, 400), 7)
                for _ in range(rng.randint(1, 4))
            }
        )
        link = synthetic_link(n, kappas=kappas, kappa_complete=max(kappas + [Fraction(0)]))
        eset = e_minus_set(link)
        half = Scalar(Fraction(n - 2, 2))
        for el in eset.elements:
            if el.part in ("minus-branch", "below-window"):
                assert el.value >= half
        strictly_unstable = any(k < edge for k in kappas)
        assert strictly_unstable == any(
            el.part == "below-window" for el in eset.elements
        )
        if not linear_stability(link).stable and not strictly_unstable:
            raise AssertionError("boundary kappa misclassified as unstable")


def test_end_orders_quotient_and_product():
    quotient = sphere_quotient_link(4)
    cs = end_order(quotient, EndKind.CS)
    assert cs.order == Scalar(2) and not cs.weak and cs.bound_only
    ac = end_order(quotient, EndKind.AC)
    assert ac.order == Scalar(4) and not ac.weak and ac.bound_only
    trivial = sphere_link(4)
    assert end_order(trivial, EndKind.AC).order == Scalar(3)
    assert not end_order(trivial, EndKind.AC).bound_only
    product = product_einstein_example(10)
    weak = end_order(product, EndKind.AC)
    assert weak.order == Scalar(4) and weak.weak and not weak.bound_only
    assert weak.witness.log_factor


def test_weak_iff_resonance_dominated():
    for link in (
        sphere_link(5),
        product_einstein_example(10),
        synthetic_link(6, kappas=[Fraction(-4)], kappa_complete=0),
    ):
        assert end_order(link, EndKind.AC).weak == is_resonance_dominated(link)


def test_bootstrap_examples():
    assert [s.value for s in bootstrap_decay(1, Fraction(1, 4), 4)] == [
        Fraction(1),
        Fraction(3, 2),
        Fraction(5, 2),
        Fraction(9, 2),
    ]
    assert [s.value for s in bootstrap_decay(4, Fraction(1, 4), 4)] == [Fraction(4)]
    with pytest.raises(NonTerminating):
        bootstrap_decay(Fraction(1, 2), Fraction(1, 4), 4)
    with pytest.raises(ValueError):
        bootstrap_decay(-1, Fraction(1, 4), 4)


def test_bootstrap_matches_oracle_and_length_bound():
    import math

    rng = random.Random(17)
    for _ in range(300):
        alpha0 = Fraction(rng.randint(1, 400), rng.randint(1, 40))
        epsilon = alpha0 / rng.randint(3, 30)
        target = alpha0 + Fraction(rng.randint(0, 4000), rng.randint(1, 20))
        seq = [s.value for s in bootstrap_decay(alpha0, epsilon, target)]
        assert seq == bootstrap_sequence(alpha0, epsilon, target)
        assert seq[-1] >= target
        bound = (
            math.ceil(math.log2(float((target - 2 * epsilon) / (alpha0 - 2 * epsilon))))
            + 2
            if target > 2 * epsilon
            else 2
        )
        assert len(seq) <= bound
        if len(seq) >= 3:
            diffs = [b - a for a, b in zip(seq[1:], seq[2:])]
            assert all(d > 0 for d in diffs)


def test_small_order_iff_negative_kappa():
    # xi_minus < n-2 exactly when some kappa is negative; the boundary
    # kappa_1 = 0 gives equality xi_minus = n-2
    for n in (4, 6, 9):
        sphere = sphere_link(n)
        assert e_minus_set(sphere).minimum().value == Scalar(n - 1)
        negative = synthetic_link(n, kappas=[Fraction(-1)], kappa_complete=0)
        assert e_minus_set(negative).minimum().value < Scalar(n - 2)
        boundary = synthetic_link(n, kappas=[Fraction(0), Fraction(7 * n)], kappa_complete=7 * n)
        assert e_minus_set(boundary).minimum().value == Scalar(n - 2)


def test_sphere_link_branch_values_feed_the_order_theorems():
    # min kappa = 2n has branches (2, -n): the quotient orders 2 and n
    from conifold_spectra import xi_pair

    for n in (4, 5, 10):
        plus, minus = xi_pair(n, Scalar(2 * n))
        assert plus.real == Scalar(2) and minus.real == Scalar(-n)


def test_adm_mass_verdicts():
    assert adm_mass_verdict(sphere_link(6)).verdict == "vanishes"
    zero_lead = synthetic_link(5, kappas=[Fraction(0), Fraction(3)], kappa_complete=3)
    report = adm_mass_verdict(zero_lead)
    assert report.verdict == "vanishes" and "transverse" in report.reason
    negative = synthetic_link(8, kappas=[Fraction(-5)], kappa_complete=0)
    report = adm_mass_verdict(negative)
    assert report.verdict == "unknown" and "-5" in report.reason


def test_product_fixture_rates_defer_to_end_order():
    # the fixture's kappa list is deep enough for the resonance verdict and
    # the AC order, but not for certifying the CS-side minimum
    link = product_einstein_example(10)
    with pytest.raises(InsufficientSpectrum):
        xi_rates(link)
    assert e_minus_set(link).minimum().value == Scalar(4)
    report = end_order(link, EndKind.AC)
    assert report.weak and report.order == Scalar(4)


def test_empty_rate_set():
    # no positive kappa and no positive lambda certified: E_plus is empty
    link = LinkSpectrum(
        n=6,
        name="no positive data",
        scalar=SpectrumList((EigenvalueEntry(Scalar(0), 1),), Scalar(0)),
        coclosed_one_form=SpectrumList(
            (EigenvalueEntry(Scalar(4), None),), Scalar(4)
        ),
        tt_einstein=SpectrumList((EigenvalueEntry(Scalar(-2), None),), Scalar(0)),
        has_killing_fields=True,
    )
    with pytest.raises(EmptyRateSet):
        e_plus_set(link).minimum()


@st.composite
def spectrum_documents(draw):
    """A document at n = 4..8 whose eigenvalues are eta(x) at half-integers x,
    some moved by 10^-8, 10^-20 or 10^-40, exact or as floats: weights of
    different families then tie on their views or sit a rounding apart."""
    n = draw(st.integers(4, 8))
    floats = draw(st.booleans())

    def values(floor, size):
        out = set()
        for _ in range(size):
            x = Fraction(draw(st.integers(-2 * n, 10)), 2)
            k = draw(st.sampled_from((0, 8, 20, 40)))
            v = x * (x + n - 2) + (draw(st.sampled_from((1, -1))) * Fraction(1, 10**k) if k else 0)
            if v >= floor:
                out.add(float(v) if floats else v)
        return sorted(out)

    lam = [0] + values(n - 1, draw(st.integers(1, 8)))
    mu = values(n - 2, draw(st.integers(1, 6))) or [n - 2]
    kappa = values(-((n - 2) ** 2) / 4 - 6, draw(st.integers(1, 8))) or [1]
    top = max(lam + mu + kappa)

    def block(vs):
        entries = [{"value": v if floats else str(v), "multiplicity": None} for v in vs]
        return {"entries": entries, "complete_below": top if floats else str(top), "mode": "exact"}

    return {
        "dim_cone": n,
        "name": "near ties",
        "scalar": block(lam),
        "coclosed_one_form": block(mu),
        "tt_einstein": block(kappa),
        "has_killing_fields": mu[0] == n - 2,
        "ends": [{"kind": "AC"}, {"kind": "CS"}],
    }


@settings(max_examples=120, deadline=None)
@given(spectrum_documents())
def test_e_plus_is_in_exact_order_as_filtered_from_e(document):
    # E is sorted by exact weight and every E_plus element has one part, so
    # the positive real roots of E are already in _by_value's order
    try:
        link = load_spectrum(document)
    except SchemaError:  # two floats snapped onto one threshold
        reject()
    elements = LinkAnalysis(link).e_plus.elements
    assert elements == tuple(_by_value(list(elements)))
