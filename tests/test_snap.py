"""The threshold snap: one epsilon decision per float value, exact after it."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conifold_spectra import (
    DropReason,
    EigenvalueEntry,
    LinkAnalysis,
    LinkSpectrum,
    Scalar,
    SpectrumList,
    build_report,
    indicial_set_full,
    load_spectrum,
    render_text,
    sphere_link,
)
from conifold_spectra.links import snap_to_thresholds


def _link(n, lam=(), mu=(), kappa=(), round_sphere=False):
    def lst(values):
        return SpectrumList(tuple(EigenvalueEntry(Scalar.wrap(v)) for v in values), Scalar(10**6))

    return LinkSpectrum(
        n=n,
        name="snap",
        scalar=lst((0,) + tuple(lam)),
        coclosed_one_form=lst(mu),
        tt_einstein=lst(kappa),
        has_killing_fields=True,
        is_round_sphere=round_sphere,
    )


def _resonance(n):
    return Fraction(-((n - 2) ** 2), 4)


def test_snap_returns_the_link_itself_when_nothing_moves():
    exact = sphere_link(6)
    assert snap_to_thresholds(exact) is exact
    # a float already on its threshold (the Killing mu listed as 4.0) stays put
    on_threshold = _link(6, lam=(12.0,), mu=(4.0, 7.5), kappa=(-4.0, 3.5))
    assert snap_to_thresholds(on_threshold) is on_threshold


def test_snap_moves_each_family_onto_its_thresholds_and_keeps_the_given_value():
    # every float lies exactly eps = d away from its threshold: eps is inclusive
    n, d = 6, 2.0**-43
    link = _link(
        n,
        lam=(5 + d, 12 - d),
        mu=(4 + d,),
        kappa=(-4 - d, -2.5, d),
    )
    snapped = snap_to_thresholds(link, d)

    def values(lst):
        return [e.value for e in lst.entries]

    assert values(snapped.scalar) == [0, 5, 12]
    assert values(snapped.coclosed_one_form) == [4]
    assert values(snapped.tt_einstein) == [-4, -2.5, 0]
    floats = snapped.scalar.entries[1:] + snapped.coclosed_one_form.entries + snapped.tt_einstein.entries
    assert not any(e.value.exact for e in floats)
    assert snapped.tt_einstein.entries[0].given.value == -4 - d
    assert snapped.tt_einstein.entries[1].given is None
    # snapping a snapped link moves nothing and keeps the record
    assert snap_to_thresholds(snapped, d) is snapped


def test_load_spectrum_snaps_before_killing_inference_and_validation():
    # mu and lambda a hair below n-2 and n-1 would fail validation unsnapped
    d = 1e-13
    doc = {
        "dim_cone": 6,
        "name": "below by a hair",
        "scalar": {"entries": [{"value": 0, "multiplicity": 1}, {"value": 5 - d, "multiplicity": None}],
                   "complete_below": 5, "mode": "exact"},
        "coclosed_one_form": {"entries": [{"value": 4 - d, "multiplicity": None}],
                              "complete_below": 4, "mode": "exact"},
        "tt_einstein": {"entries": [{"value": 1, "multiplicity": None}], "complete_below": 1, "mode": "exact"},
        "ends": [{"kind": "AC"}],
    }
    link = load_spectrum(doc)
    assert link.has_killing_fields
    assert link.scalar.entries[1].value == 5 and link.coclosed_one_form.entries[0].value == 4


def _drops(link, eps):
    table = LinkAnalysis(link, eps).boxL
    return {e.drop_reason for e in table if e.dropped} - {DropReason.CONSTANT}


_EPS = st.sampled_from([1e-12, 1e-9, 1e-6])


@settings(max_examples=150, deadline=None)
@given(n=st.integers(4, 12), eps=_EPS, t=st.floats(-1, 1), k=st.integers(1, 30))
def test_killing_and_obata_drops_fire_exactly_at_their_thresholds(n, eps, t, k):
    def drops(mu, lam):
        link = _link(n, lam=(lam,), mu=(mu,), round_sphere=True)
        found = _drops(link, eps)
        # the indicial-set view snaps through the same function
        assert indicial_set_full(link, eps) == LinkAnalysis(link, eps).full
        return found

    killing, obata = n - 2, n - 1
    both = {DropReason.KILLING, DropReason.OBATA}
    far_mu, far_lam = Fraction(killing) + 1, Fraction(obata) + 1
    # exact values never move: the drops fire at the threshold, and off it never
    assert drops(Fraction(killing), Fraction(obata)) == both
    off = Fraction(1, 10**k)
    assert drops(Fraction(killing) + off, Fraction(obata) + off) == set()
    # floats within eps of the threshold
    mu, lam = killing + t * eps, obata + t * eps
    assume(abs(mu - killing) <= eps and abs(lam - obata) <= eps)
    assert drops(mu, far_lam) == {DropReason.KILLING}
    assert drops(far_mu, lam) == {DropReason.OBATA}
    # floats just beyond eps, on either side
    sign = 1.0 if t >= 0 else -1.0
    mu = killing + sign * eps * (1 + 1e-6 + abs(t))
    lam = obata + sign * eps * (1 + 1e-6 + abs(t))
    assert abs(mu - killing) > eps and abs(lam - obata) > eps
    assert drops(mu, lam) == set()


def _verdicts(analysis):
    minus = analysis.e_minus
    return (
        analysis.resonance.dominated,
        analysis.resonance.resonant_present,
        analysis.stability.stable,
        len(analysis.stability.boundary),
        [(el.part, float(el.value)) for el in minus.elements],
        [el.root.weight.imag.is_zero() for el in minus.elements if el.root is not None],
        [el.root.weight.imag.is_zero() for el in analysis.e_plus.elements],
        analysis.rates.xi_minus.root.weight.imag.is_zero(),
        analysis.end_order("AC").weak,
    )


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(4, 12),
    eps=_EPS,
    t=st.floats(-1, 1),
    second=st.sampled_from([None, "inside", "zero", "above"]),
)
def test_float_kappa_within_eps_of_resonance_behaves_as_the_exact_threshold(n, eps, t, second):
    threshold = _resonance(n)
    kappa = float(threshold) + t * eps
    assume(abs(kappa - float(threshold)) <= eps)
    others = {
        None: (),
        "inside": (threshold / 2,),
        "zero": (Fraction(0),),
        "above": (Fraction(2 * n + 1),),
    }[second]
    lam = (Fraction(2 * n + 3),)
    mu = (Fraction(n - 2),)
    exact = LinkAnalysis(_link(n, lam=lam, mu=mu, kappa=(threshold,) + others), eps)
    snapped = LinkAnalysis(_link(n, lam=lam, mu=mu, kappa=(kappa,) + others), eps)
    assert _verdicts(snapped) == _verdicts(exact)
    assert len(snapped.resonance.coercions) == 1
    assert snapped.resonance.coercions[0].value == kappa
    assert not exact.resonance.coercions


def _bound_warnings(lam, eps=1e-12):
    # n = 4, not the round sphere: lambda = n-1 keeps its lambda2-plus value
    link = _link(4, lam=(lam, 8), mu=(2, 5), kappa=(1, 2))
    stability = LinkAnalysis(link, eps).stability
    return [w for w in stability.warnings if "sits exactly at the stability bound" in w]


def test_stability_bound_equality_is_read_from_the_snapped_lambda():
    # eta(x) reaches -(n-2)^2/4 only at x = -(n-2)/2: at n = 4 that is the
    # lambda2-plus value of lambda = 3, exact or snapped onto 3
    expected = [
        "tangential eigenvalue of Scalar-lambda2-plus[1] sits exactly at the stability bound"
    ]
    assert _bound_warnings(3) == expected
    assert _bound_warnings(3.0000000000001) == expected


def test_rounded_derived_value_on_the_bound_does_not_warn():
    # -1 + (lambda-3)^2/16 rounds to exactly -1.0 for lambda = 3.00000001,
    # which lies outside eps of 3 and so is not on the bound
    link = _link(4, lam=(3.00000001, 8), mu=(2, 5), kappa=(1, 2))
    value = next(e.value for e in LinkAnalysis(link).boxL if e.family.value == "Scalar-lambda2-plus")
    assert float(value) == -1.0
    assert _bound_warnings(3.00000001) == []


def test_snap_reads_the_exact_distance_from_the_threshold():
    # At n = 2**30 + 1 the resonance -(n-2)^2/4 = -(2**58 - 2**29) - 1/4 has
    # no double.  Its nearest double lies exactly 1/4 above it, far beyond
    # epsilon, so it is not snapped: it sits inside the window, with the
    # real branch pair -(n-2)/2 +- 1/2, and no coercion is reported.
    n = 2**30 + 1
    kappa = float(_resonance(n))
    assert Fraction(kappa) - _resonance(n) == Fraction(1, 4)
    top = str(3 * n)
    doc = {
        "dim_cone": n,
        "name": "resonance without a double",
        "scalar": {"entries": [{"value": 0, "multiplicity": 1}, {"value": str(2 * n), "multiplicity": None}],
                   "complete_below": top, "mode": "exact"},
        "coclosed_one_form": {"entries": [{"value": str(n), "multiplicity": None}],
                              "complete_below": top, "mode": "exact"},
        "tt_einstein": {"entries": [{"value": kappa, "multiplicity": None}], "complete_below": top, "mode": "exact"},
        "ends": [{"kind": "AC"}, {"kind": "CS"}],
    }
    link = load_spectrum(doc)
    entry = link.tt_einstein.entries[0]
    assert entry.value == kappa and entry.given is None and not entry.value.exact
    analysis = LinkAnalysis(link)
    resonance = analysis.resonance
    assert not resonance.resonant_present and not resonance.dominated
    assert resonance.window_values == (kappa,) and resonance.coercions == ()
    plus, minus = (r.weight for r in analysis.essential if r.family.value == "TT-kappa")
    half = Fraction(-(n - 2), 2)
    assert {minus.real, plus.real} == {half - Fraction(1, 2), half + Fraction(1, 2)}
    assert analysis.rates.xi_minus.part == "window"
    assert analysis.rates.xi_minus.value == -half - Fraction(1, 2)
    text = render_text(build_report(link))
    assert "resonance-dominated: no" in text and "coerced" not in text
