"""The records' semantics, and the verifier records' ``repr`` pinned by digest.

Records compare, hash and print by their fields, except a field that is
provenance only (``EigenvalueEntry.given``, ``TangentialEigenvalue.branches``);
they survive ``copy.deepcopy`` and ``pickle``; no field can be assigned; and
the constructor checks still raise.  The ``repr`` of the verifier's records
is what the benchmark digests, so it is pinned here too: a refactor of a
record must leave these digests unchanged.
"""

import copy
import hashlib
import pickle

import pytest

from conifold_spectra import (
    EigenvalueEntry,
    InvariantViolation,
    LinkAnalysis,
    Scalar,
    SpectrumList,
    TangentialEigenvalue,
    build_report,
    load_spectrum,
    sphere_link,
)
from conifold_spectra.flatcone import (
    cheeger_tian_example,
    default_grid,
    flat_schedule,
    identity_b_dstar,
    identity_case_harmonics,
    identity_delta_star_radial,
    identity_trace_commutes,
    ode_residual,
    verify_case,
)
from conifold_spectra.indicial import BoxLFamily
from conifold_spectra.links import snap_to_thresholds
from conifold_spectra.rates import RateElement, RateSet
from conifold_spectra.report import ReportOptions

from test_report import _float_document


def _cases(n):
    return [verify_case(case_id, n, d, seed) for seed in (0, -1) for case_id, d in flat_schedule(3)]


def _identities(n):
    return [f(n) for f in (identity_b_dstar, identity_delta_star_radial, identity_trace_commutes,
                           identity_case_harmonics)]


# group -> (its records, sha256 of their repr); every case of the flat
# schedule to degree 3, at seeds 0 and -1
VERIFIER_GOLDEN = {
    "cases-n4": (
        lambda: _cases(4),
        "6994faeca38318423210e1a8403b233b0e507a4a41c7501aad636789dfbcf5e3",
    ),
    "cases-n6": (
        lambda: _cases(6),
        "08c226900942b732a65701ad7279f6c7c49f0c093c381c641b95446a0140167f",
    ),
    "identities-n4": (
        lambda: _identities(4),
        "3c99473f43dd69e8de4195783fb5dd4bc79e293c4d2176c9b95002c1feebe1c2",
    ),
    "ode-grid": (
        lambda: [ode_residual(*g) for g in default_grid()],
        "8ba0b80eeb32a7da96e6037f6c1c7169af30b060cdf2ae8ca44164797d932a31",
    ),
    "cheeger-tian": (
        lambda: cheeger_tian_example(4),
        "d501db041a22f8ccf61b9bbf706006f32f314f6813637d2d6f59383cb2bec124",
    ),
}


@pytest.mark.parametrize("group", sorted(VERIFIER_GOLDEN))
def test_verifier_record_repr_is_byte_identical(group):
    build, digest = VERIFIER_GOLDEN[group]
    assert hashlib.sha256(repr(build()).encode("utf-8")).hexdigest() == digest


def _records():
    """kind -> (one record of every kind the package returns, one of its fields)."""
    link = sphere_link(5)
    analysis = LinkAnalysis(link)
    report = build_report(link)
    case = verify_case("iii", 4, 2)
    return {
        "entry": (link.scalar.entries[1], "value"),
        "spectrum-list": (link.scalar, "entries"),
        "link": (link, "n"),
        "tangential": (analysis.boxL[0], "value"),
        "root": (analysis.full[0], "weight"),
        "rate-element": (analysis.rates.xi_plus, "value"),
        "rate-set": (analysis.e_minus, "elements"),
        "rates": (analysis.rates, "xi_plus"),
        "end-order": (report.end_orders[0], "order"),
        "stability": (analysis.stability, "stable"),
        "adm": (analysis.adm, "verdict"),
        "resonance": (analysis.resonance, "dominated"),
        "options": (ReportOptions(), "epsilon"),
        "analysis": (analysis, "link"),
        "case": (case, "branches"),
        "branch": (case.branches[1], "coefficient"),
        "identity": (identity_trace_commutes(4), "failures"),
        "cheeger-tian": (cheeger_tian_example(4), "note"),
        "ode": (ode_residual(*default_grid()[0]), "exponent"),
    }


@pytest.mark.parametrize("kind", sorted(_records()))
def test_records_are_equal_hash_equal_and_frozen(kind):
    (record, field), (again, _) = _records()[kind], _records()[kind]
    assert record == again
    assert hash(record) == hash(again)
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(again, field))


def test_provenance_fields_are_left_out_of_equality():
    moved = EigenvalueEntry(Scalar(3.0, exact=False), None, given=Scalar(3.0000000000001, exact=False))
    plain = EigenvalueEntry(Scalar(3.0, exact=False), None)
    assert moved == plain and hash(moved) == hash(plain)
    assert "given=Scalar(3.0000000000001, float)" in repr(moved)
    one, two = (
        TangentialEigenvalue(Scalar(6), BoxLFamily.LAMBDA_DIRECT, 1, Scalar(6), branches=pair)
        for pair in (None, ("a", "b"))
    )
    assert one == two and hash(one) == hash(two)
    assert repr(two) == (
        "TangentialEigenvalue(value=Scalar(6, exact), family=<BoxLFamily.LAMBDA_DIRECT: "
        "'Scalar-lambda-direct'>, source_index=1, source_value=Scalar(6, exact), "
        "dropped=False, drop_reason=None, note=None)"
    )


def test_constructor_checks_still_raise():
    with pytest.raises(InvariantViolation, match="multiplicity"):
        EigenvalueEntry(Scalar(1), 0)
    entries = (EigenvalueEntry(Scalar(2)), EigenvalueEntry(Scalar(2)))
    with pytest.raises(InvariantViolation, match="strictly increasing"):
        SpectrumList(entries, Scalar(3))
    for value in (Scalar(0), Scalar(-1)):
        with pytest.raises(AssertionError, match="strictly positive"):
            RateSet("minus", (RateElement(value, "below-window", None),))


def test_analysis_holds_the_snapped_link():
    link = load_spectrum(_float_document(), eps=0.0)
    analysis = LinkAnalysis(link, 1e-9)
    assert analysis.link == snap_to_thresholds(link, 1e-9)
    assert analysis.link != link
    snapped = analysis.link.tt_einstein.entries[0]
    assert snapped.value == Scalar(-16.0, exact=False)
    assert snapped.given == link.tt_einstein.entries[0].value
