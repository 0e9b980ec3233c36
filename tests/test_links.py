"""Catalog construction, document ingestion and validation."""

import json
from fractions import Fraction

import pytest

from conifold_spectra import (
    DimensionTooSmall,
    EndKind,
    InvariantViolation,
    Scalar,
    SchemaError,
    SpectrumMode,
    UnsupportedDimension,
    builtin_link,
    load_spectrum,
    product_einstein_example,
    sphere_link,
    sphere_quotient_link,
)

from oracles import sphere_kappa, sphere_lambda


def test_sphere_link_formulas():
    for n in (4, 5, 6, 10):
        link = sphere_link(n)
        for i, entry in enumerate(link.scalar.entries):
            assert entry.value == Scalar(sphere_lambda(n, i))
        for i, entry in enumerate(link.tt_einstein.entries, start=1):
            assert entry.value == Scalar(sphere_kappa(n, i))
        assert link.has_killing_fields and link.is_round_sphere
        link.validate()


def test_sphere_lambda_multiplicities_match_s3_squares():
    link = sphere_link(4)
    mults = [e.multiplicity for e in link.scalar.entries]
    assert mults == [(i + 1) ** 2 for i in range(len(mults))]


def test_sphere_min_kappa_is_2n():
    for n in (4, 7, 10):
        assert sphere_link(n).tt_einstein.min_value() == Scalar(2 * n)


def test_sphere_mu_starts_at_killing_value():
    for n in (4, 5, 9):
        link = sphere_link(n)
        assert link.coclosed_one_form.min_value() == Scalar(n - 2)


def test_sphere_link_rejects_n3():
    with pytest.raises(DimensionTooSmall):
        sphere_link(3)


def test_quotient_drops_obata_eigenvalue():
    link = sphere_quotient_link(4)
    values = [e.value for e in link.scalar.entries]
    assert Scalar(3) not in values
    assert values[0] == Scalar(0) and values[1] == Scalar(8)
    assert link.scalar.mode is SpectrumMode.UPPER_BOUND
    assert all(e.multiplicity is None for e in link.tt_einstein.entries)
    assert not link.is_round_sphere


def test_quotient_lambda_values_at_n10():
    link = sphere_quotient_link(10)
    values = [e.value for e in link.scalar.entries]
    assert Scalar(9) not in values
    assert Scalar(20) in values


def test_trivial_quotient_is_the_sphere():
    assert builtin_link("sphere-quotient", 4, gamma_nontrivial=False) == sphere_link(4)


def test_product_einstein_fixture():
    link = product_einstein_example(10)
    assert link.tt_einstein.min_value() == Scalar(-16)
    assert Scalar(Fraction(-(10 - 2) ** 2, 4)) == Scalar(-16)
    assert link.ends == (EndKind.AC,)
    link.validate()
    with pytest.raises(UnsupportedDimension):
        product_einstein_example(9)


def _document(**overrides):
    doc = {
        "dim_cone": 4,
        "name": "test link",
        "scalar": {
            "entries": [
                {"value": 0, "multiplicity": 1},
                {"value": "7/2", "multiplicity": None},
            ],
            "complete_below": "7/2",
            "mode": "exact",
        },
        "coclosed_one_form": {
            "entries": [{"value": 2, "multiplicity": None}],
            "complete_below": 2,
            "mode": "exact",
        },
        "tt_einstein": {
            "entries": [{"value": 8, "multiplicity": None}],
            "complete_below": 8,
            "mode": "exact",
        },
        "has_killing_fields": True,
        "ends": [{"kind": "AC"}, {"kind": "CS"}],
    }
    doc.update(overrides)
    return doc


def test_load_spectrum_round_trip():
    link = load_spectrum(_document())
    assert link.n == 4
    assert link.scalar.entries[1].value == Scalar(Fraction(7, 2))
    assert link.scalar.entries[1].value.exact
    assert link.has_killing_fields
    assert link.ends == (EndKind.AC, EndKind.CS)


def test_load_spectrum_infers_killing_fields():
    doc = _document()
    del doc["has_killing_fields"]
    assert load_spectrum(doc).has_killing_fields
    doc["coclosed_one_form"]["entries"] = [{"value": 5, "multiplicity": None}]
    assert not load_spectrum(doc).has_killing_fields


def test_load_spectrum_rejects_unknown_keys():
    with pytest.raises(SchemaError):
        load_spectrum(_document(extra_key=1))
    doc = _document()
    doc["scalar"]["surprise"] = True
    with pytest.raises(SchemaError):
        load_spectrum(doc)
    doc = _document()
    doc["scalar"]["entries"][0]["weird"] = 1
    with pytest.raises(SchemaError):
        load_spectrum(doc)


def test_load_spectrum_rejects_bad_shapes():
    with pytest.raises(SchemaError):
        load_spectrum([])
    doc = _document()
    del doc["ends"]
    with pytest.raises(SchemaError):
        load_spectrum(doc)
    doc = _document(ends=[{"kind": "sideways"}])
    with pytest.raises(SchemaError):
        load_spectrum(doc)
    doc = _document()
    doc["scalar"]["entries"][0]["value"] = "1/2/3"
    with pytest.raises(SchemaError):
        load_spectrum(doc)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_load_spectrum_rejects_non_finite_numbers(bad):
    doc = json.loads(json.dumps(_document()))
    doc["tt_einstein"]["entries"][0]["value"] = bad
    with pytest.raises(SchemaError, match="non-finite"):
        load_spectrum(doc)
    doc = json.loads(json.dumps(_document()))
    doc["scalar"]["complete_below"] = bad
    with pytest.raises(SchemaError, match="non-finite"):
        load_spectrum(doc)


def test_load_spectrum_checks_invariants():
    doc = _document()
    doc["scalar"]["entries"] = [{"value": 1, "multiplicity": 1}]
    with pytest.raises(InvariantViolation):
        load_spectrum(doc)  # missing lambda_0 = 0
    doc = _document()
    doc["scalar"]["entries"] = [
        {"value": 0, "multiplicity": 1},
        {"value": 2, "multiplicity": None},
    ]
    with pytest.raises(InvariantViolation):
        load_spectrum(doc)  # Obata: lambda_1 >= n-1 = 3
    doc = _document()
    doc["coclosed_one_form"]["entries"] = [{"value": 1, "multiplicity": None}]
    with pytest.raises(InvariantViolation):
        load_spectrum(doc)  # mu >= n-2 = 2
    doc = _document()
    doc["tt_einstein"]["entries"] = [
        {"value": 8, "multiplicity": None},
        {"value": 8, "multiplicity": None},
    ]
    with pytest.raises(InvariantViolation):
        load_spectrum(doc)  # strictly increasing


def test_load_spectrum_killing_flag_consistency():
    doc = _document(has_killing_fields=False)
    with pytest.raises(InvariantViolation):
        load_spectrum(doc)  # n-2 listed in an exact list forces the flag


def test_upper_bound_mode_parses():
    doc = _document()
    doc["tt_einstein"]["mode"] = "upper-bound-set"
    link = load_spectrum(doc)
    assert link.tt_einstein.mode is SpectrumMode.UPPER_BOUND
    assert link.any_upper_bound_mode()


def test_document_json_compatible():
    # The interchange format is plain JSON
    text = json.dumps(_document())
    assert load_spectrum(json.loads(text)).name == "test link"
