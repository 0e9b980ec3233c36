"""Report assembly details: float-path annotation, warnings, witnesses."""

import csv
import io
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conifold_spectra import (
    InsufficientSpectrum,
    LinkAnalysis,
    load_spectrum,
    sphere_link,
    sphere_quotient_link,
)
from conifold_spectra.report import (
    ReportOptions,
    _json_text,
    _root_cell,
    _root_json,
    _root_row,
    build_report,
    end_order_line,
    fmt_weight,
    render_csv,
    render_json,
    render_text,
    report_dict,
)


def _float_document():
    return {
        "dim_cone": 10,
        "name": "float resonance link",
        "scalar": {
            "entries": [
                {"value": 0, "multiplicity": 1},
                {"value": 20.0, "multiplicity": None},
            ],
            "complete_below": 20.0,
            "mode": "exact",
        },
        "coclosed_one_form": {
            "entries": [{"value": 8.0, "multiplicity": None}],
            "complete_below": 8.0,
            "mode": "exact",
        },
        "tt_einstein": {
            "entries": [{"value": -15.9999999999999, "multiplicity": None}],
            "complete_below": 0,
            "mode": "exact",
        },
        "has_killing_fields": True,
        "ends": [{"kind": "AC"}],
    }


def test_float_path_report_flags_coercion():
    link = load_spectrum(_float_document(), eps=1e-9)
    report = build_report(link, ReportOptions(epsilon=1e-9))
    assert report.resonance.dominated
    text = render_text(report)
    assert "coerced to exactly resonant" in text
    assert "AC: weakly of order 4 (log)" in text
    payload = json.loads(render_json(report))
    # float-path entries render as JSON numbers, exact ones as strings
    kappa_rows = payload["tangential"]["lichnerowicz"]
    tt = [row for row in kappa_rows if row["family"] == "TT-kappa"][0]
    assert isinstance(tt["value"], float)
    lam = [row for row in kappa_rows if row["family"] == "Scalar-lambda-direct"][0]
    assert isinstance(lam["value"], float)
    specials = [row for row in kappa_rows if row["family"] == "Special-zero"][0]
    assert specials["value"] == "0"


def test_text_marks_float_values():
    link = load_spectrum(_float_document(), eps=1e-9)
    report = build_report(link, ReportOptions(epsilon=1e-9))
    text = render_text(report)
    assert "~" in text  # float-path values carry the marker
    assert "epsilon (float-path thresholds): 1e-09" in text


def test_a_value_reads_the_same_in_its_table_row_and_its_messages():
    # kappa_1 = -15.9999999999999 snaps onto -16 but keeps its float provenance
    report = build_report(load_spectrum(_float_document(), eps=1e-9), ReportOptions(epsilon=1e-9))
    lines = render_text(report).splitlines()
    assert "        ~-16  TT-kappa               i=1   kept" in lines
    assert "ADM mass: unknown (kappa_1 = ~-16 < 0 permits decay slower than r^(2-n))" in lines
    assert "E_plus minimum ~2 needs completeness below ~20" in report.rate_error


def test_fmt_helpers():
    from conifold_spectra import Scalar, Weight, xi_pair

    assert str(Scalar(8)) == "8"
    plus, minus = xi_pair(10, Scalar(-20))
    assert fmt_weight(plus) == "(-4+2i)"
    assert fmt_weight(minus) == "(-4-2i)"
    from conifold_spectra import resonance_pair

    assert fmt_weight(resonance_pair(6)[1]) == "-2*log(r)"


def test_end_order_line_forms():
    quotient = sphere_quotient_link(4)
    report = build_report(quotient)
    lines = {end_order_line(r) for r in report.end_orders}
    assert lines == {"AC order >= 4", "CS order >= 2"}
    sphere = build_report(sphere_link(4))
    lines = {end_order_line(r) for r in sphere.end_orders}
    assert lines == {"AC order = 3", "CS order = 1"}


def test_rates_witnesses_exposed():
    report = build_report(sphere_quotient_link(6))
    assert report.rates is not None
    xp = report.rates.xi_plus
    assert str(xp.value) == "2"
    assert xp.root.family.value in ("TT-kappa", "Scalar-lambda-direct")
    xm = report.rates.xi_minus
    assert str(xm.value) == "6" and xm.part == "minus-branch"


def test_standing_notes_present():
    report = build_report(sphere_link(5))
    assert any("zero root" in note for note in report.notes)
    assert any("Re > 0" in note for note in report.notes)


def _sqrt7_document(tt_complete_below):
    # n = 6 with kappa = 3: xi_plus = -2 + sqrt(7) is the E_plus minimum, and
    # its eigenvalue is exactly 3.
    return {
        "dim_cone": 6,
        "name": "sqrt7 link",
        "scalar": {
            "entries": [{"value": 0, "multiplicity": 1}, {"value": "12", "multiplicity": None}],
            "complete_below": "12",
            "mode": "exact",
        },
        "coclosed_one_form": {
            "entries": [{"value": "4", "multiplicity": None}],
            "complete_below": "4",
            "mode": "exact",
        },
        "tt_einstein": {
            "entries": [{"value": "3", "multiplicity": None}],
            "complete_below": tt_complete_below,
            "mode": "exact",
        },
        "ends": [{"kind": "AC"}, {"kind": "CS"}],
    }


def test_e_plus_completeness_is_read_exactly():
    # The E_plus minimum needs completeness below its own eigenvalue, 3, not
    # below eta of its rounded float view (3.0000000000000004).
    report = build_report(load_spectrum(_sqrt7_document("3")))
    assert report.rate_error is None
    text = render_text(report)
    assert "rates: xi_plus = ~0.64575131106459061" in text
    assert "CS order = ~0.64575131106459061" in text


def test_e_plus_completeness_message_text():
    link = load_spectrum(_sqrt7_document("5/2"))
    with pytest.raises(InsufficientSpectrum) as info:
        LinkAnalysis(link).e_plus
    assert str(info.value) == (
        "tt_einstein list certified below 5/2, but the E_plus minimum "
        "~0.64575131106459061 needs completeness below 3"
    )


_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, 1e308, float("inf"), float("-inf"), float("nan")]),
    st.text(),
    st.text(alphabet="\"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600 ab"),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(st.text(max_size=6), _JSON_VALUES, max_size=5) | _JSON_VALUES)
def test_json_emitter_matches_the_stdlib_encoder(value):
    out = []
    _json_text(value, "\n", out)
    assert "".join(out) == json.dumps(value, indent=2)


def _irrational_link():
    from test_golden import _irrational_document

    return load_spectrum(_irrational_document())


@pytest.mark.parametrize("max_roots", [None, 0, 2])
@pytest.mark.parametrize(
    "make_link, eps",
    [
        (lambda: sphere_link(6, count=512), 1e-12),
        (lambda: load_spectrum(_float_document(), eps=1e-9), 1e-9),
        (_irrational_link, 1e-12),
    ],
    ids=["sphere-512", "float-document", "irrational-document"],
)
def test_render_json_is_the_stdlib_encoding_of_report_dict(make_link, eps, max_roots):
    # the documents' tangential tables hold drop reasons and notes
    report = build_report(make_link(), ReportOptions(epsilon=eps, max_roots=max_roots))
    assert render_json(report) == json.dumps(report_dict(report), indent=2) + "\n"


@pytest.mark.parametrize("name", ["a\rb", "a\nb", "a\r\nb", "a,b", 'a"b'])
def test_csv_reader_reads_every_row_back_as_three_cells(name):
    text = render_csv(build_report(sphere_link(6)._replace(name=name)))
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert all(len(row) == 3 for row in rows)
    assert rows[1] == ["link", "name", name]


_SET_TITLES = ("E_L (all indicial roots)", "E_B (Bianchi-gauge roots)", "E (essential roots)")


@pytest.mark.parametrize(
    "make_link", [lambda: sphere_link(6, count=16), _irrational_link], ids=["sphere-16", "irrational-document"]
)
def test_max_roots_cuts_each_set_on_its_own(make_link):
    link = make_link()
    analysis = LinkAnalysis(link)
    sets = (analysis.full, analysis.bianchi, analysis.essential)
    sizes = [len(roots) for roots in sets]
    assert sizes[0] > sizes[1] > sizes[2] > 2
    for limit in (0, 1, 2, sizes[2], sizes[1], sizes[0], sizes[0] + 1):
        report = build_report(link, ReportOptions(max_roots=limit))
        tree = report_dict(report)
        assert render_json(report) == json.dumps(tree, indent=2) + "\n"
        text = render_text(report).splitlines()
        cells = render_csv(report).splitlines()
        for title, key, name, roots in zip(_SET_TITLES, ("full", "bianchi", "essential"), ("EL", "EB", "E"), sets):
            shown = roots[:limit]
            assert tree["indicial_sets"][key] == {"count": len(roots), "roots": [_root_json(r) for r in shown]}
            at = text.index(f"{title}: {len(roots)} roots (showing {len(shown)})") + 1
            assert text[at : at + len(shown) + 1] == [_root_row(r) for r in shown] + [""]
            assert [c for c in cells if c.startswith(name + ",")] == [
                f"{name},{i},{_root_cell(r)}" for i, r in enumerate(shown)
            ]


def test_render_json_peak_memory_stays_below_twice_its_output():
    report = build_report(sphere_link(6, count=64))
    render_json(report)  # fill the views each weight computes on first read
    tracemalloc.start()
    try:
        text = render_json(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(text), peak / len(text)
