"""The single analysis pass: every stage is built once per LinkAnalysis."""

import re
from functools import cached_property
from pathlib import Path

import pytest

from conifold_spectra import (
    BoxLFamily,
    InsufficientSpectrum,
    LinkAnalysis,
    Scalar,
    SpectrumList,
    adm_mass_verdict,
    box1_spectrum,
    boxL_spectrum,
    end_order,
    indicial_set_bianchi,
    indicial_set_essential,
    indicial_set_full,
    linear_stability,
    load_spectrum,
    resonance_analysis,
    sphere_link,
    sphere_quotient_link,
    xi_rates,
)
from conifold_spectra import indicial, rates, report
from conifold_spectra.report import build_report, render_csv, render_json, render_text

from test_golden import _irrational_document
from test_rates import synthetic_link
from test_report import _float_document


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_build_report_computes_branches_once(monkeypatch):
    link = sphere_link(6, count=16)
    calls = _count_calls(monkeypatch, indicial, "xi_pair")
    box1_spectrum(link)
    indicial_set_full(link)
    one_pass = len(calls)
    calls.clear()
    build_report(link)
    assert 0 < len(calls) <= one_pass


def test_stages_are_built_once(monkeypatch):
    boxL_calls = _count_calls(monkeypatch, rates, "boxL_spectrum")
    link = sphere_quotient_link(6)
    analysis = LinkAnalysis(link)
    for _ in range(2):
        analysis.rates
        analysis.resonance
        analysis.stability
        analysis.end_order("AC")
        analysis.end_order("CS")
    assert len(boxL_calls) == 1
    assert analysis.full is analysis.full
    assert analysis.essential == [r for r in analysis.bianchi if not r.lie_derivative]


def test_each_kappa_is_classified_once(monkeypatch):
    # E_minus, the resonance and stability read one window position per
    # kappa, and one box_L scan classifies each kept non-TT value
    calls = _count_calls(monkeypatch, rates, "_position")
    analysis = LinkAnalysis(synthetic_link(6, kappas=[-5, -4, -3, 2], kappa_complete=2))
    for _ in range(2):
        analysis.e_minus, analysis.resonance, analysis.stability, analysis.adm
    kappas = [entry.value for entry in analysis.link.tt_einstein.entries]
    scanned = [
        e for e in analysis.boxL if not e.dropped and e.family is not BoxLFamily.TT_KAPPA
    ]
    assert [args[0] for args in calls[: len(kappas)]] == kappas
    assert len(calls) == len(kappas) + len(scanned)
    assert [p for _, p in analysis.positions] == ["below", "at", "inside", "above"]


def test_readme_stage_list_names_every_stage():
    # README lists the stages of LinkAnalysis; a renamed or added stage
    # must be renamed or added there
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"whose stages \((.*?)\)\s+are computed lazily", readme, re.S).group(1)
    names = re.findall(r"`([^`]+)`", listed)
    stages = [name for name, attr in vars(LinkAnalysis).items() if isinstance(attr, cached_property)]
    assert sorted(names) == sorted(stages + ["end_order(kind)"])


def test_public_functions_are_views():
    link = sphere_quotient_link(6)
    analysis = LinkAnalysis(link)
    assert xi_rates(link) == analysis.rates
    assert resonance_analysis(link) == analysis.resonance
    assert linear_stability(link) == analysis.stability
    assert adm_mass_verdict(link) == analysis.adm
    assert end_order(link, "AC") == analysis.end_order("AC")


def test_failed_stage_raises_again():
    link = sphere_link(6)
    shallow = link._replace(tt_einstein=SpectrumList((), Scalar(-1)))
    analysis = LinkAnalysis(shallow)
    for _ in range(2):
        with pytest.raises(InsufficientSpectrum):
            analysis.stability


def test_build_report_builds_each_branch_pair_once(monkeypatch):
    # one xi_pair per list entry and family input (each positive lambda, each
    # mu + 1, each kappa), plus the fixed specials xi(0) and xi(2n)
    link = sphere_link(6, count=16)
    calls = _count_calls(monkeypatch, indicial, "xi_pair")
    build_report(link)
    positive_lambdas = [e for e in link.scalar.entries if not e.value.is_zero()]
    budget = (
        len(positive_lambdas)
        + len(link.coclosed_one_form.entries)
        + len(link.tt_einstein.entries)
        + 2
    )
    assert len(calls) <= budget
    # the pairs handed to box_1 and box_L give the tables built without them
    analysis = LinkAnalysis(link)
    assert analysis.box1 == box1_spectrum(link)
    assert analysis.boxL == boxL_spectrum(link)


def test_render_json_formats_each_distinct_root_once(monkeypatch):
    # E_B and E list E_L's root objects again: one JSON row per distinct
    # root in the sets, plus one per witness indent
    built = build_report(sphere_link(6, count=16))
    listed = built.roots_full + built.roots_bianchi + built.roots_essential
    distinct = {id(root) for root in listed}
    assert len(distinct) < len(listed)
    calls = _count_calls(monkeypatch, report, "_root_json_row")
    render_json(built)
    formatted = [(id(root), pad) for root, pad in calls]
    assert len(formatted) == len(set(formatted))
    # a set's roots sit in the report, indicial_sets, the set and its list
    set_pad = "\n" + "  " * 4
    assert sorted(key for key, pad in formatted if pad == set_pad) == sorted(distinct)
    assert len(formatted) <= len(distinct) + 2 + len(built.end_orders)


def test_render_json_formats_each_tangential_entry_once(monkeypatch):
    built = build_report(sphere_link(6, count=16))
    entries = built.analysis.box1 + built.analysis.boxL
    rows = _count_calls(monkeypatch, report, "_tangential_json_row")
    dicts = _count_calls(monkeypatch, report, "_tangential_json")
    render_json(built)
    # each list sits in the report, tangential and the list
    assert sorted(id(entry) for entry, _pad in rows) == sorted(id(entry) for entry in entries)
    assert {pad for _entry, pad in rows} == {"\n" + "  " * 3}
    assert dicts == []


@pytest.mark.parametrize("render", [render_text, render_csv])
def test_text_and_csv_format_each_distinct_root_once(monkeypatch, render):
    built = build_report(sphere_link(6, count=16))
    listed = built.roots_full + built.roots_bianchi + built.roots_essential
    distinct = {id(root) for root in listed}
    assert len(distinct) < len(listed)
    calls = _count_calls(monkeypatch, report, "fmt_weight")
    render(built)
    # plus the two rate witnesses and one witness per end
    assert len(calls) <= len(distinct) + 2 + len(built.end_orders)


@pytest.mark.parametrize(
    "link, eps",
    [
        (load_spectrum(_float_document(), eps=1e-9), 1e-9),
        (load_spectrum(_irrational_document()), 1e-12),
    ],
    ids=["float-document", "irrational-document"],
)
def test_set_functions_are_views(monkeypatch, link, eps):
    analysis = LinkAnalysis(link, eps)
    stages = analysis.full, analysis.bianchi, analysis.essential
    boxL_calls = _count_calls(monkeypatch, rates, "boxL_spectrum")
    views = indicial_set_full(link, eps), indicial_set_bianchi(link, eps), indicial_set_essential(link, eps)
    assert views == stages
    # each is one fresh LinkAnalysis, which builds box_L once
    assert len(boxL_calls) == 3
