"""CLI surfaces, report rendering, exit codes and plot data."""

import json
import math
import os
import subprocess
import sys

import pytest

from conifold_spectra import cli, product_einstein_example, sphere_quotient_link
from conifold_spectra.cli import main
from conifold_spectra.links import MAX_DIM_CONE_BITS, MAX_EPSILON, MAX_PLOT_ROWS
from conifold_spectra.report import build_report, render_csv, render_json, render_text, report_dict

from test_golden import GOLDEN, _case
from test_report import _float_document

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_report_builtin_quotient_table(capsys):
    code, out, _ = run_cli(
        capsys, "report", "--builtin", "sphere-quotient", "--n", "4",
        "--quotient", "nontrivial",
    )
    assert code == 0
    assert "AC order >= 4" in out
    assert "CS order >= 2" in out
    assert "linear stability: stable" in out


def test_report_quotient_flag_applies_to_sphere_builtin(capsys):
    code, out, _ = run_cli(
        capsys, "report", "--builtin", "sphere", "--n", "4",
        "--quotient", "nontrivial",
    )
    assert code == 0
    assert "AC order >= 4" in out
    assert "CS order >= 2" in out
    # without the flag the sphere stays the round sphere
    code, out, _ = run_cli(capsys, "report", "--builtin", "sphere", "--n", "4")
    assert code == 0
    assert "AC order = 3" in out


def test_report_builtin_product_weak_order(capsys):
    code, out, _ = run_cli(capsys, "report", "--builtin", "product-einstein-10")
    assert code == 0
    assert "AC: weakly of order 4 (log)" in out
    assert "resonance-dominated: yes" in out


@pytest.mark.parametrize("quotient", ["trivial", "nontrivial"])
def test_exit_code_quotient_on_the_product_builtin(capsys, quotient):
    # the product link has no quotient switch; the flag is refused, not ignored
    code, out, err = run_cli(
        capsys, "report", "--builtin", "product-einstein-10", "--quotient", quotient,
    )
    assert (code, out) == (3, "")
    assert "quotient switch does not apply to product-einstein-10" in err


def test_report_trivial_quotient_strict_orders(capsys):
    code, out, _ = run_cli(
        capsys, "report", "--builtin", "sphere-quotient", "--n", "4",
        "--quotient", "trivial",
    )
    assert code == 0
    assert "AC order = 3" in out
    assert "CS order = 1" in out


def test_report_json_round_trip_and_determinism(tmp_path):
    # every golden case, the truncated ones included, against the schema and
    # against the stdlib encoder
    for name in GOLDEN:
        report = build_report(*_case(name))
        rendered = render_json(report)
        assert json.loads(rendered) == report_dict(report), name
        assert rendered == json.dumps(report_dict(report), indent=2) + "\n", name
    link = sphere_quotient_link(5)
    report = build_report(link)
    rendered = render_json(report)
    assert json.loads(rendered) == report_dict(report)
    assert render_json(build_report(link)) == rendered
    assert render_text(build_report(link)) == render_text(report)
    assert render_csv(build_report(link)) == render_csv(report)


def test_report_json_keeps_rationals_as_strings():
    report = build_report(product_einstein_example(10))
    payload = json.loads(render_json(report))
    stability = payload["linear_stability"]
    assert stability["boundary"] == ["-16"]
    orders = {entry["end"]: entry for entry in payload["end_orders"]}
    assert orders["AC"]["order"] == "4"
    assert orders["AC"]["weak_log"] is True


def test_report_max_roots_truncates_tables_not_minima(capsys):
    code, out, _ = run_cli(
        capsys, "report", "--builtin", "sphere-quotient", "--n", "10",
        "--max-roots", "2",
    )
    assert code == 0
    assert "(showing 2)" in out
    assert "xi_plus = 2" in out
    assert "AC order >= 10" in out


def test_report_json_cli(capsys):
    code, out, _ = run_cli(
        capsys, "report", "--builtin", "sphere", "--n", "6", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["link"]["dim_cone"] == 6
    assert payload["resonance_dominated"] is False


def test_report_csv_cli(capsys):
    code, out, _ = run_cli(
        capsys, "report", "--builtin", "sphere", "--n", "4", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "section,key,value"
    assert any(line.startswith("rates,xi_plus,1") for line in lines)


@pytest.mark.parametrize(
    "name, cell",
    [("a,b", '"a,b"'), ('say "hi"', '"say ""hi"""'), ("two\nlines", '"two\nlines"'), ("plain", "plain")],
    ids=["comma", "quote", "newline", "plain"],
)
def test_report_csv_quotes_special_cells(name, cell):
    link = sphere_quotient_link(5)._replace(name=name)
    assert f"\nlink,name,{cell}\n" in render_csv(build_report(link))


def test_report_from_document(tmp_path, capsys):
    doc = {
        "dim_cone": 6,
        "name": "document link",
        "scalar": {
            "entries": [
                {"value": 0, "multiplicity": 1},
                {"value": 12, "multiplicity": None},
            ],
            "complete_below": 12,
            "mode": "exact",
        },
        "coclosed_one_form": {
            "entries": [{"value": 4, "multiplicity": None}],
            "complete_below": 4,
            "mode": "exact",
        },
        "tt_einstein": {
            "entries": [{"value": 12, "multiplicity": None}],
            "complete_below": 12,
            "mode": "exact",
        },
        "has_killing_fields": True,
        "ends": [{"kind": "AC"}],
    }
    path = tmp_path / "link.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(capsys, "report", "--input", str(path))
    assert code == 0
    assert "document link" in out
    assert "AC order = 6" in out  # -xi_minus(kappa=12) = -(-2-4) = 6


def test_exit_code_insufficient_spectrum(tmp_path, capsys):
    doc = json.loads(
        json.dumps(
            {
                "dim_cone": 6,
                "name": "shallow",
                "scalar": {
                    "entries": [
                        {"value": 0, "multiplicity": 1},
                        {"value": 12, "multiplicity": None},
                    ],
                    "complete_below": 12,
                    "mode": "exact",
                },
                "coclosed_one_form": {
                    "entries": [{"value": 4, "multiplicity": None}],
                    "complete_below": 4,
                    "mode": "exact",
                },
                "tt_einstein": {
                    "entries": [{"value": 12, "multiplicity": None}],
                    "complete_below": -5,
                    "mode": "exact",
                },
                "has_killing_fields": True,
                "ends": [{"kind": "AC"}],
            }
        )
    )
    path = tmp_path / "shallow.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(capsys, "report", "--input", str(path))
    assert code == 2
    assert "insufficient" in err


def test_exit_code_schema_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"dim_cone": 4, "unexpected": 1}', encoding="utf-8")
    code, _, err = run_cli(capsys, "report", "--input", str(path))
    assert code == 3
    assert "bad input" in err
    path.write_text("not json", encoding="utf-8")
    code, _, _ = run_cli(capsys, "report", "--input", str(path))
    assert code == 3


def test_exit_code_negative_max_roots(capsys):
    code, out, err = run_cli(
        capsys, "report", "--builtin", "sphere", "--n", "6", "--max-roots", "-1"
    )
    assert code == 3
    assert out == ""
    assert "--max-roots must be non-negative" in err


def test_exit_code_nan_kappa(tmp_path, capsys):
    doc = {
        "dim_cone": 6,
        "name": "nan kappa",
        "scalar": {
            "entries": [{"value": 0, "multiplicity": 1}, {"value": "12", "multiplicity": None}],
            "complete_below": "12",
            "mode": "exact",
        },
        "coclosed_one_form": {
            "entries": [{"value": 4, "multiplicity": None}],
            "complete_below": 4,
            "mode": "exact",
        },
        "tt_einstein": {
            "entries": [{"value": float("nan"), "multiplicity": None}],
            "complete_below": 12,
            "mode": "exact",
        },
        "has_killing_fields": True,
        "ends": [{"kind": "AC"}],
    }
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc), encoding="utf-8")  # writes the literal NaN
    code, out, err = run_cli(capsys, "report", "--input", str(path))
    assert code == 3
    assert out == ""
    assert "non-finite" in err


def _kappa5_document(tmp_path):
    """The n = 10 float document with the single kappa = 5.0, as a file."""
    doc = _float_document()
    doc["tt_einstein"] = {
        "entries": [{"value": 5.0, "multiplicity": None}],
        "complete_below": 6.0,
        "mode": "exact",
    }
    path = tmp_path / "kappa5.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-1"])
def test_exit_code_bad_epsilon(tmp_path, capsys, epsilon):
    # with epsilon = inf the float kappa = 5.0 would be snapped onto 0, and
    # the report would print AC order ~8 and a vanishing kappa_1
    path = _kappa5_document(tmp_path)
    code, out, _ = run_cli(capsys, "report", "--input", str(path))
    assert code == 0
    assert "AC order = ~8.5825756949558407" in out
    assert "all TT-Einstein eigenvalues are positive" in out
    for source in (["--input", str(path)], ["--builtin", "sphere", "--n", "6"]):
        for fmt in ("table", "json"):
            code, out, err = run_cli(capsys, "report", *source, "--format", fmt, "--epsilon", epsilon)
            assert code == 3
            assert out == ""
            assert "epsilon must be finite and non-negative" in err


def test_exit_code_epsilon_at_or_above_the_bound(tmp_path, capsys):
    # a finite epsilon as large as 1e300 snapped kappa = 5.0 onto 0 just as
    # inf did; one just below the bound still reports
    path = _kappa5_document(tmp_path)
    for epsilon in ("1e300", repr(MAX_EPSILON)):
        code, out, err = run_cli(capsys, "report", "--input", str(path), "--epsilon", epsilon)
        assert (code, out) == (3, "")
        assert f"epsilon must be below {MAX_EPSILON:g}" in err
    below = repr(math.nextafter(MAX_EPSILON, 0))
    code, out, _ = run_cli(capsys, "report", "--input", str(path), "--epsilon", below)
    assert code == 0
    assert "AC order = ~8.5825756949558407" in out
    assert "all TT-Einstein eigenvalues are positive" in out


@pytest.mark.parametrize(
    "builtin, n, message",
    [
        ("sphere", "3", "--n must be at least 4, got 3"),
        ("sphere-quotient", "2", "--n must be at least 4, got 2"),
        ("sphere", "-4", "--n must be at least 4, got -4"),
        ("sphere", "1" + "0" * 160, f"--n must be below 2**{MAX_DIM_CONE_BITS}"),
        ("sphere", str(2**MAX_DIM_CONE_BITS), f"--n must be below 2**{MAX_DIM_CONE_BITS}"),
        ("product-einstein-10", "5", "exists only for n = 10"),
    ],
    ids=["sphere-3", "quotient-2", "sphere-negative", "sphere-1e160", "sphere-2**500", "product-5"],
)
def test_exit_code_builtin_dimension_out_of_range(capsys, builtin, n, message):
    # the rule of a document's dim_cone: at least 4, below 2**MAX_DIM_CONE_BITS
    code, out, err = run_cli(capsys, "report", "--builtin", builtin, "--n", n)
    assert (code, out) == (3, "")
    assert message in err


def test_builtin_dimension_just_below_the_bound_reports(capsys):
    n = 2**MAX_DIM_CONE_BITS - 1
    code, out, _ = run_cli(capsys, "report", "--builtin", "sphere", "--n", str(n), "--format", "csv")
    assert code == 0
    assert f"link,dim_cone,{n}\n" in out


def test_exit_code_unreadable_document(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"name": "\xff"}')
    code, out, err = run_cli(capsys, "report", "--input", str(path))
    assert (code, out) == (3, "")
    assert "'utf-8' codec can't decode" in err
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    code, out, err = run_cli(capsys, "report", "--input", str(path))
    assert (code, out) == (3, "")
    assert "recursion" in err


def test_exit_code_dim_cone_below_four(tmp_path, capsys):
    doc = {
        "dim_cone": 3,
        "name": "surface link",
        "scalar": {
            "entries": [{"value": 0, "multiplicity": 1}, {"value": "2", "multiplicity": None}],
            "complete_below": "2",
            "mode": "exact",
        },
        "coclosed_one_form": {
            "entries": [{"value": 1, "multiplicity": None}],
            "complete_below": 1,
            "mode": "exact",
        },
        "tt_einstein": {
            "entries": [{"value": 12, "multiplicity": None}],
            "complete_below": 12,
            "mode": "exact",
        },
        "has_killing_fields": True,
        "ends": [{"kind": "AC"}],
    }
    path = tmp_path / "dim3.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "report", "--input", str(path))
    assert code == 3
    assert out == ""
    assert "dim_cone must be at least 4" in err


def _doc_with_tt(tt_values, dim_cone=6):
    return {
        "dim_cone": dim_cone,
        "name": "range link",
        "scalar": {
            "entries": [{"value": 0, "multiplicity": 1}, {"value": "12", "multiplicity": None}],
            "complete_below": "12",
            "mode": "exact",
        },
        "coclosed_one_form": {
            "entries": [{"value": 4, "multiplicity": None}],
            "complete_below": 4,
            "mode": "exact",
        },
        "tt_einstein": {
            "entries": [{"value": v, "multiplicity": None} for v in tt_values],
            "complete_below": 12,
            "mode": "exact",
        },
        "ends": [{"kind": "AC"}, {"kind": "CS"}],
    }


@pytest.mark.parametrize(
    "tt_values",
    [[2.5, 10**400], [2.5, f"{10**400}/7"], [f"1/{10**400}", 2.5], [2.5, 2**1000]],
    ids=["int", "fraction", "tiny", "bound"],
)
def test_exit_code_exact_number_beyond_double_range(tmp_path, capsys, tt_values):
    # Next to a float entry, p/q becomes float(p)/float(q), which would
    # overflow; the document is refused at ingest instead.
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_doc_with_tt(tt_values)), encoding="utf-8")
    code, out, err = run_cli(capsys, "report", "--input", str(path))
    assert code == 3
    assert out == ""
    assert "exact number out of range" in err


def test_exit_code_dim_cone_beyond_double_range(tmp_path, capsys):
    path = tmp_path / "dim.json"
    path.write_text(json.dumps(_doc_with_tt([2.5], dim_cone=2**500)), encoding="utf-8")
    code, out, err = run_cli(capsys, "report", "--input", str(path))
    assert code == 3
    assert out == ""
    assert "dim_cone must be below 2**500" in err


def test_large_numbers_within_range_report(tmp_path, capsys):
    path = tmp_path / "large.json"
    for tt_values in ([2.5, 1.7e308], [2.5, 2**1000 - 1], [f"1/{2**1000 - 1}", 2.5]):
        path.write_text(json.dumps(_doc_with_tt(tt_values)), encoding="utf-8")
        for fmt in ("table", "json", "csv"):
            code, out, err = run_cli(capsys, "report", "--input", str(path), "--format", fmt)
            assert code == 0, err
            assert out


def _report(tmp_path, capsys, doc, *options):
    path = tmp_path / "link.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return run_cli(capsys, "report", "--input", str(path), *options)


def test_float_kappa_near_resonance_has_a_real_witness(tmp_path, capsys):
    # kappa within epsilon of -(n-2)^2/4 = -4 is snapped onto it, so its
    # roots are the real double root -2, as for the exact kappa = -4
    code, out, err = _report(tmp_path, capsys, _doc_with_tt([-4.0000000000001]))
    assert code == 0, err
    assert "witness ~-2, part minus-branch" in out
    assert "resonance-dominated: yes" in out
    assert "AC: weakly of order 2 (log)" in out
    assert "~-4.0000000000001004 within epsilon of the resonance threshold" in out
    assert "i)" not in out.split("rates:")[1].splitlines()[0]


def test_exit_code_two_entries_snap_onto_one_threshold(tmp_path, capsys):
    doc = _doc_with_tt([-4.0000000000001, -3.9999999999999])
    code, out, err = _report(tmp_path, capsys, doc)
    assert code == 3
    assert out == ""
    assert "tt_einstein: two entries lie within epsilon 1e-12 of one threshold" in err
    # at a smaller epsilon neither entry moves and the document reports
    code, _, err = _report(tmp_path, capsys, doc, "--epsilon", "1e-14")
    assert code == 0, err


def test_e_plus_certificate_reads_the_listed_eigenvalue(tmp_path, capsys):
    # the E_plus minimum comes from kappa = 29.56, certified below 29.56
    doc = _doc_with_tt([29.56])
    doc["tt_einstein"]["complete_below"] = 29.56
    doc["scalar"]["entries"][1]["value"] = 100.0
    doc["scalar"]["complete_below"] = 100.0
    code, out, err = _report(tmp_path, capsys, doc)
    assert code == 0, err
    # -2 + sqrt(4 + 29.56) = 3.793099343184095502743839661243071346009...
    # for the double 29.56, rounded once
    assert "CS order = ~3.7930993431840956" in out


@pytest.mark.parametrize("sign", ["", "-"])
def test_tiny_kappa_weights_are_signed_exactly(tmp_path, capsys, sign):
    # kappa = +-10^-30 at n = 6: xi_plus(kappa) = -2 + sqrt(4 + kappa) is
    # about +-2.5e-31; the sign is read exactly, and the view is the double
    # nearest to the exact value, not the cancelled -2.0 + fl(sqrt(4 + kappa))
    kappa = f"{sign}1/1{'0' * 30}"
    code, out, err = _report(tmp_path, capsys, _doc_with_tt([kappa, "12"]))
    assert code == 0, err
    rates = out.split("rates:")[1].splitlines()[0]
    if sign:
        # -xi_plus(kappa) is the positive window element, the E_minus minimum
        assert "xi_plus = 2 (witness 2 from Scalar-lambda-direct)" in rates
        assert "xi_minus = ~2.5000000000000002e-31 (witness ~-2.5000000000000002e-31, part window)" in rates
        assert "AC order = ~2.5000000000000002e-31" in out and "CS order = 2" in out
    else:
        # xi_plus(kappa) > 0 is the E_plus minimum, not lambda's xi_plus = 2
        assert "xi_plus = ~2.5000000000000002e-31 (witness ~2.5000000000000002e-31 from TT-kappa)" in rates
        assert "CS order = ~2.5000000000000002e-31" in out and "CS order = 2" not in out


@pytest.mark.parametrize("sign", ["", "-"])
def test_tiny_kappa_roots_are_listed_in_exact_order(tmp_path, capsys, sign):
    # kappa = +-10^-30 at n = 6: xi_minus(kappa) = -2 - sqrt(4 + kappa) is
    # -4 -+ 2.5e-31, whose view -4.0 ties with the exact -4 roots; the exact
    # value orders the tie, and the family only orders equal values
    kappa = f"{sign}1/1{'0' * 30}"
    code, out, err = _report(tmp_path, capsys, _doc_with_tt([kappa, "12"]))
    assert code == 0, err
    table = out.split("E_L (all indicial roots)")[1].split("\n\n")[0].splitlines()[1:]
    fours = [line.split()[:2] for line in table if line.split()[0] in ("-4", "~-4")]
    exact = [["-4", "Scalar-lambda2-plus"], ["-4", "Special-zero"]]
    tiny = [["~-4", "TT-kappa"]]
    assert fours == (exact + tiny if sign else tiny + exact)


def _n1000_document(kappa):
    # the float kappa is far above epsilon but below half an ulp of
    # (n-2)^2/4 = 249001, so a double add would absorb it
    return {
        "dim_cone": 1000,
        "name": "n = 1000",
        "scalar": {
            "entries": [{"value": 0, "multiplicity": 1}, {"value": 2000, "multiplicity": None}],
            "complete_below": 2000,
            "mode": "exact",
        },
        "coclosed_one_form": {
            "entries": [{"value": 1000, "multiplicity": None}],
            "complete_below": 1000,
            "mode": "exact",
        },
        "tt_einstein": {
            "entries": [{"value": kappa, "multiplicity": None}, {"value": 5000.0, "multiplicity": None}],
            "complete_below": 10**6,
            "mode": "exact",
        },
        "ends": [{"kind": "AC"}, {"kind": "CS"}],
    }


def test_a_float_kappa_below_half_an_ulp_of_the_discriminant_keeps_its_rate(tmp_path, capsys):
    # xi_plus(2e-12) = -499 + sqrt(249001 + 2e-12), the double 2e-12 read as
    # its exact binary rational, is 2.004008016032064083925097324840141398879e-15
    code, out, err = _report(tmp_path, capsys, _n1000_document(2e-12))
    assert code == 0, err
    rates = out.split("rates:")[1].splitlines()[0]
    assert "xi_plus = ~2.0040080160320639e-15 (witness ~2.0040080160320639e-15 from TT-kappa)" in rates
    assert "CS order = ~2.0040080160320639e-15" in out and "CS order = 2" not in out
    # its window element -xi_plus(-2e-12) is the E_minus minimum
    code, out, err = _report(tmp_path, capsys, _n1000_document(-2e-12))
    assert code == 0, err
    rates = out.split("rates:")[1].splitlines()[0]
    assert "xi_minus = ~2.0040080160320639e-15 (witness ~-2.0040080160320639e-15, part window)" in rates
    assert "AC order = ~2.0040080160320639e-15" in out and "CS order = 2" in out


def test_partial_report_policy(tmp_path, capsys):
    # E_plus needs the TT list below 12, certified only below 1: the rates
    # line degrades to a warning, an end verdict that needs E_plus aborts
    doc = _doc_with_tt(["-1", "30"])
    doc["tt_einstein"]["complete_below"] = "1"
    doc["ends"] = [{"kind": "AC"}]
    code, out, err = _report(tmp_path, capsys, doc)
    assert code == 0, err
    assert "rates: unavailable (tt_einstein list certified below 1" in out
    assert "AC order = ~0.2679491924311227" in out  # the window branch 2 - sqrt(3)
    doc["ends"] = [{"kind": "CS"}]
    code, out, err = _report(tmp_path, capsys, doc)
    assert code == 2
    assert out == ""
    assert "insufficient spectrum: tt_einstein list certified below 1" in err


def _python(script):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)


def test_report_process_does_not_import_the_verifier():
    proc = _python(
        "import sys, conifold_spectra.cli as cli; "
        "cli.main(['report', '--builtin', 'sphere', '--n', '4', '--format', 'csv']); "
        "sys.exit('conifold_spectra.flatcone' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr


_STDLIB_HEAVY = ["dataclasses", "inspect"]


@pytest.mark.parametrize(
    "script, unwanted",
    [
        ("import conifold_spectra.cli", _STDLIB_HEAVY),
        ("import conifold_spectra.flatcone", _STDLIB_HEAVY),
        (
            "import conifold_spectra.cli as cli; cli.main(['report', '--builtin', 'sphere'])",
            _STDLIB_HEAVY + ["conifold_spectra.flatcone"],
        ),
    ],
    ids=["import-cli", "import-flatcone", "report"],
)
def test_cold_start_loads_no_dataclasses(script, unwanted):
    # dataclasses pulls in inspect, ast, dis and tokenize, and each dataclass
    # execs its generated methods at import; a report loads no verifier either
    proc = _python(f"import sys; {script}; sys.exit([m for m in {unwanted!r} if m in sys.modules] or None)")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--builtin", "sphere", "--n", "6", "--format", "json"],
        ["plot-data", "--n", "6"],
        ["verify", "all"],
    ],
    ids=["report", "plot-data", "verify-all"],
)
def test_cli_process_does_not_import_mpmath(argv):
    proc = _python(
        "import sys, conifold_spectra.cli as cli; "
        f"code = cli.main({argv!r}); "
        "sys.exit(code or 'mpmath' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr


def test_plot_data_rows(capsys):
    code, out, _ = run_cli(
        capsys, "plot-data", "--n", "4", "--nu-min", "-2", "--nu-max", "0",
        "--step", "1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "nu,re_xi_plus,re_xi_minus,im_xi_plus"
    assert lines[1] == "-2,-1,-1,1"
    assert lines[2] == "-1,-1,-1,0"
    assert lines[3] == "0,0,-2,0"


def test_plot_data_critical_point_merge(capsys):
    # at the critical value both real parts agree
    code, out, _ = run_cli(
        capsys, "plot-data", "--n", "6", "--nu-min", "-4", "--nu-max", "-4",
        "--step", "1/2",
    )
    assert code == 0
    assert out.strip().splitlines()[1] == "-4,-2,-2,0"


def test_plot_data_fractional_step(capsys):
    code, out, _ = run_cli(
        capsys, "plot-data", "--n", "4", "--nu-min=-5/4", "--nu-max=-3/4",
        "--step", "1/4",
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert rows[0].startswith("-1.25,")
    assert rows[1] == "-1,-1,-1,0"
    assert rows[2] == "-0.75,-0.5,-1.5,0"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "6", "--nu-min=1e400", "--nu-max", "1e400"], "--nu-min: exact number out of range"),
        (["--n", "6", "--nu-min=1/0"], "--nu-min: bad number '1/0'"),
        (["--n", "6", "--nu-max", "abc"], "--nu-max: bad number 'abc'"),
        (["--n", "6", "--step", "1/0"], "--step: bad number '1/0'"),
        (["--n", "2"], "--n must be at least 3 and below 2**500, got 2"),
        (["--n", str(2**500), "--nu-min=0", "--nu-max", "0"], "--n must be at least 3 and below 2**500"),
    ],
    ids=["overflow", "zero-division", "not-a-number", "step", "n-too-small", "n-too-large"],
)
def test_plot_data_rejects_bad_arguments(capsys, argv, message):
    code, out, err = run_cli(capsys, "plot-data", *argv)
    assert code == 3
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", str(2**40)],
        ["--n", "6", "--step", "1e-300"],
        ["--n", "6", "--nu-min=0", "--nu-max", "1", "--step", "1/1000000"],
    ],
    ids=["large-n", "tiny-float-step", "one-row-too-many"],
)
def test_plot_data_rejects_sweeps_beyond_the_row_bound(capsys, argv):
    code, out, err = run_cli(capsys, "plot-data", *argv)
    assert code == 3
    assert out == ""
    assert f"at most {MAX_PLOT_ROWS} rows" in err


def test_plot_data_row_bound_is_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_PLOT_ROWS", 5)
    sweep = ["plot-data", "--n", "6", "--nu-min=0", "--nu-max", "1", "--step"]
    code, out, _ = run_cli(capsys, *sweep, "1/4")
    assert code == 0
    assert len(out.splitlines()) == 1 + 5
    code, out, err = run_cli(capsys, *sweep, "1/5")
    assert code == 3
    assert "at most 5 rows" in err


def test_plot_data_integer_sweep_of_exactly_the_row_bound(capsys, monkeypatch):
    # (10^18 - 1) / 10^12 lies just below 10^6, so this sweep prints exactly
    # 10^6 rows; a float division of the two ints rounds it to 10^6 and
    # refuses it.  The sweep stops at its first row.
    class Started(Exception):
        pass

    def first_row(n, nu):
        raise Started

    monkeypatch.setattr(cli, "xi_pair", first_row)
    step = 10**12
    sweep = ["plot-data", "--n", "6", "--nu-min=0", "--step", str(step), "--nu-max"]
    with pytest.raises(Started):
        main(sweep + [str(MAX_PLOT_ROWS * step - 1)])
    assert capsys.readouterr().out == "nu,re_xi_plus,re_xi_minus,im_xi_plus\n"
    code, out, err = run_cli(capsys, *sweep, str(MAX_PLOT_ROWS * step))
    assert code == 3
    assert out == ""
    assert f"at most {MAX_PLOT_ROWS} rows" in err


def test_verify_work_bound():
    # the estimate only: nothing near the bound is run here
    assert cli.verify_work(4, 3) == 4**3 * 27 + 3**5
    assert cli.verify_work(4, -1) == cli.verify_work(4, 3)
    for n, d in ((4, 3), (10, 6), (71, 3), (32, 6), (20, 10), (4, 24)):
        assert cli.verify_work(n, d) <= cli.MAX_VERIFY_WORK, (n, d)
    for n, d in ((128, 3), (72, 3), (4, 25), (2**500, 3), (4, 10**9)):
        assert cli.verify_work(n, d) > cli.MAX_VERIFY_WORK, (n, d)


@pytest.mark.parametrize(
    "argv",
    [
        ["flat", "--n", "128"],
        ["all", "--n", str(10**9)],
        ["flat", "--max-degree", "10000"],
        ["identities", "--n", "4", "--max-degree", str(2**64)],
    ],
)
def test_verify_refuses_work_beyond_the_bound(capsys, monkeypatch, argv):
    # refused before any suite runs
    monkeypatch.setattr(cli, "_verify_flat", None)
    monkeypatch.setattr(cli, "_verify_identities", None)
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 3
    assert out == ""
    assert f"must be at most {cli.MAX_VERIFY_WORK}" in err


def test_verify_subcommands_pass(capsys):
    for suite in ("ode", "identities", "cheeger-tian"):
        code, out, _ = run_cli(capsys, "verify", suite)
        assert code == 0, (suite, out)
    code, out, _ = run_cli(capsys, "verify", "flat", "--max-degree", "2")
    assert code == 0
    assert "case (vii)" in out


def test_verify_exits_1_when_a_case_fails(capsys, monkeypatch):
    # a failing case is counted and sets the exit code; no marker line is printed
    from conifold_spectra import flatcone
    from conifold_spectra.flatcone import BranchCheck, CaseReport

    def failing(case_id, n, degree):
        check = BranchCheck("+", False, "zero", "zero", "exactly-zero")
        return CaseReport(case_id, n, degree, (check,))

    monkeypatch.setattr(flatcone, "verify_case", failing)
    for suite in ("flat", "all"):
        code, out, _ = run_cli(capsys, "verify", suite, "--max-degree", "2")
        fails = out.count(" FAIL\n")
        assert code == 1
        assert fails > 0 and f"  failures: {fails}\n" in out
        assert not any(line.endswith("FAILED") for line in out.splitlines())


@pytest.mark.parametrize(
    "argv",
    [
        ["flat", "--n", "3"],
        ["flat", "--n", "1"],
        ["flat", "--n", "0"],
        ["identities", "--n", "3"],
        ["identities", "--n", "2"],
        ["all", "--n", "-4"],
    ],
)
def test_verify_rejects_n_below_4(capsys, argv):
    # box_L is undefined below n = 4, and every flat case is its eigentensor
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 3
    assert out == ""
    assert "--n must be at least 4" in err


@pytest.mark.parametrize("suite", ["flat", "ode", "identities", "cheeger-tian", "all"])
@pytest.mark.parametrize("degree", ["-1", "-7"])
def test_verify_rejects_a_negative_max_degree(capsys, monkeypatch, suite, degree):
    # a malformed argument, refused before any suite runs
    for name in ("_verify_flat", "_verify_ode", "_verify_identities", "_verify_cheeger_tian"):
        monkeypatch.setattr(cli, name, None)
    code, out, err = run_cli(capsys, "verify", suite, "--n", "4", "--max-degree", degree)
    assert code == 3
    assert out == ""
    assert f"--max-degree must be at least 0, got {degree}" in err


def test_verify_flat_honours_max_degree_for_case_i(capsys):
    code, out, _ = run_cli(capsys, "verify", "flat", "--max-degree", "4")
    assert code == 0
    runs = [line.split()[:4] for line in out.splitlines() if line.startswith("  case (i) ")]
    assert [run[3] for run in runs] == ["0", "2", "3", "4"]
    assert "case (vi) degree 4" in out


def test_console_entry_point_installed():
    import shutil

    exe = shutil.which("conifold-spectra")
    if exe is None:
        pytest.skip("entry point not on PATH in this environment")
    import subprocess

    proc = subprocess.run(
        [exe, "plot-data", "--n", "4", "--nu-min", "0", "--nu-max", "0", "--step", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "0,0,-2,0" in proc.stdout
