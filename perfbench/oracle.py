"""Independent correctness oracle; never imports the package under test.

Rates are recomputed from the spectra alone.  With h = (n-2)/2 and
s(nu) = sqrt(h^2 + nu):

* xi_plus  = min over nu in {kappa > 0} and {lambda > 0} of -h + s(nu);
* xi_minus = min over the candidates h + s(lambda) for lambda > 0 and, per
  kappa, h (kappa below the window [-h^2, 0)), h + s(kappa), plus h - s(kappa)
  inside the window.

A value is exact when its eigenvalue is exact and the discriminant is a
perfect square (``Fraction`` arithmetic), or when it is the constant h;
everything else is computed from scratch with mpmath at 40 digits and
compared with a relative tolerance of ``REL_TOL``.  Exactness itself is
checked too: the report renders exact values as ``p/q`` and float-path
values as numbers, so a value that silently left the exact path is a
failure.

Verifier results are checked against the gauge coefficients of the source
paper, restated here, and against the expected pass/degenerate pattern.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import mpmath

REL_TOL = 1e-12
DPS = 40

Value = Tuple[bool, object]          # (exact, Fraction or mpf)


# ---------------------------------------------------------------------------
# numbers
# ---------------------------------------------------------------------------


def parse_number(raw) -> Value:
    """A document number: "p/q" strings and JSON integers are exact."""
    if isinstance(raw, str):
        return True, Fraction(raw)
    if isinstance(raw, bool):
        raise ValueError("booleans are not numbers")
    if isinstance(raw, int):
        return True, Fraction(raw)
    return False, mpmath.mpf(raw)


def _frac_sqrt(value: Fraction) -> Optional[Fraction]:
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _mpf(v) -> "mpmath.mpf":
    if isinstance(v, Fraction):
        return mpmath.mpf(v.numerator) / v.denominator
    return mpmath.mpf(v)


def _sqrt_disc(n: int, nu: Value) -> Value:
    """sqrt(h^2 + nu) for a nonnegative discriminant."""
    exact, v = nu
    if exact:
        disc = Fraction((n - 2) ** 2, 4) + v
        root = _frac_sqrt(disc)
        if root is not None:
            return True, root
        return False, mpmath.sqrt(_mpf(disc))
    return False, mpmath.sqrt(mpmath.mpf((n - 2) ** 2) / 4 + v)


def _add(a: Value, b: Value, sign: int) -> Value:
    if a[0] and b[0]:
        return True, a[1] + sign * b[1]
    return False, _mpf(a[1]) + sign * _mpf(b[1])


def _positive(v: Value) -> bool:
    return v[1] > 0


def _negative(v: Value) -> bool:
    return v[1] < 0


# ---------------------------------------------------------------------------
# spectra and expected rates
# ---------------------------------------------------------------------------


class Spectrum:
    """The part of a link's data the rates depend on."""

    def __init__(self, n: int, lambdas, kappas, scalar_complete, tt_complete):
        self.n = n
        self.lambdas: List[Value] = list(lambdas)
        self.kappas: List[Value] = list(kappas)
        self.scalar_complete: Value = scalar_complete
        self.tt_complete: Value = tt_complete

    @staticmethod
    def from_document(doc: Dict) -> "Spectrum":
        def values(block):
            return [parse_number(e["value"]) for e in block["entries"]]

        return Spectrum(
            doc["dim_cone"],
            values(doc["scalar"]),
            values(doc["tt_einstein"]),
            parse_number(doc["scalar"]["complete_below"]),
            parse_number(doc["tt_einstein"]["complete_below"]),
        )

    @staticmethod
    def sphere(n: int, count: int, quotient: bool = False) -> "Spectrum":
        """Round S^(n-1): lambda_i = i(i+n-2), kappa_i = (i+1)(i+n-1).

        The space-form quotient drops lambda_1 = n-1 (Obata equality).
        """
        lam = [(True, Fraction(i * (i + n - 2))) for i in range(count + 1)]
        kap = [(True, Fraction((i + 1) * (i + n - 1))) for i in range(1, count + 1)]
        if quotient:
            lam = [v for v in lam if v[1] != n - 1]
        return Spectrum(n, lam, kap, lam[-1], kap[-1])

    @staticmethod
    def builtin(name: str, n: int) -> "Spectrum":
        """The CLI's catalog links, which use count 8."""
        if name == "product-einstein-10":
            ex = lambda k: (True, Fraction(k))  # noqa: E731
            return Spectrum(10, [ex(0), ex(9)], [ex(-16), ex(0)], ex(9), ex(1))
        return Spectrum.sphere(n, 8, quotient=name == "sphere-quotient")


def _ge(a: Value, b: Value) -> bool:
    if a[0] and b[0]:
        return a[1] >= b[1]
    return _mpf(a[1]) >= _mpf(b[1])


def expected_rates(spec: Spectrum) -> Optional[Dict[str, List[Value]]]:
    """Candidates attaining xi_plus and xi_minus, or None when uncertified."""
    n = spec.n
    half: Value = (True, Fraction(n - 2, 2))
    with mpmath.workdps(DPS):
        pos_lams = [v for v in spec.lambdas if _positive(v)]
        sources = [k for k in spec.kappas if _positive(k)] + pos_lams
        if not sources:
            return None
        bottom = min(_mpf(v[1]) for v in sources)
        if not (_mpf(spec.tt_complete[1]) >= bottom and _mpf(spec.scalar_complete[1]) >= bottom):
            return None
        plus = [_add(_sqrt_disc(n, nu), half, -1) for nu in sources]

        minus = [_add(half, _sqrt_disc(n, lam), +1) for lam in pos_lams]
        crit = (True, -half[1] * half[1])
        for kappa in spec.kappas:
            if not _ge(kappa, crit):
                minus.append(half)
                continue
            root = _sqrt_disc(n, kappa)
            minus.append(_add(half, root, +1))
            if _negative(kappa):
                minus.append(_add(half, root, -1))
        if not spec.kappas or not pos_lams:
            return None
        if _positive(spec.kappas[0]) and not _ge(spec.tt_complete, spec.kappas[0]):
            return None
        if not _ge(spec.scalar_complete, pos_lams[0]):
            return None
        return {"xi_plus": _attaining(plus), "xi_minus": _attaining(minus)}


def _attaining(cands: Sequence[Value]) -> List[Value]:
    low = min(_mpf(v[1]) for v in cands)
    return [v for v in cands if _close(_mpf(v[1]), low)]


def _close(a, b) -> bool:
    return abs(a - b) <= REL_TOL * max(1, abs(b))


def _match(label: str, shown_exact: bool, shown, expected: List[Value]) -> List[str]:
    """``shown`` is a Fraction when exact, else a float."""
    with mpmath.workdps(DPS):
        for exact, value in expected:
            if shown_exact and exact and shown == value:
                return []
            if not shown_exact and not exact and _close(mpmath.mpf(shown), _mpf(value)):
                return []
    want = ", ".join(("exact " if e else "~") + mpmath.nstr(_mpf(v), 20) for e, v in expected)
    kind = "exact" if shown_exact else "float"
    return [f"{label}: report shows {kind} {shown}, oracle expects {want}"]


# ---------------------------------------------------------------------------
# report outputs
# ---------------------------------------------------------------------------


def _rates_block(text: str):
    key = '\n  "rates": '
    at = text.find(key)
    if at < 0:
        raise ValueError("no rates block")
    block, _end = json.JSONDecoder().raw_decode(text, at + len(key))
    return block


def check_report(fmt: str, text: str, spec: Spectrum) -> List[str]:
    """Compare the rates shown in one rendered report with the oracle."""
    expected = expected_rates(spec)
    try:
        shown = _shown_rates(fmt, text)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"{fmt} output unreadable: {exc}"]
    if expected is None or shown is None:
        if expected is None and shown is None:
            return []
        return [f"{fmt}: rates shown {shown is not None}, oracle certifies {expected is not None}"]
    problems = []
    for key in ("xi_plus", "xi_minus"):
        exact, value = shown[key]
        if fmt == "csv":
            if not any(_close(mpmath.mpf(value), _mpf(v)) for _e, v in expected[key]):
                problems.append(f"csv {key} = {value} not within tolerance of the oracle")
            continue
        problems += _match(f"{fmt} {key}", exact, value, expected[key])
    return problems


_TEXT_RATES = re.compile(r"^rates: xi_plus = (\S+) .*, xi_minus = (\S+) ", re.M)


def _shown_rates(fmt: str, text: str):
    if fmt == "json":
        block = _rates_block(text)
        if block is None:
            return None
        return {k: _json_value(block[k]) for k in ("xi_plus", "xi_minus")}
    if fmt == "table":
        if "\nrates: unavailable" in text:
            return None
        m = _TEXT_RATES.search(text)
        if m is None:
            raise ValueError("no rates line")
        return {"xi_plus": _text_value(m.group(1)), "xi_minus": _text_value(m.group(2))}
    rows = dict(
        (line.split(",")[1], line.split(",")[2])
        for line in text.splitlines()
        if line.startswith("rates,")
    )
    if not rows:
        return None
    return {k: (False, float(rows[k])) for k in ("xi_plus", "xi_minus")}


def _json_value(v):
    if isinstance(v, str):
        return True, Fraction(v)
    return False, float(v)


def _text_value(v: str):
    if v.startswith("~"):
        return False, float(v[1:])
    return True, Fraction(v)


# ---------------------------------------------------------------------------
# plot-data
# ---------------------------------------------------------------------------


def check_plot(text: str, n: int, nu_min: Fraction, step: Fraction, rows: int) -> List[str]:
    """Every row: nu, Re xi_plus, Re xi_minus, Im xi_plus."""
    lines = text.splitlines()
    if not lines or lines[0] != "nu,re_xi_plus,re_xi_minus,im_xi_plus":
        return ["plot-data header missing"]
    if len(lines) - 1 != rows:
        return [f"plot-data has {len(lines) - 1} rows, expected {rows}"]
    half = Fraction(n - 2, 2)
    with mpmath.workdps(DPS):
        for i, line in enumerate(lines[1:]):
            nu = nu_min + i * step
            disc = half * half + nu
            if disc >= 0:
                root = _frac_sqrt(disc)
                s = _mpf(root) if root is not None else mpmath.sqrt(_mpf(disc))
                want = (_mpf(nu), -_mpf(half) + s, -_mpf(half) - s, mpmath.mpf(0))
            else:
                s = mpmath.sqrt(_mpf(-disc))
                want = (_mpf(nu), -_mpf(half), -_mpf(half), s)
            cells = line.split(",")
            if len(cells) != 4:
                return [f"plot-data row {i} malformed"]
            for cell, w in zip(cells, want):
                if not _close(mpmath.mpf(float(cell)), w):
                    return [f"plot-data row {i}: {cell} != {mpmath.nstr(w, 17)}"]
    return []


# ---------------------------------------------------------------------------
# the verifier
# ---------------------------------------------------------------------------

_FLAT_CASE_LINE = re.compile(r"^  case \((\w+)\) degree (\d+|None)\s+(\S+)$")
_DEGENERATE = {("ii", 1), ("iv", 1)}


def check_verify_all(text: str) -> List[str]:
    """``verify all``: every suite present, every check passing."""
    problems = []
    for header in (
        "radial ODE checks:",
        "flat-cone gauge cases on R^4:",
        "structural identities:",
        "dimension-gap example on R^4:",
    ):
        if header not in text:
            problems.append(f"verify all: missing section {header!r}")
    for count in re.findall(r"failures: (\d+)", text):
        if count != "0":
            problems.append(f"verify all: a suite reports {count} failures")
    if re.search(r"\bFAIL\b", text):
        problems.append("verify all: a check reports FAIL")
    cases = 0
    for line in text.splitlines():
        m = _FLAT_CASE_LINE.match(line)
        if m:
            cases += 1
            degenerate = (m.group(1), m.group(2)) in {(c, str(d)) for c, d in _DEGENERATE}
            want = "degenerate(pass)" if degenerate else "pass"
            if m.group(3) != want:
                problems.append(f"verify all: {line.strip()} (expected {want})")
    if cases != 20:
        problems.append(f"verify all: {cases} flat cases listed, expected 20")
    return problems


def expected_coefficient(case_id: str, n: int, d: int) -> Fraction:
    """Coefficient of B h against the reference profile on the dual branch."""
    if case_id == "ii":
        return Fraction((n + 2 * d - 4) * (d - 1), 2)
    if case_id == "iii":
        return Fraction((n + 2 * d) * (n + d - 1), 2)
    if case_id == "iv":
        return Fraction((n + 2 * d - 6) * (d - 1))
    if case_id == "v":
        return Fraction((n + 2 * d + 2) * (n + d - 1))
    if case_id == "vi":
        return Fraction((n - 2) * (n + 2 * d) * (n + d - 2), 2 * n)
    if case_id == "vii":
        return Fraction(-((n - 2) ** 2), 2)
    if case_id == "viii":
        return Fraction(-((n + 2) * (n - 1) * (n - 2)))
    raise ValueError(case_id)


_BRANCHES = {"i": 1, "ii": 2, "iii": 2, "iv": 2, "v": 2, "vi": 3, "vii": 2, "viii": 2}


def check_case(report, case_id: str, n: int, d: int) -> List[str]:
    label = f"case ({case_id}) n={n} degree {d}"
    degenerate = (case_id, d) in _DEGENERATE
    if bool(report.degenerate) != degenerate:
        return [f"{label}: degenerate={report.degenerate}, expected {degenerate}"]
    if degenerate:
        return [] if not report.branches else [f"{label}: degenerate case carries checks"]
    problems = []
    if len(report.branches) != _BRANCHES[case_id]:
        problems.append(f"{label}: {len(report.branches)} branch checks, expected {_BRANCHES[case_id]}")
    if not report.passed:
        problems.append(f"{label}: does not pass")
    for b in report.branches:
        if not b.harmonic:
            problems.append(f"{label} branch {b.branch}: not harmonic")
        if b.bianchi_observed != b.bianchi_expected:
            problems.append(f"{label} branch {b.branch}: Bianchi {b.bianchi_observed}")
        if b.bianchi_expected == "nonzero":
            want = expected_coefficient(case_id, n, d)
            if b.coefficient != want:
                problems.append(f"{label} branch {b.branch}: coefficient {b.coefficient}, expected {want}")
    return problems


_IDENTITY_CASES = {
    "identity_b_dstar": 20,
    "identity_delta_star_radial": 1,
    "identity_trace_commutes": 12,
    "identity_case_harmonics": 12,
}


def check_identity(report, name: str, n: int) -> List[str]:
    problems = []
    if report.failures != 0:
        problems.append(f"{name} n={n}: {report.failures} failures")
    if report.cases != _IDENTITY_CASES[name]:
        problems.append(f"{name} n={n}: {report.cases} cases, expected {_IDENTITY_CASES[name]}")
    return problems


def check_cheeger_tian(record) -> List[str]:
    problems = []
    if not (record.harmonic_function and record.tensor_componentwise_harmonic):
        problems.append("R^4 record: harmonicity fails")
    if record.homogeneity_degree != Fraction(-3):
        problems.append(f"R^4 record: homogeneity {record.homogeneity_degree}, expected -3")
    if not record.tracefree_part_not_divergence_free:
        problems.append("R^4 record: trace-free part reported divergence-free")
    if record.printed_variant_harmonic:
        problems.append("R^4 record: the printed -4 variant reported harmonic")
    return problems


def check_ode_grid(checks) -> List[str]:
    problems = []
    if len(checks) != 56:
        problems.append(f"ODE grid has {len(checks)} cases, expected 56")
    for c in checks:
        if not c.exact_zero or not c.passed:
            problems.append(f"ODE n={c.n} nu={c.nu} {c.branch}: residual not exactly zero")
        a = Fraction(c.exponent)
        if a * (a + c.n - 2) != Fraction(c.nu):
            problems.append(f"ODE n={c.n} nu={c.nu}: exponent {a} is not a root")
    return problems
