"""Report assembly and rendering (text table, JSON, CSV).

Rendering conventions, fixed for reproducibility:

  * values of exact provenance render as "p/q" strings in JSON (and bare
    in text); values from a float input or irrational values render as
    JSON numbers and, in tables and messages alike, as ``str(Scalar)``:
    "~" and the 17 significant digits of the double nearest the exact
    value, so every numeric entry carries its provenance;
  * CSV numeric cells use 17 significant digits via float conversion;
  * output is byte-deterministic for a given link and option set.
"""

from __future__ import annotations

import json
from itertools import islice
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Tuple

from .core import DEFAULT_EPSILON, Scalar, Weight
from .errors import EmptyRateSet, InsufficientSpectrum
from .indicial import Box1Family, BoxLFamily, DropReason, IndicialRoot, TangentialEigenvalue
from .links import LinkSpectrum
from .rates import EndOrderReport, LinkAnalysis, Rates


def fmt_weight(w: Weight) -> str:
    body = str(w.real)
    if not w.imag.is_zero():
        sign, im = ("-", -w.imag) if w.imag < 0 else ("+", w.imag)
        body = f"({body}{sign}{im}i)"
    if w.log_factor:
        body += "*log(r)"
    return body


def scalar_json(s: Scalar):
    if s.exact:
        return str(s.value)
    return float(s.value)


def weight_json(w: Weight):
    return {"re": scalar_json(w.real), "im": scalar_json(w.imag), "log": w.log_factor}


def csv_number(s: Scalar) -> str:
    return format(float(s), ".17g")


class ReportOptions(NamedTuple):
    epsilon: float = DEFAULT_EPSILON
    max_roots: Optional[int] = None


class Report(NamedTuple):
    """A view of one ``LinkAnalysis``, plus what only the report derives.

    ``link`` is the link as given (the analysis holds it snapped); the
    indicial sets and the resonance are read from the analysis.
    """

    link: LinkSpectrum
    options: ReportOptions
    analysis: LinkAnalysis
    rates: Optional[Rates]
    rate_error: Optional[str]
    end_orders: List[EndOrderReport]
    warnings: List[str]
    notes: List[str]

    roots_full = property(attrgetter("analysis.full"))
    roots_bianchi = property(attrgetter("analysis.bianchi"))
    roots_essential = property(attrgetter("analysis.essential"))
    resonance = property(attrgetter("analysis.resonance"))


# a link's spectrum lists: (attribute and JSON key, symbol in the text report)
_LISTS = (("scalar", "lambda"), ("coclosed_one_form", "mu"), ("tt_einstein", "kappa"))

_STANDING_NOTES = [
    "essential set emitted without the zero root; the variant adjoining 0 "
    "never changes the rates (both minima run over positive reals)",
    "E_plus filters by Re > 0 uniformly, equivalent to requiring kappa > 0 "
    "on the TT branch",
]


def build_report(link: LinkSpectrum, options: Optional[ReportOptions] = None) -> Report:
    opts = options or ReportOptions()
    analysis = LinkAnalysis(link, opts.epsilon)
    # Stages are read in chain order: the first one that raises decides the error.
    for stage in ("box1", "boxL", "full", "bianchi", "essential", "resonance", "stability", "adm"):
        getattr(analysis, stage)
    ends = [analysis.end_order(kind) for kind in link.ends]
    rates: Optional[Rates] = None
    rate_error: Optional[str] = None
    try:
        rates = analysis.rates
    except (InsufficientSpectrum, EmptyRateSet) as exc:
        rate_error = str(exc)

    warnings: List[str] = []
    if link.any_upper_bound_mode():
        warnings.append(
            "upper-bound-set inputs: computed orders are lower bounds, "
            "reported with '>='"
        )
    for entry in analysis.boxL:
        if entry.note and "possibly vanishing" in entry.note:
            warnings.append(entry.note)
    for value in analysis.resonance.coercions:
        warnings.append(
            f"float-path value {value} within epsilon of the "
            "resonance threshold was coerced to exactly resonant"
        )
    warnings.extend(analysis.resonance.tangential_warnings)
    warnings.extend(analysis.stability.warnings)
    if rate_error:
        warnings.append(f"rates unavailable: {rate_error}")
    for label, _symbol in _LISTS:
        warnings.append(
            f"completeness margin: {label} certified below "
            f"{getattr(link, label).complete_below}"
        )
    return Report(link, opts, analysis, rates, rate_error, ends, warnings, list(_STANDING_NOTES))


def _root_sets(report: Report, entry) -> List[Tuple[int, list]]:
    """(size, [entry(root) for each shown root]) for E_L, E_B and E, in order.

    One pass over E_L makes each root's entry once and lists it again in E_B
    and E by the flags that ``LinkAnalysis.bianchi`` and ``.essential``
    select on; ``max_roots`` cuts each set on its own.
    """
    limit = report.options.max_roots
    analysis = report.analysis
    full, bianchi, essential = shown = ([], [], [])
    # E lies in E_B and E_L, in their order: once E holds ``limit`` rows, all three do
    for root in analysis.full if limit != 0 else ():
        row = entry(root)
        full.append(row)
        if root.bianchi_compatible:
            bianchi.append(row)
            if not root.lie_derivative:
                essential.append(row)
                if len(essential) == limit:
                    break
    sets = (analysis.full, analysis.bianchi, analysis.essential)
    return [(len(roots), rows[:limit]) for roots, rows in zip(sets, shown)]


def end_order_line(r: EndOrderReport) -> str:
    if r.weak:
        return f"{r.end_kind.value}: weakly of order {r.order} (log)"
    symbol = ">=" if r.bound_only else "="
    return f"{r.end_kind.value} order {symbol} {r.order}"


# Row templates read these tables, not ``Enum.value`` (a descriptor call
# per read); a large render reads a family about 15,000 times.
_FAMILY_TEXT = {family: family.value for family in (*Box1Family, *BoxLFamily)}
_FAMILY_CELL = {family: f"{text:<22}" for family, text in _FAMILY_TEXT.items()}
_FAMILY_JSON = {family: encode_basestring_ascii(text) for family, text in _FAMILY_TEXT.items()}
_DROP_STATUS = {reason: "dropped:" + reason.value for reason in DropReason}
_DROP_JSON = {reason: encode_basestring_ascii(reason.value) for reason in DropReason}
# a root's text flags, keyed by (bianchi_compatible, lie_derivative)
_ROOT_FLAGS = {
    (True, True): "[gauge]",
    (True, False): "[gauge,essential]",
    (False, True): "[-]",
    (False, False): "[essential]",
}


def _root_row(root: IndicialRoot) -> str:
    return (
        f"  {fmt_weight(root.weight):>14}  {_FAMILY_CELL[root.family]} "
        f"i={root.source_index:<3} branch={root.branch} shift={root.shift:+d}  "
        f"{_ROOT_FLAGS[root.bianchi_compatible, root.lie_derivative]}"
    )


def _tangential_row(entry: TangentialEigenvalue) -> str:
    status = _DROP_STATUS[entry.drop_reason] if entry.dropped else "kept"
    return f"  {entry.value!s:>10}  {_FAMILY_CELL[entry.family]} i={entry.source_index:<3} {status}"


def render_text(report: Report) -> str:
    link = report.link
    opts = report.options
    analysis = report.analysis
    lines: List[str] = []
    lines.append(f"link: {link.name} (n={link.n})")
    modes = ", ".join(f"{symbol}={getattr(link, label).mode.value}" for label, symbol in _LISTS)
    lines.append(f"modes: {modes}")
    lines.append(
        f"killing fields: {'yes' if link.has_killing_fields else 'no'}; "
        f"round sphere: {'yes' if link.is_round_sphere else 'no'}"
    )
    lines.append(f"epsilon (float-path thresholds): {opts.epsilon:g}")
    lines.append("")
    for name, table in (("1-form", analysis.box1), ("Lichnerowicz", analysis.boxL)):
        lines.append(f"tangential spectrum of the {name} operator:")
        lines.extend(_tangential_row(entry) for entry in table)
    for title, (count, rows) in zip(
        ("E_L (all indicial roots)", "E_B (Bianchi-gauge roots)", "E (essential roots)"),
        _root_sets(report, _root_row),
    ):
        lines.append("")
        lines.append(f"{title}: {count} roots" + ("" if opts.max_roots is None else f" (showing {len(rows)})"))
        lines.extend(rows)
    lines.append("")
    if report.rates is not None:
        xp, xm = report.rates.xi_plus, report.rates.xi_minus
        lines.append(
            f"rates: xi_plus = {xp.value} "
            f"(witness {fmt_weight(xp.root.weight)} from {xp.root.family.value})"
            f", xi_minus = {xm.value} "
            f"(witness {fmt_weight(xm.root.weight) if xm.root else 'resonance'}"
            f", part {xm.part})"
        )
    else:
        lines.append(f"rates: unavailable ({report.rate_error})")
    lines.append(
        "resonance-dominated: " + ("yes" if report.resonance.dominated else "no")
    )
    if analysis.stability.stable:
        lines.append("linear stability: stable")
    else:
        lines.append(
            f"linear stability: unstable (witness kappa = "
            f"{analysis.stability.witness})"
        )
    lines.append(f"ADM mass: {analysis.adm.verdict} ({analysis.adm.reason})")
    for r in report.end_orders:
        lines.append(end_order_line(r))
    if report.warnings:
        lines.append("")
        lines.append("warnings:")
        for w in report.warnings:
            lines.append(f"  - {w}")
    if report.notes:
        lines.append("notes:")
        for nline in report.notes:
            lines.append(f"  - {nline}")
    return "\n".join(lines) + "\n"


def _tangential_json(entry: TangentialEigenvalue) -> Dict:
    out = {
        "value": scalar_json(entry.value),
        "family": entry.family.value,
        "index": entry.source_index,
        "source": scalar_json(entry.source_value),
        "dropped": entry.dropped,
    }
    if entry.drop_reason is not None:
        out["drop_reason"] = entry.drop_reason.value
    if entry.note:
        out["note"] = entry.note
    return out


def _root_json(root: IndicialRoot) -> Dict:
    return {
        "weight": weight_json(root.weight),
        "family": root.family.value,
        "index": root.source_index,
        "source": scalar_json(root.source_value),
        "branch": root.branch,
        "shift": root.shift,
        "tangential": scalar_json(root.tangential_value),
        "bianchi_compatible": root.bianchi_compatible,
        "lie_derivative": root.lie_derivative,
    }


def report_dict(report: Report) -> Dict:
    return _report_tree(report, _root_json, _tangential_json, _root_sets(report, _root_json))


def _report_tree(report: Report, root_entry, tangential_entry, sets) -> Dict:
    """The JSON schema of a report; each witness root is ``root_entry(root)``,
    each tangential entry ``tangential_entry(entry)``, and the indicial sets
    are ``sets``, as ``_root_sets`` gives them."""
    link = report.link
    analysis = report.analysis
    rates_block = None
    if report.rates is not None:
        rates_block = {
            "xi_plus": scalar_json(report.rates.xi_plus.value),
            "xi_plus_witness": root_entry(report.rates.xi_plus.root),
            "xi_minus": scalar_json(report.rates.xi_minus.value),
            "xi_minus_part": report.rates.xi_minus.part,
        }
        if report.rates.xi_minus.root is not None:
            rates_block["xi_minus_witness"] = root_entry(report.rates.xi_minus.root)
    ends = []
    for r in report.end_orders:
        witness: object
        if isinstance(r.witness, Weight):
            witness = weight_json(r.witness)
        elif hasattr(r.witness, "root") and r.witness.root is not None:
            witness = root_entry(r.witness.root)
        else:
            witness = None
        ends.append(
            {
                "end": r.end_kind.value,
                "order": scalar_json(r.order),
                "weak_log": r.weak,
                "bound_only": r.bound_only,
                "witness": witness,
                "statement": end_order_line(r),
            }
        )
    return {
        "format": "conifold-spectra-report/1",
        "conventions": {
            "exact_values": "rendered as p/q strings",
            "float_values": "rendered as JSON numbers",
            "epsilon": report.options.epsilon,
        },
        "link": {
            "name": link.name,
            "dim_cone": link.n,
            "has_killing_fields": link.has_killing_fields,
            "is_round_sphere": link.is_round_sphere,
            "modes": {label: getattr(link, label).mode.value for label, _symbol in _LISTS},
        },
        "tangential": {
            "one_form": [tangential_entry(e) for e in analysis.box1],
            "lichnerowicz": [tangential_entry(e) for e in analysis.boxL],
        },
        "indicial_sets": {
            key: {"count": count, "roots": rows}
            for key, (count, rows) in zip(("full", "bianchi", "essential"), sets)
        },
        "rates": rates_block,
        "rate_error": report.rate_error,
        "resonance_dominated": report.resonance.dominated,
        "linear_stability": {
            "stable": analysis.stability.stable,
            "witness": None
            if analysis.stability.witness is None
            else scalar_json(analysis.stability.witness),
            "boundary": [scalar_json(v) for v in analysis.stability.boundary],
        },
        "adm_mass": {"verdict": analysis.adm.verdict, "reason": analysis.adm.reason},
        "end_orders": ends,
        "warnings": report.warnings,
        "notes": report.notes,
    }


def render_json(report: Report) -> str:
    """``json.dumps(report_dict(report), indent=2)`` plus a newline, byte for byte.

    The stdlib encoder runs in pure Python when ``indent`` is set.  Here one
    writer appends the fragments of the text to one list, joined once.  The
    report tree keeps its ``IndicialRoot`` and ``TangentialEigenvalue``
    objects, each written from a row template, and each root of E_L is
    written once for all three sets (``_SetRows``).
    """
    sets = [(count, _SetRows(rows)) for count, rows in _root_sets(report, _set_row)]
    out: List[str] = []
    _json_text(_report_tree(report, _same, _same, sets), "\n", out)
    out.append("\n")
    return "".join(out)


def _same(value):
    return value


# the newline and indent of a root in the "roots" list of an indicial set
_SET_PAD = "\n" + " " * 8


class _SetRows(list):
    """An indicial set's roots as JSON text, each row led by "," and ``_SET_PAD``."""


def _set_row(root: IndicialRoot) -> str:
    return "," + _SET_PAD + _root_json_row(root, _SET_PAD)


def _json_text(value, pad: str, out: List[str]) -> None:
    """Append ``json.dumps(value, indent=2)`` for a value nested at ``pad``
    (newline plus indentation) to ``out``, as fragments."""
    inner = pad + "  "
    if isinstance(value, dict) and value:
        lead = "{" + inner
        for k, v in value.items():
            out.append(lead + encode_basestring_ascii(k) + ": ")
            _json_text(v, inner, out)
            lead = "," + inner
        out.append(pad + "}")
    elif isinstance(value, _SetRows) and value:  # rows written ahead at this indent
        out.append("[" + value[0][1:])
        out += islice(value, 1, None)
        out.append(pad + "]")
    elif isinstance(value, list) and value:
        sep = "," + inner
        out.append("[" + inner)
        for v in value:
            _json_text(v, inner, out)
            out.append(sep)
        out[-1] = pad + "]"
    elif isinstance(value, TangentialEigenvalue):
        out.append(_tangential_json_row(value, pad))
    elif isinstance(value, IndicialRoot):
        out.append(_root_json_row(value, pad))
    else:  # a leaf or an empty container: the stdlib writes it alike with or without indent
        out.append(json.dumps(value))


_BOOL_JSON = ("false", "true")


def _scalar_leaf(s: Scalar) -> str:
    """``json.dumps(scalar_json(s))``: an exact value's digits need no escaping, and a view is finite."""
    return f'"{s.value}"' if s.exact else float.__repr__(float(s.value))


def _tangential_json_row(entry: TangentialEigenvalue, pad: str) -> str:
    """``_json_text(_tangential_json(entry), pad, out)``'s text, without building the dict."""
    i = pad + "  "
    row = (
        f'{{{i}"value": {_scalar_leaf(entry.value)},'
        f'{i}"family": {_FAMILY_JSON[entry.family]},'
        f'{i}"index": {entry.source_index},'
        f'{i}"source": {_scalar_leaf(entry.source_value)},'
        f'{i}"dropped": {_BOOL_JSON[entry.dropped]}'
    )
    if entry.drop_reason is not None:
        row += f',{i}"drop_reason": {_DROP_JSON[entry.drop_reason]}'
    if entry.note:
        row += f',{i}"note": {encode_basestring_ascii(entry.note)}'
    return row + pad + "}"


def _root_json_row(root: IndicialRoot, pad: str) -> str:
    """``_json_text(_root_json(root), pad, out)``'s text, without building the dict."""
    i = pad + "  "
    w = i + "  "
    weight = root.weight
    return (
        f'{{{i}"weight": {{'
        f'{w}"re": {_scalar_leaf(weight.real)},'
        f'{w}"im": {_scalar_leaf(weight.imag)},'
        f'{w}"log": {_BOOL_JSON[weight.log_factor]}{i}}},'
        f'{i}"family": {_FAMILY_JSON[root.family]},'
        f'{i}"index": {root.source_index},'
        f'{i}"source": {_scalar_leaf(root.source_value)},'
        f'{i}"branch": {encode_basestring_ascii(root.branch)},'
        f'{i}"shift": {root.shift},'
        f'{i}"tangential": {_scalar_leaf(root.tangential_value)},'
        f'{i}"bianchi_compatible": {_BOOL_JSON[root.bianchi_compatible]},'
        f'{i}"lie_derivative": {_BOOL_JSON[root.lie_derivative]}{pad}}}'
    )


def render_csv(report: Report) -> str:
    rows = [("section", "key", "value")]
    rows.append(("link", "name", report.link.name))
    rows.append(("link", "dim_cone", str(report.link.n)))
    if report.rates is not None:
        rows.append(("rates", "xi_plus", csv_number(report.rates.xi_plus.value)))
        rows.append(("rates", "xi_minus", csv_number(report.rates.xi_minus.value)))
    rows.append(("verdict", "resonance_dominated", str(report.resonance.dominated)))
    rows.append(("verdict", "stable", str(report.analysis.stability.stable)))
    rows.append(("verdict", "adm_mass", report.analysis.adm.verdict))
    for r in report.end_orders:
        rows.append(("end", r.end_kind.value, end_order_line(r)))
    out = [",".join(_csv_escape(cell) for cell in row) for row in rows]
    for name, (_count, cells) in zip(("EL", "EB", "E"), _root_sets(report, _root_cell)):
        out.extend(f"{name},{i},{cell}" for i, cell in enumerate(cells))
    return "\n".join(out) + "\n"


def _root_cell(root: IndicialRoot) -> str:
    """A root's CSV cell, escaped."""
    return _csv_escape(
        f"{fmt_weight(root.weight)}|{_FAMILY_TEXT[root.family]}|{root.source_index}"
        f"|{root.branch}|{root.shift:+d}"
    )


def _csv_escape(cell: str) -> str:
    if "," in cell or '"' in cell or "\n" in cell or "\r" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell
