"""Span recorder and outside-in layer wrappers.

Spans are recorded from the benchmark's own files: ``install`` replaces each
layer's public functions with a timing wrapper *on every name a caller looks
up*.  When a module did ``from .core import xi_pair``, the caller reads
``indicial.xi_pair``, so that binding is wrapped too; a function is found by
identity in every loaded ``conifold_spectra`` module.  Nothing in the
package is edited, and ``uninstall`` puts every original back.

A span is ``(name, start, end, parent, op, status)``: ``parent`` is the
index of the enclosing span (-1 for none), ``op`` the benchmark operation it
belongs to and ``status`` the exception type name that left it, if any.
Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its children; calls are strictly nested on
one thread, so the children never overlap.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

PACKAGE = "conifold_spectra"

# layer -> [(defining module, attribute)]; "Class.method" wraps a method.
TARGETS = {
    "links": [
        ("links", name)
        for name in (
            "load_spectrum",
            "builtin_link",
            "sphere_link",
            "sphere_quotient_link",
            "product_einstein_example",
        )
    ],
    "core": [("core", name) for name in ("xi_pair", "eta", "dual_weight")],
    "indicial": [
        ("indicial", name)
        for name in (
            "box1_spectrum",
            "boxL_spectrum",
            "indicial_set_full",
            "indicial_set_bianchi",
            "indicial_set_essential",
        )
    ],
    "rates": [
        ("rates", name)
        for name in (
            "e_plus_set",
            "e_minus_set",
            "xi_rates",
            "resonance_analysis",
            "is_resonance_dominated",
            "linear_stability",
            "end_order",
            "adm_mass_verdict",
        )
    ],
    "report": [("report", name) for name in ("build_report", "render_json", "render_text", "render_csv")],
    "flatcone": [
        ("flatcone.cases", "verify_case"),
        ("flatcone.cases", "build_case_tensor"),
        ("flatcone.harmonics", "harmonic_polynomial"),
        ("flatcone.harmonics", "rotational_form"),
        ("flatcone.expr", "laplacian"),
        ("flatcone.expr", "bianchi_op"),
        ("flatcone.expr", "proportionality"),
        ("flatcone.expr", "FieldExpr.is_zero"),
        ("flatcone.cases", "identity_b_dstar"),
        ("flatcone.cases", "identity_delta_star_radial"),
        ("flatcone.cases", "identity_trace_commutes"),
        ("flatcone.cases", "identity_case_harmonics"),
        ("flatcone.cases", "cheeger_tian_example"),
        ("flatcone.ode", "ode_residual"),
        ("flatcone.ode", "default_grid"),
    ],
}

# Per-layer metric -> span names whose self time it sums.
SELF_TIME = {
    "links.ingest_s": [f"links.{a}" for _m, a in TARGETS["links"]],
    "indicial.tangential_s": ["indicial.box1_spectrum", "indicial.boxL_spectrum"],
    "indicial.sets_s": [
        "indicial.indicial_set_full",
        "indicial.indicial_set_bianchi",
        "indicial.indicial_set_essential",
    ],
    "rates.self_s": [f"rates.{a}" for _m, a in TARGETS["rates"]],
    "core.branch_s": ["core.xi_pair", "core.eta", "core.dual_weight"],
    "report.assemble_self_s": ["report.build_report"],
    "report.render_json_s": ["report.render_json"],
    "report.render_text_s": ["report.render_text"],
    "report.render_csv_s": ["report.render_csv"],
    "flatcone.construct_s": [
        "flatcone.verify_case",
        "flatcone.build_case_tensor",
        "flatcone.harmonic_polynomial",
        "flatcone.rotational_form",
    ],
    "flatcone.laplacian_s": ["flatcone.laplacian"],
    "flatcone.bianchi_s": ["flatcone.bianchi_op"],
    "flatcone.zero_test_s": ["flatcone.is_zero"],
    "flatcone.proportionality_s": ["flatcone.proportionality"],
    "flatcone.ode_s": ["flatcone.ode_residual", "flatcone.default_grid"],
    "flatcone.identities_s": [
        "flatcone.identity_b_dstar",
        "flatcone.identity_delta_star_radial",
        "flatcone.identity_trace_commutes",
        "flatcone.identity_case_harmonics",
        "flatcone.cheeger_tian_example",
    ],
}

# Per-layer metric -> span names whose calls it counts.
CALLS = {
    "indicial.boxL_calls": ["indicial.boxL_spectrum"],
    "indicial.full_calls": ["indicial.indicial_set_full"],
    "rates.e_set_calls": ["rates.e_plus_set", "rates.e_minus_set"],
    "core.xi_pair_calls": ["core.xi_pair"],
    "core.eta_calls": ["core.eta"],
    "core.dual_weight_calls": ["core.dual_weight"],
    "flatcone.zero_test_calls": ["flatcone.is_zero"],
}

# Counters filled from results by the wrappers (exact, like the call counts).
RESULT_COUNTS = (
    "indicial.roots",
    "core.inexact_values",
    "report.output_bytes",
    "flatcone.terms_total",
    "flatcone.terms_max",
)

EXACT_COUNTERS = (
    tuple(CALLS)
    + RESULT_COUNTS
    + ("links.rejected", "rates.insufficient")
)


def _count_roots(counts, result):
    counts["indicial.roots"] += len(result)


def _count_terms(counts, result):
    sizes = [len(poly.terms) for poly in result.comps.values()]
    counts["flatcone.terms_total"] += sum(sizes)
    counts["flatcone.terms_max"] = max([counts["flatcone.terms_max"]] + sizes)


def _count_text(counts, result):
    counts["core.inexact_values"] += result.count("~")
    _count_bytes(counts, result)


def _count_bytes(counts, result):
    counts["report.output_bytes"] += len(result.encode("utf-8"))


RESULT_HOOKS = {
    "indicial.indicial_set_full": _count_roots,
    "indicial.indicial_set_bianchi": _count_roots,
    "indicial.indicial_set_essential": _count_roots,
    "flatcone.laplacian": _count_terms,
    "flatcone.bianchi_op": _count_terms,
    "report.render_text": _count_text,
    "report.render_json": _count_bytes,
    "report.render_csv": _count_bytes,
}


class Recorder:
    """Spans and result counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: List[Optional[tuple]] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = [-1]
        self.op = -1
        self._undo: List[Callable[[], None]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = RESULT_HOOKS.get(name)
        recorder = self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            status = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                status = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, recorder.op, status)
            if hook is not None:
                hook(recorder.counts, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextmanager
    def span(self, name: str, op: int):
        """A span opened by the benchmark itself, e.g. one operation."""
        self.op = op
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(index)
        status = None
        start = time.perf_counter()
        try:
            yield index
        except BaseException as exc:
            status = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, op, status)

    def absorb(self, data: Dict, parent: int) -> None:
        """Add the spans and counts a traced child process wrote."""
        offset = len(self.spans)
        for name, start, end, up, _op, status in data["spans"]:
            self.spans.append((name, start, end, parent if up < 0 else up + offset, self.op, status))
        for key, value in data["counts"].items():
            if key == "flatcone.terms_max":
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value

    def install(self) -> None:
        """Wrap every binding of every target in the loaded package modules."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for layer, targets in TARGETS.items():
            for module_name, attr in targets:
                home = sys.modules.get(f"{PACKAGE}.{module_name}")
                if home is None:
                    continue
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self.wrap(f"{layer}.{meth}", original))
                    self._undo.append(lambda c=cls, k=meth, f=original: setattr(c, k, f))
                    continue
                original = getattr(home, attr)
                wrapper = self.wrap(f"{layer}.{attr}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            self._undo.append(lambda m=module, k=key, f=original: setattr(m, k, f))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def dump(self) -> Dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def self_times(spans) -> List[float]:
    children = [0.0] * len(spans)
    for name, start, end, parent, _op, _status in spans:
        if parent >= 0:
            children[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, children)]


def summarize(recorder: Recorder) -> Dict[str, float]:
    """Per-layer metrics of one traced pass."""
    spans = recorder.spans
    own = self_times(spans)
    by_name_time: Dict[str, float] = defaultdict(float)
    by_name_calls: Dict[str, int] = defaultdict(int)
    for span, t in zip(spans, own):
        by_name_time[span[0]] += t
        by_name_calls[span[0]] += 1
    out: Dict[str, float] = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(by_name_time[n] for n in names)
    for metric, names in CALLS.items():
        out[metric] = sum(by_name_calls[n] for n in names)
    for metric in RESULT_COUNTS:
        out[metric] = recorder.counts.get(metric, 0)
    out["links.rejected"] = sum(
        1 for s in spans if s[0] == "links.load_spectrum" and s[5] is not None
    )
    out["rates.insufficient"] = sum(
        1
        for s in spans
        if s[0].startswith("rates.")
        and s[5] == "InsufficientSpectrum"
        and (s[3] < 0 or not spans[s[3]][0].startswith("rates."))
    )
    return out
