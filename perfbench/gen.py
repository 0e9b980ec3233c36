"""Seeded input generator for the three benchmark workloads.

Everything here is plain standard library.  The package under test never
sees the seed: it receives only the documents, command lines and call
arguments built below, so the same seed always yields byte-identical
inputs.

Why the workloads and sizes are what they are
---------------------------------------------
The seed changes *which* numbers, dimensions, formats and orders are used,
never *how much* work a pass holds: every size below is a constant.  That
keeps run-to-run spread across seeds down to machine noise, which is what
the end-to-end bounds in ``BENCHMARK.json`` are about.

* ``cli-mix`` is what a shell user waits for.  Interpreter start plus the
  import of ``conifold_spectra.cli`` is most of a builtin ``report``, so
  import-time work shows here and almost nowhere else.  Builtins run at the
  catalog size the CLI uses (count 8); the six ``--input`` documents are
  small (``CLI_DOC_SIZES``), sized per kind to cost what a builtin does, so
  that start-up, not analysis, dominates and the fourteen reports form one
  cluster around the median; four ``plot-data`` sweeps of ``PLOT_ROWS``
  rows exercise the branch functions alone and hold the tail percentile;
  ``verify all`` is the verifier as a user runs it; two of the twenty-two
  commands (about 10%) are documents that must be refused with exit 3
  (malformed) or exit 2 (too shallow).
* ``report-deep`` is the analysis chain on large links, in process.  Round
  spheres run at counts 16 and 64 (seeded dimension) and at the ROADMAP's
  ``sphere_link(6, count=512)``, which alone is about half of a pass.
  Generated documents (cone dimension 6, like that sphere) come in three
  further arithmetic kinds - exact with perfect-square discriminants (stays
  rational), exact with irrational discriminants (radical and mpmath path)
  and float input - four per kind (``DEEP_DOC_SIZES``, 8 to 39 entries per
  list), so a number-type change that helps one path and hurts another
  cannot hide.
* ``verify-exact`` is the flat-cone verifier: cases (i)-(viii) at n in
  {4, 6, 8} and degree <= 5, the structural identities, the R^4 record and
  the radial ODE grid.  The seed picks which coordinates the harmonic seed
  monomial uses; its shape (x_a^(d-1) * x_b) is fixed, and the verifier is
  equivariant under coordinate permutations, so the work is the same for
  every seed.  x_a is one of x1..x4, because the verifier's proportionality
  search only evaluates on points supported there (a defect the probe in
  ``probe.py`` keeps visible).
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Dict, List

# Entries per list of the cli-mix documents, per kind, sized so that each
# costs about what a builtin report does.
CLI_DOC_SIZES = {"square": 8, "irrational": 5, "float": 4}
PLOTS = 4
PLOT_ROWS = 1600
PLOT_STEP = Fraction(1, 64)
SPHERE_COUNTS = (16, 64, 512)
DOC_KINDS = ("square", "irrational", "float")
DEEP_DOC_DIM = 6
# Entries per list, per kind.  A float entry costs about twice a square one
# and an irrational one about 1.7 times, so each kind is sized to cost the
# same: one small document (about 0.25 s on a 2-core Xeon) and three large
# ones (about 0.62 s).  The nine large documents are a cluster of
# near-equal cost in the middle of the pass, where the median and the tail
# percentile fall, so neither jumps between kinds from seed to seed.
DEEP_DOC_SIZES = {
    "square": (17, 39, 39, 39),
    "irrational": (10, 23, 23, 23),
    "float": (8, 20, 20, 20),
}
VERIFY_DIMS = (4, 6, 8)
VERIFY_MAX_DEGREE = 5
CASE_IDS = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii")
IDENTITIES = (
    "identity_b_dstar",
    "identity_delta_star_radial",
    "identity_trace_commutes",
    "identity_case_harmonics",
)


# ---------------------------------------------------------------------------
# spectrum documents
# ---------------------------------------------------------------------------


def _eta(n: int, x: Fraction) -> Fraction:
    return x * (x + n - 2)


def _is_square_disc(n: int, nu: Fraction) -> bool:
    disc = abs(Fraction((n - 2) ** 2, 4) + nu)
    num, den = disc.numerator, disc.denominator
    return math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den


def _entries(values, mults) -> List[Dict]:
    return [{"value": v, "multiplicity": m} for v, m in zip(values, mults)]


def _multiplicities(rng: random.Random, count: int, first_one: bool) -> List:
    out = [rng.choice([None, rng.randint(1, 60)]) for _ in range(count)]
    if first_one:
        out[0] = 1
    return out


def _square_lists(rng: random.Random, n: int, size: int):
    """Rational eigenvalues nu = x(x+n-2), so every discriminant is a square."""
    half = Fraction(n - 2, 2)
    steps = (Fraction(1, 2), Fraction(1), Fraction(3, 2))
    xs = [Fraction(rng.choice((2, 3)), 2)]
    while len(xs) < size - 1:
        xs.append(xs[-1] + rng.choice(steps))
    lam = [Fraction(0)] + [_eta(n, x) for x in xs]

    killing = rng.random() < 0.5
    ys = [Fraction(1) if killing else Fraction(3, 2)]
    while len(ys) < size:
        ys.append(ys[-1] + rng.choice(steps))
    mu = [_eta(n, y) - 1 for y in ys]

    negatives = [_eta(n, -half * Fraction(rng.randint(1, 7), 8)) for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.25:
        negatives.append(-half * half - Fraction(rng.randint(1, 9), rng.choice((1, 2, 4))) ** 2)
    negatives = sorted(set(negatives))
    zs = [Fraction(rng.choice((1, 2, 3)), 2)]
    while len(zs) < size - len(negatives):
        zs.append(zs[-1] + rng.choice(steps))
    kappa = negatives + [_eta(n, z) for z in zs]
    return lam, mu, kappa, killing


def _irrational_lists(rng: random.Random, n: int, size: int):
    """Integer eigenvalues whose discriminants are never perfect squares."""

    def walk(start: int, count: int, offset: int) -> List[Fraction]:
        out: List[Fraction] = []
        v = start
        while len(out) < count:
            if not _is_square_disc(n, Fraction(v + offset)):
                out.append(Fraction(v))
            v += rng.randint(1, 5)
        return out

    lam = [Fraction(0)] + walk(n - 1, size - 1, 0)
    killing = rng.random() < 0.5
    mu = walk(n - 1, size - 1 if killing else size, 1)
    if killing:
        mu = [Fraction(n - 2)] + mu
    floor = -((n - 2) ** 2) // 4
    negatives = sorted(
        {
            Fraction(v)
            for v in rng.sample(range(floor - 6, 0), 2)
            if not _is_square_disc(n, Fraction(v))
        }
    )[: rng.randint(0, 2)]
    kappa = negatives + walk(1, size - len(negatives), 0)
    return lam, mu, kappa, killing


def _float_lists(rng: random.Random, n: int, size: int):
    """Float eigenvalues kept at least 1e-3 away from every threshold."""

    def walk(start: float, count: int) -> List[float]:
        out = []
        v = start
        while len(out) < count:
            v += rng.uniform(0.25, 4.0)
            out.append(round(v, 6))
        return out

    lam = [0.0] + walk(n - 1 + 0.001, size - 1)
    killing = rng.random() < 0.5
    mu = ([float(n - 2)] if killing else []) + walk(n - 2 + 0.001, size - 1 if killing else size)
    crit = (n - 2) ** 2 / 4
    negatives = sorted(
        round(-rng.uniform(0.01, crit - 0.01), 6) for _ in range(rng.randint(0, 2))
    )
    kappa = negatives + walk(0.001, size - len(negatives))
    return lam, mu, kappa, killing


def spectrum_document(rng: random.Random, kind: str, n: int, size: int, name: str) -> Dict:
    """A valid spectrum document whose rates are always certified.

    ``size`` entries per list; every list is certified complete below its
    last entry, which covers both rate minima.
    """
    lists = {"square": _square_lists, "irrational": _irrational_lists, "float": _float_lists}
    lam, mu, kappa, killing = lists[kind](rng, n, size)
    # "p/q" strings are exact; bare JSON numbers take the float path.
    text = float if kind == "float" else str

    def block(values, first_one=False):
        return {
            "entries": _entries([text(v) for v in values], _multiplicities(rng, len(values), first_one)),
            "complete_below": text(values[-1]),
            "mode": "exact",
        }

    return {
        "dim_cone": n,
        "name": name,
        "scalar": block(lam, first_one=True),
        "coclosed_one_form": block(mu),
        "tt_einstein": block(kappa),
        "has_killing_fields": killing,
        "ends": [{"kind": "AC"}, {"kind": "CS"}],
    }


# Malformed documents: each must be refused at the boundary with exit 3.
def _malformed(rng: random.Random, good: Dict) -> str:
    doc = json.loads(json.dumps(good))
    how = rng.choice(("unknown-key", "bad-number", "not-increasing", "obata", "syntax"))
    if how == "unknown-key":
        doc["colour"] = "blue"
    elif how == "bad-number":
        doc["tt_einstein"]["entries"][0]["value"] = "1/0"
    elif how == "not-increasing":
        entries = doc["scalar"]["entries"]
        entries[1], entries[2] = entries[2], entries[1]
    elif how == "obata":
        doc["scalar"]["entries"][1]["value"] = str(Fraction(doc["dim_cone"] - 2))
    else:
        return json.dumps(doc)[:-7]
    return json.dumps(doc)


# Too shallow: the TT list is not certified below 0, so exit 2.
def _shallow(good: Dict) -> str:
    doc = json.loads(json.dumps(good))
    doc["tt_einstein"]["complete_below"] = "-1"
    doc["tt_einstein"]["entries"] = []
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# workload plans
# ---------------------------------------------------------------------------


def cli_mix_plan(seed: int) -> List[Dict]:
    """Twenty-two CLI invocations in seeded order.

    Each item has ``argv`` (after ``-m conifold_spectra.cli``), ``files``
    (name -> text to write before the run), ``expect_exit`` and ``check``
    (what the oracle compares).
    """
    rng = random.Random(f"cli-mix/{seed}")
    formats = ["table", "json", "csv"]
    rng.shuffle(formats)
    fmt = iter(formats * 8)
    ops: List[Dict] = []
    for n in range(4, 11):
        ops.append(
            {
                "argv": ["report", "--builtin", "sphere", "--n", str(n), "--format", next(fmt)],
                "expect_exit": 0,
                "check": {"kind": "report", "builtin": "sphere", "n": n},
            }
        )
    qn = rng.randint(4, 10)
    ops.append(
        {
            "argv": ["report", "--builtin", "sphere-quotient", "--n", str(qn), "--format", next(fmt)],
            "expect_exit": 0,
            "check": {"kind": "report", "builtin": "sphere-quotient", "n": qn},
        }
    )
    ops.append(
        {
            "argv": ["report", "--builtin", "product-einstein-10", "--format", next(fmt)],
            "expect_exit": 0,
            "check": {"kind": "report", "builtin": "product-einstein-10", "n": 10},
        }
    )
    for i, kind in enumerate(("square", "square", "irrational", "irrational", "float", "float")):
        n = rng.randint(5, 8)
        doc = spectrum_document(rng, kind, n, CLI_DOC_SIZES[kind], f"cli {kind} link {i}")
        fname = f"doc{i}.json"
        ops.append(
            {
                "argv": ["report", "--input", fname, "--format", next(fmt)],
                "files": {fname: json.dumps(doc)},
                "expect_exit": 0,
                "check": {"kind": "report", "document": doc},
            }
        )
    for i in range(PLOTS):
        n = rng.randint(4, 10)
        crit = Fraction(-((n - 2) ** 2), 4)
        nu_min = crit - Fraction(rng.randint(0, 40), 4) - Fraction(rng.randint(0, 15), 16)
        nu_max = nu_min + PLOT_STEP * (PLOT_ROWS - 1)
        ops.append(
            {
                "argv": [
                    "plot-data",
                    "--n",
                    str(n),
                    f"--nu-min={nu_min}",
                    f"--nu-max={nu_max}",
                    f"--step={PLOT_STEP}",
                ],
                "expect_exit": 0,
                "check": {"kind": "plot", "n": n, "nu_min": str(nu_min), "step": str(PLOT_STEP), "rows": PLOT_ROWS},
            }
        )
    ops.append({"argv": ["verify", "all"], "expect_exit": 0, "check": {"kind": "verify-all"}})
    base = spectrum_document(rng, "square", rng.randint(5, 8), CLI_DOC_SIZES["square"], "cli refused link")
    ops.append(
        {
            "argv": ["report", "--input", "bad.json"],
            "files": {"bad.json": _malformed(rng, base)},
            "expect_exit": 3,
            "check": {"kind": "refused"},
        }
    )
    ops.append(
        {
            "argv": ["report", "--input", "shallow.json"],
            "files": {"shallow.json": _shallow(base)},
            "expect_exit": 2,
            "check": {"kind": "refused"},
        }
    )
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["id"] = i
        op.setdefault("files", {})
    return ops


def report_deep_plan(seed: int) -> List[Dict]:
    """Large links in seeded order: sphere catalogs plus generated documents.

    Documents are kept as JSON text, so ``json.loads`` is part of each
    operation, as it is for a user loading a file.
    """
    rng = random.Random(f"report-deep/{seed}")
    ops: List[Dict] = []
    for count in SPHERE_COUNTS:
        n = 6 if count == 512 else rng.randint(4, 10)
        ops.append({"kind": "sphere", "n": n, "count": count})
    for kind in DOC_KINDS:
        for size in DEEP_DOC_SIZES[kind]:
            doc = spectrum_document(rng, kind, DEEP_DOC_DIM, size, f"deep {kind} link ({size} per list)")
            ops.append({"kind": "document", "doc_kind": kind, "size": size, "text": json.dumps(doc)})
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


def report_deep_warmup() -> List[Dict]:
    """One small link of each arithmetic kind, run before timing starts."""
    rng = random.Random("report-deep/warm-up")
    ops: List[Dict] = [{"kind": "sphere", "n": 5, "count": 8}]
    for kind in DOC_KINDS:
        doc = spectrum_document(rng, kind, 6, 8, f"warm-up {kind} link")
        ops.append({"kind": "document", "doc_kind": kind, "size": 8, "text": json.dumps(doc)})
    return ops


def monomial_index(n: int, d: int, a: int, b: int) -> int:
    """Position of x_a^(d-1) * x_b in the degree-d monomial enumeration.

    The verifier enumerates monomials as combinations_with_replacement of
    the coordinates (its documented deterministic order).
    """
    target = [0] * n
    target[a] += d - 1
    target[b] += 1
    for i, combo in enumerate(combinations_with_replacement(range(n), d)):
        alpha = [0] * n
        for j in combo:
            alpha[j] += 1
        if alpha == target:
            return i
    raise AssertionError("monomial not found")


def verify_exact_plan(seed: int) -> List[Dict]:
    """Every flat-cone check the verifier offers at n in {4, 6, 8}, degree <= 5."""
    rng = random.Random(f"verify-exact/{seed}")
    ops: List[Dict] = []
    for n in VERIFY_DIMS:
        for case_id in CASE_IDS:
            if case_id in ("vii", "viii"):
                degrees = [2]
            elif case_id == "i":
                degrees = list(range(0, VERIFY_MAX_DEGREE + 1))
            else:
                degrees = list(range(1, VERIFY_MAX_DEGREE + 1))
            for d in degrees:
                if d >= 2:
                    # x_a is one of x1..x4: with both factors beyond x4,
                    # case (v) at degree 4 fails on a defect the known-defect
                    # probe reports (``flat-proportionality-off-axis``).
                    a = rng.randrange(4)
                    b = rng.choice([i for i in range(n) if i != a])
                    harmonic_seed = monomial_index(n, d, a, b)
                elif d == 1:
                    harmonic_seed = rng.randrange(n)
                else:
                    harmonic_seed = rng.randrange(2)
                ops.append({"kind": "case", "case": case_id, "n": n, "degree": d, "seed": harmonic_seed})
        for name in IDENTITIES:
            ops.append({"kind": "identity", "name": name, "n": n})
    ops.append({"kind": "cheeger-tian"})
    ops.append({"kind": "ode-grid"})
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops
