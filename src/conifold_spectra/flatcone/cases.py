"""Exact verification of the gauge case analysis on the flat cone.

Each case pairs a radially homogeneous tensor in the kernel of the
(componentwise) Lichnerowicz Laplacian with its dual-weight companion and
checks, in exact arithmetic:

  * both companions are componentwise harmonic,
  * the gauge-compatible branch satisfies B h = 0 exactly,
  * the incompatible branch has B h exactly proportional to the predicted
    profile, with the predicted rational coefficient.

All constructions are global polynomial-times-r-power fields: the scalar
eigenfunction of eigenvalue d(d+n-2) is realized by a degree-d harmonic
polynomial H (so the growing harmonic extension is H itself and the
decaying one is r^{2-n-2d} H), and the coclosed 1-form eigendata by the
rotational polynomial forms.  A pass requires exact zeros; there is no
tolerance anywhere in this module.

Case labels follow the gauge proposition: (i) TT tensors, (ii)/(iii) the
1-form family, (iv)/(v) the doubly shifted scalar family, (vi) the direct
scalar family with its trace combination, (vii) the metric itself and
(viii) the Hessian of the Green kernel r^{2-n}.  Each case is one row of
``_CASES``.  Its builder lists the case's branches from one generator, as
(label, tensor, reference field) triples with the gauge-compatible branch
first; a reference field marks a branch whose B h must be proportional to
it.  ``verify_case``, ``build_case_tensor`` and ``identity_case_harmonics``
read those triples through one path, and ``flat_schedule`` reads the row's
degrees.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, List, NamedTuple, Optional, Tuple

from ..errors import UnsupportedCase
from .expr import (
    FieldExpr,
    PolyR,
    bianchi_op,
    divergence,
    euclidean_metric,
    gradient,
    laplacian,
    proportionality,
    radial_form,
    sym_gradient,
    sym_product,
    trace,
)
from .harmonics import harmonic_polynomial, rotational_form


class BranchCheck(NamedTuple):
    branch: str
    harmonic: bool
    bianchi_expected: str           # "zero" | "nonzero"
    bianchi_observed: str           # "zero" | "nonzero"
    residual: str                   # "exactly-zero" | "nonzero-expression"
    proportional: Optional[bool] = None
    coefficient: Optional[Fraction] = None
    expected_coefficient: Optional[Fraction] = None
    reference: Optional[str] = None

    @property
    def ok(self) -> bool:
        if not self.harmonic:
            return False
        if self.bianchi_observed != self.bianchi_expected:
            return False
        if self.bianchi_expected == "nonzero":
            return bool(self.proportional) and (
                self.expected_coefficient is None
                or self.coefficient == self.expected_coefficient
            )
        return True


class CaseReport(NamedTuple):
    case_id: str
    n: int
    degree: Optional[int]
    branches: Tuple[BranchCheck, ...]
    degenerate: bool = False
    notes: Tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(b.ok for b in self.branches)


def _branch(
    label: str,
    h: FieldExpr,
    reference_field: Optional[FieldExpr],
    expected_coeff: Optional[Fraction],
    reference: Optional[str],
) -> BranchCheck:
    """Check one branch; a reference field marks it gauge-incompatible."""
    harmonic = laplacian(h).is_zero()
    residual = bianchi_op(h)
    zero = residual.is_zero()
    observed = "zero" if zero else "nonzero"
    shape = "exactly-zero" if zero else "nonzero-expression"
    if reference_field is None:
        return BranchCheck(label, harmonic, "zero", observed, shape)
    coeff = None if zero else proportionality(residual, reference_field)
    return BranchCheck(
        branch=label,
        harmonic=harmonic,
        bianchi_expected="nonzero",
        bianchi_observed=observed,
        residual=shape,
        proportional=None if zero else coeff is not None,
        coefficient=coeff,
        expected_coefficient=expected_coeff,
        reference=reference,
    )


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

# (label, tensor, reference field) of each branch, gauge-compatible first
Branches = List[Tuple[str, FieldExpr, Optional[FieldExpr]]]


def _hessian(f: FieldExpr) -> FieldExpr:
    return sym_gradient(gradient(f))


def _trace_free(h: FieldExpr, w: Optional[PolyR] = None) -> FieldExpr:
    """The trace-free part of h, plus w*g when w is given."""
    n = h.n
    shift = trace(h).component() * Fraction(-1, n)
    return h + euclidean_metric(n).scale_poly(shift if w is None else shift + w)


def _is_tt(h: FieldExpr) -> bool:
    return trace(h).is_zero() and divergence(h).is_zero()


def _tt(n: int, d: int, seed: int) -> Branches:
    """(i): flat-realizable members of the gauged kernel only.

    A general link TT-tensor has no polynomial model, so there is no
    decaying branch; degrees 0 and 1 give a constant trace-free tensor.
    The round sphere's do: see
    ``tests/test_flat_cases.py::test_sphere_tt_kappa_roots_match_a_polynomial_model``,
    kept out of the case rows so that ``verify all`` prints the same.
    """
    if d >= 2:
        return [("+", _hessian(harmonic_polynomial(n, d, seed)), None)]
    out = FieldExpr(n, 2)
    if seed % 2 == 0:
        out.set_component((0, 0), PolyR.constant(n, 1))
        out.set_component((1, 1), PolyR.constant(n, -1))
    else:
        out.set_component((0, 1), PolyR.constant(n, 1))
    return [("+", out, None)]


def _one_form_growing(n: int, k: int, seed: int) -> Branches:
    """(ii): delta^* omega, its dual r^(4-n-2k) delta^* omega."""
    omega = rotational_form(n, k)
    plus = sym_gradient(omega)
    return [("+", plus, None), ("-", plus.mul_r_power(4 - n - 2 * k), omega.mul_r_power(2 - n - 2 * k))]


def _one_form_decaying(n: int, k: int, seed: int) -> Branches:
    """(iii): delta^*(r^(2-n-2k) omega), its dual times r^(n+2k)."""
    omega = rotational_form(n, k)
    minus = sym_gradient(omega.mul_r_power(2 - n - 2 * k))
    return [("-", minus, None), ("+", minus.mul_r_power(n + 2 * k), omega)]


def _shifted_growing(n: int, d: int, seed: int) -> Branches:
    """(iv): Hess H, its dual r^(6-n-2d) Hess H."""
    dh = gradient(harmonic_polynomial(n, d, seed))
    plus = sym_gradient(dh)
    return [("+", plus, None), ("-", plus.mul_r_power(6 - n - 2 * d), dh.mul_r_power(4 - n - 2 * d))]


def _shifted_decaying(n: int, d: int, seed: int) -> Branches:
    """(v): Hess(r^(2-n-2d) H), its dual times r^(n+2d+2)."""
    dh_minus = gradient(harmonic_polynomial(n, d, seed).mul_r_power(2 - n - 2 * d))
    minus = sym_gradient(dh_minus)
    return [("-", minus, None), ("+", minus.mul_r_power(n + 2 * d + 2), dh_minus.mul_r_power(n + 2 * d))]


def _direct_scalar(n: int, d: int, seed: int) -> Branches:
    """(vi): both branches of the direct scalar family, and the growing one
    without its conformal part.

    With xi_+ = d and xi_- = 2-n-d, each branch is the trace-free
    symmetrized derivative of the 1-form carrying the dual-weight
    continuation plus the conformal part w*g, where
    n*w = (xi_+ - xi_- + 2) xi_- H on the growing branch (resp. swapped)
    restores the gauge.  Both branches are gauge-compatible; without w the
    growing one is not, and its B h is a multiple of dH.
    """
    h_poly = harmonic_polynomial(n, d, seed)
    h_minus = h_poly.mul_r_power(2 - n - 2 * d)
    dh = gradient(h_poly)
    plus = _trace_free(
        sym_gradient(gradient(h_minus).mul_r_power(n + 2 * d)),
        h_poly.component() * Fraction((n + 2 * d) * (2 - n - d), n),
    )
    minus = _trace_free(
        sym_gradient(dh.mul_r_power(4 - n - 2 * d)),
        h_minus.component() * Fraction((4 - n - 2 * d) * d, n),
    )
    return [("+", plus, None), ("-", minus, None), ("wrong-trace-combination", _trace_free(plus), dh)]


def _metric(n: int, d: int, seed: int) -> Branches:
    """(vii): g, its dual r^(2-n) g."""
    g = euclidean_metric(n)
    return [("+", g, None), ("-", g.mul_r_power(2 - n), radial_form(n).mul_r_power(-n))]


def _green_hessian(n: int, d: int, seed: int) -> Branches:
    """(viii): the Hessian of the Green kernel r^(2-n), its dual times r^(n+2)."""
    minus = _hessian(FieldExpr.scalar(PolyR.r_power(n, 2 - n)))
    return [("-", minus, None), ("+", minus.mul_r_power(n + 2), radial_form(n))]


class _Case(NamedTuple):
    """One gauge case: its branches and what a referenced branch must show."""

    build: Callable[[int, int, int], Branches]  # (n, degree, seed)
    expected: Optional[Callable[[int, int], Fraction]] = None  # B h / reference field
    reference: Optional[str] = None             # the reference field, as printed
    lowest: Optional[int] = 1                   # None: the degree is ignored
    repeats: Tuple[int, ...] = ()               # degrees that rebuild a lower one
    note: Optional[str] = None                  # note on every report
    not_tt: Optional[str] = None                # note, and a failed check, if the gauge tensor is not TT
    drop: Optional[str] = None                  # note if it vanishes at degree 1


_CASES = {
    "i": _Case(_tt, lowest=0, repeats=(1,), not_tt="flat instance failed the TT conditions"),
    "ii": _Case(
        _one_form_growing,
        lambda n, k: Fraction((n + 2 * k - 4) * (k - 1), 2),
        "r^(2-n-2k) * omega",
        not_tt="growing branch unexpectedly failed the TT conditions",
        drop="Killing form: sym_gradient vanishes, plus branch drops",
    ),
    "iii": _Case(
        _one_form_decaying,
        lambda n, k: Fraction((n + 2 * k) * (n + k - 1), 2),
        "r^0 * omega",
    ),
    "iv": _Case(
        _shifted_growing,
        lambda n, d: Fraction((n + 2 * d - 6) * (d - 1)),
        "r^(4-n-2d) * dH",
        drop=(
            "degree-1 eigenfunction: the Hessian vanishes, matching "
            "the drop at the Obata equality"
        ),
    ),
    "v": _Case(
        _shifted_decaying,
        lambda n, d: Fraction((n + 2 * d + 2) * (n + d - 1)),
        "r^(n+2d) * d(r^(2-n-2d) H)",
    ),
    "vi": _Case(
        _direct_scalar,
        lambda n, d: Fraction((n - 2) * (n + 2 * d) * (n + d - 2), 2 * n),
        "dH",
        note=(
            "gauge requires n*w = (xi_+ - xi_- + 2) xi_- v on the growing "
            "branch (sign verified exactly; the quoted constant has a "
            "2 -> -2 slip)"
        ),
    ),
    "vii": _Case(
        _metric,
        lambda n, d: Fraction(-((n - 2) ** 2), 2),
        "r^(1-n) dr",
        lowest=None,
    ),
    "viii": _Case(
        _green_hessian,
        lambda n, d: Fraction(-((n + 2) * (n - 1) * (n - 2))),
        "r dr",
        lowest=None,
        not_tt="Green-kernel Hessian unexpectedly failed the TT conditions",
    ),
}

CASE_IDS = tuple(_CASES)


def _row(case_id: str, degree: int) -> _Case:
    """The table row of ``case_id``; a degree below its lowest is refused."""
    if case_id not in _CASES:
        raise UnsupportedCase(f"unknown case {case_id!r}")
    row = _CASES[case_id]
    if row.lowest is not None and degree < row.lowest:
        raise UnsupportedCase(f"case ({case_id}) starts at degree {row.lowest}, got {degree}")
    return row


def flat_schedule(max_degree: int) -> List[Tuple[str, int]]:
    """The (case, degree) runs of the flat suite up to ``max_degree``.

    A case without a degree runs once; a degree that rebuilds a lower
    degree's tensor is skipped.
    """
    runs: List[Tuple[str, int]] = []
    for case_id, row in _CASES.items():
        degrees = [0] if row.lowest is None else range(row.lowest, max_degree + 1)
        runs.extend((case_id, d) for d in degrees if d not in row.repeats)
    return runs


def build_case_tensor(case_id: str, branch: str, n: int, degree: int = 2, seed: int = 0) -> FieldExpr:
    """The flat-model tensor for one case and branch.

    ``degree`` is the polynomial degree of the generating object (the
    harmonic polynomial for scalar families, the 1-form degree k for the
    1-form families, the seed selector for case (i)).  Cases (vii) and
    (viii) ignore it.
    """
    row = _row(case_id, degree)
    if branch not in ("+", "-"):
        raise ValueError("branch must be '+' or '-'")
    for label, tensor, _ in row.build(n, degree, seed):
        if label == branch:
            return tensor
    raise UnsupportedCase(
        "no polynomial flat model for the decaying branch of a "
        "generic TT input"
    )


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def verify_case(case_id: str, n: int, degree: int = 2, seed: int = 0) -> CaseReport:
    """Run the exact checks for one case at one degree."""
    row = _row(case_id, degree)
    branches = row.build(n, degree, seed)
    label, gauge, _ = branches[0]
    if row.drop is not None and gauge.is_zero():
        # the eigentensor vanishes and the eigenvalue drops; there is
        # nothing to check on either branch
        if degree != 1:
            raise AssertionError(f"case ({case_id}): unexpected vanishing at degree {degree}")
        return CaseReport(case_id, n, degree, (), degenerate=True, notes=(row.drop,))
    checks = tuple(
        _branch(b, h, ref, None if ref is None else row.expected(n, degree), row.reference)
        for b, h, ref in branches
    )
    notes = () if row.note is None else (row.note,)
    if row.not_tt is not None and not _is_tt(gauge):
        checks += (BranchCheck(label, False, "zero", "nonzero", "nonzero-expression"),)
        notes += (row.not_tt,)
    degree_or_none = None if row.lowest is None else degree
    return CaseReport(case_id, n, degree_or_none, checks, notes=notes)


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------


class IdentityReport(NamedTuple):
    name: str
    cases: int
    failures: int
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _one_form_family(n: int, count: int) -> List[FieldExpr]:
    """Deterministic 1-forms with polynomial times r-power components."""
    out: List[FieldExpr] = []
    r_powers = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2 - n), Fraction(-3)]
    alphas = [
        (0,) * n,
        (1,) + (0,) * (n - 1),
        (0, 1) + (0,) * (n - 2),
        (2, 0) + (0,) * (n - 2),
        (1, 1) + (0,) * (n - 2),
        (0, 0, 2) + (0,) * (n - 3),
    ]
    i = 0
    while len(out) < count:
        alpha = alphas[i % len(alphas)]
        s = r_powers[(i // len(alphas)) % len(r_powers)]
        comp = i % n
        w = FieldExpr(n, 1)
        w.set_component((comp,), PolyR.monomial(n, alpha, coeff=Fraction(2 + i, 3), r_power=s))
        if i % 3 == 0:
            w.set_component(((comp + 1) % n,), PolyR.monomial(n, alphas[(i + 2) % len(alphas)]))
        out.append(w)
        i += 1
    return out


def identity_b_dstar(n: int) -> IdentityReport:
    """2 * B(delta^* w) == Delta_1 w, exactly, on a generated family.

    With the 1/2-normalized delta^* the correct flat identity carries the
    factor 2 (equivalently B o delta^* = Delta_1 / 2); the verified constant
    is recorded because quoted versions of the identity drop it.
    """
    failures = 0
    forms = _one_form_family(n, 20)
    for w in forms:
        lhs = bianchi_op(sym_gradient(w)).scale(2)
        rhs = laplacian(w)
        if not (lhs - rhs).is_zero():
            failures += 1
    return IdentityReport(
        "2 * B(delta* w) = Delta_1 w",
        len(forms),
        failures,
        detail="verified constant 1/2 for B o delta* relative to Delta_1",
    )


def identity_delta_star_radial(n: int) -> IdentityReport:
    """delta^*(r dr) equals the euclidean metric."""
    lhs = sym_gradient(radial_form(n))
    ok = (lhs - euclidean_metric(n)).is_zero()
    return IdentityReport("delta*(r dr) = g", 1, 0 if ok else 1)


def identity_trace_commutes(n: int) -> IdentityReport:
    """trace o laplacian == laplacian o trace on symmetric 2-tensors."""
    failures = 0
    forms = _one_form_family(n, 12)
    for w in forms:
        h = sym_gradient(w) + sym_product(w, radial_form(n))
        lhs = trace(laplacian(h))
        rhs = laplacian(trace(h))
        if not (lhs - rhs).is_zero():
            failures += 1
    return IdentityReport("tr(Delta h) = Delta(tr h)", len(forms), failures)


def identity_case_harmonics(n: int) -> IdentityReport:
    """The four gauge-compatible scalar-family tensors built from each H_d,
    d = 1, 2, 3, are harmonic: those of cases (iv) and (v) and both
    branches of (vi)."""
    tensors = [
        h
        for d in (1, 2, 3)
        for case_id in ("iv", "v", "vi")
        for _label, h, reference_field in _CASES[case_id].build(n, d, 0)
        if reference_field is None
    ]
    failures = sum(not laplacian(t).is_zero() for t in tensors)
    return IdentityReport("scalar-family tensors are componentwise harmonic", len(tensors), failures)


# ---------------------------------------------------------------------------
# the dimension-gap example
# ---------------------------------------------------------------------------


class CheegerTianRecord(NamedTuple):
    harmonic_function: bool
    tensor_componentwise_harmonic: bool
    homogeneity_degree: Optional[Fraction]
    tracefree_part_not_divergence_free: bool
    printed_variant_harmonic: bool
    note: str

    @property
    def passed(self) -> bool:
        return (
            self.harmonic_function
            and self.tensor_componentwise_harmonic
            and self.homogeneity_degree == Fraction(-3)
            and self.tracefree_part_not_divergence_free
        )


def cheeger_tian_example(n: int = 4) -> CheegerTianRecord:
    """The invariant harmonic tensor h = r^{-4} Hess(g) on R^4.

    g = Re((x1 + i x2)^3) = x1^3 - 3 x1 x2^2 is harmonic and cube-root
    invariant; its Hessian has linear components, so h = r^{-4} Hess(g) is
    componentwise harmonic of homogeneity -3, yet even its trace-free part
    fails to be divergence-free.  The often-printed variant with the
    coefficient -4 instead of -3 is not harmonic, which the record reports.
    """
    if n != 4:
        raise UnsupportedCase("the dimension-gap example lives on R^4")
    x1 = PolyR.coordinate(n, 0)
    x2 = PolyR.coordinate(n, 1)
    g = FieldExpr.scalar(x1 * x1 * x1 - Fraction(3) * (x1 * x2 * x2))
    printed = FieldExpr.scalar(x1 * x1 * x1 - Fraction(4) * (x1 * x2 * x2))
    h = _hessian(g).mul_r_power(Fraction(-4))
    return CheegerTianRecord(
        harmonic_function=laplacian(g).is_zero(),
        tensor_componentwise_harmonic=laplacian(h).is_zero(),
        homogeneity_degree=h.homogeneity(),
        tracefree_part_not_divergence_free=not divergence(_trace_free(h)).is_zero(),
        printed_variant_harmonic=laplacian(printed).is_zero(),
        note=(
            "harmonicity holds for the coefficient -3 (the real part of the "
            "holomorphic cube); the printed -4 variant is recorded as "
            "non-harmonic"
        ),
    )
