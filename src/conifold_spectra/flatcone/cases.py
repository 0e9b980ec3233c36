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
(viii) the Hessian of the Green kernel r^{2-n}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

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

CASE_IDS = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii")


@dataclass(frozen=True)
class BranchCheck:
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


@dataclass(frozen=True)
class CaseReport:
    case_id: str
    n: int
    degree: Optional[int]
    branches: Tuple[BranchCheck, ...]
    degenerate: bool = False
    notes: Tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(b.ok for b in self.branches)


def _gauge_branch(label: str, h: FieldExpr) -> BranchCheck:
    harmonic = laplacian(h).is_zero()
    residual = bianchi_op(h)
    zero = residual.is_zero()
    return BranchCheck(
        branch=label,
        harmonic=harmonic,
        bianchi_expected="zero",
        bianchi_observed="zero" if zero else "nonzero",
        residual="exactly-zero" if zero else "nonzero-expression",
    )


def _dual_branch(
    label: str,
    h: FieldExpr,
    reference_field: FieldExpr,
    expected_coeff: Fraction,
    reference: str,
) -> BranchCheck:
    harmonic = laplacian(h).is_zero()
    residual = bianchi_op(h)
    zero = residual.is_zero()
    coeff = None if zero else proportionality(residual, reference_field)
    return BranchCheck(
        branch=label,
        harmonic=harmonic,
        bianchi_expected="nonzero",
        bianchi_observed="zero" if zero else "nonzero",
        residual="exactly-zero" if zero else "nonzero-expression",
        proportional=None if zero else coeff is not None,
        coefficient=coeff,
        expected_coefficient=expected_coeff,
        reference=reference,
    )


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def _xi(n: int, d: int) -> Tuple[int, int]:
    """(xi_plus, xi_minus) of the scalar eigenvalue d(d+n-2): (d, 2-n-d)."""
    return d, 2 - n - d


def _hessian(f: FieldExpr) -> FieldExpr:
    return sym_gradient(gradient(f))


def _green_kernel(n: int) -> FieldExpr:
    return FieldExpr.scalar(PolyR.r_power(n, 2 - n))


def _minus_extension(n: int, h_poly: FieldExpr, d: int) -> FieldExpr:
    return h_poly.mul_r_power(Fraction(2 - n - 2 * d))


def _constant_traceless(n: int, seed: int) -> FieldExpr:
    out = FieldExpr(n, 2)
    if seed % 2 == 0:
        out.set_component((0, 0), PolyR.constant(n, 1))
        out.set_component((1, 1), PolyR.constant(n, -1))
    else:
        out.set_component((0, 1), PolyR.constant(n, 1))
    return out


def build_case_tensor(case_id: str, branch: str, n: int, degree: int = 2, seed: int = 0) -> FieldExpr:
    """The flat-model tensor for one case and branch.

    ``degree`` is the polynomial degree of the generating object (the
    harmonic polynomial for scalar families, the 1-form degree k for the
    1-form families, the seed selector for case (i)).  Cases (vii) and
    (viii) ignore it.
    """
    if case_id not in CASE_IDS:
        raise UnsupportedCase(f"unknown case {case_id!r}")
    if branch not in ("+", "-"):
        raise ValueError("branch must be '+' or '-'")
    d = degree

    if case_id == "i":
        # Flat-realizable members of the gauged kernel only; a general link
        # TT-tensor has no polynomial model.
        if branch == "-":
            raise UnsupportedCase(
                "no polynomial flat model for the decaying branch of a "
                "generic TT input"
            )
        if d <= 1:
            return _constant_traceless(n, seed)
        return _hessian(harmonic_polynomial(n, d, seed))

    if case_id in ("ii", "iii"):
        k = d
        omega = rotational_form(n, k)
        if case_id == "ii":
            plus = sym_gradient(omega)
            if branch == "+":
                return plus
            return plus.mul_r_power(Fraction(4 - n - 2 * k))
        w_minus = omega.mul_r_power(Fraction(2 - n - 2 * k))
        minus = sym_gradient(w_minus)
        if branch == "-":
            return minus
        return minus.mul_r_power(Fraction(n + 2 * k))

    if case_id in ("iv", "v"):
        h_poly = harmonic_polynomial(n, d, seed)
        if case_id == "iv":
            plus = _hessian(h_poly)
            if branch == "+":
                return plus
            return plus.mul_r_power(Fraction(6 - n - 2 * d))
        minus = _hessian(_minus_extension(n, h_poly, d))
        if branch == "-":
            return minus
        return minus.mul_r_power(Fraction(n + 2 * d + 2))

    if case_id == "vi":
        return _case_vi_tensor(n, d, branch, seed, pure_scalar_part=False)

    if case_id == "vii":
        g = euclidean_metric(n)
        if branch == "+":
            return g
        return g.mul_r_power(Fraction(2 - n))

    # case viii
    minus = _hessian(_green_kernel(n))
    if branch == "-":
        return minus
    return minus.mul_r_power(Fraction(n + 2))


def _case_vi_tensor(
    n: int, d: int, branch: str, seed: int, pure_scalar_part: bool
) -> FieldExpr:
    """The direct scalar family member with its gauge trace combination.

    The trace-free part is the trace-free symmetrized derivative of the
    harmonic 1-form carrying the dual-weight continuation; the conformal
    part w*g with n*w = (xi_+ - xi_- + 2) xi_-(resp. swapped) restores the
    gauge.  ``pure_scalar_part`` drops the conformal part (the incompatible
    combination used for the nonzero check).
    """
    xp, xm = _xi(n, d)
    h_poly = harmonic_polynomial(n, d, seed)
    g = euclidean_metric(n)
    if branch == "+":
        carrier = gradient(_minus_extension(n, h_poly, d)).mul_r_power(
            Fraction(xp - xm + 2)
        )
        w_scalar = h_poly.component() * Fraction((xp - xm + 2) * xm, n)
    else:
        carrier = gradient(h_poly).mul_r_power(Fraction(xm - xp + 2))
        w_scalar = _minus_extension(n, h_poly, d).component() * Fraction(
            (xm - xp + 2) * xp, n
        )
    sym = sym_gradient(carrier)
    tf = sym + g.scale_poly(divergence(carrier).component() * Fraction(1, n))
    if pure_scalar_part:
        return tf
    return tf + g.scale_poly(w_scalar)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def verify_case(case_id: str, n: int, degree: int = 2, seed: int = 0) -> CaseReport:
    """Run the exact checks for one case at one degree."""
    if case_id not in CASE_IDS:
        raise UnsupportedCase(f"unknown case {case_id!r}")
    d = degree
    notes: List[str] = []

    if case_id == "i":
        h = build_case_tensor("i", "+", n, d, seed)
        checks = [_gauge_branch("+", h)]
        tt_ok = trace(h).is_zero() and divergence(h).is_zero()
        if not tt_ok:
            notes.append("flat instance failed the TT conditions")
            checks.append(
                BranchCheck("+", False, "zero", "nonzero", "nonzero-expression")
            )
        return CaseReport("i", n, d, tuple(checks), notes=tuple(notes))

    if case_id == "ii":
        k = d
        omega = rotational_form(n, k)
        plus = build_case_tensor("ii", "+", n, k)
        if plus.is_zero():
            # Killing 1-form: the eigentensor vanishes and the eigenvalue
            # drops; there is nothing to check on either branch.
            if k != 1:
                raise AssertionError("unexpected vanishing at k != 1")
            return CaseReport(
                "ii",
                n,
                k,
                (),
                degenerate=True,
                notes=("Killing form: sym_gradient vanishes, plus branch drops",),
            )
        minus = build_case_tensor("ii", "-", n, k)
        reference = omega.mul_r_power(Fraction(2 - n - 2 * k))
        expected = Fraction((n + 2 * k - 4) * (k - 1), 2)
        checks = (
            _gauge_branch("+", plus),
            _dual_branch("-", minus, reference, expected, "r^(2-n-2k) * omega"),
        )
        if not trace(plus).is_zero() or not divergence(plus).is_zero():
            notes.append("growing branch unexpectedly failed the TT conditions")
        return CaseReport("ii", n, k, checks, notes=tuple(notes))

    if case_id == "iii":
        k = d
        omega = rotational_form(n, k)
        minus = build_case_tensor("iii", "-", n, k)
        plus = build_case_tensor("iii", "+", n, k)
        expected = Fraction((n + 2 * k) * (n + k - 1), 2)
        checks = (
            _gauge_branch("-", minus),
            _dual_branch("+", plus, omega, expected, "r^0 * omega"),
        )
        return CaseReport("iii", n, k, checks)

    if case_id == "iv":
        plus = build_case_tensor("iv", "+", n, d, seed)
        if plus.is_zero():
            if d != 1:
                raise AssertionError("unexpected vanishing Hessian at degree != 1")
            return CaseReport(
                "iv",
                n,
                d,
                (),
                degenerate=True,
                notes=(
                    "degree-1 eigenfunction: the Hessian vanishes, matching "
                    "the drop at the Obata equality",
                ),
            )
        minus = build_case_tensor("iv", "-", n, d, seed)
        reference = gradient(harmonic_polynomial(n, d, seed)).mul_r_power(
            Fraction(4 - n - 2 * d)
        )
        expected = Fraction((n + 2 * d - 6) * (d - 1))
        checks = (
            _gauge_branch("+", plus),
            _dual_branch("-", minus, reference, expected, "r^(4-n-2d) * dH"),
        )
        return CaseReport("iv", n, d, checks)

    if case_id == "v":
        minus = build_case_tensor("v", "-", n, d, seed)
        plus = build_case_tensor("v", "+", n, d, seed)
        h_poly = harmonic_polynomial(n, d, seed)
        reference = gradient(_minus_extension(n, h_poly, d)).mul_r_power(
            Fraction(n + 2 * d)
        )
        expected = Fraction((n + 2 * d + 2) * (n + d - 1))
        checks = (
            _gauge_branch("-", minus),
            _dual_branch("+", plus, reference, expected, "r^(n+2d) * d(r^(2-n-2d) H)"),
        )
        return CaseReport("v", n, d, checks)

    if case_id == "vi":
        xp, xm = _xi(n, d)
        plus = _case_vi_tensor(n, d, "+", seed, pure_scalar_part=False)
        minus = _case_vi_tensor(n, d, "-", seed, pure_scalar_part=False)
        bare = _case_vi_tensor(n, d, "+", seed, pure_scalar_part=True)
        reference = gradient(harmonic_polynomial(n, d, seed))
        expected = Fraction((n - 2) * (n + 2 * d) * (n + d - 2), 2 * n)
        checks = (
            _gauge_branch("+", plus),
            _gauge_branch("-", minus),
            _dual_branch("wrong-trace-combination", bare, reference, expected, "dH"),
        )
        return CaseReport(
            "vi",
            n,
            d,
            checks,
            notes=(
                "gauge requires n*w = (xi_+ - xi_- + 2) xi_- v on the growing "
                "branch (sign verified exactly; the quoted constant has a "
                "2 -> -2 slip)",
            ),
        )

    if case_id == "vii":
        plus = build_case_tensor("vii", "+", n)
        minus = build_case_tensor("vii", "-", n)
        reference = radial_form(n).mul_r_power(Fraction(-n))
        expected = Fraction(-((n - 2) ** 2), 2)
        checks = (
            _gauge_branch("+", plus),
            _dual_branch("-", minus, reference, expected, "r^(1-n) dr"),
        )
        return CaseReport("vii", n, None, checks)

    # case viii
    minus = build_case_tensor("viii", "-", n)
    plus = build_case_tensor("viii", "+", n)
    reference = radial_form(n)
    expected = Fraction(-((n + 2) * (n - 1) * (n - 2)))
    checks = (
        _gauge_branch("-", minus),
        _dual_branch("+", plus, reference, expected, "r dr"),
    )
    notes = []
    if not (trace(minus).is_zero() and divergence(minus).is_zero()):
        notes.append("Green-kernel Hessian unexpectedly failed the TT conditions")
    return CaseReport("viii", n, None, checks, notes=tuple(notes))


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
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


def identity_b_dstar(n: int, count: int = 20) -> IdentityReport:
    """2 * B(delta^* w) == Delta_1 w, exactly, on a generated family.

    With the 1/2-normalized delta^* the correct flat identity carries the
    factor 2 (equivalently B o delta^* = Delta_1 / 2); the verified constant
    is recorded because quoted versions of the identity drop it.
    """
    failures = 0
    for w in _one_form_family(n, count):
        lhs = bianchi_op(sym_gradient(w)).scale(2)
        rhs = laplacian(w)
        if not (lhs - rhs).is_zero():
            failures += 1
    return IdentityReport(
        "2 * B(delta* w) = Delta_1 w",
        count,
        failures,
        detail="verified constant 1/2 for B o delta* relative to Delta_1",
    )


def identity_delta_star_radial(n: int) -> IdentityReport:
    """delta^*(r dr) equals the euclidean metric."""
    lhs = sym_gradient(radial_form(n))
    ok = (lhs - euclidean_metric(n)).is_zero()
    return IdentityReport("delta*(r dr) = g", 1, 0 if ok else 1)


def identity_trace_commutes(n: int, count: int = 12) -> IdentityReport:
    """trace o laplacian == laplacian o trace on symmetric 2-tensors."""
    failures = 0
    forms = _one_form_family(n, count)
    for w in forms:
        h = sym_gradient(w) + sym_product(w, radial_form(n))
        lhs = trace(laplacian(h))
        rhs = laplacian(trace(h))
        if not (lhs - rhs).is_zero():
            failures += 1
    return IdentityReport("tr(Delta h) = Delta(tr h)", count, failures)


def identity_case_harmonics(n: int, max_degree: int = 3) -> IdentityReport:
    """The four scalar-family tensors built from each H_d are harmonic."""
    failures = 0
    cases = 0
    for d in range(1, max_degree + 1):
        h_poly = harmonic_polynomial(n, d)
        tensors = [
            _hessian(h_poly),
            _hessian(_minus_extension(n, h_poly, d)),
            _case_vi_tensor(n, d, "+", 0, pure_scalar_part=True),
            _case_vi_tensor(n, d, "-", 0, pure_scalar_part=True),
        ]
        for t in tensors:
            cases += 1
            if not laplacian(t).is_zero():
                failures += 1
    return IdentityReport("scalar-family tensors are componentwise harmonic", cases, failures)


# ---------------------------------------------------------------------------
# the dimension-gap example
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheegerTianRecord:
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
    tracefree = h - euclidean_metric(n).scale_poly(
        trace(h).component() * Fraction(1, n)
    )
    return CheegerTianRecord(
        harmonic_function=laplacian(g).is_zero(),
        tensor_componentwise_harmonic=laplacian(h).is_zero(),
        homogeneity_degree=h.homogeneity(),
        tracefree_part_not_divergence_free=not divergence(tracefree).is_zero(),
        printed_variant_harmonic=laplacian(printed).is_zero(),
        note=(
            "harmonicity holds for the coefficient -3 (the real part of the "
            "holomorphic cube); the printed -4 variant is recorded as "
            "non-harmonic"
        ),
    )
