"""Tangential spectra of the cone operators and the three indicial sets.

From a link's (lambda, mu, kappa) data this module assembles the spectrum of
the tangential operator of the connection Laplacian on 1-forms (box_1) and
of the Lichnerowicz Laplacian (box_L), applying the degenerate-case drop
rules:

  * the constant function contributes nothing on the plus branch,
  * a Killing 1-form (mu = n-2) kills the shifted plus branch,
  * on the round sphere the Obata equality lambda_1 = n-1 kills the
    doubly-shifted plus branch.

Every drop is recorded with a machine-readable reason; nothing is silent.

The indicial roots of the Lichnerowicz Laplacian are then emitted with full
provenance (source eigenvalue, branch, shift) plus two flags: whether the
root survives the linearized Bianchi gauge, and whether its eigentensor is a
Lie derivative of the cone metric.  The gauge-compatible roots form E_B; the
gauge-compatible non-Lie-derivative ones (TT and direct scalar families
only) form the essential set E feeding the rate computation.  The three
set functions are views of the stages of ``rates.LinkAnalysis``.
"""

from __future__ import annotations

from enum import Enum
from typing import List, NamedTuple, Optional, Tuple, Union

from .core import (
    DEFAULT_EPSILON,
    Record,
    Scalar,
    Weight,
    check_dimension,
    dual_weight,
    eta,
    exact_sorted,
    rational,
    xi_pair,
)
from .errors import UnknownMultiplicity
from .links import LinkSpectrum, SpectrumMode


class Box1Family(str, Enum):
    ONE_FORM_SHIFT = "oneform-mu-shift"
    SCALAR_L1_PLUS = "scalar-lambda1-plus"
    SCALAR_L1_MINUS = "scalar-lambda1-minus"


class BoxLFamily(str, Enum):
    TT_KAPPA = "TT-kappa"
    MU_PLUS = "OneForm-mu-plus"
    MU_MINUS = "OneForm-mu-minus"
    LAMBDA_DIRECT = "Scalar-lambda-direct"
    LAMBDA2_PLUS = "Scalar-lambda2-plus"
    LAMBDA2_MINUS = "Scalar-lambda2-minus"
    SPECIAL_ZERO = "Special-zero"
    SPECIAL_2N = "Special-2n"


class DropReason(str, Enum):
    KILLING = "killing-plus-branch"
    OBATA = "obata-plus-branch"
    CONSTANT = "constant-function"


_set = object.__setattr__


class TangentialEigenvalue(Record):
    """One eigenvalue of a tangential operator, with provenance.

    ``source_value`` is the generating link eigenvalue (a lambda, mu or
    kappa); ``value`` is the tangential eigenvalue it produces.  Dropped
    entries record the would-be value together with the reason.
    ``branches`` is the xi_pair of the family input (mu+1, lambda or a
    special value) behind a box_L entry, built once and shared by every
    entry of that input and by its roots; TT entries carry none.  It is a
    cache, so ``==``, ``hash`` and ``repr`` leave it out.
    """

    _compared = _shown = (
        "value", "family", "source_index", "source_value", "dropped", "drop_reason", "note",
    )
    __slots__ = _shown + ("branches",)

    def __init__(
        self,
        value: Scalar,
        family: Union[Box1Family, BoxLFamily],
        source_index: int,
        source_value: Scalar,
        dropped: bool = False,
        drop_reason: Optional[DropReason] = None,
        note: Optional[str] = None,
        branches: Optional[Tuple[Weight, Weight]] = None,
    ):
        _set(self, "value", value)
        _set(self, "family", family)
        _set(self, "source_index", source_index)
        _set(self, "source_value", source_value)
        _set(self, "dropped", dropped)
        _set(self, "drop_reason", drop_reason)
        _set(self, "note", note)
        _set(self, "branches", branches)


class IndicialRoot(NamedTuple):
    """An indicial root of the Lichnerowicz Laplacian with provenance.

    ``branch`` is the xi-branch of the *source* eigenvalue and ``shift`` the
    additive shift applied to it, so the weight always satisfies
    weight == xi_branch(source eigenvalue input) + shift, where the input is
    kappa, mu+1 or lambda according to the family.
    """

    weight: Weight
    family: BoxLFamily
    source_index: int
    source_value: Scalar
    branch: str
    shift: int
    tangential_value: Scalar
    bianchi_compatible: bool
    lie_derivative: bool
    note: Optional[str] = None

    def sort_key(self):
        return (
            float(self.weight.real),
            float(self.weight.imag),
            self.family.value,
            self.source_index,
            self.shift,
        )


def _mu_indices(link: LinkSpectrum):
    """(index, mu, mu + 1) for each mu entry, mu + 1 with the provenance of mu.

    mu is counted from 0 exactly when the link has Killing fields (so that
    mu_0 = n-2), otherwise from 1.
    """
    start = 0 if link.has_killing_fields else 1
    return [
        (start + j, entry.value, Scalar(rational(entry.value.value) + 1, entry.value.exact))
        for j, entry in enumerate(link.coclosed_one_form.entries)
    ]


def lambda_branches(link: LinkSpectrum) -> List[Tuple[int, Scalar, Tuple[Weight, Weight]]]:
    """(index, lambda, xi_pair(n, lambda)) for every positive lambda.

    box_1, box_L and the roots all read these pairs; ``LinkAnalysis`` builds
    them once per link.
    """
    return [
        (j, entry.value, xi_pair(link.n, entry.value))
        for j, entry in enumerate(link.scalar.entries)
        if not entry.value.is_zero()
    ]


def box1_spectrum(link: LinkSpectrum, *, lambdas=None) -> List[TangentialEigenvalue]:
    """spec(box_1): mu_i + 1, eta(xi_pm(lambda_i) - 1) and the radial n-1.

    The constant function only contributes through its minus branch, giving
    the eigenvalue n-1 with eigenspace spanned by dr; the plus branch is
    emitted as dropped.  ``lambdas`` is ``lambda_branches(link)`` when the
    caller already holds it.
    """
    check_dimension(link.n)
    n = link.n
    if lambdas is None:
        lambdas = lambda_branches(link)
    out: List[TangentialEigenvalue] = []
    for idx, mu, mu_plus_one in _mu_indices(link):
        out.append(TangentialEigenvalue(mu_plus_one, Box1Family.ONE_FORM_SHIFT, idx, mu))
    for idx, lam, (plus, minus) in lambdas:
        out.append(
            TangentialEigenvalue(eta(n, plus - 1), Box1Family.SCALAR_L1_PLUS, idx, lam)
        )
        out.append(
            TangentialEigenvalue(eta(n, minus - 1), Box1Family.SCALAR_L1_MINUS, idx, lam)
        )
    zero = Scalar(0)
    out.append(
        TangentialEigenvalue(
            Scalar(n - 1),
            Box1Family.SCALAR_L1_MINUS,
            0,
            zero,
            note="eigenspace spanned by dr",
        )
    )
    out.append(
        TangentialEigenvalue(
            Scalar(3 - n),
            Box1Family.SCALAR_L1_PLUS,
            0,
            zero,
            dropped=True,
            drop_reason=DropReason.CONSTANT,
        )
    )
    return out


def boxL_spectrum(link: LinkSpectrum, *, lambdas=None) -> List[TangentialEigenvalue]:
    """spec(box_L) with the Killing and Obata drop rules applied.

    The drops fire at exact equality; snap a float link first.  Requires
    n >= 4 (link dimension at least 3).  ``lambdas`` is
    ``lambda_branches(link)`` when the caller already holds it.  Every
    non-TT entry carries the branch pair of its input (``branches``), so the
    roots are built without recomputing it.
    """
    check_dimension(link.n, minimum=4)
    n = link.n
    if lambdas is None:
        lambdas = lambda_branches(link)
    out: List[TangentialEigenvalue] = []
    for idx, kappa in enumerate(link.tt_einstein.entries, start=1):
        out.append(TangentialEigenvalue(kappa.value, BoxLFamily.TT_KAPPA, idx, kappa.value))
    for idx, mu, mu_plus_one in _mu_indices(link):
        pair = plus, minus = xi_pair(n, mu_plus_one)
        killing = mu == n - 2
        out.append(
            TangentialEigenvalue(
                eta(n, plus - 1),
                BoxLFamily.MU_PLUS,
                idx,
                mu,
                dropped=killing,
                drop_reason=DropReason.KILLING if killing else None,
                branches=pair,
            )
        )
        out.append(
            TangentialEigenvalue(eta(n, minus - 1), BoxLFamily.MU_MINUS, idx, mu, branches=pair)
        )
    for idx, lam, pair in lambdas:
        plus, minus = pair
        out.append(TangentialEigenvalue(lam, BoxLFamily.LAMBDA_DIRECT, idx, lam, branches=pair))
        at_obata = lam == n - 1
        obata = at_obata and link.is_round_sphere
        note = None
        if at_obata and not obata:
            note = (
                "lambda = n-1 on a link not flagged as the round sphere: "
                "eigentensor possibly vanishing"
            )
        out.append(
            TangentialEigenvalue(
                eta(n, plus - 2),
                BoxLFamily.LAMBDA2_PLUS,
                idx,
                lam,
                dropped=obata,
                drop_reason=DropReason.OBATA if obata else None,
                note=note,
                branches=pair,
            )
        )
        out.append(
            TangentialEigenvalue(eta(n, minus - 2), BoxLFamily.LAMBDA2_MINUS, idx, lam, branches=pair)
        )
    zero = Scalar(0)
    zero_pair = xi_pair(n, zero)
    out.append(
        TangentialEigenvalue(
            zero,
            BoxLFamily.SPECIAL_ZERO,
            0,
            zero,
            note="eigenspace alpha*g-bar",
            branches=zero_pair,
        )
    )
    out.append(
        TangentialEigenvalue(
            Scalar(2 * n),
            BoxLFamily.SPECIAL_2N,
            0,
            zero,
            note="eigenspace alpha*(trace-free g-hat)",
            branches=xi_pair(n, Scalar(2 * n)),
        )
    )
    out.append(
        TangentialEigenvalue(
            eta(n, zero_pair[0] - 2),
            BoxLFamily.LAMBDA2_PLUS,
            0,
            zero,
            dropped=True,
            drop_reason=DropReason.CONSTANT,
            branches=zero_pair,
        )
    )
    return out


_NOT_LIE = {BoxLFamily.TT_KAPPA, BoxLFamily.LAMBDA_DIRECT}

# Shifted families: (branch label, shift) of the kept, gauge-compatible
# weight xi_branch(input) + shift.  Its dual carries the other branch and
# the opposite shift and is not gauge-compatible.
_SHIFTED = {
    BoxLFamily.MU_PLUS: ("+", -1),
    BoxLFamily.MU_MINUS: ("-", -1),
    BoxLFamily.LAMBDA2_PLUS: ("+", -2),
    BoxLFamily.LAMBDA2_MINUS: ("-", -2),
}


def _roots_for(entry: TangentialEigenvalue, n: int) -> List[IndicialRoot]:
    fam = entry.family
    base = entry.source_value
    index, value, lie, note = entry.source_index, entry.value, fam not in _NOT_LIE, entry.note

    def root(weight, branch, shift, compatible):
        # positional: a NamedTuple builds faster without keywords
        return IndicialRoot(weight, fam, index, base, branch, shift, value, compatible, lie, note)

    plus, minus = xi_pair(n, base) if fam is BoxLFamily.TT_KAPPA else entry.branches
    if fam in _NOT_LIE:
        return [root(plus, "+", 0, True), root(minus, "-", 0, True)]
    if fam is BoxLFamily.SPECIAL_ZERO:
        return [root(plus, "+", 0, True), root(minus, "-", 0, False)]
    if fam is BoxLFamily.SPECIAL_2N:
        return [root(minus, "-", -2, True), root(plus, "+", +2, False)]
    branch, shift = _SHIFTED[fam]
    kept = (plus if branch == "+" else minus) + shift
    other = "-" if branch == "+" else "+"
    return [root(kept, branch, shift, True), root(dual_weight(n, kept), other, -shift, False)]


def indicial_roots(table: List[TangentialEigenvalue], n: int) -> List[IndicialRoot]:
    """The indicial roots of the kept entries of a box_L table, in exact order.

    Sorted by weight (real part, then imaginary part), then family, source
    index and shift: on the views first, then each run of equal real views
    by exact value (``exact_sorted``).
    """
    roots = [root for entry in table if not entry.dropped for root in _roots_for(entry, n)]
    return exact_sorted(roots, IndicialRoot.sort_key, lambda root: root.weight.surds())


def indicial_set_full(link: LinkSpectrum, eps: float = DEFAULT_EPSILON) -> List[IndicialRoot]:
    """E_L: all indicial roots of the Lichnerowicz Laplacian on the cone."""
    from .rates import LinkAnalysis  # rates imports this module

    return LinkAnalysis(link, eps).full


def indicial_set_bianchi(link: LinkSpectrum, eps: float = DEFAULT_EPSILON) -> List[IndicialRoot]:
    """E_B: the roots surviving the linearized Bianchi gauge."""
    from .rates import LinkAnalysis

    return LinkAnalysis(link, eps).bianchi


def indicial_set_essential(link: LinkSpectrum, eps: float = DEFAULT_EPSILON) -> List[IndicialRoot]:
    """E: gauge-compatible roots not given by Lie derivatives.

    Exactly the TT and direct scalar families with positive eigenvalue.
    The zero root of the constant function is excluded (it corresponds to
    the Lie derivative of the metric along the radial field); the excluded
    variant with 0 adjoined is recorded by the report layer, not here.
    """
    from .rates import LinkAnalysis

    return LinkAnalysis(link, eps).essential


def eigenspace_dimension(entry: TangentialEigenvalue, link: LinkSpectrum) -> int:
    """Dimension of the box_L eigenspace contributed by one table entry.

    Scalar eigenvalues enter twice (the v and w parameters), so the direct
    scalar family counts double.  Raises UnknownMultiplicity for bounded
    lists or missing multiplicities.
    """
    fam = entry.family
    if fam in (BoxLFamily.SPECIAL_ZERO, BoxLFamily.SPECIAL_2N):
        return 1
    if fam is BoxLFamily.TT_KAPPA:
        source, factor = link.tt_einstein, 1
        position = entry.source_index - 1
    elif fam in (BoxLFamily.MU_PLUS, BoxLFamily.MU_MINUS):
        source, factor = link.coclosed_one_form, 1
        position = entry.source_index - (0 if link.has_killing_fields else 1)
    elif fam is BoxLFamily.LAMBDA_DIRECT:
        source, factor = link.scalar, 2
        position = entry.source_index
    else:
        source, factor = link.scalar, 1
        position = entry.source_index
    if source.mode is SpectrumMode.UPPER_BOUND:
        raise UnknownMultiplicity(
            "multiplicities are not invariant in upper-bound-set mode"
        )
    mult = source.multiplicity_of(position)
    if mult is None:
        raise UnknownMultiplicity(f"multiplicity unknown for {fam.value}[{entry.source_index}]")
    return factor * mult
