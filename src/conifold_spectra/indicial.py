"""Tangential spectra of the cone operators and the three indicial sets.

From a link's (lambda, mu, kappa) data this module assembles the spectrum of
the tangential operator of the connection Laplacian on 1-forms (box_1) and
of the Lichnerowicz Laplacian (box_L).  One table, ``_KEPT``, gives each
family the (branch, shift) of its kept weight xi_branch(input) + shift; the
input is kappa, mu+1 or lambda, and the constant function is lambda_0 = 0.
An entry's value is eta of its kept weight, or the input itself.  The
constant function, a Killing 1-form and the Obata equality drop entries
(``_drop``), each with a machine-readable reason; nothing is silent.

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
    eta,
    exact_sorted,
    is_double,
    rational,
    xi_pair,
)
from .links import LinkSpectrum


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
    ``branches`` is the xi_pair of the family input (kappa, mu+1 or
    lambda, 0 for the constant function) behind the entry, built once and
    shared by every entry of that input and by its roots; every box_L entry
    carries one, and only box_1's oneform-mu-shift entries carry none.  It
    is a cache, so ``==``, ``hash`` and ``repr`` leave it out.
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
    kappa, mu+1 or lambda according to the family (0 for the specials).
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
            self.family,
            self.source_index,
            self.shift,
        )


# Family -> (branch, shift) of its kept weight.  Its roots are the kept
# weight, gauge-compatible, and its dual 2 - n - kept (the other branch, the
# opposite shift), which is not; both are Lie derivatives.  None: the value is
# the input, and both unshifted roots are gauge-compatible, not Lie derivatives.
_KEPT = {
    Box1Family.ONE_FORM_SHIFT: None,
    Box1Family.SCALAR_L1_PLUS: ("+", -1),
    Box1Family.SCALAR_L1_MINUS: ("-", -1),
    BoxLFamily.TT_KAPPA: None,
    BoxLFamily.MU_PLUS: ("+", -1),
    BoxLFamily.MU_MINUS: ("-", -1),
    BoxLFamily.LAMBDA_DIRECT: None,
    BoxLFamily.LAMBDA2_PLUS: ("+", -2),
    BoxLFamily.LAMBDA2_MINUS: ("-", -2),
    BoxLFamily.SPECIAL_ZERO: ("+", 0),
    BoxLFamily.SPECIAL_2N: ("-", -2),
}

# (drop reason, note) of the constant function's entries
_CONSTANT = {
    Box1Family.SCALAR_L1_MINUS: (None, "eigenspace spanned by dr"),
    Box1Family.SCALAR_L1_PLUS: (DropReason.CONSTANT, None),
    BoxLFamily.SPECIAL_ZERO: (None, "eigenspace alpha*g-bar"),
    BoxLFamily.SPECIAL_2N: (None, "eigenspace alpha*(trace-free g-hat)"),
    BoxLFamily.LAMBDA2_PLUS: (DropReason.CONSTANT, None),
}


def _weight(pair: Tuple[Weight, Weight], branch: str, shift: int) -> Weight:
    """xi_branch + shift, from the branch pair (xi_plus, xi_minus)."""
    weight = pair[0 if branch == "+" else 1]
    return weight + shift if shift else weight


def _drop(link: LinkSpectrum, family, source: Scalar):
    """(drop reason, note) of one entry; lambda = n-1 off the round sphere is kept with a note."""
    if family in _CONSTANT and source.is_zero():
        return _CONSTANT[family]
    if family is BoxLFamily.MU_PLUS and source == link.n - 2:
        return DropReason.KILLING, None
    if family is BoxLFamily.LAMBDA2_PLUS and source == link.n - 1:
        if link.is_round_sphere:
            return DropReason.OBATA, None
        return None, (
            "lambda = n-1 on a link not flagged as the round sphere: "
            "eigentensor possibly vanishing"
        )
    return None, None


def _spectrum(link: LinkSpectrum, sources) -> List[TangentialEigenvalue]:
    """One entry per family of each (families, rows) source; a row is (index, source, input, pair)."""
    n = link.n
    out: List[TangentialEigenvalue] = []
    for families, rows in sources:
        for index, source, value, pair in rows:
            for family in families:
                kept = _KEPT[family]
                reason, note = _drop(link, family, source)
                out.append(
                    TangentialEigenvalue(
                        value if kept is None else eta(n, _weight(pair, *kept)),
                        family, index, source, reason is not None, reason, note, pair,
                    )
                )
    return out


def _mu_start(link: LinkSpectrum) -> int:
    """mu is counted from 0 (mu_0 = n-2) exactly when the link has Killing fields, else from 1."""
    return 0 if link.has_killing_fields else 1


def _mu_rows(link: LinkSpectrum, branches: bool):
    """(index, mu, mu + 1, branch pair of mu + 1 if ``branches``); mu + 1 has mu's provenance."""
    rows = []
    for idx, entry in enumerate(link.coclosed_one_form.entries, start=_mu_start(link)):
        plus_one = Scalar(rational(entry.value.value) + 1, entry.value.exact)
        rows.append((idx, entry.value, plus_one, xi_pair(link.n, plus_one) if branches else None))
    return rows


def _constant(n: int):
    """The rows of the constant function, lambda_0 = 0."""
    zero = Scalar(0)
    return [(0, zero, zero, xi_pair(n, zero))]


def lambda_branches(link: LinkSpectrum) -> List[Tuple[int, Scalar, Scalar, Tuple[Weight, Weight]]]:
    """The rows (index, lambda, lambda, xi_pair(n, lambda)) of every positive lambda.

    box_1, box_L and the roots read these pairs; ``LinkAnalysis`` builds them once.
    """
    return [
        (j, entry.value, entry.value, xi_pair(link.n, entry.value))
        for j, entry in enumerate(link.scalar.entries)
        if not entry.value.is_zero()
    ]


def box1_spectrum(link: LinkSpectrum, *, lambdas=None) -> List[TangentialEigenvalue]:
    """spec(box_1): mu_i + 1, eta(xi_pm(lambda_i) - 1) and the radial n-1.

    The constant function contributes eta(xi_-(0) - 1) = n-1, spanned by dr;
    its plus branch is emitted as dropped.  ``lambdas`` is
    ``lambda_branches(link)`` when the caller already holds it.
    """
    check_dimension(link.n)
    if lambdas is None:
        lambdas = lambda_branches(link)
    return _spectrum(link, (
        ((Box1Family.ONE_FORM_SHIFT,), _mu_rows(link, False)),
        ((Box1Family.SCALAR_L1_PLUS, Box1Family.SCALAR_L1_MINUS), lambdas),
        ((Box1Family.SCALAR_L1_MINUS, Box1Family.SCALAR_L1_PLUS), _constant(link.n)),
    ))


def boxL_spectrum(link: LinkSpectrum, *, lambdas=None) -> List[TangentialEigenvalue]:
    """spec(box_L) with the Killing and Obata drop rules applied.

    The drops fire at exact equality; snap a float link first.  Requires
    n >= 4 (link dimension at least 3).  ``lambdas`` is
    ``lambda_branches(link)`` when the caller already holds it.  Every
    entry carries the branch pair of its input, which its roots reuse.
    """
    check_dimension(link.n, minimum=4)
    n = link.n
    if lambdas is None:
        lambdas = lambda_branches(link)
    kappas = [
        (idx, kappa.value, kappa.value, xi_pair(n, kappa.value))
        for idx, kappa in enumerate(link.tt_einstein.entries, start=1)
    ]
    return _spectrum(link, (
        ((BoxLFamily.TT_KAPPA,), kappas),
        ((BoxLFamily.MU_PLUS, BoxLFamily.MU_MINUS), _mu_rows(link, True)),
        ((BoxLFamily.LAMBDA_DIRECT, BoxLFamily.LAMBDA2_PLUS, BoxLFamily.LAMBDA2_MINUS), lambdas),
        ((BoxLFamily.SPECIAL_ZERO, BoxLFamily.SPECIAL_2N, BoxLFamily.LAMBDA2_PLUS), _constant(n)),
    ))


def _roots_for(entry: TangentialEigenvalue) -> List[IndicialRoot]:
    fam, pair, kept = entry.family, entry.branches, _KEPT[entry.family]
    lie = kept is not None
    index, base, value, note = entry.source_index, entry.source_value, entry.value, entry.note

    def root(branch, shift, compatible):
        # positional: a NamedTuple builds faster without keywords
        weight = _weight(pair, branch, shift)
        return IndicialRoot(weight, fam, index, base, branch, shift, value, compatible, lie, note)

    if kept is None:
        return [root("+", 0, True), root("-", 0, True)]
    branch, shift = kept
    return [root(branch, shift, True), root("-" if branch == "+" else "+", -shift, False)]


def indicial_roots(table: List[TangentialEigenvalue]) -> List[IndicialRoot]:
    """The indicial roots of the kept entries of a box_L table, in exact order.

    Sorted by weight (real part, then imaginary part), then family, source
    index and shift: on the views first, then each run of equal real views
    by exact value (``exact_sorted``).
    """
    roots = [root for entry in table if not entry.dropped for root in _roots_for(entry)]
    return exact_sorted(
        roots, IndicialRoot.sort_key, lambda root: (root.weight.re, root.weight.im),
        lambda root: root.weight.imag.is_zero() and not root.weight.re[1] and is_double(root.weight.re[0]),
    )


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
