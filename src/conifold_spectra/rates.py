"""Convergence rates, stability and end-order verdicts.

The essential indicial set E (TT and direct scalar families) determines two
positive numbers:

    E_plus  = Re(E) intersected with (0, oo)     -> xi_plus  = min E_plus
    E_minus = Re(-E) intersected with (0, oo)    -> xi_minus = min E_minus

E_minus decomposes into three parts, each tagged on its elements: the minus
branches -xi_-(kappa), -xi_-(lambda); the window part -xi_+(kappa) for
kappa in [-(n-2)^2/4, 0); and the constant (n-2)/2 for kappa strictly below
the window (complex branch pair).  xi_plus and xi_minus are the lower
bounds the paper proves: a conically singular end converges at least at
order xi_plus, an asymptotically conical end at least at order xi_minus
unless the cone is resonance-dominated, in which case it is weakly of order
(n-2)/2 with a logarithmic factor.  A given metric may converge faster: on
the n = 6 cone with the single listed kappa = eta(-3) = -3 in the window,
E_minus holds both 1 and 3, the order at which the Stenzel metric on T*S^3
converges, and its minimum is 1.

Each kappa's window position (below, at, inside or above) is one exact
comparison, made once, that E_minus, stability and resonance read.  A float
within epsilon of a threshold was snapped onto it first, so a kappa snapped
to the resonance has the real double root and is flagged as coerced.

All of this is computed by ``LinkAnalysis``, one lazy pass per link; the
module-level functions are views of its stages.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import List, NamedTuple, Optional, Tuple

from .core import (
    DEFAULT_EPSILON,
    Record,
    Scalar,
    critical_eigenvalue,
    exact_sorted,
    is_double,
    rational,
    resonance_pair,
    surd_sign,
)
from .errors import EmptyRateSet, InsufficientSpectrum, NonTerminating
from .indicial import (
    BoxLFamily,
    IndicialRoot,
    TangentialEigenvalue,
    box1_spectrum,
    boxL_spectrum,
    indicial_roots,
    lambda_branches,
)
from .links import EigenvalueEntry, EndKind, LinkSpectrum, SpectrumMode, snap_to_thresholds


_set = object.__setattr__


class RateElement(NamedTuple):
    value: Scalar
    part: str                       # "xi-plus" | "minus-branch" | "window" | "below-window"
    root: Optional[IndicialRoot]

    def surd(self):
        """The exact value as (c, s, q) = c + s*sqrt(q), which signs and order read.

        ``value`` is the nearest double, which distinct values may share.
        """
        if self.part == "below-window":
            return (self.value.value, 0, 0)
        c, s, q = self.root.weight.re
        return (c, s, q) if self.part == "xi-plus" else (-c, -s, q)

    def sign(self) -> int:
        return surd_sign(*self.surd())


def _by_value(elements: List[RateElement]) -> List[RateElement]:
    """Sort by exact value, then part: on the views, then each run of equal views exactly."""
    return exact_sorted(elements, lambda el: (float(el.value), el.part), lambda el: (el.surd(),), _plain)


def _plain(el: RateElement) -> bool:
    c, s, _ = el.surd()
    return not s and is_double(c)


class RateSet(Record):
    """``side`` is "plus" or "minus"; every element is strictly positive."""

    __slots__ = _compared = _shown = ("side", "elements")

    def __init__(self, side: str, elements: Tuple[RateElement, ...]):
        for el in elements:
            if el.sign() <= 0:
                raise AssertionError("rate-set values must be strictly positive")
        _set(self, "side", side)
        _set(self, "elements", elements)

    def minimum(self) -> RateElement:
        if not self.elements:
            raise EmptyRateSet(f"E_{self.side} is empty")
        return self.elements[0]

    def values(self) -> List[Scalar]:
        return [el.value for el in self.elements]


class EndOrderReport(NamedTuple):
    end_kind: EndKind
    order: Scalar
    weak: bool
    witness: object
    bound_only: bool


class StabilityReport(NamedTuple):
    stable: bool
    witness: Optional[Scalar]       # violating kappa when unstable
    boundary: Tuple[Scalar, ...]    # kappa exactly at -(n-2)^2/4
    warnings: Tuple[str, ...]


class AdmMassReport(NamedTuple):
    verdict: str                    # "vanishes" | "unknown"
    reason: str


class ResonanceAnalysis(NamedTuple):
    dominated: bool
    resonant_present: bool
    window_values: Tuple[Scalar, ...]
    coercions: Tuple[Scalar, ...]
    tangential_warnings: Tuple[str, ...]


def _position(value: Scalar, threshold: Scalar) -> str:
    """Position of value against the window [threshold, 0): below/at/inside/above."""
    if value < threshold:
        return "below"
    if value == threshold:
        return "at"
    return "inside" if value < 0 else "above"


class Rates(NamedTuple):
    xi_plus: RateElement
    xi_minus: RateElement


class LinkAnalysis(Record):
    """One analysis pass over a link snapped once at ``eps`` (on construction).

    The stages follow the chain spec(box_L) -> E_L ⊇ E_B ⊇ E -> E± ->
    verdicts.  Each is computed on first use and kept for the life of the
    analysis, so box_L, the indicial sets, each kappa's window position
    (``positions``) and the box_L warnings are built once however many
    verdicts are read.  A stage that raises keeps nothing and raises again
    when asked again.  The module-level functions are views of one stage.
    Analyses compare by (link, eps); the stages live in the instance
    ``__dict__``, where ``cached_property`` writes them.
    """

    _compared = _shown = ("link", "eps")

    def __init__(self, link: LinkSpectrum, eps: float = DEFAULT_EPSILON):
        _set(self, "link", snap_to_thresholds(link, eps))
        _set(self, "eps", eps)

    @cached_property
    def lambdas(self):
        """Every positive lambda with its branch pair, shared by box_1 and box_L."""
        return lambda_branches(self.link)

    @cached_property
    def box1(self) -> List[TangentialEigenvalue]:
        return box1_spectrum(self.link, lambdas=self.lambdas)

    @cached_property
    def boxL(self) -> List[TangentialEigenvalue]:
        return boxL_spectrum(self.link, lambdas=self.lambdas)

    @cached_property
    def full(self) -> List[IndicialRoot]:
        return indicial_roots(self.boxL)

    @cached_property
    def bianchi(self) -> List[IndicialRoot]:
        return [r for r in self.full if r.bianchi_compatible]

    @cached_property
    def essential(self) -> List[IndicialRoot]:
        return [r for r in self.bianchi if not r.lie_derivative]

    @cached_property
    def positions(self) -> List[Tuple[EigenvalueEntry, str]]:
        """Each TT-Einstein entry and its window position; all negative kappa must be listed."""
        tt = self.link.tt_einstein
        if tt.complete_below < 0:
            raise InsufficientSpectrum(
                "the TT-Einstein list must be certified complete below 0 "
                "(all negative kappa are needed)",
                required=Scalar(0),
            )
        threshold = critical_eigenvalue(self.link.n)
        return [(entry, _position(entry.value, threshold)) for entry in tt.entries]

    @cached_property
    def tangential_warnings(self) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """(resonance, stability) warnings from one scan of the kept non-TT box_L values.

        Only lambda2-plus at lambda = n-1, n = 4 (Obata) sits on the bound, as
        eta(x) >= -(n-2)^2/4 with equality only at x = -(n-2)/2; that is read
        from the snapped lambda, not from the value, a view rounded once.
        """
        n, window, bound = self.link.n, [], []
        threshold = critical_eigenvalue(n)
        for entry in self.boxL if n >= 4 else ():  # box_L needs n >= 4
            if entry.dropped or entry.family is BoxLFamily.TT_KAPPA:
                continue
            position = _position(entry.value, threshold)
            if position in ("at", "inside"):
                window.append(
                    f"non-TT tangential eigenvalue {entry.value} "
                    f"({entry.family.value}[{entry.source_index}]) lies in the resonance window"
                )
            if position == "below":
                bound.append(
                    f"tangential eigenvalue {entry.value} of {entry.family.value} "
                    "falls below the stability bound"
                )
            elif n == 4 and entry.family is BoxLFamily.LAMBDA2_PLUS and entry.source_value == 3:
                bound.append(
                    f"tangential eigenvalue of {entry.family.value}[{entry.source_index}] "
                    "sits exactly at the stability bound"
                )
        return tuple(window), tuple(bound)

    @cached_property
    def e_plus(self) -> RateSet:
        """E_plus: positive real parts of the essential set.

        The paper filters the kappa branch by kappa > 0; filtering uniformly
        by Re > 0 is equivalent (xi_plus(kappa) > 0 iff kappa > 0, and
        complex roots have negative real part).  E is in exact order, so
        its positive real roots are already in ``_by_value``'s order.
        """
        link = self.link
        candidates = [
            RateElement(root.weight.real, "xi-plus", root)
            for root in self.essential
            if root.weight.imag.is_zero()
        ]
        elements = [el for el in candidates if el.sign() > 0]
        if elements:
            # an essential root has shift 0, so its source is its eigenvalue
            needed = elements[0].root.source_value
            for lst, label in ((link.tt_einstein, "tt_einstein"), (link.scalar, "scalar")):
                if lst.complete_below < needed:
                    raise InsufficientSpectrum(
                        f"{label} list certified below {lst.complete_below}, but the "
                        f"E_plus minimum {elements[0].value} needs completeness below "
                        f"{needed}",
                        required=needed,
                    )
        return RateSet("plus", tuple(elements))

    @cached_property
    def e_minus(self) -> RateSet:
        """E_minus as the tagged three-part union from the essential set."""
        link, positions = self.link, self.positions
        by_source = {}
        for root in self.essential:
            by_source.setdefault((root.family, root.source_index), {})[root.branch] = root

        elements: List[RateElement] = []
        half = Scalar(Fraction(link.n - 2, 2))
        for (family, index), branches in sorted(by_source.items()):
            minus = branches["-"]
            # kappa is counted from 1; a direct scalar's lambda > 0 lies above the window
            position = positions[index - 1][1] if family is BoxLFamily.TT_KAPPA else "above"
            if position == "below":
                elements.append(RateElement(half, "below-window", minus))
                continue
            elements.append(RateElement(-minus.weight.real, "minus-branch", minus))
            if position != "above":
                elements.append(RateElement(-branches["+"].weight.real, "window", branches["+"]))

        elements = _by_value(elements)

        # Completeness: every negative kappa is already certified listed; the
        # minus branches additionally need the bottom of each list certified.
        if not positions:
            raise InsufficientSpectrum(
                "no TT-Einstein eigenvalue listed; the kappa part of E_minus is unknown",
            )
        kappa_min = link.tt_einstein.min_value()
        if kappa_min > 0 and link.tt_einstein.complete_below < kappa_min:
            raise InsufficientSpectrum(
                "cannot certify the smallest TT-Einstein eigenvalue: completeness "
                f"below {kappa_min} required",
                required=kappa_min,
            )
        positive_lams = [v for v in link.scalar.values() if v > 0]
        if not positive_lams:
            raise InsufficientSpectrum(
                "no positive scalar eigenvalue listed; the lambda part of E_minus is unknown",
            )
        if link.scalar.complete_below < positive_lams[0]:
            raise InsufficientSpectrum(
                "cannot certify the smallest positive scalar eigenvalue: "
                f"completeness below {positive_lams[0]} required",
                required=positive_lams[0],
            )
        return RateSet("minus", tuple(elements))

    @cached_property
    def rates(self) -> Rates:
        """(xi_plus, xi_minus) = (min E_plus, min E_minus), with witnesses."""
        plus, minus = self.e_plus, self.e_minus
        return Rates(plus.minimum(), minus.minimum())

    @cached_property
    def resonance(self) -> ResonanceAnalysis:
        """Test {kappa} ∩ [-(n-2)^2/4, 0) == {-(n-2)^2/4} on the kappa list only.

        A non-TT tangential value in the window is a warning, not a member.
        Only Scalar-lambda2-plus can land there: a kept lambda with
        n-1 <= lambda < 2n gives eta(xi_+(lambda) - 2) in [3-n, 0) (lambda = 7
        at n = 6 gives ~-2.27).  The round sphere has none: its lambda_1 = n-1
        is dropped and lambda_2 = 2n gives 0.
        """
        positions = self.positions
        window = tuple(entry.value for entry, position in positions if position in ("at", "inside"))
        at = [entry for entry, position in positions if position == "at"]
        return ResonanceAnalysis(
            dominated=bool(at) and len(window) == 1,
            resonant_present=bool(at),
            window_values=window,
            coercions=tuple(
                e.value if e.given is None else e.given for e in at if not e.value.exact
            ),
            tangential_warnings=self.tangential_warnings[0],
        )

    @cached_property
    def stability(self) -> StabilityReport:
        """Stable iff every TT-Einstein eigenvalue is >= -(n-2)^2/4 (the boundary is stable).

        The other tangential families are checked against it in ``tangential_warnings``.
        """
        positions = self.positions
        witness = next((entry.value for entry, position in positions if position == "below"), None)
        return StabilityReport(
            stable=witness is None,
            witness=witness,
            boundary=tuple(entry.value for entry, position in positions if position == "at"),
            warnings=self.tangential_warnings[1],
        )

    @cached_property
    def adm(self) -> AdmMassReport:
        """Vanishing-mass verdict for AC manifolds over this cone.

        All kappa positive forces xi_minus > n-2, so the mass vanishes; when
        kappa_1 = 0 the leading term of the expansion is transverse-traceless
        and the mass vanishes too.  A negative kappa permits decay slower
        than the fundamental solution and the verdict is unknown.
        """
        tt = self.link.tt_einstein
        if not self.positions:
            if tt.complete_below > 0:
                return AdmMassReport(
                    "vanishes",
                    "every TT-Einstein eigenvalue exceeds the positive "
                    "completeness certificate",
                )
            raise InsufficientSpectrum("no TT-Einstein eigenvalue listed")
        kappa_min = tt.min_value()
        if kappa_min > 0:
            return AdmMassReport(
                "vanishes", "all TT-Einstein eigenvalues are positive, so xi_minus > n-2"
            )
        if kappa_min.is_zero():
            return AdmMassReport(
                "vanishes",
                "kappa_1 = 0: the leading term of the expansion is transverse-traceless",
            )
        return AdmMassReport(
            "unknown",
            f"kappa_1 = {kappa_min} < 0 permits decay slower than r^(2-n)",
        )

    def end_order(self, kind: EndKind) -> EndOrderReport:
        """Lower bound on the convergence order of one end.

        CS ends converge at least at order xi_plus.  AC ends converge at
        least at order xi_minus, except in the resonance-dominated case
        where the order is weakly (n-2)/2 with a logarithmic factor.  A given
        metric may converge faster than this bound.  Upper-bound-set inputs
        set ``bound_only``: the true xi may exceed the one computed.
        """
        kind = EndKind(kind)
        link, n = self.link, self.link.n
        rate_modes = (link.tt_einstein.mode, link.scalar.mode)
        bound_only = SpectrumMode.UPPER_BOUND in rate_modes
        if kind is EndKind.CS:
            element = self.e_plus.minimum()
            return EndOrderReport(kind, element.value, False, element, bound_only)
        if self.resonance.dominated:
            order = Scalar(Fraction(n - 2, 2))
            witness = resonance_pair(n)[1]
            kappa_bound = link.tt_einstein.mode is SpectrumMode.UPPER_BOUND
            return EndOrderReport(kind, order, True, witness, kappa_bound)
        element = self.e_minus.minimum()
        return EndOrderReport(kind, element.value, False, element, bound_only)


def e_plus_set(link: LinkSpectrum, eps: float = DEFAULT_EPSILON) -> RateSet:
    """E_plus: positive real parts of the essential set."""
    return LinkAnalysis(link, eps).e_plus


def e_minus_set(link: LinkSpectrum, eps: float = DEFAULT_EPSILON) -> RateSet:
    """E_minus as the tagged three-part union from the essential set."""
    return LinkAnalysis(link, eps).e_minus


def xi_rates(link: LinkSpectrum, eps: float = DEFAULT_EPSILON) -> Rates:
    """(xi_plus, xi_minus) = (min E_plus, min E_minus), with witnesses."""
    return LinkAnalysis(link, eps).rates


def resonance_analysis(link: LinkSpectrum, eps: float = DEFAULT_EPSILON) -> ResonanceAnalysis:
    """Test {kappa} ∩ [-(n-2)^2/4, 0) == {-(n-2)^2/4} on the kappa list only."""
    return LinkAnalysis(link, eps).resonance


def is_resonance_dominated(link: LinkSpectrum, eps: float = DEFAULT_EPSILON) -> bool:
    return LinkAnalysis(link, eps).resonance.dominated


def linear_stability(link: LinkSpectrum, eps: float = DEFAULT_EPSILON) -> StabilityReport:
    """Stable iff every TT-Einstein eigenvalue is >= -(n-2)^2/4."""
    return LinkAnalysis(link, eps).stability


def end_order(link: LinkSpectrum, kind: EndKind, eps: float = DEFAULT_EPSILON) -> EndOrderReport:
    """Lower bound on one end's convergence order (see ``LinkAnalysis.end_order``)."""
    return LinkAnalysis(link, eps).end_order(kind)


def adm_mass_verdict(link: LinkSpectrum, eps: float = DEFAULT_EPSILON) -> AdmMassReport:
    """Vanishing-mass verdict for AC manifolds over this cone."""
    return LinkAnalysis(link, eps).adm


def bootstrap_decay(alpha0, epsilon, target) -> List[Scalar]:
    """The decay-improvement iteration alpha -> 2*alpha - 2*epsilon.

    Returns the finite trajectory ending at the first iterate >= target.
    The step gains alpha_k - 2*epsilon each round, so progress requires
    alpha0 > 2*epsilon; otherwise NonTerminating is raised.
    """
    a, e = Scalar.wrap(alpha0), Scalar.wrap(epsilon)
    alpha, step, goal = rational(a.value), rational(e.value), rational(Scalar.wrap(target).value)
    if not alpha > 0 or not step > 0:
        raise ValueError("alpha0 and epsilon must be positive")
    if not alpha > 2 * step:
        raise NonTerminating(
            f"alpha0 = {a} <= 2*epsilon = {Scalar(2 * step, e.exact)}: the iteration cannot progress"
        )
    out = [a]
    while alpha < goal:
        alpha = 2 * alpha - 2 * step
        out.append(Scalar(alpha, a.exact and e.exact))
    return out
