"""Link spectral data: catalogs, ingestion and completeness bookkeeping.

A link is described by three eigenvalue lists: the scalar Laplace spectrum
(lambda, starting at lambda_0 = 0), the connection-Laplacian spectrum on
divergence-free 1-forms (mu, bounded below by n-2 with equality exactly for
Killing fields) and the Einstein-operator spectrum on transverse-traceless
tensors (kappa).  Each list carries a ``complete_below`` certificate: every
eigenvalue strictly below it is guaranteed to be listed.

Lists come in two modes.  ``exact`` means the entries are true eigenvalues.
``upper-bound-set`` means the list is only a superset constraint (the true
spectrum is a subset of the listed values), which is how sphere quotients
are described; every rate computed from such a list is a lower bound on the
order, never claimed optimal.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import List, NamedTuple, Optional, Tuple

from .core import DEFAULT_EPSILON, Record, Scalar, check_dimension, critical_eigenvalue
from .errors import InvariantViolation, SchemaError, UnsupportedDimension


class SpectrumMode(str, Enum):
    EXACT = "exact"
    UPPER_BOUND = "upper-bound-set"


class EndKind(str, Enum):
    AC = "AC"
    CS = "CS"


_set = object.__setattr__


class EigenvalueEntry(Record):
    """One eigenvalue with an optional multiplicity (None = unknown).

    Multiplicities are validated (lambda_0 must have multiplicity 1), but no
    computation or report reads them.
    ``given`` is the document's value when ``snap_to_thresholds`` moved it;
    ``==`` and ``hash`` leave it out.
    """

    __slots__ = _shown = ("value", "multiplicity", "given")
    _compared = ("value", "multiplicity")

    def __init__(self, value: Scalar, multiplicity: Optional[int] = None, given: Optional[Scalar] = None):
        if multiplicity is not None and multiplicity < 1:
            raise InvariantViolation("multiplicity must be a positive integer")
        _set(self, "value", value)
        _set(self, "multiplicity", multiplicity)
        _set(self, "given", given)


class SpectrumList(Record):
    """Strictly increasing entries, their completeness certificate and mode."""

    __slots__ = _compared = _shown = ("entries", "complete_below", "mode")

    def __init__(
        self,
        entries: Tuple[EigenvalueEntry, ...],
        complete_below: Scalar,
        mode: SpectrumMode = SpectrumMode.EXACT,
    ):
        values = [e.value for e in entries]
        for a, b in zip(values, values[1:]):
            if not a < b:
                raise InvariantViolation("spectrum entries must be strictly increasing")
        _set(self, "entries", entries)
        _set(self, "complete_below", complete_below)
        _set(self, "mode", mode)

    def values(self) -> List[Scalar]:
        return [e.value for e in self.entries]

    def min_value(self) -> Scalar:
        if not self.entries:
            raise InvariantViolation("empty spectrum list")
        return self.entries[0].value


class LinkSpectrum(NamedTuple):
    """Spectral data of one link (M-hat, g-hat) for a cone of dimension n."""

    n: int
    name: str
    scalar: SpectrumList
    coclosed_one_form: SpectrumList
    tt_einstein: SpectrumList
    has_killing_fields: bool
    is_round_sphere: bool = False
    ends: Tuple[EndKind, ...] = (EndKind.AC, EndKind.CS)

    def validate(self) -> None:
        """Check the link invariants, raising InvariantViolation on failure."""
        check_dimension(self.n)
        lam = self.scalar
        if not lam.entries or not lam.entries[0].value.is_zero():
            raise InvariantViolation("scalar spectrum must start with lambda_0 = 0")
        mult0 = lam.entries[0].multiplicity
        if mult0 is not None and mult0 != 1:
            raise InvariantViolation("lambda_0 = 0 must have multiplicity 1")
        for entry in lam.entries[1:]:
            if entry.value < self.n - 1:
                raise InvariantViolation(
                    f"positive scalar eigenvalue {entry.value} violates the "
                    f"Lichnerowicz-Obata bound lambda >= n-1 = {self.n - 1}"
                )
        floor = self.n - 2
        for entry in self.coclosed_one_form.entries:
            if entry.value < floor:
                raise InvariantViolation(
                    f"coclosed 1-form eigenvalue {entry.value} below n-2 = {floor}"
                )
        killing_listed = any(entry.value == floor for entry in self.coclosed_one_form.entries)
        if self.has_killing_fields and not killing_listed:
            raise InvariantViolation(
                "has_killing_fields requires n-2 in the coclosed 1-form list"
            )
        if (
            not self.has_killing_fields
            and killing_listed
            and self.coclosed_one_form.mode is SpectrumMode.EXACT
        ):
            raise InvariantViolation(
                "exact coclosed 1-form list contains n-2 but has_killing_fields is False"
            )

    def any_upper_bound_mode(self) -> bool:
        return any(
            lst.mode is SpectrumMode.UPPER_BOUND
            for lst in (self.scalar, self.coclosed_one_form, self.tt_einstein)
        )


def snap_to_thresholds(link: LinkSpectrum, eps: float = DEFAULT_EPSILON) -> LinkSpectrum:
    """``link`` with each float entry within ``eps`` of a threshold moved onto it.

    The package's one tolerance comparison, on the exact distance; every
    comparison after it is exact.  Thresholds: -(n-2)^2/4 and 0 for kappa,
    n-2 for mu, n-1 and 2n for lambda (where the lambda2-plus tangential
    value is 0).  A moved entry is the exact threshold of float provenance
    and keeps the document's value in ``given``; when
    nothing moves, ``link`` itself is returned.  A non-finite or negative
    ``eps`` is a ``SchemaError``, and so is one of ``MAX_EPSILON`` or more.
    """
    if not 0 <= eps < math.inf:
        raise SchemaError(f"epsilon must be finite and non-negative, got {eps!r}")
    if eps >= MAX_EPSILON:
        raise SchemaError(f"epsilon must be below {MAX_EPSILON:g}, got {eps!r}")
    n = link.n
    moved = {}
    for label, thresholds in (
        ("scalar", (n - 1, 2 * n)),
        ("coclosed_one_form", (n - 2,)),
        ("tt_einstein", (critical_eigenvalue(n).value, 0)),
    ):
        lst = getattr(link, label)
        views = [(t, float(t)) for t in thresholds]
        changes = {}
        for i, entry in enumerate(lst.entries):
            x = entry.value
            for t, view in views:
                # a double within eps of t lies within 2*eps of the double
                # nearest t, so every other double skips the exact distance
                far = type(x.value) is float and abs(x.value - view) > 2 * eps
                if not (x.exact or far) and x != t and abs(x.as_fraction() - t) <= eps:
                    changes[i] = EigenvalueEntry(Scalar(t, exact=False), entry.multiplicity, x)
        if changes:
            entries = tuple(changes.get(i, entry) for i, entry in enumerate(lst.entries))
            try:
                moved[label] = SpectrumList(entries, lst.complete_below, lst.mode)
            except InvariantViolation:
                raise InvariantViolation(
                    f"{label}: two entries lie within epsilon {eps:g} of one threshold"
                ) from None
    return link._replace(**moved) if moved else link


# ---------------------------------------------------------------------------
# built-in catalogs
# ---------------------------------------------------------------------------


def _harmonic_dim(n: int, i: int) -> int:
    """Dimension of the space of degree-i harmonic polynomials on R^n."""
    if i == 0:
        return 1
    return math.comb(n + i - 1, n - 1) - math.comb(n + i - 3, n - 1)


def sphere_link(n: int, count: int = 8) -> LinkSpectrum:
    """The round sphere S^{n-1} with Ric = (n-2)g.

    lambda_i = i(i+n-2) with the classical harmonic-polynomial
    multiplicities, kappa_i = (i+1)(i+n-1).  The coclosed 1-form spectrum
    mu_k = (k+1)(k+n-3) - (n-2) is derived (not quoted) data; its first
    entry is the Killing value n-2.
    """
    check_dimension(n, minimum=4)
    lam_entries = tuple(
        EigenvalueEntry(Scalar(i * (i + n - 2)), _harmonic_dim(n, i))
        for i in range(count + 1)
    )
    kappa_entries = tuple(
        EigenvalueEntry(Scalar((i + 1) * (i + n - 1)), None)
        for i in range(1, count + 1)
    )
    mu_entries = tuple(
        EigenvalueEntry(Scalar((k + 1) * (k + n - 3) - (n - 2)), None)
        for k in range(1, count + 1)
    )
    return LinkSpectrum(
        n=n,
        name=f"round sphere S^{n - 1}",
        scalar=SpectrumList(lam_entries, lam_entries[-1].value),
        coclosed_one_form=SpectrumList(mu_entries, mu_entries[-1].value),
        tt_einstein=SpectrumList(kappa_entries, kappa_entries[-1].value),
        has_killing_fields=True,
        is_round_sphere=True,
    )


def sphere_quotient_link(n: int, count: int = 8) -> LinkSpectrum:
    """A space form S^{n-1}/Gamma, Gamma nontrivial, in upper-bound-set mode.

    The quotient spectra are subsets of the sphere spectra, and the
    equality case of Obata drops lambda_1 = n-1.  No invariant
    multiplicities are known, so all multiplicities are marked unknown.
    """
    base = sphere_link(n, count=count)

    def bounded(lst: SpectrumList, drop=None) -> SpectrumList:
        entries = tuple(
            EigenvalueEntry(e.value, None)
            for e in lst.entries
            if drop is None or e.value != drop
        )
        return SpectrumList(entries, lst.complete_below, SpectrumMode.UPPER_BOUND)

    return LinkSpectrum(
        n=n,
        name=f"sphere quotient S^{n - 1}/Gamma",
        scalar=bounded(base.scalar, drop=Scalar(n - 1)),
        coclosed_one_form=bounded(base.coclosed_one_form),
        tt_einstein=bounded(base.tt_einstein),
        has_killing_fields=True,
        is_round_sphere=False,
    )


def product_einstein_example(n: int = 10) -> LinkSpectrum:
    """The 9-dimensional product-Einstein link, the resonance fixture.

    Its first TT-Einstein eigenvalue sits exactly at the resonance,
    kappa_1 = -16 = -(n-2)^2/4, and all other kappa are nonnegative; the
    cone over it is resonance-dominated.  The scalar and 1-form lists are
    placeholders in upper-bound-set mode.
    """
    if n != 10:
        raise UnsupportedDimension(
            "the product-Einstein resonance fixture exists only for n = 10"
        )
    kappa = SpectrumList(
        (
            EigenvalueEntry(Scalar(-16), None),
            EigenvalueEntry(Scalar(0), None),
        ),
        Scalar(1),
        SpectrumMode.EXACT,
    )
    lam = SpectrumList(
        (
            EigenvalueEntry(Scalar(0), 1),
            EigenvalueEntry(Scalar(9), None),
        ),
        Scalar(9),
        SpectrumMode.UPPER_BOUND,
    )
    mu = SpectrumList(
        (EigenvalueEntry(Scalar(8), None),),
        Scalar(8),
        SpectrumMode.UPPER_BOUND,
    )
    return LinkSpectrum(
        n=10,
        name="product-Einstein link (m=10 resonance example)",
        scalar=lam,
        coclosed_one_form=mu,
        tt_einstein=kappa,
        has_killing_fields=True,
        is_round_sphere=False,
        ends=(EndKind.AC,),
    )


BUILTIN_LINKS = ("sphere", "sphere-quotient", "product-einstein-10")


def builtin_link(
    name: str, n: Optional[int] = None, gamma_nontrivial: Optional[bool] = None
) -> LinkSpectrum:
    """Resolve a built-in link by name.

    The quotient switch also applies to the plain sphere (requesting a
    nontrivial group turns it into the space-form catalog entry); it
    defaults to trivial for "sphere" and nontrivial for "sphere-quotient",
    the trivial quotient is the round sphere itself, and the product link
    refuses the switch.
    """
    dim = n if n is not None else 4
    if name == "sphere":
        return sphere_quotient_link(dim) if gamma_nontrivial else sphere_link(dim)
    if name == "sphere-quotient":
        return sphere_link(dim) if gamma_nontrivial is False else sphere_quotient_link(dim)
    if name == "product-einstein-10":
        if gamma_nontrivial is not None:
            raise SchemaError("the quotient switch does not apply to product-einstein-10")
        return product_einstein_example(10 if n is None else n)
    raise SchemaError(f"unknown builtin link {name!r}; choose from {BUILTIN_LINKS}")


# ---------------------------------------------------------------------------
# structured-text ingestion
# ---------------------------------------------------------------------------

_SPECTRUM_KEYS = {"entries", "complete_below", "mode"}
_ENTRY_KEYS = {"value", "multiplicity"}
_TOP_KEYS = {
    "dim_cone",
    "name",
    "scalar",
    "coclosed_one_form",
    "tt_einstein",
    "has_killing_fields",
    "ends",
}


# Every shown value is a view, the double nearest an exact value.  These
# bounds keep the views of inputs, thresholds and rates below the double
# range (2**1024), so every view is a finite double.
MAX_EXACT_BITS = 1000       # |p| and q below 2**1000, about 1.07e301
MAX_DIM_CONE_BITS = 500     # dim_cone below 2**500
# The snap's epsilon stays below half the smallest gap between two thresholds
# of one list (1/2: kappa's -1 and 0 at n = 4), so it can move a value onto
# one threshold only; 1e-3 is far below that and far above the rounding
# error of a float spectrum.
MAX_EPSILON = 1e-3
MAX_PLOT_ROWS = 10**6       # rows of one plot-data sweep


def check_cone_dimension(n: int, where: str) -> None:
    """Refuse a cone dimension below 4, where box_L is undefined, or of
    2**MAX_DIM_CONE_BITS or more, whose thresholds have no finite view."""
    if n < 4:
        raise SchemaError(f"{where} must be at least 4, got {n}")
    if n.bit_length() > MAX_DIM_CONE_BITS:
        raise SchemaError(f"{where} must be below 2**{MAX_DIM_CONE_BITS}")


def _parse_number(value, where: str) -> Scalar:
    try:
        number = Scalar.parse(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{where}: bad number {value!r} ({exc})") from exc
    if number.exact:
        size = max(abs(number.value.numerator), number.value.denominator).bit_length()
        if size > MAX_EXACT_BITS:
            raise SchemaError(
                f"{where}: exact number out of range (numerator and denominator "
                f"must be below 2**{MAX_EXACT_BITS})"
            )
    return number


def _parse_spectrum(doc, where: str) -> SpectrumList:
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected an object")
    unknown = set(doc) - _SPECTRUM_KEYS
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")
    for key in _SPECTRUM_KEYS:
        if key not in doc:
            raise SchemaError(f"{where}: missing key {key!r}")
    raw_entries = doc["entries"]
    if not isinstance(raw_entries, list):
        raise SchemaError(f"{where}.entries: expected a list")
    entries = []
    for i, raw in enumerate(raw_entries):
        spot = f"{where}.entries[{i}]"
        if not isinstance(raw, dict):
            raise SchemaError(f"{spot}: expected an object")
        unknown = set(raw) - _ENTRY_KEYS
        if unknown:
            raise SchemaError(f"{spot}: unknown keys {sorted(unknown)}")
        if "value" not in raw:
            raise SchemaError(f"{spot}: missing 'value'")
        mult = raw.get("multiplicity")
        if mult is not None and (isinstance(mult, bool) or not isinstance(mult, int)):
            raise SchemaError(f"{spot}: multiplicity must be an integer or null")
        try:
            entries.append(EigenvalueEntry(_parse_number(raw["value"], spot), mult))
        except InvariantViolation as exc:
            raise SchemaError(f"{spot}: {exc}") from exc
    mode_raw = doc["mode"]
    try:
        mode = SpectrumMode(mode_raw)
    except ValueError:
        raise SchemaError(f"{where}.mode: expected 'exact' or 'upper-bound-set'")
    complete_below = _parse_number(doc["complete_below"], f"{where}.complete_below")
    return SpectrumList(tuple(entries), complete_below, mode)


def load_spectrum(document: dict, eps: float = DEFAULT_EPSILON) -> LinkSpectrum:
    """Build a validated LinkSpectrum from a parsed interchange document.

    Numbers given as "p/q" strings are exact rationals; a bare JSON number
    is its exact binary rational with float provenance, shown with "~".
    Unknown keys are rejected, and so are a dim_cone below 4, where box_L
    is undefined, and numbers whose views would leave the double range
    (``MAX_EXACT_BITS``, ``MAX_DIM_CONE_BITS``).  The
    link is snapped (``snap_to_thresholds``) before ``has_killing_fields``
    is inferred from the 1-form list, when absent, and before validation.
    """
    if not isinstance(document, dict):
        raise SchemaError("spectrum document must be an object")
    unknown = set(document) - _TOP_KEYS
    if unknown:
        raise SchemaError(f"unknown top-level keys {sorted(unknown)}")
    for key in ("dim_cone", "name", "scalar", "coclosed_one_form", "tt_einstein", "ends"):
        if key not in document:
            raise SchemaError(f"missing top-level key {key!r}")
    n = document["dim_cone"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise SchemaError("dim_cone must be an integer")
    check_cone_dimension(n, "dim_cone")
    name = document["name"]
    if not isinstance(name, str):
        raise SchemaError("name must be a string")
    scalar = _parse_spectrum(document["scalar"], "scalar")
    one_form = _parse_spectrum(document["coclosed_one_form"], "coclosed_one_form")
    tt = _parse_spectrum(document["tt_einstein"], "tt_einstein")
    raw_ends = document["ends"]
    if not isinstance(raw_ends, list):
        raise SchemaError("ends must be a list")
    ends = []
    for i, raw in enumerate(raw_ends):
        if not isinstance(raw, dict) or set(raw) != {"kind"}:
            raise SchemaError(f"ends[{i}]: expected an object with a single 'kind' key")
        try:
            ends.append(EndKind(raw["kind"]))
        except ValueError:
            raise SchemaError(f"ends[{i}].kind: expected 'AC' or 'CS'")
    killing = document.get("has_killing_fields")
    if killing is not None and not isinstance(killing, bool):
        raise SchemaError("has_killing_fields must be a boolean")
    link = LinkSpectrum(n, name, scalar, one_form, tt, bool(killing), ends=tuple(ends))
    try:
        link = snap_to_thresholds(link, eps)
    except InvariantViolation as exc:
        raise SchemaError(str(exc)) from exc
    if killing is None:
        killing = any(e.value == n - 2 for e in link.coclosed_one_form.entries)
        link = link._replace(has_killing_fields=killing)
    link.validate()
    return link
