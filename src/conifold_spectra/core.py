"""Indicial-root algebra on a cone of dimension n.

The whole package revolves around three elementary maps attached to a cone
dimension n >= 3:

    xi_pm(nu) = -(n-2)/2 +- sqrt((n-2)^2/4 + nu)     (branch pair)
    eta(x)    = x*(x + n - 2)                        (their inverse)
    dual(x)   = 2 - n - x                            (branch exchange)

Negative discriminants follow the convention sqrt(x) = sqrt(|x|)*i, so a
weight is a complex number together with a flag for the logarithmic
solution at the resonance value nu = -(n-2)^2/4.

Arithmetic is on plain rationals: an integral value is a Python int and
any other rational a ``Fraction`` (``rational``), and a float input means
its exact binary rational.  ``Scalar`` is the type at the boundary
(ingest, the public records, ``str`` and JSON) and does no arithmetic.
Each derived value comes from one listed eigenvalue plus n and constants,
so it is exact when its source is exact and the value is rational: a
weight carries that one bit (``Weight.exact``).  An inexact value's ``str``
is "~" and the 17 significant digits of its double, in tables and messages
alike.  A single global epsilon (default 1e-12) snaps float eigenvalues
onto their thresholds once (``links.snap_to_thresholds``).  Each shown
value is rounded once, to the double nearest the exact value: ``float`` of
a rational, ``round_surd`` of a surd.  Signs and order of a weight are
decided exactly on its surds (``surd_sign``, ``surd_cmp``), not on its view.

A weight is two exact surds, re + i*im, each (c, s, q) = c + s*sqrt(q):
for every rational eigenvalue, irrational radicals included, eta, duality
and the conjugate-pair sum and product are exact formulas on them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key
from itertools import groupby
from operator import itemgetter
from typing import Optional, Tuple

from .errors import DimensionTooSmall

DEFAULT_EPSILON = 1e-12


def check_dimension(n: int, minimum: int = 3) -> None:
    """Validate a cone dimension, raising DimensionTooSmall below ``minimum``."""
    if not isinstance(n, int):
        raise TypeError(f"cone dimension must be an integer, got {n!r}")
    if n < minimum:
        raise DimensionTooSmall(f"cone dimension n={n} requires n >= {minimum}")


def rational(x):
    """x as an exact rational: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def round_surd(c, s: int, q) -> float:
    """The double nearest to c + s*sqrt(q), ties to even: one rounding.

    c and q >= 0 are ints, Fractions or floats, a float counting as its
    exact binary rational; s is -1, 0 or +1.  sqrt(q) = sqrt(a*b)/b for
    q = a/b is bracketed by isqrt(a*b * 4**k) and that plus one; where c
    and s*sqrt(q) have opposite signs the value is taken as the conjugate
    quotient (c^2 - q)/(c - s*sqrt(q)), which does not cancel.  Either way
    the bracket's relative width is about 2**-64 on the first pass, and k
    grows until both ends round to the same double (Ziv's loop); it ends
    at once when sqrt(q) is rational, and otherwise because an irrational
    value is never a rounding boundary.
    """
    cn, cd = c.as_integer_ratio()
    a, b = q.as_integer_ratio()
    if not s or not a:
        return cn / cd + 0.0
    ab = a * b
    cancels = s * cn < 0
    k = max(64 - (ab.bit_length() >> 1), 0)
    while True:
        radicand = ab << 2 * k
        root = math.isqrt(radicand)
        scale = b << k
        if cancels:
            num = (cn * cn * b - a * cd * cd) << k
            den = cd * (cn * scale - s * cd * root)
            lo, hi = num / den, num / (den - s * cd * cd)
        else:
            den = cd * scale
            num = cn * scale + s * cd * root
            lo, hi = num / den, (num + s * cd) / den
        if lo == hi or root * root == radicand:
            return lo + 0.0
        k = 2 * k + 64


def rational_sqrt(value):
    """Square root of a nonnegative int or Fraction, as ``rational``; None if irrational."""
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return rn if rd == 1 else Fraction(rn, rd)
    return None


def _value(other):
    """The number behind an operand: a Scalar's value, else the operand."""
    return other.value if isinstance(other, Scalar) else other


def _raw(value, exact: bool) -> "Scalar":
    """A scalar around an int, a ``Fraction`` or a float that is not -0.0."""
    s = object.__new__(Scalar)
    s.value, s.exact = value, exact
    return s


class Scalar:
    """An exact rational, with its provenance: the type at the boundary.

    ``value`` is an int when integral, else a ``Fraction`` (``rational``),
    or a float input kept as its double, which means its exact binary
    rational.  Comparison and ``hash`` are exact, and ``-`` negates; a
    Scalar does no other arithmetic, which the analysis does on the
    rationals.  ``exact`` is False when a float input went into the value,
    or when the value is the correctly rounded double of an irrational
    (``Weight.real``); ``str`` is then "~" + ``format(float(value), ".17g")``
    instead of ``str(value)``, and the JSON value a number.
    """

    __slots__ = ("value", "exact")

    def __init__(self, value, exact: Optional[bool] = None):
        if isinstance(value, Scalar):
            self.value = value.value
            self.exact = value.exact
            return
        if exact is None:
            exact = isinstance(value, (int, Fraction))
        self.value = value + 0.0 if type(value) is float and not exact else rational(value)
        self.exact = exact

    # -- constructors -------------------------------------------------

    @staticmethod
    def wrap(value) -> "Scalar":
        return value if isinstance(value, Scalar) else Scalar(value)

    @staticmethod
    def parse(text) -> "Scalar":
        """Parse a JSON-style number or an exact "p/q" string."""
        if isinstance(text, str):
            parts = text.split("/")
            if len(parts) > 2 or not parts[0].strip():
                raise ValueError(f"not a rational literal: {text!r}")
            return _raw(rational(Fraction(text)), True)
        if isinstance(text, bool):
            raise ValueError("booleans are not numbers")
        if isinstance(text, int):
            return Scalar(text)
        if isinstance(text, float):
            if not math.isfinite(text):
                raise ValueError(f"non-finite number {text!r}")
            return _raw(text + 0.0, False)
        raise ValueError(f"unsupported numeric literal: {text!r}")

    # -- representation -----------------------------------------------

    def __repr__(self) -> str:
        if self.exact:
            return f"Scalar({self.value}, exact)"
        return f"Scalar({float(self.value)}, float)"

    def __str__(self) -> str:
        if self.exact:
            return str(self.value)
        return "~" + format(float(self.value), ".17g")

    def as_fraction(self) -> Fraction:
        """The exact value as a ``Fraction``."""
        return Fraction(self.value)

    def __float__(self) -> float:
        """The view: the double nearest the exact value."""
        return float(self.value)

    def __neg__(self):
        return _raw(-self.value, self.exact) if self.value else self

    # -- comparison ----------------------------------------------------

    def __eq__(self, other):
        return self.value == _value(other)

    def __lt__(self, other):
        return self.value < _value(other)

    def __le__(self, other):
        return self.value <= _value(other)

    def __gt__(self, other):
        return self.value > _value(other)

    def __ge__(self, other):
        return self.value >= _value(other)

    def __hash__(self):
        return hash(self.value)

    def is_zero(self) -> bool:
        return self.value == 0


ZERO = Scalar(0)
_NIL = (0, 0, 0)  # the surd of zero


class Weight:
    """A possibly-complex indicial exponent, re + i*im, each part one surd.

    ``re`` and ``im`` are surds (c, s, q), meaning c + s*sqrt(q) with ints
    or Fractions c and q >= 0 (``rational``) and s in {-1, 0, +1}, in
    normal form: a rational radical is folded into c, so s = 0 exactly
    when the part is rational, and then q = 0.  A real weight has im
    (0, 0, 0); at most one part carries a radical.  ``exact`` is the
    provenance of the source eigenvalue, one bit shared by a branch pair,
    its shifts and its duals.  ``real`` and ``imag`` are the views, set
    once as Scalars for the boundary: a rational part is exact when
    ``exact`` is set, and an irrational one is its correctly rounded double
    (``round_surd``), never exact.  ``log_factor`` marks the companion
    solution r^{-(n-2)/2} * log(r) at the resonance.

    ``Weight(re, im, exact, log_factor)`` is the one constructor and takes
    the parts in normal form.  Weights compare and hash by exact value
    (``re``, ``im`` and ``log_factor``), which the normal form makes unique.
    """

    __slots__ = ("re", "im", "exact", "log_factor", "real", "imag")

    def __init__(self, re, im=_NIL, exact: bool = True, log_factor: bool = False):
        self.re, self.im, self.exact, self.log_factor = re, im, exact, log_factor
        self.real = _view(re, exact)
        self.imag = ZERO if im == _NIL else _view(im, exact)

    def __eq__(self, other):
        if not isinstance(other, Weight):
            return NotImplemented
        return self.re == other.re and self.im == other.im and self.log_factor == other.log_factor

    def __hash__(self):
        return hash((self.re, self.im, self.log_factor))

    def __repr__(self) -> str:
        return f"Weight(real={self.real!r}, imag={self.imag!r}, log_factor={self.log_factor!r})"

    def __sub__(self, other) -> "Weight":
        return self + -other

    def __add__(self, other) -> "Weight":
        """x + delta for an int or Fraction delta: c moves; the radical and the log flag stay."""
        c, s, q = self.re
        return Weight((rational(c + other), s, q), self.im, self.exact, self.log_factor)


def _view(x, exact: bool) -> Scalar:
    """The Scalar view of a surd: its rational value, or its rounded double."""
    c, s, q = x
    return _raw(round_surd(c, s, q), False) if s else _raw(c, exact)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def surd_sign(c, s, q) -> int:
    """The exact sign of c + s*sqrt(q) (rationals, q >= 0): at most one squaring."""
    sc, sr = _sign(c), _sign(s) if q else 0
    if sc == 0 or sr == 0 or sc == sr:
        return sc or sr
    return sc * _sign(c * c - s * s * q)


def surd_cmp(x, y) -> int:
    """The exact sign of x - y for surds (c, s, q): at most two squarings.

    With x - y = (d + s1*sqrt(q1)) - s2*sqrt(q2) and d = c1 - c2, the two
    parts are compared by sign first and, when the signs agree, by their
    squares, whose difference is again a surd in sqrt(q1).
    """
    (c1, s1, q1), (c2, s2, q2) = x, y
    d = c1 - c2
    left, right = surd_sign(d, s1, q1), surd_sign(0, s2, q2)
    if left != right or left == 0:
        return left or -right
    return left * surd_sign(d * d + s1 * s1 * q1 - s2 * s2 * q2, 2 * d * s1, q1)


def _lex_cmp(x, y) -> int:
    """``surd_cmp`` on tuples of surds, lexicographically."""
    for a, b in zip(x, y):
        c = surd_cmp(a, b)
        if c:
            return c
    return 0


def is_double(x) -> bool:
    """True when x, an int or a ``Fraction`` with up to 53 bits, is dyadic: a double, its own view."""
    d = x.denominator
    return not d & (d - 1) and d.bit_length() <= 1075 and x.numerator.bit_length() <= 53


def exact_sorted(items, key, surds, plain) -> list:
    """``items`` sorted by ``key``, then each run of equal views stably by exact value.

    ``key(item)`` starts with the views, correctly rounded doubles, of the
    surds (c, s, q) of ``surds(item)``, compared lexicographically.  Rounding
    is monotone, so only a run of equal first views can be out of exact
    order, and equal values keep their ``key`` order.  A run whose views are
    all their exact values (``plain(item)``, see ``is_double``) holds equal
    values and keeps its order without a surd computed.  Another run whose
    surds are all rational sorts on the rationals; ``surd_cmp`` runs only
    where a run holds an irrational.
    """
    out = []
    keyed = sorted([(key(item), item) for item in items], key=itemgetter(0))
    for _, group in groupby(keyed, lambda pair: pair[0][0]):
        run = [item for _, item in group]
        if len(run) > 1 and not all(map(plain, run)):
            pairs = [(surds(item), item) for item in run]
            if any(s for pair in pairs for _, s, _ in pair[0]):
                pairs.sort(key=cmp_to_key(lambda x, y: _lex_cmp(x[0], y[0])))
            else:
                pairs.sort(key=lambda pair: [c for c, _, _ in pair[0]])
            run = [item for _, item in pairs]
        out += run
    return out


def weight_pair_sum(a: Weight, b: Weight) -> Scalar:
    """Exact sum of two conjugate branch weights (radicals cancel), or of two
    real weights with at most one irrational radical, its surd rounded once."""
    (c1, s1, q1), (c2, s2, q2), (t, u, p) = a.re, b.re, a.im
    if b.im != (-t, -u, p) or s1 and s2 and (s1 + s2 or q1 != q2):
        raise ValueError("weights are not a conjugate pair")
    c = rational(c1 + c2)
    if s1 + s2:
        return _raw(round_surd(c, s1 + s2, q1 or q2), False)
    return _raw(c, a.exact and b.exact)


def weight_pair_product(a: Weight, b: Weight) -> Scalar:
    """Exact product of two conjugate branch weights, or of two rational real weights.

    (c + t)(c - t) = c^2 - t^2 on the real axis and c^2 + t^2 on the
    imaginary axis, with t^2 carried exactly.
    """
    (c1, s1, q1), (c2, s2, q2), (t, u, p) = a.re, b.re, a.im
    if b.im != (-t, -u, p) or (s1 or s2 or t or u) and (c2, s2, q2) != (c1, -s1, q1):
        raise ValueError("weights are not a conjugate pair")
    return _raw(rational(c1 * c2 + s1 * s2 * q1 + t * t + p), a.exact and b.exact)


def critical_eigenvalue(n: int) -> Scalar:
    """The resonance threshold -(n-2)^2/4."""
    check_dimension(n)
    return Scalar(Fraction(-((n - 2) ** 2), 4))


def xi_pair(n: int, nu) -> Tuple[Weight, Weight]:
    """The branch pair (xi_plus, xi_minus) for the eigenvalue nu.

    The square root of the discriminant is taken once, rational or None,
    and shared by both weights with the provenance of nu.  At discriminant
    zero both weights equal -(n-2)/2 with log_factor False; the
    logarithmic companion is obtained via resonance_pair.
    """
    check_dimension(n)
    nu = Scalar.wrap(nu)
    half = rational(Fraction(2 - n, 2))
    disc = rational(half * half + rational(nu.value))
    q = abs(disc)
    root = rational_sqrt(q)
    if disc < 0:
        re, up, down = (half, 0, 0), (0, 1, q), (0, -1, q)
        if root is not None:
            up, down = (root, 0, 0), (-root, 0, 0)
        return Weight(re, up, nu.exact), Weight(re, down, nu.exact)
    if root is None:
        return Weight((half, 1, q), _NIL, nu.exact), Weight((half, -1, q), _NIL, nu.exact)
    return (Weight((rational(half + root), 0, 0), _NIL, nu.exact),
            Weight((rational(half - root), 0, 0), _NIL, nu.exact))


def eta(n: int, x):
    """eta(x) = x*(x + n - 2) over the complex plane.

    Accepts a Weight or a bare scalar-like value.  Returns a Scalar when the
    result is real, otherwise a (real, imag) pair of Scalars, each exact
    when x is of exact provenance and the value is rational.  For x =
    (a + s*sqrt(q)) + i*(t + u*sqrt(p)) with at most one radical,
    eta = a(a+n-2) + q - t^2 - p + (s*sqrt(q) + i*(t + u*sqrt(p)))*(2a+n-2),
    so the round trip eta(xi_pm(nu)) == nu is exact for every rational nu,
    including irrational and imaginary radicals.  An irrational part is
    the surd rounded once.
    """
    check_dimension(n)
    if not isinstance(x, Weight):
        x = Scalar.wrap(x)
        x = Weight((rational(x.value), 0, 0), exact=x.exact)
    (a, s, q), (t, u, p), exact = x.re, x.im, x.exact
    cross, c = a + a + n - 2, a * (a + n - 2)
    if t or u:
        re = _raw(rational(c - (t * t if t else p)), exact)
        if not cross:
            return re
        if u:
            return re, _raw(round_surd(0, u if cross > 0 else -u, p * cross * cross), False)
        return re, _raw(rational(t * cross), exact)
    c = rational(c + q if s else c)
    if not s or not cross:
        return _raw(c, exact)
    return _raw(round_surd(c, s if cross > 0 else -s, q * cross * cross), False)


def dual_weight(n: int, x: Weight) -> Weight:
    """The dual weight 2 - n - x; an involution fixing -(n-2)/2.

    For a complex weight this conjugates, exchanging xi_plus and xi_minus.
    The dual shares the radical of x with the opposite sign.
    """
    check_dimension(n)
    (c, s, q), (t, u, p) = x.re, x.im
    return Weight((2 - n - c, -s, q), (-t, -u, p), x.exact, x.log_factor)


def resonance_pair(n: int) -> Tuple[Weight, Weight]:
    """The solution pair at nu = -(n-2)^2/4: r^{-(n-2)/2} and its log companion."""
    check_dimension(n)
    half = (rational(Fraction(2 - n, 2)), 0, 0)
    return (Weight(half), Weight(half, log_factor=True))


class Record:
    """Base of the records that a ``NamedTuple`` cannot express.

    A subclass names its fields in ``_shown`` (and in ``__slots__``, unless
    it needs a ``__dict__``) and sets each once in ``__init__`` with
    ``object.__setattr__``; assigning or deleting one later raises
    ``AttributeError``.  Two records of one class are equal, and hash
    alike, when their ``_compared`` fields are; ``repr`` shows the
    ``_shown`` fields as ``Name(field=value, ...)``.  The constructor takes
    the slots in order (``_shown`` when there are none), which is how
    ``copy`` and ``pickle`` rebuild a record.
    """

    __slots__ = ()
    _compared: Tuple[str, ...] = ()
    _shown: Tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__ or self._shown)
