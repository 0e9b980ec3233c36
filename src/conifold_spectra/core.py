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
a rational, ``round_surd`` of a surd.  Signs and order of a weight
base + sign*sqrt(square) are decided exactly (``surd_sign``, ``surd_cmp``),
not on its view.

A weight is one exact value, base + sign*sqrt(square) on the real or the
imaginary axis: for every rational eigenvalue, irrational radicals
included, eta, duality and the conjugate-pair sum and product are exact
formulas on (base, square, sign).
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


class Weight:
    """A possibly-complex indicial exponent: base + sign*sqrt(square).

    The radical lies on the real axis, or on the imaginary axis when
    ``imaginary`` is set.  ``base`` and ``square`` are ints or Fractions
    (``rational``) and ``sign`` is -1, 0 or +1; ``root`` is sqrt(square)
    when that is rational, else None.  ``exact`` is the provenance of the
    source eigenvalue, one bit shared by a branch pair, its shifts and its
    duals.  ``real`` and ``imag`` are the views, built as Scalars at the
    boundary: a rational view is exact when ``exact`` is set, and an
    irrational one is its correctly rounded double (``round_surd``), never
    exact; ``real`` is computed on first read and cached.  ``log_factor``
    marks the companion solution r^{-(n-2)/2} * log(r) at the resonance.

    ``Weight(real, imag, log_factor)`` builds a weight from its views.
    Weights compare by exact value (``surds`` and ``log_factor``) and hash
    by their views, which equal values share.
    """

    __slots__ = ("base", "square", "sign", "imaginary", "root", "exact", "log_factor", "_real")

    def __init__(self, real: Scalar, imag: Scalar = ZERO, log_factor: bool = False):
        self.base = rational(real.value)
        self.imaginary = not imag.is_zero()
        self.root = abs(rational(imag.value))
        self.square = self.root * self.root
        self.sign = (1 if imag > 0 else -1) if self.imaginary else 0
        self.exact = real.exact and imag.exact
        self.log_factor = log_factor
        self._real = real

    @staticmethod
    def _surd(base, square, sign: int, imaginary: bool, root, exact: bool,
              log_factor: bool = False) -> "Weight":
        w = object.__new__(Weight)
        w.base, w.square, w.sign, w.imaginary, w.root = base, square, sign, imaginary, root
        w.exact, w.log_factor, w._real = exact, log_factor, None
        return w

    @property
    def real(self) -> Scalar:
        if self._real is None:
            if self.imaginary:
                self._real = _raw(self.base, self.exact)
            elif self.root is None:
                self._real = _raw(round_surd(self.base, self.sign, self.square), False)
            else:
                self._real = _raw(rational(self.base + self.sign * self.root), self.exact)
        return self._real

    @property
    def imag(self) -> Scalar:
        if not self.imaginary:
            return ZERO
        if self.root is None:
            return _raw(round_surd(0, self.sign, self.square), False)
        return _raw(self.sign * self.root, self.exact)

    @property
    def is_real(self) -> bool:
        return not self.imaginary

    def surds(self):
        """(Re, Im) as surds (c, s, q), meaning c + s*sqrt(q); a rational radical folds into c."""
        if not self.imaginary:
            return real_surd(self), (0, 0, 0)
        if self.root is None:
            return (self.base, 0, 0), (0, self.sign, self.square)
        return (self.base, 0, 0), (self.sign * self.root, 0, 0)

    def __eq__(self, other):
        if not isinstance(other, Weight):
            return NotImplemented
        return self.surds() == other.surds() and self.log_factor == other.log_factor

    def __hash__(self):
        return hash((self.real, self.imag, self.log_factor))

    def __repr__(self) -> str:
        return f"Weight(real={self.real!r}, imag={self.imag!r}, log_factor={self.log_factor!r})"

    def _shift(self, delta) -> "Weight":
        """x + delta for an int or Fraction delta: the base moves and the radical stays."""
        base = rational(self.base + rational(delta))
        return Weight._surd(base, self.square, self.sign, self.imaginary, self.root, self.exact)

    def __sub__(self, other) -> "Weight":
        return self._shift(-other)

    def __add__(self, other) -> "Weight":
        return self._shift(other)


def real_surd(w: Weight):
    """Re(w) as (c, s, q), meaning c + s*sqrt(q) in exact rationals; a rational radical folds into c."""
    if w.root is None and not w.imaginary:
        return (w.base, w.sign, w.square)
    return (rational(w.real.value), 0, 0)


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


def _surds_cmp(x, y) -> int:
    """``surd_cmp`` on tuples of surds, lexicographically."""
    for a, b in zip(x, y):
        c = surd_cmp(a, b)
        if c:
            return c
    return 0


def is_double(x) -> bool:
    """True when x, an int or a ``Fraction`` with up to 53 bits, is dyadic: a double, its own view.

    A float here is the view of an irrational, never a value.
    """
    d = 3 if type(x) is float else x.denominator
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
                pairs.sort(key=cmp_to_key(lambda x, y: _surds_cmp(x[0], y[0])))
            else:
                pairs.sort(key=lambda pair: [c for c, _, _ in pair[0]])
            run = [item for _, item in pairs]
        out += run
    return out


def _conjugates(a: Weight, b: Weight) -> bool:
    return a.imaginary == b.imaginary and a.square == b.square and a.sign == -b.sign


def weight_pair_sum(a: Weight, b: Weight) -> Scalar:
    """Exact sum of two conjugate branch weights (radicals cancel), or of two
    real weights with at most one irrational radical, its surd rounded once."""
    exact = a.exact and b.exact
    if _conjugates(a, b):
        return _raw(rational(a.base + b.base), exact)
    if a.is_real and b.is_real:
        (c1, s1, q1), (c2, s2, q2) = real_surd(a), real_surd(b)
        if not (s1 or s2):
            return _raw(rational(c1 + c2), exact)
        if not (s1 and s2):
            return _raw(round_surd(c1 + c2, s1 or s2, q1 or q2), False)
    raise ValueError("weights are not a conjugate pair")


def weight_pair_product(a: Weight, b: Weight) -> Scalar:
    """Exact product of two conjugate branch weights.

    (c + t)(c - t) = c^2 - t^2 on the real axis and c^2 + t^2 on the
    imaginary axis, with t^2 carried exactly.
    """
    exact = a.exact and b.exact
    if _conjugates(a, b) and a.base == b.base:
        square = a.square if a.imaginary else -a.square
        return _raw(rational(a.base * a.base + square), exact)
    if a.is_real and b.is_real and a.root is not None and b.root is not None:
        return _raw(rational(real_surd(a)[0] * real_surd(b)[0]), exact)
    raise ValueError("weights are not a conjugate pair")


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
    imaginary = disc < 0
    square = -disc if imaginary else disc
    root = rational_sqrt(square)
    sign = 1 if disc else 0
    return (
        Weight._surd(half, square, sign, imaginary, root, nu.exact),
        Weight._surd(half, square, -sign, imaginary, root, nu.exact),
    )


def eta(n: int, x):
    """eta(x) = x*(x + n - 2) over the complex plane.

    Accepts a Weight or a bare scalar-like value.  Returns a Scalar when the
    result is real, otherwise a (real, imag) pair of Scalars, each exact
    when x is of exact provenance and the value is rational.  On a branch
    weight a = base, eta = a(a+n-2) -+ square + sign*sqrt(square)*(2a+n-2),
    so the round trip eta(xi_pm(nu)) == nu is exact for every rational nu,
    including irrational and imaginary radicals.  An irrational part is
    the surd rounded once.
    """
    check_dimension(n)
    if not isinstance(x, Weight):
        x = Weight(Scalar.wrap(x))
    a, exact = x.base, x.exact
    if not x.imaginary and x.root is not None:
        r = a + x.sign * x.root
        return _raw(rational(r * (r + n - 2)), exact)
    cross = a + a + n - 2
    sign = x.sign if cross > 0 else -x.sign
    if x.imaginary:
        re = _raw(rational(a * (a + n - 2) - x.square), exact)
        if not cross:
            return re
        if x.root is None:
            return re, _raw(round_surd(0, sign, x.square * cross * cross), False)
        return re, _raw(rational(x.sign * x.root * cross), exact)
    c = rational(a * (a + n - 2) + x.square)
    if not cross:
        return _raw(c, exact)
    return _raw(round_surd(c, sign, x.square * cross * cross), False)


def dual_weight(n: int, x: Weight) -> Weight:
    """The dual weight 2 - n - x; an involution fixing -(n-2)/2.

    For a complex weight this conjugates, exchanging xi_plus and xi_minus.
    The dual shares the radical of x with the opposite sign.
    """
    check_dimension(n)
    return Weight._surd(2 - n - x.base, x.square, -x.sign, x.imaginary, x.root, x.exact, x.log_factor)


def resonance_pair(n: int) -> Tuple[Weight, Weight]:
    """The solution pair at nu = -(n-2)^2/4: r^{-(n-2)/2} and its log companion."""
    check_dimension(n)
    half = Scalar(Fraction(-(n - 2), 2))
    return (Weight(half), Weight(half, ZERO, True))


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
