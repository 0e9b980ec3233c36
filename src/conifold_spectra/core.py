"""Indicial-root algebra on a cone of dimension n.

The whole package revolves around three elementary maps attached to a cone
dimension n >= 3:

    xi_pm(nu) = -(n-2)/2 +- sqrt((n-2)^2/4 + nu)     (branch pair)
    eta(x)    = x*(x + n - 2)                        (their inverse)
    dual(x)   = 2 - n - x                            (branch exchange)

Negative discriminants follow the convention sqrt(x) = sqrt(|x|)*i, so a
weight is a complex number together with a flag for the logarithmic
solution at the resonance value nu = -(n-2)^2/4.

Arithmetic is exact.  An integral value is a Python int and any other
rational a ``Fraction`` (``rational``), so integers skip the pure-Python
``Fraction`` arithmetic.  A float input keeps its double, which means its
exact binary rational: it enters +, * and / through ``rational``, and
Python compares and hashes it exactly.  A value's ``exact`` flag is
provenance only, False where a float input went in or the value is
irrational; ``str`` then shows "~" and the 17 significant digits of its
double, in tables and messages alike.  A single global epsilon
(default 1e-12) snaps float eigenvalues onto their thresholds once
(``links.snap_to_thresholds``).  Each shown value is rounded once, to the
double nearest the exact value: ``float`` of a rational, ``round_surd`` of
a surd.  Signs and order of a weight base + sign*sqrt(square) are decided
exactly (``surd_sign``, ``surd_cmp``), not on its view.

A weight is one exact value, base + sign*sqrt(square) on the real or the
imaginary axis: for every rational eigenvalue, irrational radicals
included, eta, duality and the conjugate-pair sum and product are exact
formulas on (base, square, sign).
"""

from __future__ import annotations

import math
from fractions import Fraction
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


def _exact_sqrt(value) -> Optional[Fraction]:
    """Square root of a nonnegative rational, or None if irrational."""
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _exact(x):
    """An int or ``Fraction`` as it is; a float as its exact binary rational."""
    return Fraction(x) if type(x) is float else x


def _value(other):
    """The number behind an operand: a Scalar's value, else the operand."""
    return other.value if isinstance(other, Scalar) else other


def _operand(other):
    """(exact rational value, exact flag) of an arithmetic operand."""
    if isinstance(other, Scalar):
        return _exact(other.value), other.exact
    return _exact(other), isinstance(other, (int, Fraction))


def _raw(value, exact: bool) -> "Scalar":
    """A scalar around an int, a ``Fraction`` or a float that is not -0.0."""
    s = object.__new__(Scalar)
    s.value, s.exact = value, exact
    return s


class Scalar:
    """An exact rational, with its provenance.

    ``value`` is an int when integral, else a ``Fraction`` (``rational``),
    or a float input kept as its double, which means its exact binary
    rational.  +, -, * and / are exact, and so are comparison and ``hash``.
    ``exact`` is False when a float input went into the value, or when the
    value is the correctly rounded double of an irrational (``sqrt``,
    ``Weight.real``); ``str`` is then "~" + ``format(float(value), ".17g")``
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

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        value, exact = _operand(other)
        return _raw(rational(_exact(self.value) + value), self.exact and exact)

    __radd__ = __add__

    def __neg__(self):
        return _raw(-self.value, self.exact) if self.value else self

    def __sub__(self, other):
        return self + (-Scalar.wrap(other))

    def __rsub__(self, other):
        return Scalar.wrap(other) + (-self)

    def __mul__(self, other):
        value, exact = _operand(other)
        return _raw(rational(_exact(self.value) * value), self.exact and exact)

    __rmul__ = __mul__

    def __truediv__(self, other):
        value, exact = _operand(other)
        return _raw(rational(Fraction(self.value) / value), self.exact and exact)

    def __rtruediv__(self, other):
        return Scalar.wrap(other) / self

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

    def sqrt(self) -> "Scalar":
        """Nonnegative square root: exact if rational, else the nearest double."""
        if self < 0:
            raise ValueError("sqrt of a negative scalar")
        value = rational(self.value)
        root = _exact_sqrt(value)
        if root is not None:
            return _raw(rational(root), self.exact)
        return _raw(round_surd(0, 1, value), False)


ZERO = Scalar(0)


class Weight:
    """A possibly-complex indicial exponent: base + sign*sqrt(square).

    The radical lies on the real axis, or on the imaginary axis when
    ``imaginary`` is set; ``base``, ``square`` and ``sign`` (-1, 0 or +1)
    are exact.  ``offset`` is the signed radical sign*sqrt(square), shared
    by a branch pair, its shifts and its duals; an irrational one is held as
    its correctly rounded double (``_irrational``).  ``real`` and ``imag``
    are exact when rational, else the correctly rounded double of the exact
    value; ``real`` is computed on first read and cached.  ``log_factor``
    marks the companion solution r^{-(n-2)/2} * log(r) at the resonance.

    ``Weight(real, imag, log_factor)`` builds a weight from its views.
    Weights compare by exact value (``real_surd``, imaginary sign and square,
    ``log_factor``) and hash by their views, which equal values share.
    """

    __slots__ = ("base", "square", "sign", "imaginary", "log_factor", "offset", "_real")

    def __init__(self, real: Scalar, imag: Scalar = ZERO, log_factor: bool = False):
        self.base = real
        self.imaginary = not imag.is_zero()
        self.square = imag * imag if self.imaginary else ZERO
        self.sign = (1 if imag > 0 else -1) if self.imaginary else 0
        self.offset = imag if self.imaginary else ZERO
        self.log_factor = log_factor
        self._real = real

    @staticmethod
    def _surd(base: Scalar, square: Scalar, sign: int, imaginary: bool, offset: Scalar,
              log_factor: bool = False) -> "Weight":
        w = object.__new__(Weight)
        w.base, w.square, w.sign, w.imaginary = base, square, sign, imaginary
        w.offset, w.log_factor, w._real = offset, log_factor, None
        return w

    @property
    def real(self) -> Scalar:
        if self._real is None:
            if self.imaginary or self.sign == 0:
                self._real = self.base
            elif _irrational(self):
                self._real = _raw(round_surd(self.base.value, self.sign, self.square.value), False)
            else:
                self._real = self.base + self.offset
        return self._real

    @property
    def imag(self) -> Scalar:
        return self.offset if self.imaginary else ZERO

    @property
    def is_real(self) -> bool:
        return not self.imaginary

    def _exact_key(self):
        imag = (self.sign, self.square) if self.imaginary else (0, 0)
        return (real_surd(self), imag, self.log_factor)

    def __eq__(self, other):
        if not isinstance(other, Weight):
            return NotImplemented
        return self._exact_key() == other._exact_key()

    def __hash__(self):
        return hash((self.real, self.imag, self.log_factor))

    def __repr__(self) -> str:
        return f"Weight(real={self.real!r}, imag={self.imag!r}, log_factor={self.log_factor!r})"

    def _shift(self, delta: Scalar) -> "Weight":
        """x + delta: the base moves and the radical stays."""
        return Weight._surd(self.base + delta, self.square, self.sign, self.imaginary, self.offset)

    def __sub__(self, other) -> "Weight":
        return self._shift(-Scalar.wrap(other))

    def __add__(self, other) -> "Weight":
        return self._shift(Scalar.wrap(other))


def _irrational(w: Weight) -> bool:
    """Whether the real radical of w is irrational: its offset is then a double."""
    return type(w.offset.value) is float


def real_surd(w: Weight):
    """Re(w) as (c, s, q), meaning c + s*sqrt(q) in exact rationals; a rational radical folds into c."""
    if w.imaginary or not _irrational(w):
        return (_exact(w.real.value), 0, 0)
    return (w.base.value, w.sign, w.square.value)


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


def _conjugates(a: Weight, b: Weight) -> bool:
    return a.imaginary == b.imaginary and a.square == b.square and a.sign == -b.sign


def weight_pair_sum(a: Weight, b: Weight) -> Scalar:
    """Exact sum of two conjugate branch weights (radicals cancel), or of two
    real weights with at most one irrational radical, its surd rounded once."""
    if _conjugates(a, b):
        return a.base + b.base
    if a.is_real and b.is_real:
        (c1, s1, q1), (c2, s2, q2) = real_surd(a), real_surd(b)
        if not (s1 or s2):
            return a.real + b.real
        if not (s1 and s2):
            return _raw(round_surd(c1 + c2, s1 or s2, q1 or q2), False)
    raise ValueError("weights are not a conjugate pair")


def weight_pair_product(a: Weight, b: Weight) -> Scalar:
    """Exact product of two conjugate branch weights.

    (c + t)(c - t) = c^2 - t^2 on the real axis and c^2 + t^2 on the
    imaginary axis, with t^2 carried exactly.
    """
    if _conjugates(a, b) and a.base == b.base:
        if a.imaginary:
            return a.base * a.base + a.square
        return a.base * a.base - a.square
    if a.is_real and b.is_real and not (_irrational(a) or _irrational(b)):
        return a.real * b.real
    raise ValueError("weights are not a conjugate pair")


def discriminant(n: int, nu) -> Scalar:
    """(n-2)^2/4 + nu, exact whenever nu is."""
    check_dimension(n)
    return Scalar(Fraction((n - 2) ** 2, 4)) + Scalar.wrap(nu)


def critical_eigenvalue(n: int) -> Scalar:
    """The resonance threshold -(n-2)^2/4."""
    check_dimension(n)
    return Scalar(Fraction(-((n - 2) ** 2), 4))


def xi_pair(n: int, nu) -> Tuple[Weight, Weight]:
    """The branch pair (xi_plus, xi_minus) for the eigenvalue nu.

    The square root of the discriminant is taken once (``Scalar.sqrt``) and
    shared by both weights.  At discriminant zero both
    weights equal -(n-2)/2 with log_factor False; the logarithmic companion
    is obtained via resonance_pair.
    """
    disc = discriminant(n, nu)
    half = Scalar(Fraction(-(n - 2), 2), disc.exact)
    if disc.is_zero():
        return (Weight._surd(half, ZERO, 0, False, ZERO), Weight._surd(half, ZERO, 0, False, ZERO))
    imaginary = disc < 0
    square = -disc if imaginary else disc
    offset = square.sqrt()
    return (
        Weight._surd(half, square, +1, imaginary, offset),
        Weight._surd(half, square, -1, imaginary, -offset),
    )


def eta(n: int, x):
    """eta(x) = x*(x + n - 2) over the complex plane.

    Accepts a Weight or a bare scalar-like value.  Returns a Scalar when the
    result is real, otherwise a (real, imag) pair of Scalars.  On a branch
    weight a = base, eta = a(a+n-2) -+ square + offset*(2a+n-2), so the round
    trip eta(xi_pm(nu)) == nu is exact for every rational nu, including
    irrational and imaginary radicals.  The eta of a real irrational weight
    is the surd a(a+n-2) + square + sign*(2a+n-2)*sqrt(square), rounded once.
    """
    check_dimension(n)
    if not isinstance(x, Weight):
        x = Weight(Scalar.wrap(x))
    a = x.base
    if x.sign == 0:
        return a * (a + (n - 2))
    if not (x.imaginary or _irrational(x)):
        root = a + x.offset
        return root * (root + (n - 2))
    cross = a + a + (n - 2)
    if x.imaginary:
        re = a * (a + (n - 2)) - x.square
        return re if cross.is_zero() else (re, x.offset * cross)
    c = a * (a + (n - 2)) + x.square
    if cross.is_zero():
        return c
    sign = x.sign if cross > 0 else -x.sign
    return _raw(round_surd(c.value, sign, (x.square * cross * cross).value), False)


def dual_weight(n: int, x: Weight) -> Weight:
    """The dual weight 2 - n - x; an involution fixing -(n-2)/2.

    For a complex weight this conjugates, exchanging xi_plus and xi_minus.
    The dual shares the radical of x with the opposite sign.
    """
    check_dimension(n)
    return Weight._surd(Scalar(2 - n) - x.base, x.square, -x.sign, x.imaginary, -x.offset, x.log_factor)


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
