"""Indicial-root algebra on a cone of dimension n.

The whole package revolves around three elementary maps attached to a cone
dimension n >= 3:

    xi_pm(nu) = -(n-2)/2 +- sqrt((n-2)^2/4 + nu)     (branch pair)
    eta(x)    = x*(x + n - 2)                        (their inverse)
    dual(x)   = 2 - n - x                            (branch exchange)

Negative discriminants follow the convention sqrt(x) = sqrt(|x|)*i, so a
weight is a complex number stored as (real, imag) together with a flag for
the logarithmic solution at the resonance value nu = -(n-2)^2/4.

Arithmetic runs on two paths.  Rational inputs stay exact (``fractions``);
non-square discriminants and float inputs promote the numeric *views* to
high-precision floats (``mpmath``, default 50 significant digits), with a
single global epsilon (default 1e-12) for threshold comparisons.  Weights
built by the branch functions additionally carry their exact radical
structure, base +- sqrt(square) on the real or imaginary axis, so eta,
duality and the conjugate-pair sum and product identities are exact for
every rational eigenvalue, irrational radicals included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Tuple, Union

import mpmath

DEFAULT_DPS = 50
DEFAULT_EPSILON = 1e-12

RationalLike = Union[int, Fraction]


def check_dimension(n: int, minimum: int = 3) -> None:
    """Validate a cone dimension, raising DimensionTooSmall below ``minimum``."""
    from .errors import DimensionTooSmall

    if not isinstance(n, int):
        raise TypeError(f"cone dimension must be an integer, got {n!r}")
    if n < minimum:
        raise DimensionTooSmall(f"cone dimension n={n} requires n >= {minimum}")


def _to_mpf(value):
    if isinstance(value, Fraction):
        return mpmath.mpf(value.numerator) / mpmath.mpf(value.denominator)
    return mpmath.mpf(value)


def _exact_sqrt(value: Fraction) -> Optional[Fraction]:
    """Square root of a nonnegative rational, or None if irrational."""
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


class Scalar:
    """A number on the exact-rational or the high-precision float path.

    Exact scalars wrap ``Fraction`` and are closed under +, -, *, / and
    comparison.  Float scalars wrap ``mpmath.mpf``; any operation touching a
    float scalar yields a float scalar.
    """

    __slots__ = ("value", "exact")

    def __init__(self, value, exact: Optional[bool] = None):
        if isinstance(value, Scalar):
            self.value = value.value
            self.exact = value.exact
            return
        if exact is None:
            exact = isinstance(value, (int, Fraction))
        if exact:
            self.value = Fraction(value)
        else:
            self.value = _to_mpf(value)
        self.exact = exact

    # -- constructors -------------------------------------------------

    @staticmethod
    def wrap(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(value)
        return Scalar(_to_mpf(value), exact=False)

    @staticmethod
    def parse(text) -> "Scalar":
        """Parse a JSON-style number or an exact "p/q" string."""
        if isinstance(text, str):
            parts = text.split("/")
            if len(parts) > 2 or not parts[0].strip():
                raise ValueError(f"not a rational literal: {text!r}")
            return Scalar(Fraction(text))
        if isinstance(text, bool):
            raise ValueError("booleans are not numbers")
        if isinstance(text, int):
            return Scalar(text)
        if isinstance(text, float):
            if not math.isfinite(text):
                raise ValueError(f"non-finite number {text!r}")
            return Scalar(_to_mpf(text), exact=False)
        raise ValueError(f"unsupported numeric literal: {text!r}")

    # -- representation -----------------------------------------------

    def __repr__(self) -> str:
        tag = "exact" if self.exact else "float"
        return f"Scalar({self.value}, {tag})"

    def __str__(self) -> str:
        if self.exact:
            return str(self.value)
        return mpmath.nstr(self.value, 17)

    def as_fraction(self) -> Fraction:
        if not self.exact:
            raise ValueError("scalar is on the float path")
        return self.value

    def __float__(self) -> float:
        return float(self.value)

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other) -> "Scalar":
        return Scalar.wrap(other)

    def __add__(self, other):
        o = self._coerce(other)
        if self.exact and o.exact:
            return Scalar(self.value + o.value)
        return Scalar(_to_mpf(self.value) + _to_mpf(o.value), exact=False)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.value, exact=self.exact)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if self.exact and o.exact:
            return Scalar(self.value * o.value)
        return Scalar(_to_mpf(self.value) * _to_mpf(o.value), exact=False)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if self.exact and o.exact:
            return Scalar(self.value / o.value)
        return Scalar(_to_mpf(self.value) / _to_mpf(o.value), exact=False)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    # -- comparison ----------------------------------------------------

    def _cmp_value(self, other):
        o = self._coerce(other)
        if self.exact and o.exact:
            return self.value, o.value
        return _to_mpf(self.value), _to_mpf(o.value)

    def __eq__(self, other):
        a, b = self._cmp_value(other)
        return a == b

    def __lt__(self, other):
        a, b = self._cmp_value(other)
        return a < b

    def __le__(self, other):
        a, b = self._cmp_value(other)
        return a <= b

    def __gt__(self, other):
        a, b = self._cmp_value(other)
        return a > b

    def __ge__(self, other):
        a, b = self._cmp_value(other)
        return a >= b

    def __hash__(self):
        if self.exact:
            return hash(self.value)
        return hash(float(self.value))

    def is_zero(self) -> bool:
        return self.value == 0

    def compare_threshold(self, threshold, eps: float = DEFAULT_EPSILON) -> int:
        """Three-way comparison against a threshold.

        Exact ties are trusted only on the rational path; on the float path
        values within ``eps`` of the threshold compare equal (resonance
        detection is an equality phenomenon, so the coercion is deliberate
        and must be surfaced by callers).
        """
        t = Scalar.wrap(threshold)
        if self.exact and t.exact:
            if self.value < t.value:
                return -1
            if self.value > t.value:
                return 1
            return 0
        diff = _to_mpf(self.value) - _to_mpf(t.value)
        if abs(diff) <= eps:
            return 0
        return -1 if diff < 0 else 1

    def sqrt(self, dps: int = DEFAULT_DPS) -> "Scalar":
        """Nonnegative square root; promotes to the float path if irrational."""
        if self < 0:
            raise ValueError("sqrt of a negative scalar")
        if self.exact:
            root = _exact_sqrt(self.value)
            if root is not None:
                return Scalar(root)
        with mpmath.workdps(dps):
            return Scalar(mpmath.sqrt(_to_mpf(self.value)), exact=False)


ZERO = Scalar(0)


@dataclass(frozen=True)
class Radical:
    """Exact structure base + sign*sqrt(square) on the real or imaginary axis.

    Branch-pair weights are conjugate quadratic irrationalities; carrying the
    square of the radical exactly keeps eta, duality and the branch-pair
    identities on the exact path even when the radical itself is irrational
    (in which case only the *view* of the weight is a high-precision float).
    """

    base: Scalar
    square: Scalar
    sign: int            # -1, 0, +1
    axis: str            # "real" | "imag"


@dataclass(frozen=True)
class Weight:
    """A possibly-complex indicial exponent.

    ``real``/``imag`` are the numeric views (exact when possible, else
    high-precision floats).  ``radical`` preserves the exact quadratic
    structure for weights produced by the branch functions; ``imag_sq`` is
    the exact square of the imaginary part.  ``log_factor`` marks the
    companion solution r^{-(n-2)/2} * log(r) at the resonance.
    """

    real: Scalar
    imag: Scalar = ZERO
    log_factor: bool = False
    imag_sq: Optional[Scalar] = field(default=None, compare=False)
    radical: Optional[Radical] = field(default=None, compare=False)

    def __post_init__(self):
        if self.radical is None and self.imag.is_zero() and self.real.exact:
            object.__setattr__(
                self, "radical", Radical(self.real, ZERO, 0, "real")
            )
        if self.imag_sq is None:
            if self.radical is not None and self.radical.axis == "imag":
                object.__setattr__(self, "imag_sq", self.radical.square)
            else:
                object.__setattr__(self, "imag_sq", self.imag * self.imag)

    @staticmethod
    def from_radical(radical: Radical, log_factor: bool = False, dps: int = DEFAULT_DPS) -> "Weight":
        offset = (
            ZERO
            if radical.sign == 0
            else radical.square.sqrt(dps) * radical.sign
        )
        if radical.axis == "real":
            return Weight(radical.base + offset, ZERO, log_factor, ZERO, radical)
        return Weight(radical.base, offset, log_factor, radical.square, radical)

    @property
    def is_real(self) -> bool:
        return self.imag.is_zero()

    @property
    def is_exact(self) -> bool:
        return self.real.exact and self.imag_sq.exact

    def conjugate(self) -> "Weight":
        rad = self.radical
        if rad is not None and rad.axis == "imag":
            rad = Radical(rad.base, rad.square, -rad.sign, rad.axis)
        return Weight(self.real, -self.imag, self.log_factor, self.imag_sq, rad)

    def __str__(self) -> str:
        if self.is_real:
            base = str(self.real)
        elif self.imag < 0:
            base = f"({self.real}-{-self.imag}i)"
        else:
            base = f"({self.real}+{self.imag}i)"
        return base + ("*log(r)" if self.log_factor else "")

    def _shift(self, delta: Scalar) -> "Weight":
        rad = self.radical
        if rad is not None:
            rad = Radical(rad.base + delta, rad.square, rad.sign, rad.axis)
        return Weight(self.real + delta, self.imag, False, self.imag_sq, rad)

    def __sub__(self, other) -> "Weight":
        return self._shift(-Scalar.wrap(other))

    def __add__(self, other) -> "Weight":
        return self._shift(Scalar.wrap(other))


def weight_pair_sum(a: Weight, b: Weight) -> Scalar:
    """Exact sum of two conjugate branch weights (radicals cancel)."""
    ra, rb = a.radical, b.radical
    if (
        ra is not None
        and rb is not None
        and ra.axis == rb.axis
        and ra.square == rb.square
        and ra.sign == -rb.sign
    ):
        return ra.base + rb.base
    if a.is_real and b.is_real:
        return a.real + b.real
    raise ValueError("weights are not a conjugate pair")


def weight_pair_product(a: Weight, b: Weight) -> Scalar:
    """Exact product of two conjugate branch weights.

    (c + t)(c - t) = c^2 - t^2 on the real axis and c^2 + t^2 on the
    imaginary axis, with t^2 carried exactly.
    """
    ra, rb = a.radical, b.radical
    if (
        ra is not None
        and rb is not None
        and ra.axis == rb.axis
        and ra.square == rb.square
        and ra.sign == -rb.sign
        and ra.base == rb.base
    ):
        if ra.axis == "real":
            return ra.base * ra.base - ra.square
        return ra.base * ra.base + ra.square
    if a.is_real and b.is_real and a.real.exact and b.real.exact:
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


def xi_pair(n: int, nu, dps: int = DEFAULT_DPS) -> Tuple[Weight, Weight]:
    """The branch pair (xi_plus, xi_minus) for the eigenvalue nu.

    At discriminant zero both weights equal -(n-2)/2 with log_factor False;
    the logarithmic companion is obtained via resonance_pair.
    """
    check_dimension(n)
    disc = discriminant(n, nu)
    half = Scalar(Fraction(-(n - 2), 2))
    if not disc.exact:
        half = Scalar(_to_mpf(Fraction(-(n - 2), 2)), exact=False)
    if disc >= 0:
        if disc.is_zero():
            rad = Radical(half, ZERO, 0, "real")
            return (Weight.from_radical(rad, dps=dps), Weight.from_radical(rad, dps=dps))
        return (
            Weight.from_radical(Radical(half, disc, +1, "real"), dps=dps),
            Weight.from_radical(Radical(half, disc, -1, "real"), dps=dps),
        )
    mag = -disc
    return (
        Weight.from_radical(Radical(half, mag, +1, "imag"), dps=dps),
        Weight.from_radical(Radical(half, mag, -1, "imag"), dps=dps),
    )


def eta(n: int, x):
    """eta(x) = x*(x + n - 2) over the complex plane.

    Accepts a Weight or a bare scalar-like value.  Returns a Scalar when the
    result is real, otherwise a (real, imag) pair of Scalars.  The radical
    structure keeps the round trip eta(xi_pm(nu)) == nu exact for every
    rational nu, including irrational and imaginary radicals.
    """
    check_dimension(n)
    if not isinstance(x, Weight):
        x = Weight(Scalar.wrap(x))
    rad = x.radical
    if rad is not None:
        a = rad.base
        cross = a + a + (n - 2)
        rational = a * (a + (n - 2))
        if rad.sign == 0 or rad.square.is_zero():
            return rational
        if rad.axis == "real":
            if cross.is_zero():
                return rational + rad.square
            root = rad.square.sqrt() * rad.sign
            return (a + root) * (a + root + (n - 2))
        if cross.is_zero():
            return rational - rad.square
        root = rad.square.sqrt() * rad.sign
        return (rational - rad.square, root * cross)
    a = x.real
    re = a * (a + (n - 2)) - x.imag_sq
    im_coeff = a + a + (n - 2)
    if x.is_real:
        return re
    im = x.imag * im_coeff
    if im.is_zero():
        return re
    return (re, im)


def dual_weight(n: int, x: Weight, dps: int = DEFAULT_DPS) -> Weight:
    """The dual weight 2 - n - x; an involution fixing -(n-2)/2.

    For a complex weight this conjugates, exchanging xi_plus and xi_minus.
    """
    check_dimension(n)
    rad = x.radical
    if rad is not None:
        flipped = Radical(Scalar(2 - n) - rad.base, rad.square, -rad.sign, rad.axis)
        return Weight.from_radical(flipped, x.log_factor, dps=dps)
    return Weight(
        Scalar(2 - n) - x.real,
        -x.imag,
        x.log_factor,
        x.imag_sq,
    )


def resonance_pair(n: int) -> Tuple[Weight, Weight]:
    """The solution pair at nu = -(n-2)^2/4: r^{-(n-2)/2} and its log companion."""
    check_dimension(n)
    half = Scalar(Fraction(-(n - 2), 2))
    return (Weight(half), Weight(half, ZERO, True))
