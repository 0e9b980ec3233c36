"""Exact tensor calculus on R^n \\ {0} with components c * x^alpha * r^s.

Every field component is a finite sum of terms c * x^alpha * r^s with an
exact rational coefficient c, a monomial multi-index alpha and a rational
power s of r = |x| (a ``core.rational``: an int when integral, else a
``Fraction``).  The coefficients are integer numerators ``num`` over one
positive denominator ``den``, divided by their gcd when an operation ends,
so all arithmetic runs on ints; a fractional s = p/q multiplies ``den`` by
q only where d_i r^s = s x_i r^{s-2} brings it in.  ``PolyR.terms`` is a
read-only view of the coefficients as ``core.rational`` values, for tests
and display.  This class of expressions is closed under the partial
derivative and hence under all the flat-space differential operators used
by the verifier.

Sign conventions match the geometric ones used throughout the package:

    laplacian(f)   = -sum_i d_i d_i f
    divergence(w)  = -sum_i d_i w_i          (1-forms)
    divergence(h)_k = -sum_i d_i h_{ik}      (symmetric 2-tensors)
    sym_gradient(w)_{ij} = (d_i w_j + d_j w_i) / 2
    bianchi(h)     = divergence(h) + d(trace h) / 2

On the flat cone the Lichnerowicz Laplacian is the componentwise scalar
Laplacian, so no curvature terms appear anywhere.  A field operator reads
the field's common denominator D and r-power denominator q once, runs one
derivative kernel (``_deriv_into``, also behind ``PolyR.diff``) over every
component's numerators over D into plain dicts, and reduces each output
component once.  The scalar and field Laplacians share one loop.

Normal form.  Every PolyR is kept reduced modulo r^2 = sum_i x_i^2: the
exponent of the last coordinate x_n is always 0 or 1, by the rewrite
x_n^2 -> r^2 - sum_{i<n} x_i^2 (division by a monic quadratic in x_n).  The
rewrite preserves total degree, so homogeneity is unchanged.  The form is
unique, so a field is zero exactly when its term dictionary is empty and
two fields are equal exactly when their terms agree one by one:

  * within one class of r-powers modulo 2, multiplying by a large even
    power of r turns the terms into P(x', r^2) + x_n Q(x', r^2) with x' the
    first n-1 coordinates and P, Q polynomials, distinct terms giving
    distinct monomials of P and Q.  Under x_n -> -x_n the first part is
    even and the second odd, so both vanish; P(x', |x'|^2 + x_n^2) = 0 for
    all x forces P = 0 because, for each x', |x'|^2 + x_n^2 fills the
    half-line t >= |x'|^2, and likewise Q = 0;
  * powers of r differing by a non-even-integer amount are linearly
    independent over polynomials, since r is positive and irrational over
    the rational function field.

The rewrite (``_add_term``) runs wherever an exponent of x_n can reach 2,
so every operation returns the normal form; in the derivative kernel that
is only the raised term of d_n.  The Laplacian uses sum_i x_i^2 = r^2 in
closed form, and its exponents only fall.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple, Union

from ..core import rational

Monomial = Tuple[int, ...]
Rational = Union[int, Fraction]  # int when integral (``core.rational``)
TermKey = Tuple[Monomial, Rational]  # (alpha, power of r)


class PolyR:
    """A finite sum of terms (num / den) * x^alpha * r^s over n variables, in normal form."""

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, terms: Optional[Dict[TermKey, Rational]] = None):
        self.n = n
        self.num: Dict[TermKey, int] = {}
        self.den = 1
        if terms:
            self.den = lcm(*(rational(c).denominator for c in terms.values()))
            for (alpha, s), c in terms.items():
                _add_term(self.num, (alpha, rational(s)), int(rational(c) * self.den))
            reduced = _poly(n, self.num, self.den)
            self.num, self.den = reduced.num, reduced.den

    # -- constructors ---------------------------------------------------

    @staticmethod
    def constant(n: int, c) -> "PolyR":
        return PolyR(n, {((0,) * n, 0): c})

    @staticmethod
    def coordinate(n: int, i: int) -> "PolyR":
        alpha = [0] * n
        alpha[i] = 1
        return PolyR(n, {(tuple(alpha), 0): 1})

    @staticmethod
    def monomial(n: int, alpha: Monomial, coeff=1, r_power=0) -> "PolyR":
        return PolyR(n, {(tuple(alpha), r_power): coeff})

    @staticmethod
    def r_power(n: int, s) -> "PolyR":
        return PolyR(n, {((0,) * n, s): 1})

    @property
    def terms(self) -> Mapping[TermKey, Rational]:
        """The coefficients as ``core.rational`` values, read-only."""
        return MappingProxyType({k: rational(Fraction(c, self.den)) for k, c in self.num.items()})

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "PolyR") -> "PolyR":
        den = lcm(self.den, other.den)
        num = dict(self.num) if den == self.den else _add_into({}, self.num.items(), den // self.den)
        return _poly(self.n, _add_into(num, other.num.items(), den // other.den), den)

    def __neg__(self) -> "PolyR":
        return self * -1

    def __sub__(self, other: "PolyR") -> "PolyR":
        return self + (-other)

    def __mul__(self, other) -> "PolyR":
        if isinstance(other, PolyR):
            return _poly(self.n, _mul_into({}, self.num.items(), other.num.items()), self.den * other.den)
        c = Fraction(other)
        return _poly(self.n, {k: v * c.numerator for k, v in self.num.items()}, self.den * c.denominator)

    __rmul__ = __mul__

    def mul_r_power(self, s) -> "PolyR":
        s = rational(s)
        out = PolyR(self.n)
        out.num = {(alpha, rational(sp + s)): c for (alpha, sp), c in self.num.items()}
        out.den = self.den
        return out

    # -- calculus ---------------------------------------------------------

    def diff(self, i: int) -> "PolyR":
        den, q, (items,) = _common((self,))
        return _poly(self.n, _deriv_into({}, self.n, items, i, 1, q), den * q)

    def laplacian(self) -> "PolyR":
        """-sum_i d_i d_i in closed form, using sum_i x_i^2 = r^2 (``_laplacian_into``)."""
        den, q, (items,) = _common((self,))
        return _poly(self.n, _laplacian_into({}, self.n, items, q), den * q * q)

    # -- structure --------------------------------------------------------

    def homogeneity(self) -> Optional[Fraction]:
        """Total degree (monomial degree + r-power) if homogeneous, else None."""
        degrees = {sum(alpha) + s for (alpha, s) in self.num}
        if not degrees:
            return None
        if len(degrees) == 1:
            return Fraction(next(iter(degrees)))
        return None

    def is_zero(self) -> bool:
        """Exact zero test: the normal form of zero is the empty sum."""
        return not self.num

    def __repr__(self) -> str:
        if not self.num:
            return "0"
        bits = []
        for (alpha, s), c in sorted(self.terms.items()):
            piece = [str(c)]
            for i, e in enumerate(alpha):
                if e:
                    piece.append(f"x{i + 1}" + (f"^{e}" if e > 1 else ""))
            if s:
                piece.append(f"r^{s}")
            bits.append("*".join(piece))
        return " + ".join(bits)


def _add_term(num: Dict[TermKey, int], key: TermKey, coeff: int) -> None:
    """Add one numerator, rewriting x_n^2 -> r^2 - sum_{i<n} x_i^2 first."""
    alpha, s = key
    if alpha[-1] >= 2:
        lowered = alpha[:-1] + (alpha[-1] - 2,)
        _add_term(num, (lowered, s + 2), coeff)
        for i in range(len(alpha) - 1):
            _add_term(num, (lowered[:i] + (lowered[i] + 2,) + lowered[i + 1:], s), -coeff)
        return
    num[key] = num.get(key, 0) + coeff


def _add_into(num: Dict[TermKey, int], items, k: int = 1) -> Dict[TermKey, int]:
    """Add k times the numerators ``items`` into ``num``; zeros stay until ``_poly``."""
    get = num.get
    for key, c in items:
        num[key] = get(key, 0) + c * k
    return num


def _mul_into(num: Dict[TermKey, int], mine, theirs, k: int = 1) -> Dict[TermKey, int]:
    """Add k times the product of the numerators ``mine`` and ``theirs`` into ``num``."""
    for (a1, s1), c1 in mine:
        for (a2, s2), c2 in theirs:
            _add_term(num, (tuple(map(add, a1, a2)), rational(s1 + s2)), c1 * c2 * k)
    return num


def _deriv_into(num: Dict[TermKey, int], n: int, items, i: int, k: int, q: int) -> Dict[TermKey, int]:
    """Add k * q * d_i of the numerators ``items`` (in normal form) into ``num``:
    d_i (x^alpha r^s) = alpha_i x^{alpha - e_i} r^s + s x^{alpha + e_i} r^{s-2},
    q a multiple of every r-power denominator.  Only the raised term of
    d_{n-1} can square x_n, so only it goes through the rewrite."""
    get = num.get
    kq = k * q
    last = i == n - 1
    for (alpha, s), c in items:
        a = alpha[i]
        head, tail = alpha[:i], alpha[i + 1:]
        if a:
            key = (head + (a - 1,) + tail, s)
            num[key] = get(key, 0) + c * a * kq
        if s:
            c *= k * s.numerator * (q // s.denominator)
            if last and a:
                _add_term(num, (head + (2,), s - 2), c)
            else:
                key = (head + (a + 1,) + tail, s - 2)
                num[key] = get(key, 0) + c
    return num


def _laplacian_into(num: Dict[TermKey, int], n: int, items, q: int) -> Dict[TermKey, int]:
    """Add q^2 * Delta of the numerators ``items`` into ``num``, Delta = -sum_i d_i d_i:
    Delta(c x^alpha r^s) = -c [sum_i alpha_i (alpha_i - 1) x^{alpha - 2e_i} r^s
                               + s (2|alpha| + n + s - 2) x^alpha r^{s-2}];
    every exponent only falls, so normal form maps to normal form."""
    get = num.get
    qq = q * q
    for (alpha, s), c in items:
        for i, e in enumerate(alpha):
            if e >= 2:
                key = (alpha[:i] + (e - 2,) + alpha[i + 1:], s)
                num[key] = get(key, 0) - c * e * (e - 1) * qq
        if s:
            sq = s.numerator * (q // s.denominator)
            key = (alpha, s - 2)
            num[key] = get(key, 0) - c * sq * (q * (2 * sum(alpha) + n - 2) + sq)
    return num


def _poly(n: int, num: Dict[TermKey, int], den: int) -> PolyR:
    """num / den with zero numerators dropped, then all divided by their gcd; zero is 0/1."""
    if 0 in num.values():
        num = {key: c for key, c in num.items() if c}
    g = gcd(den, *num.values()) if den != 1 else 1
    out = PolyR.__new__(PolyR)
    out.n, out.num, out.den = n, {key: c // g for key, c in num.items()} if g != 1 else num, den // g
    return out


def _common(polys):
    """(D, q, items): D the lcm of the denominators of ``polys``, q that of
    their r-powers, and the numerator items of each over D."""
    den = lcm(*(p.den for p in polys))
    q = lcm(*{s.denominator for p in polys for _alpha, s in p.num})
    scaled = [p.num.items() if p.den == den else [(t, c * (den // p.den)) for t, c in p.num.items()] for p in polys]
    return den, q, scaled


# ---------------------------------------------------------------------------
# tensor fields
# ---------------------------------------------------------------------------


class FieldExpr:
    """A rank-0, 1 or symmetric rank-2 field with PolyR components."""

    __slots__ = ("n", "rank", "comps")

    def __init__(self, n: int, rank: int, comps: Optional[Dict[Tuple[int, ...], PolyR]] = None):
        if rank not in (0, 1, 2):
            raise ValueError("rank must be 0, 1 or 2")
        self.n = n
        self.rank = rank
        self.comps: Dict[Tuple[int, ...], PolyR] = {}
        if comps:
            for key, poly in comps.items():
                self._add_component(key, poly)

    def _canon(self, key: Tuple[int, ...]) -> Tuple[int, ...]:
        if self.rank == 2:
            i, j = key
            return (i, j) if i <= j else (j, i)
        return key

    @staticmethod
    def scalar(poly: PolyR) -> "FieldExpr":
        return FieldExpr(poly.n, 0, {(): poly})

    def component(self, *key: int) -> PolyR:
        return self.comps.get(self._canon(tuple(key)), PolyR(self.n))

    def set_component(self, key: Tuple[int, ...], poly: PolyR) -> None:
        key = self._canon(key)
        if poly.num:
            self.comps[key] = poly
        else:
            self.comps.pop(key, None)

    def _add_component(self, key: Tuple[int, ...], poly: PolyR) -> None:
        key = self._canon(key)
        self.set_component(key, self.comps[key] + poly if key in self.comps else poly)

    def keys(self):
        if self.rank == 0:
            return [()]
        if self.rank == 1:
            return [(i,) for i in range(self.n)]
        return [(i, j) for i in range(self.n) for j in range(i, self.n)]

    def map_components(self, fn) -> "FieldExpr":
        """Apply a componentwise map that sends zero to zero."""
        out = FieldExpr(self.n, self.rank)
        for key, poly in self.comps.items():
            poly = fn(poly)
            if poly.num:
                out.comps[key] = poly
        return out

    def __add__(self, other: "FieldExpr") -> "FieldExpr":
        """The sum, walking only the components present on either side."""
        if (other.n, other.rank) != (self.n, self.rank):
            raise ValueError("rank/dimension mismatch")
        out = FieldExpr(self.n, self.rank)
        out.comps = dict(self.comps)
        for key, poly in other.comps.items():
            out._add_component(key, poly)
        return out

    def __sub__(self, other: "FieldExpr") -> "FieldExpr":
        return self + other.scale(-1)

    def scale(self, c) -> "FieldExpr":
        return self.map_components(lambda p: p * c)

    def scale_poly(self, poly: PolyR) -> "FieldExpr":
        return self.map_components(lambda p: p * poly)

    def mul_r_power(self, s) -> "FieldExpr":
        return self.map_components(lambda p: p.mul_r_power(s))

    def is_zero(self) -> bool:
        """Exact zero test: no component is stored empty."""
        return not self.comps

    def homogeneity(self) -> Optional[Fraction]:
        degrees = set()
        for key in self.keys():
            poly = self.component(*key)
            if poly.num:
                h = poly.homogeneity()
                if h is None:
                    return None
                degrees.add(h)
        if len(degrees) == 1:
            return next(iter(degrees))
        return None

    def __repr__(self) -> str:
        body = ", ".join(f"{key}: {poly!r}" for key, poly in sorted(self.comps.items()))
        return f"FieldExpr(rank={self.rank}, {{{body}}})"


# ---------------------------------------------------------------------------
# flat differential operators
# ---------------------------------------------------------------------------


def _field(n: int, rank: int, nums: Dict[Tuple[int, ...], Dict[TermKey, int]], den: int) -> FieldExpr:
    """The field whose components are nums[key] / den, each reduced once."""
    out = FieldExpr(n, rank)
    for key, num in nums.items():
        if any(num.values()):
            out.comps[key] = _poly(n, num, den)
    return out


def _slots(key: Tuple[int, ...]):
    """(i, the key without i) for each distinct index i of a component key."""
    i, j = key[0], key[-1]
    return ((i, key[1:]),) if i == j else ((i, key[1:]), (j, key[:-1]))


def laplacian(f: FieldExpr) -> FieldExpr:
    """Geometer's Laplacian -sum_i d_i d_i, componentwise with one q; the
    components do not mix, so each keeps its own denominator."""
    den, q, items = _common(f.comps.values())
    nums = {key: _laplacian_into({}, f.n, terms, q) for key, terms in zip(f.comps, items)}
    return _field(f.n, f.rank, nums, den * q * q)


def gradient(f: FieldExpr) -> FieldExpr:
    """Exterior derivative of a scalar, as a 1-form."""
    if f.rank != 0:
        raise ValueError("gradient expects a scalar field")
    den, q, (items,) = _common((f.component(),))
    return _field(f.n, 1, {(i,): _deriv_into({}, f.n, items, i, 1, q) for i in range(f.n)}, den * q)


def divergence(f: FieldExpr) -> FieldExpr:
    """delta with the geometric sign: -trace of the covariant derivative."""
    if f.rank not in (1, 2):
        raise ValueError("divergence expects rank 1 or 2")
    den, q, items = _common(f.comps.values())
    accs = {key: {} for key in FieldExpr(f.n, f.rank - 1).keys()}
    for key, terms in zip(f.comps, items):
        for i, rest in _slots(key):
            _deriv_into(accs[rest], f.n, terms, i, -1, q)
    return _field(f.n, f.rank - 1, accs, den * q)


def sym_gradient(w: FieldExpr) -> FieldExpr:
    """delta^*: the symmetrized covariant derivative with the 1/2 factor."""
    if w.rank != 1:
        raise ValueError("sym_gradient expects a 1-form")
    den, q, items = _common(w.comps.values())
    accs = {(i, j): {} for i in range(w.n) for j in range(i, w.n)}
    for (j,), terms in zip(w.comps, items):
        for i in range(w.n):
            _deriv_into(accs[(i, j) if i <= j else (j, i)], w.n, terms, i, 2 if i == j else 1, q)
    return _field(w.n, 2, accs, den * q * 2)


def trace(h: FieldExpr) -> FieldExpr:
    if h.rank != 2:
        raise ValueError("trace expects a symmetric 2-tensor")
    den, _q, items = _common([p for (i, j), p in h.comps.items() if i == j])
    return _field(h.n, 0, {(): _add_into({}, chain.from_iterable(items))}, den)


def bianchi_op(h: FieldExpr) -> FieldExpr:
    """B = delta + d(trace)/2 on symmetric 2-tensors, as (2 delta h + d tr h) / 2."""
    if h.rank != 2:
        raise ValueError("bianchi_op expects a symmetric 2-tensor")
    den, q, items = _common(h.comps.values())
    accs = {(k,): {} for k in range(h.n)}
    tr: Dict[TermKey, int] = {}
    for (i, j), terms in zip(h.comps, items):
        _deriv_into(accs[(j,)], h.n, terms, i, -2, q)
        if i != j:
            _deriv_into(accs[(i,)], h.n, terms, j, -2, q)
        else:
            _add_into(tr, terms)
    tr_terms = [(t, c) for t, c in tr.items() if c]  # often zero: trace-free input
    for (k,), acc in accs.items():
        _deriv_into(acc, h.n, tr_terms, k, 1, q)
    return _field(h.n, 1, accs, den * q * 2)


def radial_contraction(h: FieldExpr) -> FieldExpr:
    """h(d_r, .) = sum_i (x_i / r) h_{i.}, one rank lower."""
    if h.rank not in (1, 2):
        raise ValueError("radial contraction expects rank 1 or 2")
    den, _q, items = _common(h.comps.values())
    accs = {key: {} for key in FieldExpr(h.n, h.rank - 1).keys()}
    for key, terms in zip(h.comps, items):
        for i, rest in _slots(key):
            for (alpha, s), c in terms:
                _add_term(accs[rest], (alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:], s - 1), c)
    return _field(h.n, h.rank - 1, accs, den)


def euclidean_metric(n: int) -> FieldExpr:
    out = FieldExpr(n, 2)
    for i in range(n):
        out.set_component((i, i), PolyR.constant(n, 1))
    return out


def radial_form(n: int) -> FieldExpr:
    """r dr = sum_i x_i dx_i."""
    out = FieldExpr(n, 1)
    for i in range(n):
        out.set_component((i,), PolyR.coordinate(n, i))
    return out


def sym_product(w: FieldExpr, v: FieldExpr) -> FieldExpr:
    """Symmetric product w (x) v + v (x) w of two 1-forms."""
    if w.rank != 1 or v.rank != 1:
        raise ValueError("sym_product expects two 1-forms")
    dw, _q, ws = _common(w.comps.values())
    dv, _q, vs = _common(v.comps.values())
    nums = {(i, j): {} for i in range(w.n) for j in range(i, w.n)}
    for (i,), mine in zip(w.comps, ws):
        for (j,), theirs in zip(v.comps, vs):
            _mul_into(nums[(i, j) if i <= j else (j, i)], mine, theirs, 2 if i == j else 1)
    return _field(w.n, 2, nums, dw * dv)


def proportionality(f: FieldExpr, g: FieldExpr):
    """Exact constant c with f == c*g, or None if no such constant exists.

    Both fields are in normal form, so f == c*g holds exactly when it holds
    term by term: c is read from one term of g and certified by the exact
    zero test of f - c*g, so a wrong constant can never be reported.
    """
    if (f.n, f.rank) != (g.n, g.rank):
        return None
    if g.is_zero():
        return Fraction(0) if f.is_zero() else None
    if f.is_zero():
        return Fraction(0)
    key, gp = next(iter(g.comps.items()))
    term, gc = next(iter(gp.num.items()))
    fp = f.comps.get(key, PolyR(f.n))
    # a Fraction, not a float: (f_num * g_den) / (f_den * g_num) on ints
    c = Fraction(fp.num.get(term, 0) * gp.den, fp.den * gc)
    return c if (f - g.scale(c)).is_zero() else None
