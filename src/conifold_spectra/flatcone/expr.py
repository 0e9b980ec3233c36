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
Laplacian, so no curvature terms appear anywhere.  The first-order
operators add k * d_i of each stored component into accumulators in place
(``PolyR._accumulate``) and halve once at the end.

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

The rewrite is applied at the single point where a term enters a
dictionary (``PolyR._add_term``), so every constructor, product and
derivative returns the normal form.  The Laplacian uses sum_i x_i^2 = r^2
in closed form and maps normal form to normal form.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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
                self._add_term((alpha, rational(s)), int(rational(c) * self.den))
            self._reduce()

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

    def copy(self) -> "PolyR":
        out = PolyR(self.n)
        out.num = dict(self.num)
        out.den = self.den
        return out

    @property
    def terms(self) -> Mapping[TermKey, Rational]:
        """The coefficients as ``core.rational`` values, read-only."""
        return MappingProxyType({k: rational(Fraction(c, self.den)) for k, c in self.num.items()})

    # -- ring operations -------------------------------------------------

    def _add_term(self, key: TermKey, coeff: int) -> None:
        """Add one numerator, rewriting x_n^2 -> r^2 - sum_{i<n} x_i^2 first."""
        alpha, s = key
        if alpha[-1] >= 2:
            lowered = alpha[:-1] + (alpha[-1] - 2,)
            self._add_term((lowered, s + 2), coeff)
            for i in range(self.n - 1):
                raised = lowered[:i] + (lowered[i] + 2,) + lowered[i + 1:]
                self._add_term((raised, s), -coeff)
            return
        new = self.num.get(key, 0) + coeff
        if new:
            self.num[key] = new
        else:
            self.num.pop(key, None)

    def _reduce(self, divisor: int = 1) -> "PolyR":
        """Divide by ``divisor``, then numerators and denominator by their gcd; zero is 0/1."""
        self.den *= divisor
        g = gcd(self.den, *self.num.values()) if self.den != 1 else 1
        if g != 1:
            self.den //= g
            for key in self.num:
                self.num[key] //= g
        return self

    def _accumulate(self, p: "PolyR", k: int, i: Optional[int] = None) -> None:
        """Add k * p, or k * d_i p, into self in place, unreduced; a derivative
        brings in the r-power denominators q of p (d_i r^s = s x_i r^{s-2})."""
        q = 1 if i is None else lcm(*(s.denominator for _alpha, s in p.num))
        e = p.den * q
        den = lcm(self.den, e)
        if den != self.den:
            self.num = {key: c * (den // self.den) for key, c in self.num.items()}
            self.den = den
        k *= den // e
        add = self._add_term
        if i is None:
            for key, c in p.num.items():
                add(key, c * k)
            return
        for (alpha, s), c in p.num.items():
            c *= k
            a = alpha[i]
            if a:
                add((alpha[:i] + (a - 1,) + alpha[i + 1:], s), c * a * q)
            if s:
                sq = s.numerator * (q // s.denominator)
                add((alpha[:i] + (a + 1,) + alpha[i + 1:], s - 2), c * sq)

    def __add__(self, other: "PolyR") -> "PolyR":
        out = self.copy()
        out._accumulate(other, 1)
        return out._reduce()

    def __neg__(self) -> "PolyR":
        return self * -1

    def __sub__(self, other: "PolyR") -> "PolyR":
        return self + (-other)

    def __mul__(self, other) -> "PolyR":
        out = PolyR(self.n)
        if isinstance(other, PolyR):
            for (a1, s1), c1 in self.num.items():
                for (a2, s2), c2 in other.num.items():
                    alpha = tuple(e1 + e2 for e1, e2 in zip(a1, a2))
                    out._add_term((alpha, rational(s1 + s2)), c1 * c2)
            out.den = self.den * other.den
            return out._reduce()
        c = Fraction(other)
        if c:
            out.num = {k: v * c.numerator for k, v in self.num.items()}
            out.den = self.den * c.denominator
        return out._reduce()

    __rmul__ = __mul__

    def mul_r_power(self, s) -> "PolyR":
        s = rational(s)
        out = PolyR(self.n)
        out.num = {(alpha, rational(sp + s)): c for (alpha, sp), c in self.num.items()}
        out.den = self.den
        return out

    # -- calculus ---------------------------------------------------------

    def diff(self, i: int) -> "PolyR":
        out = PolyR(self.n)
        out._accumulate(self, 1, i)
        return out._reduce()

    def laplacian(self) -> "PolyR":
        """-sum_i d_i d_i in closed form, using sum_i x_i^2 = r^2.

        Delta(c x^alpha r^s) = -c [sum_i alpha_i (alpha_i - 1) x^{alpha - 2e_i} r^s
                                   + s (2|alpha| + n + s - 2) x^alpha r^{s-2}];
        every exponent only falls, so normal form maps to normal form.  With
        q the r-power denominator, the numerators are scaled by q^2.
        """
        q = lcm(*(s.denominator for _alpha, s in self.num))
        out = PolyR(self.n)
        out.den = self.den * q * q
        for (alpha, s), c in self.num.items():
            for i, e in enumerate(alpha):
                if e >= 2:
                    lowered = alpha[:i] + (e - 2,) + alpha[i + 1:]
                    out._add_term((lowered, s), -c * e * (e - 1) * q * q)
            if s:
                sq = s.numerator * (q // s.denominator)
                out._add_term((alpha, s - 2), -c * sq * (q * (2 * sum(alpha) + self.n - 2) + sq))
        return out._reduce()

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
            out.set_component(key, fn(poly))
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


def laplacian(f: FieldExpr) -> FieldExpr:
    """Geometer's Laplacian -sum_i d_i d_i, componentwise."""
    return f.map_components(PolyR.laplacian)


def gradient(f: FieldExpr) -> FieldExpr:
    """Exterior derivative of a scalar, as a 1-form."""
    if f.rank != 0:
        raise ValueError("gradient expects a scalar field")
    out = FieldExpr(f.n, 1)
    poly = f.component()
    for i in range(f.n):
        out.set_component((i,), poly.diff(i))
    return out


def divergence(f: FieldExpr) -> FieldExpr:
    """delta with the geometric sign: -trace of the covariant derivative."""
    if f.rank == 1:
        acc = PolyR(f.n)
        for (i,), p in f.comps.items():
            acc._accumulate(p, -1, i)
        return FieldExpr.scalar(acc._reduce())
    if f.rank == 2:
        accs = [PolyR(f.n) for _k in range(f.n)]
        for (i, j), p in f.comps.items():
            accs[j]._accumulate(p, -1, i)
            if i != j:
                accs[i]._accumulate(p, -1, j)
        return FieldExpr(f.n, 1, {(k,): acc._reduce() for k, acc in enumerate(accs)})
    raise ValueError("divergence expects rank 1 or 2")


def sym_gradient(w: FieldExpr) -> FieldExpr:
    """delta^*: the symmetrized covariant derivative with the 1/2 factor."""
    if w.rank != 1:
        raise ValueError("sym_gradient expects a 1-form")
    accs = {(i, j): PolyR(w.n) for i in range(w.n) for j in range(i, w.n)}
    for (j,), p in w.comps.items():
        for i in range(w.n):
            accs[(i, j) if i <= j else (j, i)]._accumulate(p, 2 if i == j else 1, i)
    return FieldExpr(w.n, 2, {key: acc._reduce(2) for key, acc in accs.items()})


def trace(h: FieldExpr) -> FieldExpr:
    if h.rank != 2:
        raise ValueError("trace expects a symmetric 2-tensor")
    acc = PolyR(h.n)
    for i in range(h.n):
        acc._accumulate(h.component(i, i), 1)
    return FieldExpr.scalar(acc._reduce())


def bianchi_op(h: FieldExpr) -> FieldExpr:
    """B = delta + d(trace)/2 on symmetric 2-tensors, as (2 delta h + d tr h) / 2."""
    if h.rank != 2:
        raise ValueError("bianchi_op expects a symmetric 2-tensor")
    accs = [PolyR(h.n) for _k in range(h.n)]
    tr = PolyR(h.n)
    for (i, j), p in h.comps.items():
        accs[j]._accumulate(p, -2, i)
        if i != j:
            accs[i]._accumulate(p, -2, j)
        else:
            tr._accumulate(p, 1)
    tr._reduce()
    for k, acc in enumerate(accs):
        acc._accumulate(tr, 1, k)
    return FieldExpr(h.n, 1, {(k,): acc._reduce(2) for k, acc in enumerate(accs)})


def radial_contraction(h: FieldExpr) -> FieldExpr:
    """h(d_r, .) = sum_i (x_i / r) h_{i.}, one rank lower."""
    if h.rank not in (1, 2):
        raise ValueError("radial contraction expects rank 1 or 2")
    out = FieldExpr(h.n, h.rank - 1)
    for key in out.keys():
        acc = PolyR(h.n)
        for i in range(h.n):
            acc._accumulate(PolyR.coordinate(h.n, i) * h.component(i, *key), 1)
        out.set_component(key, acc._reduce().mul_r_power(-1))
    return out


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
    out = FieldExpr(w.n, 2)
    for i in range(w.n):
        for j in range(i, w.n):
            poly = w.component(i) * v.component(j) + w.component(j) * v.component(i)
            out.set_component((i, j), poly)
    return out


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
