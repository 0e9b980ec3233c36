"""Exact tensor calculus on R^n \\ {0} with components c * x^alpha * r^s.

Every field component is a finite sum of terms c * x^alpha * r^s with an
exact rational coefficient c, a monomial multi-index alpha and a rational
power s of r = |x|; both c and s are stored as ``core.rational`` keeps
exact values, an int when integral and a ``Fraction`` otherwise.  This class
of expressions is closed under the partial derivative
(d_i r^s = s x_i r^{s-2}) and hence under all the flat-space differential
operators used by the verifier.

Sign conventions match the geometric ones used throughout the package:

    laplacian(f)   = -sum_i d_i d_i f
    divergence(w)  = -sum_i d_i w_i          (1-forms)
    divergence(h)_k = -sum_i d_i h_{ik}      (symmetric 2-tensors)
    sym_gradient(w)_{ij} = (d_i w_j + d_j w_i) / 2
    bianchi(h)     = divergence(h) + d(trace h) / 2

On the flat cone the Lichnerowicz Laplacian is the componentwise scalar
Laplacian, so no curvature terms appear anywhere.

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
from typing import Dict, Optional, Tuple, Union

from ..core import rational

Monomial = Tuple[int, ...]
Rational = Union[int, Fraction]  # int when integral (``core.rational``)
TermKey = Tuple[Monomial, Rational]  # (alpha, power of r)


class PolyR:
    """A finite sum of terms c * x^alpha * r^s over n variables, in normal form."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Optional[Dict[TermKey, Rational]] = None):
        self.n = n
        self.terms: Dict[TermKey, Rational] = {}
        if terms:
            for (alpha, s), coeff in terms.items():
                if coeff:
                    self._add_term((alpha, rational(s)), rational(coeff))

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

    @staticmethod
    def radius_squared(n: int) -> "PolyR":
        """sum_i x_i^2, whose normal form is r^2."""
        return PolyR.r_power(n, 2)

    def copy(self) -> "PolyR":
        out = PolyR(self.n)
        out.terms = dict(self.terms)
        return out

    # -- ring operations -------------------------------------------------

    def _add_term(self, key: TermKey, coeff: Rational) -> None:
        """Add one term, rewriting x_n^2 -> r^2 - sum_{i<n} x_i^2 first."""
        alpha, s = key
        if alpha[-1] >= 2:
            lowered = alpha[:-1] + (alpha[-1] - 2,)
            self._add_term((lowered, s + 2), coeff)
            for i in range(self.n - 1):
                raised = lowered[:i] + (lowered[i] + 2,) + lowered[i + 1:]
                self._add_term((raised, s), -coeff)
            return
        new = self.terms.get(key, 0) + coeff
        if new:
            self.terms[key] = rational(new)
        else:
            self.terms.pop(key, None)

    def __add__(self, other: "PolyR") -> "PolyR":
        out = self.copy()
        for key, coeff in other.terms.items():
            out._add_term(key, coeff)
        return out

    def __neg__(self) -> "PolyR":
        return self * -1

    def __sub__(self, other: "PolyR") -> "PolyR":
        return self + (-other)

    def __mul__(self, other) -> "PolyR":
        if isinstance(other, PolyR):
            out = PolyR(self.n)
            for (a1, s1), c1 in self.terms.items():
                for (a2, s2), c2 in other.terms.items():
                    alpha = tuple(e1 + e2 for e1, e2 in zip(a1, a2))
                    out._add_term((alpha, rational(s1 + s2)), c1 * c2)
            return out
        out = PolyR(self.n)
        c = rational(other)
        if c:
            out.terms = {k: rational(v * c) for k, v in self.terms.items()}
        return out

    __rmul__ = __mul__

    def mul_r_power(self, s) -> "PolyR":
        s = rational(s)
        out = PolyR(self.n)
        out.terms = {(alpha, rational(sp + s)): c for (alpha, sp), c in self.terms.items()}
        return out

    # -- calculus ---------------------------------------------------------

    def diff(self, i: int) -> "PolyR":
        out = PolyR(self.n)
        for (alpha, s), c in self.terms.items():
            if alpha[i]:
                lowered = list(alpha)
                lowered[i] -= 1
                out._add_term((tuple(lowered), s), c * alpha[i])
            if s:
                raised = list(alpha)
                raised[i] += 1
                out._add_term((tuple(raised), s - 2), c * s)
        return out

    def laplacian(self) -> "PolyR":
        """-sum_i d_i d_i in closed form, using sum_i x_i^2 = r^2.

        Delta(c x^alpha r^s) = -c [sum_i alpha_i (alpha_i - 1) x^{alpha - 2e_i} r^s
                                   + s (2|alpha| + n + s - 2) x^alpha r^{s-2}];
        every exponent only falls, so normal form maps to normal form.
        """
        out = PolyR(self.n)
        for (alpha, s), c in self.terms.items():
            for i, e in enumerate(alpha):
                if e >= 2:
                    lowered = alpha[:i] + (e - 2,) + alpha[i + 1:]
                    out._add_term((lowered, s), -c * e * (e - 1))
            if s:
                out._add_term((alpha, s - 2), -c * s * (2 * sum(alpha) + self.n + s - 2))
        return out

    # -- structure --------------------------------------------------------

    def homogeneity(self) -> Optional[Fraction]:
        """Total degree (monomial degree + r-power) if homogeneous, else None."""
        degrees = {sum(alpha) + s for (alpha, s) in self.terms}
        if not degrees:
            return None
        if len(degrees) == 1:
            return Fraction(next(iter(degrees)))
        return None

    def is_zero(self) -> bool:
        """Exact zero test: the normal form of zero is the empty sum."""
        return not self.terms

    def __repr__(self) -> str:
        if not self.terms:
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
        if poly.terms:
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
            if poly.terms:
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


def partial_derivative(f: FieldExpr, i: int) -> FieldExpr:
    """Componentwise coordinate derivative d_i."""
    return f.map_components(lambda p: p.diff(i))


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
        for i in range(f.n):
            acc = acc + f.component(i).diff(i)
        return FieldExpr.scalar(-acc)
    if f.rank == 2:
        out = FieldExpr(f.n, 1)
        for k in range(f.n):
            acc = PolyR(f.n)
            for i in range(f.n):
                acc = acc + f.component(i, k).diff(i)
            out.set_component((k,), -acc)
        return out
    raise ValueError("divergence expects rank 1 or 2")


def sym_gradient(w: FieldExpr) -> FieldExpr:
    """delta^*: the symmetrized covariant derivative with the 1/2 factor."""
    if w.rank != 1:
        raise ValueError("sym_gradient expects a 1-form")
    out = FieldExpr(w.n, 2)
    half = Fraction(1, 2)
    for i in range(w.n):
        for j in range(i, w.n):
            out.set_component((i, j), (w.component(j).diff(i) + w.component(i).diff(j)) * half)
    return out


def trace(h: FieldExpr) -> FieldExpr:
    if h.rank != 2:
        raise ValueError("trace expects a symmetric 2-tensor")
    acc = PolyR(h.n)
    for i in range(h.n):
        acc = acc + h.component(i, i)
    return FieldExpr.scalar(acc)


def bianchi_op(h: FieldExpr) -> FieldExpr:
    """B = delta + d(trace)/2 on symmetric 2-tensors."""
    div = divergence(h)
    grad_tr = gradient(trace(h))
    return div + grad_tr.scale(Fraction(1, 2))


def radial_contraction(h: FieldExpr) -> FieldExpr:
    """h(d_r, .) = sum_i (x_i / r) h_{i.}, one rank lower."""
    if h.rank not in (1, 2):
        raise ValueError("radial contraction expects rank 1 or 2")
    out = FieldExpr(h.n, h.rank - 1)
    for key in out.keys():
        acc = PolyR(h.n)
        for i in range(h.n):
            acc = acc + PolyR.coordinate(h.n, i) * h.component(i, *key)
        out.set_component(key, acc.mul_r_power(Fraction(-1)))
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
    term, gc = next(iter(gp.terms.items()))
    # a Fraction, not a float: both coefficients may be ints
    c = Fraction(f.comps.get(key, PolyR(f.n)).terms.get(term, 0), gc)
    return c if (f - g.scale(c)).is_zero() else None
