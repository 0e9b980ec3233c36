"""Radial ODE checks for the conical operator.

The conical operator acts on a radial profile u(r) as

    P u = -u'' - (n-1)/r u' + nu/r^2 u,

and r^{xi} solves P u = 0 exactly when eta(xi) = nu, with the extra
solution r^{-(n-2)/2} log(r) at the resonance nu = -(n-2)^2/4.  The
check is symbolic only: it differentiates finite sums c * r^a * log(r)^e
exactly and passes when the residual is identically zero.

The first-printed form of the radial coefficient ("(n-2)/n") disagrees with
the form every subsequent computation uses ("(n-1)/r"); the latter is what
r^{xi} actually solves, the checker uses it, and each report records the
resolution.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, NamedTuple, Optional, Tuple

from ..core import Scalar, check_dimension, critical_eigenvalue, xi_pair
from ..errors import UnsupportedCase

COEFFICIENT_NOTE = (
    "radial coefficient (n-1)/r used; the variant printed once as (n-2)/n "
    "does not annihilate r^xi and is rejected"
)

LogTermKey = Tuple[Fraction, int]  # (power of r, power of log r)


class RadialLogPoly:
    """A finite sum of c * r^a * log(r)^e with exact rational data."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[LogTermKey, Fraction]] = None):
        self.terms: Dict[LogTermKey, Fraction] = {}
        if terms:
            for key, coeff in terms.items():
                if coeff:
                    self.terms[key] = coeff

    @staticmethod
    def power(a, log_power: int = 0, coeff=1) -> "RadialLogPoly":
        return RadialLogPoly({(Fraction(a), log_power): Fraction(coeff)})

    def _add(self, key: LogTermKey, coeff: Fraction) -> None:
        new = self.terms.get(key, Fraction(0)) + coeff
        if new:
            self.terms[key] = new
        else:
            self.terms.pop(key, None)

    def __add__(self, other: "RadialLogPoly") -> "RadialLogPoly":
        out = RadialLogPoly(dict(self.terms))
        for key, coeff in other.terms.items():
            out._add(key, coeff)
        return out

    def scale(self, c) -> "RadialLogPoly":
        c = Fraction(c)
        return RadialLogPoly({k: v * c for k, v in self.terms.items()})

    def shift_power(self, s) -> "RadialLogPoly":
        s = Fraction(s)
        return RadialLogPoly({(a + s, e): c for (a, e), c in self.terms.items()})

    def diff(self) -> "RadialLogPoly":
        out = RadialLogPoly()
        for (a, e), c in self.terms.items():
            if a:
                out._add((a - 1, e), c * a)
            if e:
                out._add((a - 1, e - 1), c * e)
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (a, e), c in sorted(self.terms.items()):
            s = f"{c}*r^{a}"
            if e:
                s += f"*log^{e}"
            bits.append(s)
        return " + ".join(bits)


def conical_apply(n: int, nu: Fraction, u: RadialLogPoly) -> RadialLogPoly:
    """Apply -d_rr - (n-1)/r d_r + nu/r^2 symbolically."""
    du = u.diff()
    ddu = du.diff()
    return ddu.scale(-1) + du.scale(-(n - 1)).shift_power(-1) + u.scale(nu).shift_power(-2)


class OdeCheck(NamedTuple):
    n: int
    nu: Fraction
    branch: str                 # "plus" | "minus" | "log"
    exponent: Fraction
    exact_zero: bool
    coefficient_note: str = COEFFICIENT_NOTE

    @property
    def passed(self) -> bool:
        return self.exact_zero


def _profile(n: int, nu: Fraction, branch: str) -> Tuple[Fraction, RadialLogPoly]:
    plus, minus = xi_pair(n, Scalar(nu))
    if branch == "log":
        if Scalar(nu) != critical_eigenvalue(n):
            raise UnsupportedCase("the log branch exists only at the resonance")
        a = plus.real.as_fraction()
        return a, RadialLogPoly.power(a, log_power=1)
    weight = plus if branch == "plus" else minus
    if not weight.imag.is_zero() or not weight.real.exact:
        raise UnsupportedCase(
            "symbolic check requires a rational exponent (perfect-square "
            "discriminant)"
        )
    a = weight.real.as_fraction()
    return a, RadialLogPoly.power(a)


def ode_residual(n: int, nu, branch: str = "plus") -> OdeCheck:
    """Exact residual of the conical operator on the chosen branch profile.

    The profile is r^xi, or r^xi log(r) on the log branch; the residual is
    computed symbolically and the check passes when it is identically zero.
    """
    check_dimension(n)
    nu = Fraction(nu)
    exponent, u = _profile(n, nu, branch)
    return OdeCheck(
        n=n,
        nu=nu,
        branch=branch,
        exponent=exponent,
        exact_zero=conical_apply(n, nu, u).is_zero(),
    )


def default_grid() -> list:
    """A deterministic grid of (n, nu, branch) with rational exponents.

    Eigenvalues are generated as eta(xi) for rational xi so the symbolic
    branch exponents stay exact; every dimension contributes its resonance
    log branch.
    """
    out = []
    for n in range(4, 11):
        res = critical_eigenvalue(n).as_fraction()
        out.append((n, res, "log"))
        for xi in (
            Fraction(1),
            Fraction(2),
            Fraction(3),
            Fraction(-1, 2),
            Fraction(5, 2),
            Fraction(-2),
            Fraction(-3),
        ):
            nu = xi * (xi + n - 2)
            branch = "plus" if 2 * xi >= 2 - n else "minus"
            out.append((n, nu, branch))
    return out
