"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately written from scratch on plain Fractions,
without importing the package under test, so the expectations stay
independent of the code paths they certify.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key
from typing import Dict, List, Optional, Sequence, Set, Tuple

import mpmath


def frac_sqrt(value: Fraction) -> Optional[Fraction]:
    if value < 0:
        return None
    rn, rd = math.isqrt(value.numerator), math.isqrt(value.denominator)
    if rn * rn == value.numerator and rd * rd == value.denominator:
        return Fraction(rn, rd)
    return None


def branch_pair(n: int, nu) -> Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]]:
    """((re+, im+), (re-, im-)); requires a perfect-square discriminant."""
    nu = Fraction(nu)
    disc = Fraction((n - 2) ** 2, 4) + nu
    half = Fraction(-(n - 2), 2)
    if disc >= 0:
        root = frac_sqrt(disc)
        assert root is not None, "oracle needs a perfect-square discriminant"
        return ((half + root, Fraction(0)), (half - root, Fraction(0)))
    root = frac_sqrt(-disc)
    assert root is not None, "oracle needs a perfect-square discriminant"
    return ((half, root), (half, -root))


def eta_of(n: int, x) -> Fraction:
    x = Fraction(x)
    return x * (x + n - 2)


def order_at_120_digits(n: int, weights: Sequence[Tuple], tie_keys: Sequence) -> List[int]:
    """The indices of ``weights`` in the order of their exact values, then of ``tie_keys``.

    A weight is (nu, branch, shift), meaning xi_branch(nu) + shift on the
    cone of dimension n; it is evaluated at 120 digits and compared by real
    part, then imaginary part.  Values within 10^-100 tie, which only equal
    values do for inputs 10^-40 or more apart.
    """
    with mpmath.workdps(120):
        tie = mpmath.mpf(10) ** -100
        values = []
        for nu, branch, shift in weights:
            disc = Fraction((n - 2) ** 2, 4) + Fraction(nu)
            radical = mpmath.sqrt(mpmath.mpf(abs(disc).numerator) / abs(disc).denominator)
            sign = 1 if branch == "+" else -1
            real = mpmath.mpf(2 - n) / 2 + shift
            values.append((real, sign * radical) if disc < 0 else (real + sign * radical, mpmath.mpf(0)))

        def cmp(i, j):
            for x, y in zip(values[i], values[j]):
                if abs(x - y) >= tie:
                    return 1 if x > y else -1
            return (tie_keys[i] > tie_keys[j]) - (tie_keys[i] < tie_keys[j])

        return sorted(range(len(weights)), key=cmp_to_key(cmp))


def sphere_lambda(n: int, i: int) -> Fraction:
    return Fraction(i * (i + n - 2))


def sphere_kappa(n: int, i: int) -> Fraction:
    return Fraction((i + 1) * (i + n - 1))


def brute_e_plus(n: int, kappas: Sequence[Fraction], lambdas: Sequence[Fraction]) -> Set[Fraction]:
    """Re(E) ∩ (0, inf) from the essential roots, by direct enumeration."""
    out: Set[Fraction] = set()
    for nu in list(kappas) + [l for l in lambdas if l > 0]:
        for (re, _im) in branch_pair(n, nu):
            if re > 0:
                out.add(re)
    return out


def brute_e_minus(n: int, kappas: Sequence[Fraction], lambdas: Sequence[Fraction]) -> Set[Fraction]:
    """Re(-E) ∩ (0, inf) by direct enumeration of the essential roots."""
    out: Set[Fraction] = set()
    for nu in list(kappas) + [l for l in lambdas if l > 0]:
        for (re, _im) in branch_pair(n, nu):
            if re < 0:
                out.add(-re)
    return out


def brute_full_weights(
    n: int,
    kappas: Sequence[Fraction],
    mus: Sequence[Fraction],
    lambdas: Sequence[Fraction],
    round_sphere: bool = False,
) -> Set[Tuple[Fraction, Fraction]]:
    """The full indicial set of weights per its closed-form description.

    On the round sphere the eigenvalue generated by lambda_1 = n-1 on the
    doubly-shifted plus branch has a vanishing eigentensor, so the weight
    pair {xi_+(lambda_1) - 2, xi_-(lambda_1) + 2} is excluded there.
    """
    out: Set[Tuple[Fraction, Fraction]] = set()
    for k in kappas:
        out.update(branch_pair(n, k))
    for m in mus:
        for (re, im) in branch_pair(n, m + 1):
            out.add((re - 1, im))
            out.add((re + 1, im))
    for l in lambdas:
        if l <= 0:
            continue
        (rp, ip), (rm, im_) = branch_pair(n, l)
        obata = round_sphere and l == n - 1
        if not obata:
            out.add((rp - 2, ip))
            out.add((rm + 2, im_))
        out.add((rp, ip))
        out.add((rm, im_))
        out.add((rp + 2, ip))
        out.add((rm - 2, im_))
    out.update(
        {
            (Fraction(-n), Fraction(0)),
            (Fraction(2 - n), Fraction(0)),
            (Fraction(0), Fraction(0)),
            (Fraction(2), Fraction(0)),
        }
    )
    return out


def brute_bianchi_weights(
    n: int,
    kappas: Sequence[Fraction],
    mus: Sequence[Fraction],
    lambdas: Sequence[Fraction],
    round_sphere: bool = False,
) -> Set[Tuple[Fraction, Fraction]]:
    out: Set[Tuple[Fraction, Fraction]] = set()
    for k in kappas:
        out.update(branch_pair(n, k))
    for m in mus:
        for (re, im) in branch_pair(n, m + 1):
            out.add((re - 1, im))
    for l in lambdas:
        if l <= 0:
            continue
        (rp, ip), (rm, im_) = branch_pair(n, l)
        if not (round_sphere and l == n - 1):
            out.add((rp - 2, ip))
        out.add((rm - 2, im_))
        out.add((rp, ip))
        out.add((rm, im_))
    out.update({(Fraction(-n), Fraction(0)), (Fraction(0), Fraction(0))})
    return out


def bootstrap_sequence(alpha0, epsilon, target) -> List[Fraction]:
    a, e, t = Fraction(alpha0), Fraction(epsilon), Fraction(target)
    seq = [a]
    while seq[-1] < t:
        seq.append(2 * seq[-1] - 2 * e)
    return seq


# -- radial ODE by finite differences ---------------------------------------

FD_BOUND = 1e-6


def fd_ode_residual(n: int, nu, branch: str, r: float = 1.0, step: float = 1e-4) -> float:
    """|P u(r)| by central differences, P u = -u'' - (n-1)/r u' + nu/r^2 u.

    u is r^a, or r^a log(r) on the resonance's "log" branch, with a the real
    part of the branch's exponent.  The error is the h^2 truncation plus
    rounding; exponents in [-3, 3] keep it below FD_BOUND at r = 1 (the log
    branches pass because log(1) = 0 cancels their leading error term).
    """
    (plus, _), (minus, im) = branch_pair(n, nu)
    assert im == 0, "the FD oracle needs a real exponent"
    assert branch != "log" or plus == minus, "the log branch exists only at the resonance"
    a = float(minus if branch == "minus" else plus)
    log_power = 1 if branch == "log" else 0

    def u(x: float) -> float:
        return x ** a * math.log(x) ** log_power

    up, u0, um = u(r + step), u(r), u(r - step)
    d2 = (up - 2.0 * u0 + um) / step**2
    d1 = (up - um) / (2.0 * step)
    return abs(-d2 - (n - 1) / r * d1 + float(nu) / r**2 * u0)


# -- flat-cone expressions --------------------------------------------------
#
# A component is a dict {(alpha, s): c} for the sum of c * x^alpha * r^s,
# with r = |x|; nothing here assumes it is reduced modulo r^2 = sum x_i^2.

RadialTerms = Dict[Tuple[Tuple[int, ...], Fraction], Fraction]


def add_terms(*parts: RadialTerms, scale: Sequence[Fraction] = ()) -> RadialTerms:
    """Sum of the parts (each times its entry of ``scale``, default 1)."""
    out: RadialTerms = {}
    for idx, part in enumerate(parts):
        factor = Fraction(scale[idx]) if idx < len(scale) else Fraction(1)
        for key, c in part.items():
            out[key] = out.get(key, Fraction(0)) + factor * c
    return {key: c for key, c in out.items() if c}


def diff_terms(terms: RadialTerms, i: int) -> RadialTerms:
    """d_i, with d_i r^s = s x_i r^{s-2}."""
    out: RadialTerms = {}
    for (alpha, s), c in terms.items():
        if alpha[i]:
            lowered = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
            out[(lowered, s)] = out.get((lowered, s), Fraction(0)) + c * alpha[i]
        if s:
            raised = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
            out[(raised, s - 2)] = out.get((raised, s - 2), Fraction(0)) + c * s
    return {key: c for key, c in out.items() if c}


def second_derivative_laplacian(n: int, terms: RadialTerms) -> RadialTerms:
    """-sum_i d_i d_i by differentiating twice; no use of sum x_i^2 = r^2."""
    return add_terms(*(diff_terms(diff_terms(terms, i), i) for i in range(n)), scale=[-1] * n)


def expand_is_zero(n: int, terms: RadialTerms) -> bool:
    """Zero test by expanding r^2 = sum x_i^2 into genuine polynomials.

    Terms are grouped by r-power modulo 2; each group is multiplied by the
    power of r that makes its lowest r-power 0, r^{2k} is expanded as
    (sum x_i^2)^k, and the sum vanishes iff every group's polynomial does
    (powers of r differing by a non-even-integer amount are linearly
    independent over polynomials).
    """
    groups: Dict[Fraction, List[Tuple[Tuple[int, ...], Fraction, Fraction]]] = {}
    for (alpha, s), c in add_terms(terms).items():
        s = Fraction(s)
        groups.setdefault(s - 2 * math.floor(s / 2), []).append((alpha, s, c))
    square = {tuple(2 if j == i else 0 for j in range(n)): Fraction(1) for i in range(n)}
    for group in groups.values():
        s_min = min(s for (_alpha, s, _c) in group)
        powers = [{(0,) * n: Fraction(1)}]
        acc: Dict[Tuple[int, ...], Fraction] = {}
        for alpha, s, c in group:
            k = int((s - s_min) / 2)
            while len(powers) <= k:
                nxt: Dict[Tuple[int, ...], Fraction] = {}
                for m1, c1 in powers[-1].items():
                    for m2, c2 in square.items():
                        m = tuple(a + b for a, b in zip(m1, m2))
                        nxt[m] = nxt.get(m, Fraction(0)) + c1 * c2
                powers.append(nxt)
            for m, pc in powers[k].items():
                mono = tuple(a + b for a, b in zip(alpha, m))
                acc[mono] = acc.get(mono, Fraction(0)) + c * pc
        if any(acc.values()):
            return False
    return True
