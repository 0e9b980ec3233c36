"""Acceptance suite: one test per criterion, exact tolerances, timed.

Each criterion prints a single pass/fail line (visible with -s or -rA).
Everything asserted exactly runs on the rational path; the only float
tolerances are the ones the criteria themselves state (the 1e-6
finite-difference cross-check bound).
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conifold_spectra import (
    EndKind,
    Scalar,
    dual_weight,
    end_order,
    e_minus_set,
    eta,
    indicial_set_bianchi,
    indicial_set_essential,
    indicial_set_full,
    is_resonance_dominated,
    linear_stability,
    bootstrap_decay,
    product_einstein_example,
    sphere_link,
    sphere_quotient_link,
    weight_pair_product,
    weight_pair_sum,
    xi_pair,
)
from conifold_spectra.flatcone import (
    cheeger_tian_example,
    default_grid,
    identity_b_dstar,
    ode_residual,
    verify_case,
)
from conifold_spectra.indicial import BoxLFamily

from oracles import FD_BOUND, brute_e_minus, fd_ode_residual
from test_rates import synthetic_link


@contextmanager
def criterion(number, label):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number:>2} [{label}]: FAIL")
        raise
    elapsed = time.monotonic() - started
    print(f"criterion {number:>2} [{label}]: PASS ({elapsed:.2f}s)")


def test_criterion_1_orbifold_order():
    with criterion(1, "orbifold ends have order 2"):
        started = time.monotonic()
        for n in (4, 5, 6, 10):
            report = end_order(sphere_quotient_link(n), EndKind.CS)
            assert report.order == Scalar(2)
            assert report.order.exact
            assert not report.weak
        assert time.monotonic() - started < 1.0


def test_criterion_2_ale_order():
    with criterion(2, "ALE ends have order n (n-1 when trivial)"):
        started = time.monotonic()
        for n in (4, 5, 6, 10):
            bounded = end_order(sphere_quotient_link(n), EndKind.AC)
            assert bounded.order == Scalar(n) and bounded.order.exact
            trivial = end_order(sphere_link(n), EndKind.AC)
            assert trivial.order == Scalar(n - 1) and trivial.order.exact
        assert time.monotonic() - started < 1.0


def test_criterion_3_resonance_fixture():
    with criterion(3, "product-Einstein fixture is resonance-dominated"):
        started = time.monotonic()
        link = product_einstein_example(10)
        assert is_resonance_dominated(link)
        report = end_order(link, EndKind.AC)
        assert report.weak
        assert report.order == Scalar(4) and report.order.exact
        assert report.witness.log_factor
        assert time.monotonic() - started < 1.0


def test_criterion_4_linear_stability():
    with criterion(4, "stability verdicts with witnesses"):
        for n in range(4, 11):
            assert linear_stability(sphere_link(n)).stable
        for n in range(4, 11):
            edge = Fraction(-((n - 2) ** 2), 4)
            bad = edge - Fraction(1, 10)
            verdict = linear_stability(
                synthetic_link(n, kappas=[bad], kappa_complete=0)
            )
            assert not verdict.stable
            assert verdict.witness == Scalar(bad) and verdict.witness.exact
            boundary = linear_stability(
                synthetic_link(n, kappas=[edge], kappa_complete=0)
            )
            assert boundary.stable and boundary.boundary == (Scalar(edge),)


def test_criterion_5_branch_algebra_property_suite():
    with criterion(5, "xi/eta algebra exact on 10^4 random rationals"):
        started = time.monotonic()
        rng = random.Random(20260810)
        lo_cache = {}
        for _ in range(10_000):
            n = rng.randint(3, 12)
            lo = lo_cache.setdefault(n, Fraction(-(n - 2) ** 2, 4) - 50)
            nu = lo + Fraction(rng.randint(0, 10**9), 10**9) * (10**6 - lo)
            s_nu = Scalar(nu)
            plus, minus = xi_pair(n, s_nu)
            assert eta(n, plus) == s_nu
            assert eta(n, minus) == s_nu
            total = weight_pair_sum(plus, minus)
            assert total.exact and total == Scalar(2 - n)
            product = weight_pair_product(plus, minus)
            assert product.exact and product == Scalar(-nu)
            flipped = dual_weight(n, plus)
            assert flipped == minus
            assert dual_weight(n, flipped) == plus
        assert time.monotonic() - started < 10.0


def test_criterion_6_indicial_set_structure():
    with criterion(6, "indicial set inclusions, duality, specials"):
        for n in (4, 6, 9):
            for link in (sphere_link(n), sphere_quotient_link(n)):
                full = indicial_set_full(link)
                gauge = indicial_set_bianchi(link)
                essential = indicial_set_essential(link)

                def weights(roots):
                    return {
                        (r.weight.real.value, r.weight.imag.value) for r in roots
                    }

                assert weights(essential) <= weights(gauge) <= weights(full)
                from collections import Counter

                reals = Counter(r.weight.real.value for r in full)
                assert reals == Counter(
                    Fraction(2 - n) - v for v in reals.elements()
                )
                for v in (-n, 2 - n, 0, 2):
                    assert (Fraction(v), Fraction(0)) in weights(full)
                special_full = {
                    r.weight.real.value
                    for r in full
                    if r.family in (BoxLFamily.SPECIAL_ZERO, BoxLFamily.SPECIAL_2N)
                }
                assert special_full == {
                    Fraction(-n),
                    Fraction(2 - n),
                    Fraction(0),
                    Fraction(2),
                }
                special_gauge = {
                    r.weight.real.value
                    for r in gauge
                    if r.family in (BoxLFamily.SPECIAL_ZERO, BoxLFamily.SPECIAL_2N)
                }
                assert special_gauge == {Fraction(-n), Fraction(0)}


def test_criterion_7_flat_cone_oracle():
    with criterion(7, "flat-cone gauge cases and commutation identity"):
        started = time.monotonic()
        for case_id in ("ii", "iii", "iv", "v", "vi"):
            for d in (1, 2, 3):
                report = verify_case(case_id, 4, d)
                assert report.passed, (case_id, d)
                if report.degenerate:
                    # the vanishing tensors witness the Killing/Obata drops
                    assert (case_id, d) in (("ii", 1), ("iv", 1))
                    continue
                nonzero = [
                    b for b in report.branches if b.bianchi_expected == "nonzero"
                ]
                for branch in nonzero:
                    assert branch.proportional
                    assert branch.coefficient == branch.expected_coefficient
                    assert branch.coefficient != 0
        for case_id in ("vii", "viii"):
            report = verify_case(case_id, 4)
            assert report.passed
        # the omega-profile of the 1-form family, and the two closed-form
        # B-expressions of the metric and Green-kernel cases
        profile = [
            b
            for b in verify_case("ii", 4, 2).branches
            if b.bianchi_expected == "nonzero"
        ][0]
        assert profile.reference == "r^(2-n-2k) * omega"
        metric_case = [
            b
            for b in verify_case("vii", 4).branches
            if b.bianchi_expected == "nonzero"
        ][0]
        assert metric_case.reference == "r^(1-n) dr"
        assert abs(metric_case.coefficient) == Fraction((4 - 2) ** 2, 2)
        green_case = [
            b
            for b in verify_case("viii", 4).branches
            if b.bianchi_expected == "nonzero"
        ][0]
        assert abs(green_case.coefficient) == Fraction(6 * 3 * 2)
        identity = identity_b_dstar(4)
        assert identity.cases == 20 and identity.passed
        assert time.monotonic() - started < 30.0


def test_criterion_8_dimension_gap_record():
    with criterion(8, "invariant harmonic tensor record on R^4"):
        record = cheeger_tian_example(4)
        assert record.harmonic_function
        assert record.tensor_componentwise_harmonic
        assert record.homogeneity_degree == Fraction(-3)
        assert record.tracefree_part_not_divergence_free
        assert not record.printed_variant_harmonic


def test_criterion_9_ode_checks():
    with criterion(9, "radial ODE residuals, symbolic and FD"):
        grid = default_grid()
        assert len(grid) >= 50
        log_cases = 0
        for (n, nu, branch) in grid:
            assert ode_residual(n, nu, branch).exact_zero, (n, nu, branch)
            assert fd_ode_residual(n, nu, branch) <= FD_BOUND, (n, nu, branch)
            log_cases += branch == "log"
        assert log_cases >= 7


@pytest.mark.parametrize("m", [3, 4, 5])
def test_criterion_10_stenzel_consistency(m):
    # The Stenzel metric on T*S^m converges to its cone at order
    # tau = 2m/(m-1).  The fixture lists kappa = eta(-tau) on the n = 2m cone.
    # The two roots of eta = kappa sum to -(n-2), so the rates are tau and
    # n-2-tau, and for m = 3, 4, 5 kappa lies in the window [-(n-2)^2/4, 0):
    # E_minus contains both.  Its minimum is the lower bound the paper proves,
    # min(tau, n-2-tau).  For m >= 4 (tau <= (n-2)/2) that is tau itself, the
    # window branch.  At m = 3 tau = 3 is the minus branch and the window
    # partner 1 lies below it: the bound does not exceed the order the Stenzel
    # metric reaches, and tau stays a member of E_minus.
    with criterion(10, f"Stenzel fixture minimum, m={m}"):
        n = 2 * m
        tau = Fraction(2 * m, m - 1)
        partner = n - 2 - tau
        kappa = -tau * (-tau + n - 2)  # eta(-2m/(m-1))
        assert kappa < 0
        assert -Fraction((n - 2) ** 2, 4) <= kappa
        link = synthetic_link(n, kappas=[kappa], kappa_complete=0)
        eset = e_minus_set(link)
        assert {v.value for v in eset.values()} == brute_e_minus(
            n, [kappa], [Fraction(0), Fraction(2 * n)]
        )
        parts = {}
        for el in eset.elements:
            parts.setdefault(el.value.value, set()).add(el.part)
        assert tau in parts and partner in parts
        if tau <= Fraction(n - 2, 2):
            assert parts[tau] == {"window"} and parts[partner] == {"minus-branch"}
        else:
            assert parts[tau] == {"minus-branch"} and parts[partner] == {"window"}
        bound = min(tau, partner)
        minimum = eset.minimum().value
        assert minimum.exact
        assert minimum == Scalar(bound), f"m={m}: min E_minus is {minimum}, closed form {bound}"
        assert minimum <= Scalar(tau)
        assert end_order(link, EndKind.AC).order == minimum


def test_criterion_11_bootstrap_iteration():
    with criterion(11, "decay bootstrap trajectory and termination"):
        assert [s.value for s in bootstrap_decay(1, Fraction(1, 4), 4)] == [
            Fraction(1),
            Fraction(3, 2),
            Fraction(5, 2),
            Fraction(9, 2),
        ]
        rng = random.Random(4)
        for _ in range(1000):
            epsilon = Fraction(rng.randint(1, 200), rng.randint(1, 50))
            alpha0 = 2 * epsilon + Fraction(rng.randint(1, 300), rng.randint(1, 30))
            target = alpha0 + Fraction(rng.randint(0, 5000), rng.randint(1, 10))
            seq = bootstrap_decay(alpha0, epsilon, target)
            assert seq[-1] >= Scalar(target)
            if target > alpha0:
                ratio = (target - 2 * epsilon) / (alpha0 - 2 * epsilon)
                bound = math.ceil(math.log2(float(ratio))) + 2
                assert len(seq) <= bound
            else:
                assert len(seq) == 1
