"""Gauge case verification, structural identities and the gap example."""

from fractions import Fraction

import pytest

from conifold_spectra import BoxLFamily, UnsupportedCase, indicial_set_full, sphere_link
from conifold_spectra.flatcone import (
    CASE_IDS,
    FieldExpr,
    PolyR,
    bianchi_op,
    build_case_tensor,
    cheeger_tian_example,
    divergence,
    euclidean_metric,
    gradient,
    harmonic_polynomial,
    identity_b_dstar,
    identity_case_harmonics,
    identity_delta_star_radial,
    identity_trace_commutes,
    laplacian,
    proportionality,
    radial_contraction,
    radial_form,
    rotational_form,
    sym_gradient,
    sym_product,
    trace,
    verify_case,
)
from conifold_spectra.flatcone.harmonics import _monomials, _seed_monomial


def test_all_cases_pass_at_n4():
    for case_id in CASE_IDS:
        degrees = (0, 2, 3) if case_id == "i" else (1, 2, 3)
        if case_id in ("vii", "viii"):
            degrees = (2,)
        for d in degrees:
            report = verify_case(case_id, 4, d)
            assert report.passed, (case_id, d, report)


def test_case_vii_nonzero_profile():
    report = verify_case("vii", 4)
    dual = [b for b in report.branches if b.bianchi_expected == "nonzero"][0]
    assert dual.proportional and dual.coefficient == Fraction(-2)
    assert dual.reference == "r^(1-n) dr"


def test_case_viii_nonzero_coefficient_scales():
    for n in (4, 5, 6):
        report = verify_case("viii", n)
        dual = [b for b in report.branches if b.bianchi_expected == "nonzero"][0]
        assert dual.coefficient == Fraction(-((n + 2) * (n - 1) * (n - 2)))


def test_case_ii_profile_matches_derived_coefficient():
    for k in (2, 3):
        report = verify_case("ii", 4, k)
        dual = [b for b in report.branches if b.bianchi_expected == "nonzero"][0]
        assert dual.coefficient == Fraction((4 + 2 * k - 4) * (k - 1), 2)


def test_case_ii_killing_degenerates():
    report = verify_case("ii", 4, 1)
    assert report.degenerate and report.passed
    assert sym_gradient(rotational_form(4, 1)).is_zero()


def test_case_iii_killing_one_form_checks():
    # the Killing form's decaying companion solves the gauge; the growing
    # dual branch has a nonzero Bianchi image proportional to the form
    report = verify_case("iii", 4, 1)
    assert report.passed
    gauge = [b for b in report.branches if b.bianchi_expected == "zero"][0]
    assert gauge.branch == "-" and gauge.harmonic
    dual = [b for b in report.branches if b.bianchi_expected == "nonzero"][0]
    assert dual.coefficient == Fraction((4 + 2) * (4 + 1 - 1), 2)  # 12


def test_case_iv_degenerates_at_degree_one():
    report = verify_case("iv", 4, 1)
    assert report.degenerate
    assert build_case_tensor("iv", "+", 4, 1).is_zero()


def test_case_vi_gauge_combination():
    # the exact conformal coefficient closes the gauge; dropping it leaves a
    # residual proportional to the eigenfunction differential
    for n, d in ((4, 1), (4, 2), (5, 1), (6, 2)):
        report = verify_case("vi", n, d)
        assert report.passed, (n, d)
        wrong = [b for b in report.branches if b.bianchi_expected == "nonzero"][0]
        assert wrong.coefficient == Fraction(
            (n - 2) * (n + 2 * d) * (n + d - 2), 2 * n
        )


def test_cases_hold_in_higher_dimension():
    for case_id in ("ii", "iii", "iv", "v", "vi"):
        report = verify_case(case_id, 5, 2)
        assert report.passed, case_id


def test_case_v_off_axis_seed_monomial():
    # seed monomial x5^3 * x6 vanishes on every point supported on x1..x4;
    # the residual is still exactly the predicted multiple of the reference
    n, d = 6, 4
    seed = _monomials(n, d).index((0, 0, 0, 0, 3, 1))
    report = verify_case("v", n, d, seed)
    assert report.passed
    dual = [b for b in report.branches if b.bianchi_expected == "nonzero"][0]
    assert dual.coefficient == Fraction((n + 2 * d + 2) * (n + d - 1)) == 144


def test_all_cases_pass_at_n10_up_to_degree6():
    n, max_degree = 10, 6
    degenerate = {("ii", 1), ("iv", 1)}
    for case_id in CASE_IDS:
        if case_id in ("vii", "viii"):
            degrees = [2]
        elif case_id == "i":
            degrees = [0] + list(range(2, max_degree + 1))
        else:
            degrees = list(range(1, max_degree + 1))
        for d in degrees:
            report = verify_case(case_id, n, d)
            assert report.passed, (case_id, d, report)
            assert report.degenerate == ((case_id, d) in degenerate), (case_id, d)


@pytest.mark.parametrize("case_id", ["v", "vi"])
def test_last_coordinate_seeds_pass_at_n10_up_to_degree6(case_id):
    # seed -1 is x_10^d, which the x_n rewrite expands the most
    n = 10
    for d in range(1, 7):
        assert _seed_monomial(n, d, -1) == (0,) * (n - 1) + (d,)
        report = verify_case(case_id, n, d, -1)
        assert report.passed, (case_id, d, report)
        dual = [b for b in report.branches if b.bianchi_expected == "nonzero"][0]
        assert type(dual.coefficient) is Fraction and dual.coefficient == dual.expected_coefficient


def test_seed_monomial_is_the_listed_one():
    for n in range(1, 7):
        for d in range(0, 6):
            alphas = _monomials(n, d)
            for seed in range(-2, len(alphas) + 2):
                assert _seed_monomial(n, d, seed) == alphas[seed % len(alphas)]
    # far beyond any listing: C(529, 500) monomials
    assert _seed_monomial(30, 500, 0) == (500,) + (0,) * 29
    assert _seed_monomial(30, 500, -1) == (0,) * 29 + (500,)


def test_gauge_branches_are_tt_where_claimed():
    plus = build_case_tensor("ii", "+", 4, 2)
    assert trace(plus).is_zero() and divergence(plus).is_zero()
    green = build_case_tensor("viii", "-", 4)
    assert trace(green).is_zero() and divergence(green).is_zero()
    assert laplacian(green).is_zero() and bianchi_op(green).is_zero()


@pytest.mark.parametrize("case_id", ["i", "ii", "viii"])
def test_a_gauge_tensor_that_is_not_tt_fails_its_case(monkeypatch, case_id):
    # adding the metric keeps the gauge tensor harmonic and Bianchi-free but
    # gives it the trace n: every branch check still passes, and the row's
    # TT rule alone fails the case and adds the row's note
    from conifold_spectra.flatcone import cases

    row = cases._CASES[case_id]

    def build(n, d, seed):
        (label, gauge, reference_field), *rest = row.build(n, d, seed)
        return [(label, gauge + euclidean_metric(n), reference_field)] + rest

    monkeypatch.setitem(cases._CASES, case_id, row._replace(build=build))
    report = verify_case(case_id, 4, 2)
    *checks, failed = report.branches
    assert all(b.ok for b in checks) and len(checks) == len(row.build(4, 2, 0))
    assert failed.branch == checks[0].branch and not failed.ok
    assert not report.passed
    assert row.not_tt is not None and row.not_tt in report.notes


def test_case_i_rejects_decaying_branch():
    with pytest.raises(UnsupportedCase):
        build_case_tensor("i", "-", 4, 2)
    with pytest.raises(UnsupportedCase):
        verify_case("nonsense", 4, 1)


def test_identity_suites():
    assert identity_b_dstar(4).passed
    assert identity_b_dstar(5).passed
    assert identity_delta_star_radial(4).passed
    assert identity_trace_commutes(4).passed
    assert identity_case_harmonics(4).passed


def test_b_dstar_constant_is_one_half():
    # B(delta* w) = Delta_1 w / 2 with the 1/2-normalized delta*: doubling
    # the left side gives the commutation identity exactly
    from conifold_spectra.flatcone.cases import _one_form_family

    for w in _one_form_family(4, 6):
        lhs = bianchi_op(sym_gradient(w))
        rhs = laplacian(w)
        assert (lhs.scale(2) - rhs).is_zero()
        if not rhs.is_zero():
            assert not (lhs - rhs).is_zero()


def test_cheeger_tian_record():
    record = cheeger_tian_example(4)
    assert record.passed
    assert record.harmonic_function
    assert record.tensor_componentwise_harmonic
    assert record.homogeneity_degree == Fraction(-3)
    assert record.tracefree_part_not_divergence_free
    assert not record.printed_variant_harmonic
    with pytest.raises(UnsupportedCase):
        cheeger_tian_example(5)


def test_each_case_builds_its_generators_once(monkeypatch):
    # one verify_case call builds H or omega once, and symmetrizes each
    # distinct 1-form once: the dual branch and the reference reuse them
    from conifold_spectra.flatcone import cases

    calls = {"harmonic_polynomial": [], "rotational_form": [], "sym_gradient": []}
    for name, log in calls.items():
        original = getattr(cases, name)

        def counted(*args, _original=original, _log=log, **kwargs):
            _log.append(repr(args))
            return _original(*args, **kwargs)

        monkeypatch.setattr(cases, name, counted)
    for case_id in CASE_IDS:
        for log in calls.values():
            log.clear()
        assert verify_case(case_id, 6, 3).passed, case_id
        assert len(calls["harmonic_polynomial"]) <= 1, case_id
        assert len(calls["rotational_form"]) <= 1, case_id
        sym = calls["sym_gradient"]
        assert len(sym) == len(set(sym)), case_id


@pytest.mark.parametrize(
    "case_id, degree",
    [("i", -1), ("ii", 0), ("iii", 0), ("iv", 0), ("v", 0), ("vi", 0), ("vi", -2)],
)
def test_degrees_below_the_lowest_are_refused(case_id, degree):
    # (i) starts at degree 0 and (ii)-(vi) at degree 1, in both entry points
    with pytest.raises(UnsupportedCase, match="starts at degree"):
        verify_case(case_id, 4, degree)
    with pytest.raises(UnsupportedCase, match="starts at degree"):
        build_case_tensor(case_id, "+", 4, degree)


def test_cases_without_a_degree_ignore_it():
    for case_id in ("vii", "viii"):
        report = verify_case(case_id, 4, -5)
        assert report.passed and report.degree is None


# The sphere entry each verifier case models at degree d: (family, index).
# The sphere's TT-kappa family has no case, since a general link TT tensor
# has no polynomial model (the sphere's has one: see the test after these);
# case (i) builds flat TT tensors, which on the sphere belong to the doubly
# shifted scalar family like (iv).
_ENTRY_OF_CASE = {
    "ii": (BoxLFamily.MU_PLUS, lambda d: d - 1),
    "iii": (BoxLFamily.MU_MINUS, lambda d: d - 1),
    "iv": (BoxLFamily.LAMBDA2_PLUS, lambda d: d),
    "v": (BoxLFamily.LAMBDA2_MINUS, lambda d: d),
    "vi": (BoxLFamily.LAMBDA_DIRECT, lambda d: d),
    "vii": (BoxLFamily.SPECIAL_ZERO, lambda d: 0),
    "viii": (BoxLFamily.SPECIAL_2N, lambda d: 0),
}


@pytest.mark.parametrize("n", range(4, 9))
def test_root_table_matches_the_verifier_homogeneities(n):
    # each gauge tensor is homogeneous of the weight of its entry's
    # gauge-compatible root, and its dual of the weight of the incompatible
    # one; (vi) has two compatible roots, its two branches.  A root is
    # gauge-compatible exactly where verify_case observes B h = 0 on the
    # branch of its homogeneity.
    from conifold_spectra.flatcone.cases import _CASES

    listed = {}
    for root in indicial_set_full(sphere_link(n)):
        assert root.weight.imag.is_zero()
        listed.setdefault((root.family, root.source_index), []).append(root)
    vanishing, unlisted = set(), set()
    for case_id, (family, index_of) in _ENTRY_OF_CASE.items():
        degrees = [0] if _CASES[case_id].lowest is None else range(1, 5)
        for d in degrees:
            # the gauge tensor and its dual; (vi) lists a third tensor, its
            # growing branch without the conformal part, which has no root
            branches = _CASES[case_id].build(n, d, 0)[:2]
            (_, gauge, _), (_, dual, _) = branches
            key = (family, index_of(d))
            if gauge.is_zero():
                vanishing.add(key)
            roots = listed.get(key, [])
            if not roots:
                unlisted.add(key)
                continue
            where = (n, case_id, d)
            # verify_case checks the branches in the order the builder lists them
            checks = verify_case(case_id, n, d).branches
            observed = [
                (tensor.homogeneity(), check.bianchi_observed == "zero")
                for (_, tensor, _), check in zip(branches, checks)
            ]
            for root in roots:
                matches = [zero for h, zero in observed if h == root.weight.real]
                assert matches == [root.bianchi_compatible], (where, root.branch, matches)
            if case_id == "vi":
                by_branch = {r.branch: r for r in roots}
                assert len(roots) == 2 and all(r.bianchi_compatible for r in roots), where
                assert gauge.homogeneity() == by_branch["+"].weight.real, where
                assert dual.homogeneity() == by_branch["-"].weight.real, where
                continue
            (kept,) = [r for r in roots if r.bianchi_compatible]
            (other,) = [r for r in roots if not r.bianchi_compatible]
            assert gauge.homogeneity() == kept.weight.real, where
            assert dual.homogeneity() == other.weight.real, where
    # the degenerate cases are the Killing and Obata drops, and no other
    # entry is missing
    assert vanishing == unlisted == {(BoxLFamily.MU_PLUS, 0), (BoxLFamily.LAMBDA2_PLUS, 1)}


# The explicit 1-form whose delta^* is the gauge tensor of each case at
# (n, degree): omega or dH with their r-power weights for (ii)-(v), x for the
# metric (vii) and the gradient of the Green kernel r^(2-n) for (viii).
_LIE_GENERATOR = {
    "ii": lambda n, d: rotational_form(n, d),
    "iii": lambda n, d: rotational_form(n, d).mul_r_power(2 - n - 2 * d),
    "iv": lambda n, d: gradient(harmonic_polynomial(n, d)),
    "v": lambda n, d: gradient(harmonic_polynomial(n, d).mul_r_power(2 - n - 2 * d)),
    "vii": lambda n, d: radial_form(n),
    "viii": lambda n, d: gradient(FieldExpr.scalar(PolyR.r_power(n, 2 - n))),
}


@pytest.mark.parametrize("n", range(4, 9))
def test_lie_derivative_roots_have_a_generating_one_form(n):
    # each entry whose roots the table marks lie_derivative is modelled by a
    # gauge tensor that is an exact nonzero multiple of delta^* of an explicit
    # 1-form; the direct scalar family (vi) is the one case marked otherwise
    from conifold_spectra.flatcone.cases import _CASES

    flags = {}
    for root in indicial_set_full(sphere_link(n)):
        flags.setdefault((root.family, root.source_index), set()).add(root.lie_derivative)
    checked = set()
    for case_id, (family, index_of) in _ENTRY_OF_CASE.items():
        degrees = [0] if _CASES[case_id].lowest is None else range(1, 5)
        for d in degrees:
            where = (n, case_id, d)
            if (family, index_of(d)) not in flags:
                continue  # the Killing and Obata drops, which have no roots
            (lie,) = flags[family, index_of(d)]
            assert lie == (case_id in _LIE_GENERATOR), where
            if lie:
                (_, gauge, _), *_ = _CASES[case_id].build(n, d, 0)
                c = proportionality(gauge, sym_gradient(_LIE_GENERATOR[case_id](n, d)))
                assert c is not None and c != 0, where
                checked.add(case_id)
    assert checked == set(_LIE_GENERATOR)


def _omega(n, a, b):
    """The rotation 1-form x_a dx_b - x_b dx_a (coordinates from 0)."""
    out = FieldExpr(n, 1)
    out.set_component((b,), PolyR.coordinate(n, a))
    out.set_component((a,), -PolyR.coordinate(n, b))
    return out


def _tt_model(n, k):
    """omega_12 (.) omega_34 * Re(x5 + i x6)^(k-2): tangential, TT and harmonic, degree k."""
    re, im = PolyR.constant(n, 1), PolyR(n)
    x5, x6 = (PolyR.coordinate(n, i) if i < n else PolyR(n) for i in (4, 5))
    for _ in range(k - 2):
        re, im = re * x5 - im * x6, re * x6 + im * x5
    return sym_product(_omega(n, 0, 1), _omega(n, 2, 3)).scale_poly(re)


# degree 2 at n = 4, 2..3 at n = 5 and 2..5 at n = 6..8; higher degrees at
# n = 4 and 5 need another generator than the disjoint-plane product
_TT_DEGREES = [(4, 2), (5, 2), (5, 3)] + [(n, k) for n in (6, 7, 8) for k in range(2, 6)]


@pytest.mark.parametrize("n,k", _TT_DEGREES)
def test_sphere_tt_kappa_roots_match_a_polynomial_model(n, k):
    # the sphere's TT eigentensor of degree k and its Kelvin transform
    # r^(2-n-2k) h solve the flat gauge-fixed equations, so their
    # homogeneities k and 2-n-k are the two TT-kappa roots at kappa_(k-1),
    # both gauge-compatible and neither a Lie derivative
    h = _tt_model(n, k)
    assert not h.is_zero()
    for tensor in (h, h.mul_r_power(2 - n - 2 * k)):
        for op in (trace, divergence, radial_contraction, laplacian, bianchi_op):
            assert op(tensor).is_zero(), (n, k, op.__name__)
    roots = [
        root for root in indicial_set_full(sphere_link(n, count=k + 1))
        if root.family is BoxLFamily.TT_KAPPA and root.source_index == k - 1
    ]
    weights = sorted(root.weight.real for root in roots)
    assert weights == [2 - n - k, k] == sorted(
        t.homogeneity() for t in (h, h.mul_r_power(2 - n - 2 * k))
    )
    assert all(root.bianchi_compatible and not root.lie_derivative for root in roots)
