"""Brute-force certification of the assembled tangential spectra.

The tangential-spectrum tables are recomputed here directly from the
defining shift formulas on plain Fractions and compared entry for entry,
including the dropped entries' would-be values.
"""

from fractions import Fraction

from conifold_spectra import (
    Box1Family,
    BoxLFamily,
    Scalar,
    box1_spectrum,
    boxL_spectrum,
    sphere_link,
    sphere_quotient_link,
)

from oracles import branch_pair


def _sphere_data(n, count):
    lams = [Fraction(i * (i + n - 2)) for i in range(count + 1)]
    mus = [Fraction((k + 1) * (k + n - 3) - (n - 2)) for k in range(1, count + 1)]
    kaps = [Fraction((i + 1) * (i + n - 1)) for i in range(1, count + 1)]
    return lams, mus, kaps


def _shifted_eigenvalue(n, base, shift):
    (rp, _), (rm, _) = branch_pair(n, base)
    return (rp + shift) * (rp + shift + n - 2), (rm + shift) * (rm + shift + n - 2)


def test_box1_table_matches_formulas():
    for n in (4, 7):
        count = 5
        link = sphere_link(n, count=count)
        lams, mus, _ = _sphere_data(n, count)
        expected = sorted(
            [m + 1 for m in mus]
            + [v for l in lams if l > 0 for v in _shifted_eigenvalue(n, l, -1)]
            + [Fraction(n - 1)]
        )
        got = sorted(
            e.value.value for e in box1_spectrum(link) if not e.dropped
        )
        assert got == expected


def test_boxL_table_matches_formulas_on_quotient():
    # the nontrivial quotient has no Obata drop; the Killing drop removes
    # exactly one zero from the mu-plus family
    for n in (4, 6):
        count = 4
        link = sphere_quotient_link(n, count=count)
        lams, mus, kaps = _sphere_data(n, count)
        lams = [l for l in lams if l != n - 1]
        expected = []
        expected.extend(kaps)
        for j, m in enumerate(mus):
            plus, minus = _shifted_eigenvalue(n, m + 1, -1)
            if j > 0:  # the Killing entry loses its plus branch
                expected.append(plus)
            expected.append(minus)
        for l in lams:
            if l <= 0:
                continue
            expected.append(l)
            plus, minus = _shifted_eigenvalue(n, l, -2)
            expected.append(plus)
            expected.append(minus)
        expected.extend([Fraction(0), Fraction(2 * n)])
        got = sorted(
            e.value.value for e in boxL_spectrum(link) if not e.dropped
        )
        assert got == sorted(expected)


def test_dropped_entries_record_their_would_be_values():
    link = sphere_link(4)
    table = boxL_spectrum(link)
    killing = [e for e in table if e.dropped and e.family is BoxLFamily.MU_PLUS][0]
    assert killing.value == Scalar(0)  # eta(xi_plus(n-1) - 1) = eta(0)
    obata = [e for e in table if e.dropped and e.family is BoxLFamily.LAMBDA2_PLUS
             and not e.source_value.is_zero()][0]
    assert obata.value == Scalar(-1)  # eta(xi_plus(3) - 2) = eta(-1) at n = 4
    constant = [e for e in table if e.dropped and e.source_value.is_zero()][0]
    assert constant.value == Scalar(0)  # eta(xi_plus(0) - 2) = eta(-2) at n = 4


def test_stability_proof_bounds_hold_on_catalog_links():
    # mu-family tangential values are >= 0 and lambda-family ones >= 3-n,
    # the bounds used to prove that only kappa can break stability
    for n in (4, 5, 8):
        link = sphere_link(n)
        for entry in boxL_spectrum(link):
            if entry.dropped:
                continue
            if entry.family in (BoxLFamily.MU_PLUS, BoxLFamily.MU_MINUS):
                assert entry.value >= Scalar(0)
            if entry.family in (BoxLFamily.LAMBDA2_PLUS, BoxLFamily.LAMBDA2_MINUS):
                assert entry.value >= Scalar(3 - n)
