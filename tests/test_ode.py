"""Radial ODE residuals: symbolic exactness, cross-checked by the FD oracle."""

from fractions import Fraction

import pytest

from conifold_spectra import UnsupportedCase
from conifold_spectra.flatcone import RadialLogPoly, conical_apply, default_grid, ode_residual
from conifold_spectra.flatcone.ode import COEFFICIENT_NOTE
from oracles import FD_BOUND, fd_ode_residual


def test_plus_branch_exact_zero():
    check = ode_residual(4, 8, "plus")
    assert check.exact_zero and check.passed and check.exponent == Fraction(2)
    assert check.coefficient_note == COEFFICIENT_NOTE


def test_log_branch_exact_zero():
    check = ode_residual(10, -16, "log")
    assert check.exact_zero and check.exponent == Fraction(-4)
    with pytest.raises(UnsupportedCase):
        ode_residual(10, -15, "log")


def test_log_branch_requires_log_term():
    # without the log factor the resonance profile is the plain power, and
    # the operator annihilates it too; the log companion is genuinely new
    u_plain = RadialLogPoly.power(Fraction(-4))
    u_log = RadialLogPoly.power(Fraction(-4), log_power=1)
    assert conical_apply(10, Fraction(-16), u_plain).is_zero()
    assert conical_apply(10, Fraction(-16), u_log).is_zero()
    assert not conical_apply(10, Fraction(-15), u_log).is_zero()


def test_wrong_radial_coefficient_fails():
    # the rejected (n-2)/n variant does not annihilate r^xi
    n, nu = 4, Fraction(8)
    u = RadialLogPoly.power(Fraction(2))
    du = u.diff()
    ddu = du.diff()
    wrong = (
        ddu.scale(-1)
        + du.scale(Fraction(-(n - 2), n))
        + u.scale(nu).shift_power(-2)
    )
    assert not wrong.is_zero()


def test_irrational_exponent_rejected_symbolically():
    with pytest.raises(UnsupportedCase):
        ode_residual(4, 1, "plus")  # discriminant 2 is not a perfect square


def test_default_grid_all_pass():
    grid = default_grid()
    assert len(grid) >= 50
    assert any(branch == "log" for (_n, _nu, branch) in grid)
    for (n, nu, branch) in grid:
        check = ode_residual(n, nu, branch)
        assert check.exact_zero and check.passed, (n, nu, branch)
        fd = fd_ode_residual(n, nu, branch)
        assert fd <= FD_BOUND, (n, nu, branch, fd)


def test_fd_at_other_radii():
    assert ode_residual(5, 10, "minus").exact_zero
    for r in (0.5, 1.0, 2.0):
        assert fd_ode_residual(5, 10, "minus", r) <= FD_BOUND, r
