"""Milnor/Tjurina algebras, filtered dimensions, Steenbrink spectrum."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singspec.errors import NonIsolatedError, UnsupportedError
from singspec.localalg import (determinacy_bound, filtered_quotient_dims,
                               ideal_membership, milnor_algebra,
                               quotient_dim_with, steenbrink_spectrum,
                               tjurina_number)
from singspec.newton import newton_filtration, newton_polyhedron, weight_order
from singspec.polycore import (Polynomial, parse_polynomial,
                               spectrum_symmetry_check)


def poly(text, variables=("x", "y")):
    return parse_polynomial(text, list(variables))


def test_milnor_brieskorn():
    assert milnor_algebra(poly("x^5 + y^4")).mu == 12
    assert milnor_algebra(poly("x^2 + y^2")).mu == 1
    assert milnor_algebra(poly("x^3 + y^3 + z^3", "xyz")).mu == 8


def test_milnor_semi_weighted_homogeneous_perturbation():
    # adding a term of weighted degree > 1 keeps mu
    assert milnor_algebra(poly("x^5 + y^4 + x^3*y^2")).mu == 12


def test_milnor_basis_monomials():
    ma = milnor_algebra(poly("x^3 + y^3"))
    assert ma.mu == 4
    assert set(ma.basis_monomials) == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_reduce_euler_relation():
    # weighted homogeneous f lies in the Jacobian ideal
    f = poly("x^5 + y^4 + x^3*y^2", "xy")
    f_wh = poly("x^5 + y^4")
    ma = milnor_algebra(f_wh)
    assert ma.reduce(f_wh) == {}
    assert milnor_algebra(f).reduce(f) != {}


def test_non_isolated_raises():
    with pytest.raises(NonIsolatedError):
        milnor_algebra(poly("x^2*y^2"))


def test_smooth_point_rejected():
    with pytest.raises(UnsupportedError):
        milnor_algebra(poly("x + y^2"))


def test_tjurina_numbers():
    assert tjurina_number(poly("x^5 + y^4")) == 12
    assert tjurina_number(poly("x^5 + y^4 + x^3*y^2")) == 11
    assert tjurina_number(poly("x^3 + y^3")) == 4


def test_ideal_membership():
    f = poly("x^5 + y^4 + x^3*y^2")
    assert ideal_membership(f, poly("x^4*y^3"), False)
    assert not ideal_membership(f, poly("x^3*y^2"), False)
    assert ideal_membership(f, poly("x^3*y^2"), True) == \
        ideal_membership(f, f - poly("x^5 + y^4"), True)
    assert ideal_membership(f, Polynomial.constant(2, 0), False)


def test_quotient_dim_with_extra_generators():
    f = poly("x^5 + y^4")
    assert quotient_dim_with(f, []) == 12
    assert quotient_dim_with(f, [poly("x")]) == 3
    assert quotient_dim_with(f, [poly("1")]) == 0


def test_filtered_dims_total_is_mu():
    f = poly("x^5 + y^4")
    order = weight_order([Fraction(1, 5), Fraction(1, 4)])
    fd = filtered_quotient_dims(f, order, False)
    assert fd.total() == 12
    assert fd.sorted_items()[0] == (Fraction(9, 20), 1)


def test_filtered_dims_tjurina_variant():
    f = poly("x^5 + y^4 + x^3*y^2")
    order = weight_order([Fraction(1, 5), Fraction(1, 4)])
    fd = filtered_quotient_dims(f, order, True)
    assert fd.total() == 11


def test_spectrum_weights_route():
    f = poly("x^5 + y^4 + x^3*y^2")
    sp = steenbrink_spectrum(f, [Fraction(1, 5), Fraction(1, 4)])
    assert sp.total() == 12
    assert sp.min_exponent() == Fraction(9, 20)
    assert sp.max_exponent() == Fraction(31, 20)


def test_spectrum_newton_route_matches_weights():
    f = poly("x^5 + y^4 + x^3*y^2")
    with_hint = steenbrink_spectrum(f, [Fraction(1, 5), Fraction(1, 4)])
    without = steenbrink_spectrum(f)
    assert with_hint == without


def test_spectrum_three_variables():
    sp = steenbrink_spectrum(poly("x^2 + y^3 + z^5", "xyz"))
    assert sp.total() == 8
    assert sp.min_exponent() == Fraction(31, 30)
    assert spectrum_symmetry_check(sp)


def test_spectrum_needs_structure():
    # degenerate boundary, no weight hint
    with pytest.raises(UnsupportedError):
        steenbrink_spectrum(poly("x^3 - 3*x^2*y + 3*x*y^2 - y^3 + x^7 + y^7"))


def test_determinacy_bounds():
    assert determinacy_bound(poly("x^2 + y^2")) == 2
    assert determinacy_bound(poly("x^3 + y^3")) == 3
    assert determinacy_bound(poly("x^5 + y^4")) <= 8


@given(st.integers(min_value=2, max_value=6),
       st.integers(min_value=2, max_value=6))
@settings(max_examples=20, deadline=None)
def test_brieskorn_mu_tau_formula(a, b):
    f = Polynomial(2, {(a, 0): 1, (0, b): 1})
    mu = milnor_algebra(f).mu
    assert mu == (a - 1) * (b - 1)
    assert tjurina_number(f) == mu


@given(st.integers(min_value=3, max_value=6),
       st.integers(min_value=3, max_value=6),
       st.fractions(min_value=-3, max_value=3).filter(bool))
@settings(max_examples=20, deadline=None)
def test_mu_stable_under_high_weight_perturbation(a, b, c):
    f = Polynomial(2, {(a, 0): 1, (0, b): 1})
    g = f + Polynomial.monomial(2, (a - 1, b - 1), c)
    assert milnor_algebra(g).mu == (a - 1) * (b - 1)
    assert tjurina_number(g) <= (a - 1) * (b - 1)


@given(st.integers(min_value=2, max_value=5),
       st.integers(min_value=2, max_value=5))
@settings(max_examples=15, deadline=None)
def test_spectrum_symmetry_property(a, b):
    f = Polynomial(2, {(a, 0): 1, (0, b): 1})
    sp = steenbrink_spectrum(f)
    assert sp.total() == (a - 1) * (b - 1)
    assert spectrum_symmetry_check(sp)
