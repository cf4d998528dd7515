"""Answers do not depend on the truncation degree.

The Milnor algebra is built at the first degree N whose Jacobian span
contains m^{N-2}; everything read from it must agree with a build that
starts 8 degrees higher.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from singspec.hodge import (hodge_ideal_spectrum, prop2_witness,
                            theorem3_witness, tjurina_subspectrum)
from singspec.localalg import (_contains_power, determinacy_bound,
                               ideal_membership, milnor_algebra,
                               set_truncation_start, steenbrink_spectrum,
                               tjurina_number)
from singspec.polycore import (Polynomial, make_weights, parse_polynomial,
                               spectrum_product_formula)


def poly(text, variables="xy"):
    return parse_polynomial(text, list(variables))


HAND_GERMS = ["x^5 + y^4", "x^3 + y^3", "x^5 + y^4 + x^3*y^2",
              "x^7 + y^5 + x^5*y^3", "x^8 + y^4 + x^6*y^2", "x^2 + y^5"]
# the Hodge layer takes 20-170 s per three-variable germ at N + 8, so
# these are compared on the Milnor and Tjurina algebras and the spectrum
HAND_GERMS_3 = ["x^2 + y^3 + z^5", "x^5 + y^4 + x^3*y^2 + z^2",
                "x^5 + y^4 + y*z^2"]


def answers(f, hint=None, hodge=True):
    ma = milnor_algebra(f)
    assert _contains_power(ma.space, ma.span, ma.N - 2)
    out = {"mu": ma.mu, "basis": ma.basis_monomials,
           "tau": tjurina_number(f),
           "spectrum": steenbrink_spectrum(f, hint)}
    if hodge:
        out.update(hi=hodge_ideal_spectrum(f, hint),
                   tj=tjurina_subspectrum(f, hint),
                   thm3=theorem3_witness(f, hint)[0],
                   prop2=prop2_witness(f, hint)[0])
    return ma.N, out


def assert_independent_of_N(f, hint=None, hodge=True):
    N, default = answers(f, hint, hodge)
    set_truncation_start(N + 8)
    try:
        N_high, high = answers(f, hint, hodge)
    finally:
        set_truncation_start(None)
    assert N_high >= N + 8
    assert high == default
    return default


def test_first_certified_degree():
    assert milnor_algebra(poly("x^5 + y^4")).N == 10
    assert milnor_algebra(poly("x^3 + y^3")).N == 6


def test_hand_germs_independent_of_N():
    for text in HAND_GERMS:
        assert_independent_of_N(poly(text))
    for text in HAND_GERMS_3:
        assert_independent_of_N(poly(text, "xyz"), hodge=False)


@given(st.integers(min_value=2, max_value=5),
       st.integers(min_value=3, max_value=5),
       st.fractions(min_value=-3, max_value=3))
@settings(max_examples=8, deadline=None)
def test_brieskorn_family_independent_of_N(a, b, c):
    # x^{a-1} y^{b-1} has weighted degree 2 - 1/a - 1/b > 1
    f = Polynomial(2, {(a, 0): 1, (0, b): 1}) \
        + Polynomial.monomial(2, (a - 1, b - 1), c)
    hint = [Fraction(1, a), Fraction(1, b)]
    got = assert_independent_of_N(f, hint)
    assert got["mu"] == (a - 1) * (b - 1)
    assert got["spectrum"] == spectrum_product_formula(make_weights(hint))


def test_membership_exact_at_every_degree():
    f = poly("x^5 + y^4")
    ma = milnor_algebra(f)
    high = Polynomial.monomial(2, (ma.N + 3, 0))
    assert ideal_membership(f, high, False)
    assert not ideal_membership(f, poly("x^3*y^2") + high, False)
    assert ideal_membership(f, poly("x^3*y^2") * high, True)


def test_determinacy_bound_independent_of_N():
    germs = ["x^2 + y^2", "x^3 + y^3", "x^5 + y^4", "x^5 + y^4 + x^3*y^2",
             "x^7 + y^5 + x^5*y^3", "x^8 + y^4 + x^6*y^2", "x^2 + y^5",
             "x^3 + y^7", "x^3*y + x*y^3", "x^6 + y^3 + x^4*y^2"]
    default = [determinacy_bound(poly(text)) for text in germs]
    set_truncation_start(40)
    try:
        high = [determinacy_bound(poly(text)) for text in germs]
    finally:
        set_truncation_start(None)
    assert high == default
