"""Answers do not depend on the truncation degree.

The Milnor algebra is built at the first degree N whose Jacobian span
contains m^{N-2}; everything read from it must agree with a build that
starts 8 degrees higher.
"""

import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from singspec import localalg
from singspec.errors import NonIsolatedError
from singspec.hodge import (hodge_ideal_spectrum, prop2_witness,
                            theorem3_witness, tjurina_subspectrum)
from singspec.localalg import (_contains_power, determinacy_bound,
                               ideal_membership, milnor_algebra,
                               set_truncation_start, steenbrink_spectrum,
                               tjurina_number)
from singspec.polycore import (Polynomial, make_weights, parse_polynomial,
                               partial_derivative, spectrum_product_formula)


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


def bezout_bound(f):
    bound = 1
    for i in range(1, f.n + 1):
        bound *= partial_derivative(f, i).degree()
    return bound


def codimension_rounds(f):
    """The truncated codimension of every round of f's Milnor algebra
    build, started at the lowest degree, and the mu it ends with."""
    codims = []
    build = localalg.jacobian_span

    def recording(g, N):
        space, span = build(g, N)
        codims.append(space.dimension - span.rank())
        return space, span

    localalg.jacobian_span = recording
    set_truncation_start(f.n + 2)
    try:
        mu = milnor_algebra(f).mu
    finally:
        localalg.jacobian_span = build
        set_truncation_start(None)
    return codims, mu


@st.composite
def isolated_germs(draw):
    """Pure powers plus one monomial x^e off their simplex.  Above it f
    is semi-weighted-homogeneous; below it, in two variables with
    e_1, e_2 >= 2, its Newton boundary is non-degenerate (the
    Kouchnirenko family of tests/test_oracle.py).  So f is isolated."""
    n = draw(st.integers(2, 3))
    a = [draw(st.integers(2, 7 if n == 2 else 5)) for _ in range(n)]
    e = tuple(draw(st.integers(0, 6)) for _ in range(n))
    height = sum(Fraction(e_l, a_l) for e_l, a_l in zip(e, a))
    assume(height > 1 or (n == 2 and height < 1 and min(e) >= 2))
    terms = {tuple(a_l if k == l else 0 for k in range(n)): 1
             for l, a_l in enumerate(a)}
    terms[e] = draw(st.sampled_from([1, -1, 2, Fraction(-3, 2)]))
    return Polynomial(n, terms)


@given(isolated_germs())
@settings(max_examples=15, deadline=None)
def test_isolated_germs_stay_within_bezout_bound(f):
    codims, mu = codimension_rounds(f)
    assert max(codims) <= mu <= bezout_bound(f)


@given(st.integers(1, 3), st.integers(2, 4),
       st.sampled_from([1, -2, Fraction(1, 3)]))
@settings(max_examples=10, deadline=None)
def test_curve_singular_locus_proved_at_once(a, b, c):
    # singular along x^a = c y^b, z = 0, on no coordinate axis
    z = Polynomial.monomial(3, (0, 0, 1))
    factor = Polynomial.monomial(3, (a, 0, 0)) \
        - Polynomial.monomial(3, (0, b, 0), c)
    start = time.monotonic()
    with pytest.raises(NonIsolatedError):
        milnor_algebra(factor * factor + z * z)
    assert time.monotonic() - start < 5
