"""Newton polyhedra, filtration orders, non-degeneracy, convenientizing."""

import time
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singspec import newton
from singspec.errors import DegenerateError
from singspec.linalg import rank
from singspec.newton import (compact_faces, convenientize, gamma,
                             is_nondegenerate, newton_filtration,
                             newton_polyhedron, order_of,
                             polytope_linear_forms, strictly_positive_forms,
                             swh_structure, weight_order)
from singspec.polycore import Polynomial, make_weights, parse_polynomial


def poly(text, variables=("x", "y")):
    return parse_polynomial(text, list(variables))


def test_polyhedron_brieskorn():
    NP = newton_polyhedron(poly("x^5 + y^4"))
    assert NP.convenient
    assert NP.vertices == {(5, 0), (0, 4)}
    scaling = NP.scaling_facets()
    assert len(scaling) == 1
    fc = scaling[0]
    # facet x/5 + y/4 = 1, stored scaled so the constant is 1
    assert [c * 20 for c in fc.coeffs] == [4, 5]
    assert fc.constant * 20 == 20


def test_polyhedron_not_convenient():
    NP = newton_polyhedron(poly("x^2*y + y^4"))
    assert not NP.convenient
    assert (2, 1) in NP.vertices


def test_newton_order_shifted():
    order = newton_filtration(newton_polyhedron(poly("x^5 + y^4")))
    # v(x^a y^b) = (a+1)/5 + (b+1)/4
    assert order_of(order, poly("1")) == Fraction(9, 20)
    assert order_of(order, poly("x*y^2")) == Fraction(23, 20)
    assert order_of(order, poly("x^3 + y")) == Fraction(7, 10)


def test_weight_and_newton_order_agree_on_brieskorn():
    w = [Fraction(1, 5), Fraction(1, 4)]
    wo = weight_order(w)
    no = newton_filtration(newton_polyhedron(poly("x^5 + y^4")))
    for expo in [(0, 0), (3, 2), (1, 0), (4, 3)]:
        assert wo.monomial_order(expo) == no.monomial_order(expo)


def test_gamma_is_max_over_variable_shifts():
    w = [Fraction(1, 5), Fraction(1, 4)]
    wo = weight_order(w)
    g = poly("1")
    # gamma(1) = max(v(x), v(y)) = max(13/20, 14/20)
    assert gamma(wo, g) == Fraction(7, 10)
    assert order_of(wo, poly("x^3*y")) == Fraction(13, 10)


def test_nondegenerate_brieskorn_and_mixed():
    assert is_nondegenerate(poly("x^5 + y^4")).status == "yes"
    assert is_nondegenerate(poly("x^5 + y^4 + x^3*y^2")).status == "yes"
    assert is_nondegenerate(
        poly("x^2*y + y^2*z + z^2*x", "xyz")).status == "yes"


def test_degenerate_face_is_reported():
    # (x - y)^2 + higher: the segment face has a critical point on the torus
    verdict = is_nondegenerate(poly("x^2 - 2*x*y + y^2 + x^5 + y^5"))
    assert verdict.status == "no"
    assert verdict.face is not None
    assert {(2, 0), (1, 1), (0, 2)} <= set(verdict.face.points)


@pytest.mark.parametrize("text, variables", [
    # the 2-face {(0,3,5), (2,1,3), (3,0,2), (3,6,1)} has index 6 in Z^3
    # under a projection onto pivot columns; coordinates over a basis of
    # its own lattice keep the Groebner run small
    ("x^3*z^2 + x^2*y*z^3 + x^5*z + y^3*z^5 + x^3*y^6*z + x^5*y^2*z^3"
     " + x^5*z^6", "xyz"),
    # every compact face is a simplex, which needs no Groebner run
    ("x^6*y^3*z*u^5 + x^6*y^6*z^2*u^2 + x^5*y^3*z^5*u^4"
     " + x^2*y^6*z^5*u^5", "xyzu"),
])
def test_nondegenerate_answers_quickly(text, variables):
    start = time.monotonic()
    assert is_nondegenerate(poly(text, variables)).status == "yes"
    assert time.monotonic() - start < 10


@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=6)))
@settings(max_examples=200, deadline=None)
def test_lattice_coordinates(vectors):
    basis, coords = newton._lattice_coordinates(vectors)
    n = len(vectors[0]) if vectors else 0
    assert len(basis) == rank(vectors, n)
    for v, c in zip(vectors, coords):
        assert all(type(x) is int for x in c)
        assert [sum(ck * b[i] for ck, b in zip(c, basis))
                for i in range(n)] == v


def test_compact_faces_count():
    NP = newton_polyhedron(poly("x^5 + y^4"))
    faces = compact_faces(NP)
    dims = sorted(fc.dimension for fc in faces)
    assert dims == [0, 0, 1]


def test_linear_forms_lower_dimensional_hull():
    # support on a segment: the hull equality appears as opposite forms
    forms = polytope_linear_forms(poly("x^2 + y^2 + x*y"))
    strict = strictly_positive_forms(forms)
    assert all(all(c > 0 for c in fm.coeffs) for fm in strict)
    keys = {(fm.coeffs, fm.constant) for fm in forms}
    assert ((Fraction(1, 2), Fraction(1, 2)), Fraction(1)) in keys


def test_convenientize_adds_missing_axes():
    f = poly("x^2*y + y^4")
    exponents, builder = convenientize(f, 5)
    assert len(exponents) == 1 and exponents[0] >= 5
    g = builder(1)
    assert newton_polyhedron(g).convenient
    assert is_nondegenerate(g).status == "yes"


@pytest.mark.parametrize("text, exponents, augmented", [
    ("x^2*y + y^4", (5,), "x^2*y + y^4 + x^5"),
    ("x^3*y + x*y^3", (5, 6), "x*y^3 + x^3*y + x^5 + y^6"),
])
def test_convenientize_builds_each_polyhedron_once(monkeypatch, text,
                                                   exponents, augmented):
    builds = Counter()
    build = newton.newton_polyhedron

    def counting(f):
        builds[f] += 1
        return build(f)

    monkeypatch.setattr(newton, "newton_polyhedron", counting)
    f = poly(text)
    got, builder = convenientize(f, f.degree() + 1)
    assert got == exponents
    assert builder(1).to_string(["x", "y"]) == augmented
    assert len(builds) == len(exponents) + 1
    assert max(builds.values()) == 1


def test_convenientize_noop_when_convenient():
    f = poly("x^5 + y^4")
    exponents, builder = convenientize(f, 7)
    assert exponents == ()
    assert builder(3).terms == f.terms


def test_convenientize_rejects_degenerate():
    with pytest.raises(DegenerateError):
        convenientize(poly("x^2 - 2*x*y + y^2 + x^5 + y^5"), 6)


def test_swh_structure_split():
    w = make_weights([Fraction(1, 9), Fraction(1, 10), Fraction(1, 11)])
    f = parse_polynomial("x^9 + y^10 + z^11 + (x + y)*x^3*y^3*z^3",
                         ["x", "y", "z"])
    st_ = swh_structure(f, w)
    assert st_.is_swh
    assert st_.f1.terms == {(9, 0, 0): 1, (0, 10, 0): 1, (0, 0, 11): 1}
    assert (4, 3, 3) in st_.f_gt1.terms


def test_swh_structure_bounds_the_isolation_test():
    # f1 = x^5 + x^2*y^2 + z^2 is singular along the y axis, which the
    # input check of the Milnor algebra sees from the terms alone
    w = make_weights([Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)])
    f = parse_polynomial("x^5 + y^7 + x^2*y^2 + z^2", ["x", "y", "z"])
    start = time.monotonic()
    st_ = swh_structure(f, w)
    assert not st_.is_swh
    assert st_.below_weight_one == []
    assert time.monotonic() - start < 10


def test_swh_structure_bounds_an_off_axis_singular_locus():
    # f1 = (x^3 - y^2)^2 + z^2 is singular along x^3 = y^2, z = 0, on no
    # axis; its Milnor algebra would climb to the truncation cap, while a
    # failed certificate at N >= floor(s / min w) + 3 = 10 proves it
    w = make_weights([Fraction(1, 6), Fraction(1, 4), Fraction(1, 2)])
    f = parse_polynomial("(x^3 - y^2)^2 + z^2 + x^7", ["x", "y", "z"])
    start = time.monotonic()
    st_ = swh_structure(f, w)
    assert not st_.is_swh
    assert st_.below_weight_one == []
    assert time.monotonic() - start < 10


def test_swh_structure_rejects_low_terms():
    w = make_weights([Fraction(1, 3), Fraction(1, 3)])
    st_ = swh_structure(poly("x^3 + y^3 + x"), w)
    assert not st_.is_swh
    assert st_.below_weight_one == [(1, 0)]


@st.composite
def convenient_polys(draw):
    a = draw(st.integers(min_value=2, max_value=7))
    b = draw(st.integers(min_value=2, max_value=7))
    f = Polynomial(2, {(a, 0): 1, (0, b): 1})
    if draw(st.booleans()):
        i = draw(st.integers(min_value=1, max_value=max(a - 1, 1)))
        j = draw(st.integers(min_value=1, max_value=max(b - 1, 1)))
        f = f + Polynomial.monomial(2, (i, j))
    return f


@given(convenient_polys())
@settings(max_examples=30, deadline=None)
def test_newton_order_monotone_under_divisibility(f):
    NP = newton_polyhedron(f)
    order = newton_filtration(NP)
    for nu in [(0, 0), (1, 0), (0, 2), (2, 1), (3, 3)]:
        v = order.monomial_order(nu)
        assert v > 0
        for i in range(2):
            up = list(nu)
            up[i] += 1
            assert order.monomial_order(tuple(up)) > v


@given(st.integers(min_value=2, max_value=6),
       st.integers(min_value=2, max_value=6))
@settings(max_examples=25, deadline=None)
def test_brieskorn_always_nondegenerate(a, b):
    f = Polynomial(2, {(a, 0): 1, (0, b): 1})
    assert is_nondegenerate(f).status == "yes"
    NP = newton_polyhedron(f)
    assert NP.convenient
    assert order_of(newton_filtration(NP), Polynomial.constant(2, 1)) == \
        Fraction(1, a) + Fraction(1, b)


@st.composite
def filtration_orders(draw):
    """A weight order with positive weights, or the Newton order of a
    convenient germ in two or three variables."""
    n = draw(st.integers(min_value=2, max_value=3))
    if draw(st.booleans()):
        return weight_order([Fraction(1, draw(st.integers(2, 9)))
                             for _ in range(n)])
    terms = {tuple(draw(st.integers(3, 8)) if j == i else 0
                   for j in range(n)): 1 for i in range(n)}
    for _ in range(draw(st.integers(0, 2))):
        terms[tuple(draw(st.integers(1, 3)) for _ in range(n))] = 1
    return newton_filtration(newton_polyhedron(Polynomial(n, terms)))


@given(filtration_orders(), st.data())
@settings(max_examples=40, deadline=None)
def test_order_degree_and_drop_bounds(order, data):
    n = len(order.drops)
    mu = data.draw(st.tuples(*[st.integers(0, 6)] * n))
    for nu in product(range(6), repeat=n):
        nu_mu = tuple(a + b for a, b in zip(nu, mu))
        assert order.monomial_order(nu_mu) >= \
            order.degree(mu) + order.monomial_order(nu)
        for i in range(n):
            if nu[i]:
                down = nu[:i] + (nu[i] - 1,) + nu[i + 1:]
                assert order.monomial_order(nu) \
                    - order.monomial_order(down) <= order.drops[i]
