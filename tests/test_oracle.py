"""An oracle for the Newton route that does not use the package:
Kouchnirenko's formula (Polyedres de Newton et nombres de Milnor,
Invent. Math. 32, 1976).  For convenient f with a non-degenerate Newton
boundary, mu = n! V_n - (n-1)! V_{n-1} + ... + (-1)^{n-1} 1! V_1 + (-1)^n,
where V_k sums the k-volumes of Gamma_-(f) cut by the coordinate
k-planes.

The germs are x^a + y^b + c x^i y^j with i, j >= 2 and i/a + j/b < 1,
and x^a + y^b + z^c + c x^i y^j z^k with i, j, k >= 1 and
i/a + j/b + k/c < 1.  The mixed point lies below the simplex of the
pure powers, so Gamma_- is the union of the cones from the origin over
the compact facets, each a simplex through the mixed point and all but
one pure power:
- 2 variables: 2 V_2 = a j + b i and V_1 = a + b, so
  mu = a j + b i - a - b + 1;
- 3 variables: 6 V_3 = a b k + b c i + a c j, 2 V_2 = a b + b c + c a
  and V_1 = a + b + c, so
  mu = a b k + b c i + a c j - (a b + b c + c a) + (a + b + c) - 1.

Every compact face is a simplex, its points linearly independent, so
the boundary is non-degenerate for every c != 0.

No weight route applies, so the Newton route is the only one.  For the
weights 1/a_l of the pure powers the mixed monomial lies below weight
one.  For the weights of a facet, the weight-one part f1 leaves out the
pure power of one variable x_l, and every monomial of f1 vanishes to
order >= 2 along the x_l axis: the other pure powers have exponent
>= 2, and the mixed monomial has degree >= 2 in the other variables
(i, j >= 2 in two variables; two of i, j, k >= 1 in three).  So that
axis is singular for f1, f1 is not isolated, and f is not
semi-weighted-homogeneous for the facet's weights.  With i = 1 or
j = 1 in two variables this fails: x^a + c x y^j is isolated, and the
germ is semi-weighted-homogeneous for that facet.  The test also asks
swh_structure for every facet's weights and for the weights 1/a_l.

In two variables non-degeneracy itself has an oracle.  A compact edge
from p_0 in the primitive direction (v_1, -v_2) gives
f_sigma = x^{p_0} g(t) with t = x^{v_1} y^{-v_2} and g(0) != 0.  Then
x f_x = x^{p_0} (p_{0,1} g + v_1 t g') and
y f_y = x^{p_0} (p_{0,2} g - v_2 t g'), a system invertible in
(g, t g') since p_{0,1} v_2 + p_{0,2} v_1 > 0.  So the edge is
degenerate exactly when g has a multiple root in C*, a non-zero root of
gcd(g, g').

Two theorems that hold for every f check the generator model of the
Hodge ideals I_p(alpha Z) (the hodge module docstring):
- minimal exponent: I_p(alpha Z) is the whole ring exactly when
  alpha + p <= the minimal exponent of f (Mustata-Popa, Hodge ideals
  for Q-divisors, V-filtration, and minimal exponent, Forum Math. Sigma
  8, 2020), which for an isolated singularity is the smallest spectral
  number alpha_1 (Saito, Hodge ideals and microlocal V-filtration,
  arXiv:1612.08667); alpha_1 is the order of 1 under the weights, or
  under the Newton boundary, and is written out below;
- decrease in p: I_p(alpha Z) lies in I_{p-1}(alpha Z) (Mustata-Popa,
  Hodge ideals for Q-divisors: birational approach, J. Ec. polytech.
  Math. 6, 2019), so every generator of the model's I_p lies in its
  I_{p-1}.
In two variables alpha_1 < 1, so 1 in I_p is tested only for p = 0;
the three- and four-variable germs with alpha_1 > 1 test it for p >= 1.
"""

from fractions import Fraction
from itertools import islice
from math import ceil, gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from singspec import hodge
from singspec.hodge import hodge_ideal_member
from singspec.localalg import milnor_algebra, steenbrink_spectrum
from singspec.newton import is_nondegenerate, swh_structure
from singspec.polycore import (Polynomial, parse_polynomial,
                               spectrum_symmetry_check)

coefficients = st.fractions(min_value=-3, max_value=3,
                            max_denominator=4).filter(bool)


def assert_matches_oracle(f, mu, pure_powers):
    verdict = is_nondegenerate(f)
    assert verdict.status == "yes"
    # the Newton route is the only one (module docstring)
    facets = verdict.polyhedron.scaling_facets()
    assert len(facets) == f.n
    for w in [fc.coeffs for fc in facets] + [
            [Fraction(1, a) for a in pure_powers]]:
        assert not swh_structure(f, w).is_swh
    ma = milnor_algebra(f)
    assert ma.mu == mu
    assert ma.tau <= mu
    sp = steenbrink_spectrum(f)
    assert sp.total() == mu
    assert spectrum_symmetry_check(sp)


@st.composite
def below_the_simplex(draw, exponents, low):
    """Pure-power exponents a and a mixed point e with e_l >= low[l] and
    sum(e_l / a_l) < 1; each coordinate is drawn within the room that
    the earlier ones leave when the later ones take their lowest values."""
    a = [draw(st.sampled_from(exponents)) for _ in low]
    point = []
    for l, a_l in enumerate(a):
        others = zip(point + list(low[l + 1:]), a[:l] + a[l + 1:])
        room = 1 - sum(Fraction(e, a_m) for e, a_m in others)
        top = ceil(room * a_l) - 1
        assume(top >= low[l])
        point.append(draw(st.integers(low[l], top)))
    return a, point


@given(below_the_simplex(range(5, 10), (2, 2)), coefficients)
@settings(max_examples=25, deadline=None)
def test_kouchnirenko_two_variables(exps, c):
    (a, b), (i, j) = exps
    f = Polynomial(2, {(a, 0): 1, (0, b): 1, (i, j): c})
    assert_matches_oracle(f, a * j + b * i - a - b + 1, (a, b))


@given(below_the_simplex(range(4, 7), (1, 1, 1)), coefficients)
@settings(max_examples=15, deadline=None)
def test_kouchnirenko_three_variables(exps, coeff):
    (a, b, c), (i, j, k) = exps
    f = Polynomial(3, {(a, 0, 0): 1, (0, b, 0): 1, (0, 0, c): 1,
                       (i, j, k): coeff})
    mu = a * b * k + b * c * i + a * c * j - (a * b + b * c + c * a) \
        + (a + b + c) - 1
    assert_matches_oracle(f, mu, (a, b, c))


def compact_edges(support):
    """The compact edges of the Newton polygon, each as its points in
    order of x: the lower-left hull, walked while its slope is negative."""
    here = min(support)
    edges = []
    while True:
        slopes = {p: Fraction(p[1] - here[1], p[0] - here[0])
                  for p in support if p[0] > here[0]}
        if not slopes or min(slopes.values()) >= 0:
            return edges
        least = min(slopes.values())
        edges.append([here] + sorted(p for p, s in slopes.items()
                                     if s == least))
        here = edges[-1][-1]


def edge_polynomial(f, edge):
    """Coefficients of g, lowest first, with f_sigma = x^{p_0} g(t)."""
    (x0, y0), (x1, y1) = edge[0], edge[-1]
    k = gcd(x1 - x0, y0 - y1)
    v1, v2 = (x1 - x0) // k, (y0 - y1) // k
    return [f.terms.get((x0 + j * v1, y0 - j * v2), Fraction(0))
            for j in range(k + 1)]


def strip(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def polynomial_gcd(a, b):
    """Euclid on coefficient lists over Fraction, lowest first."""
    a, b = strip(list(a)), strip(list(b))
    while b:
        r = list(a)
        while len(r) >= len(b):
            q = r[-1] / b[-1]
            for i, c in enumerate(b):
                r[len(r) - len(b) + i] -= q * c
            strip(r)
        a, b = b, r
    return a


def degenerate_edges(f):
    """The compact edges whose g has a multiple root in C*."""
    found = []
    for edge in compact_edges(f.support()):
        g = edge_polynomial(f, edge)
        d = polynomial_gcd(g, [j * c for j, c in enumerate(g)][1:])
        while d and d[0] == 0:  # drop the factor t^m: the rest are non-zero
            d = d[1:]
        if len(d) > 1:
            found.append(edge)
    return found


@st.composite
def two_variable_germs(draw):
    """x^k y^l (x^a - c y^b)^m, a repeated factor whenever m >= 2, plus
    pure powers (some of the time) and up to three more terms."""
    small = st.integers(-3, 3).filter(bool)
    a, b, m = draw(st.integers(1, 3)), draw(st.integers(1, 3)), \
        draw(st.integers(1, 3))
    factor = Polynomial.monomial(2, (a, 0)) \
        - Polynomial.monomial(2, (0, b), draw(small))
    f = Polynomial.monomial(2, (draw(st.integers(0, 2)),
                                draw(st.integers(0, 2))))
    for _ in range(m):
        f = f * factor
    extra = draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                          max_size=3))
    if draw(st.booleans()):
        extra += [(draw(st.integers(2, 12)), 0), (0, draw(st.integers(2, 12)))]
    for e in extra:
        if e != (0, 0):
            f = f + Polynomial.monomial(2, e, draw(small))
    assume(not f.is_zero())
    return f


@given(two_variable_germs())
@settings(max_examples=80, deadline=None)
def test_two_variable_nondegeneracy_oracle(f):
    degenerate = degenerate_edges(f)
    verdict = is_nondegenerate(f)
    assert verdict.status == ("no" if degenerate else "yes")
    if degenerate:
        assert sorted(verdict.face.points) in degenerate


@pytest.mark.parametrize("text, status", [
    ("x^2 - 2*x*y + y^2 + x^5 + y^5", "no"),
    ("x^4 - 2*x^2*y^2 + y^4 + x^7", "no"),
    ("(x + y)^3 + x^5 + y^5", "no"),
    ("x^4 + 3*x^2*y^2 + y^4", "yes"),
    ("x^5 + y^4 + x^3*y^2", "yes"),
])
def test_two_variable_oracle_examples(text, status):
    f = parse_polynomial(text, ["x", "y"])
    assert bool(degenerate_edges(f)) == (status == "no")
    assert is_nondegenerate(f).status == status


# (germ, its variables, alpha_1): the weights' sum for weighted
# homogeneous principal parts, else the Newton order of 1
MINIMAL_EXPONENTS = [
    ("x^5+y^4", "xy", Fraction(9, 20)),
    ("x^5+y^4+x^3*y^2", "xy", Fraction(9, 20)),
    ("x^3+y^7+x^2*y^3", "xy", Fraction(10, 21)),
    ("x^6+y^6+x^2*y^2", "xy", Fraction(1, 2)),
    ("x^7+y^5+x^2*y^2", "xy", Fraction(1, 2)),
    ("x^5+x^2*y^2+y^5", "xy", Fraction(1, 2)),
    ("x^3+y^3+z^4+x*y*z^2", "xyz", Fraction(11, 12)),
    ("x^2+y^4+z^5+y^2*z^2", "xyz", Fraction(1)),
    ("x^2+y^3+z^4", "xyz", Fraction(13, 12)),
    ("x^2+y^3+z^3", "xyz", Fraction(7, 6)),
    ("x^2+y^2+z^3+u^3", "xyzu", Fraction(5, 3)),
    ("w^2+x^2+y^4+z^6+y^2*z^2", "wxyz", Fraction(3, 2)),
]


def germ(text, variables):
    return parse_polynomial(text, list(variables))


@pytest.mark.parametrize("text, variables, alpha_1", MINIMAL_EXPONENTS)
def test_one_in_hodge_ideal_up_to_minimal_exponent(text, variables,
                                                    alpha_1):
    f = germ(text, variables)
    assert steenbrink_spectrum(f).min_exponent() == alpha_1
    one = Polynomial.constant(f.n, 1)
    for p in range(3):
        alphas = {Fraction(k, 12) for k in range(1, 13)}
        alphas |= {a for a in (alpha_1 - p, alpha_1 - p + Fraction(1, 120))
                   if 0 < a <= 1}
        for alpha in sorted(alphas):
            assert hodge_ideal_member(f, alpha, p, one) == \
                (alpha + p <= alpha_1), (alpha, p)


def first_generators(f, alpha, p, count=15):
    """The first count generators of the model's I_p(alpha Z), each as
    the truncated polynomial x^mu G, on the space membership uses."""
    ma = milnor_algebra(f)
    order = ma.order()
    space = hodge._pspan_space(f, alpha, p, order, ma)
    gens = hodge._pruned_generators(f, alpha, p, order, space, alpha + p,
                                    space.by_order(order))
    return [(Polynomial(f.n, G) * Polynomial.monomial(f.n, mu))
            .truncate(space.N) for G, mu in islice(gens, count)]


def assert_decreasing_in_p(f):
    tried = 0
    for alpha in (Fraction(1, 5), Fraction(1, 2), Fraction(7, 10), 1):
        for p in (1, 2):
            for g in first_generators(f, alpha, p):
                assert hodge_ideal_member(f, alpha, p - 1, g), (alpha, p, g)
                tried += 1
    assert tried


@pytest.mark.parametrize("text, variables, alpha_1", MINIMAL_EXPONENTS)
def test_hodge_ideal_generators_lie_one_index_down(text, variables, alpha_1):
    assert_decreasing_in_p(germ(text, variables))


@given(below_the_simplex(range(5, 9), (2, 2)), coefficients)
@settings(max_examples=8, deadline=None)
def test_hodge_ideals_decrease_in_p_newton_family(exps, c):
    (a, b), (i, j) = exps
    assert_decreasing_in_p(Polynomial(2, {(a, 0): 1, (0, b): 1, (i, j): c}))
