"""Acceptance suite: one test per published criterion, exact rational
equality throughout.  A verdict line per criterion is printed by the
conftest hook; criteria with a stated runtime budget assert it."""

import random
import time

from fractions import Fraction

import pytest

from singspec.cli import main as cli_main
from singspec.errors import UnsupportedError
from singspec.hodge import (epsilon_f, hodge_ideal_spectrum,
                            monotonicity_scan, theorem1_check,
                            tjurina_subspectrum)
from singspec.linalg import RowSpan
from singspec.localalg import (condition_a_order, filtered_quotient_dims,
                               milnor_algebra, quotient_dim_with,
                               steenbrink_spectrum, tjurina_number)
from singspec.newton import (convenientize, is_convenient, is_nondegenerate,
                             newton_filtration, newton_polyhedron, order_of,
                             polytope_linear_forms, strictly_positive_forms,
                             support, weight_order)
from singspec.polycore import (Polynomial, op_P, op_P_tilde,
                               parse_polynomial, partial_derivative,
                               spectrum_product_formula,
                               spectrum_symmetry_check)


def poly(text, variables="xy"):
    return parse_polynomial(text, list(variables))


F54 = "x^5 + y^4 + x^3*y^2"

# fixtures satisfying the structural hypotheses of the spectrum routines
FIXTURES = [
    ("x^5 + y^4", "xy"),
    ("x^3 + y^3", "xy"),
    (F54, "xy"),
    ("x^2 + y^3 + z^5", "xyz"),
    ("x^5 + y^4 + x^3*y^2 + z^2", "xyz"),
    ("x^7 + y^5 + x^5*y^3", "xy"),
    ("x^8 + y^4 + x^6*y^2", "xy"),
]

_spectra_cache = {}


def spectra(text, variables):
    key = (text, variables)
    if key not in _spectra_cache:
        f = poly(text, variables)
        _spectra_cache[key] = (steenbrink_spectrum(f),
                               hodge_ideal_spectrum(f),
                               tjurina_subspectrum(f))
    return _spectra_cache[key]


def test_criterion_01_base_fixture_invariants():
    t0 = time.monotonic()
    f = poly(F54)
    assert milnor_algebra(f).mu == 12
    assert tjurina_number(f) == 11
    sp, hi, _ = spectra(F54, "xy")
    assert sp.min_exponent() == Fraction(9, 20)
    gamma_f, eps = epsilon_f(f)
    assert gamma_f == Fraction(7, 10)
    assert eps == Fraction(3, 20)
    report = theorem1_check(f)
    assert report["applicable"] and report["holds"]
    assert hi.max_exponent() - sp.max_exponent() == Fraction(3, 20)
    assert report["shift"] == Fraction(3, 20)
    assert time.monotonic() - t0 < 5


def test_criterion_02_epsilon_sign_sweep():
    t0 = time.monotonic()
    # epsilon = 0: identical extended spectrum
    f = poly("x^8 + y^4 + x^6*y^2")
    assert epsilon_f(f)[1] == 0
    sp, hi, _ = spectra("x^8 + y^4 + x^6*y^2", "xy")
    assert hi == sp
    # epsilon < 0
    f = poly("x^7 + y^5 + x^5*y^3")
    assert epsilon_f(f)[1] == Fraction(-4, 35)
    sp, hi, _ = spectra("x^7 + y^5 + x^5*y^3", "xy")
    assert hi == sp
    # epsilon > 0: the spectra differ
    assert epsilon_f(poly(F54))[1] == Fraction(3, 20)
    sp, hi, _ = spectra(F54, "xy")
    assert hi != sp
    assert time.monotonic() - t0 < 30


def test_criterion_03_mod_one_eigenvalue_multisets():
    sp, hi, _ = spectra(F54, "xy")
    assert hi.mod1_multiset() != sp.mod1_multiset()


def test_criterion_04_three_variable_scan():
    """The three-variable example for p = 2 and a in (254/495, 173/330],
    the orders of xy and of x^2, with J the Jacobian ideal.

    There I_0(a Z) = (x^2) + m^3, as the Newton boundary is
    non-degenerate.  Since x^2 lies in I_0(a Z) and F_p D . F_q lies in
    F_{p+q}, both P(1, a+1) P(1, a) x^2 and the mixed P(2, a+1) P(1, a)
    x^2 lie in I_2(a Z).  Modulo J + TildeV^{>gamma_v} they are
    2 f^2 - a x^2 f_xx f and -12 a f g1, and f g1 is a non-zero
    multiple of 2 f^2 - (1/1485) x^2 f_xx f, so for every a in the
    interval I_2(a Z) holds the whole plane <[f^2], [x^2 f_xx f]>, not
    only a line in it.  A certificate built from the polycore operators
    alone then shows weak decrease of the chain ideal mod J between the
    two scan points of the interval, and the scan must agree."""
    t0 = time.monotonic()
    f = poly("x^9 + y^10 + z^11 + (x + y)*x^3*y^3*z^3", "xyz")
    ma = milnor_algebra(f)
    assert ma.mu == 720

    # reduction identities in the Milnor algebra
    g1 = poly("x^4*y^3*z^3", "xyz")
    g2 = poly("x^3*y^4*z^3", "xyz")
    fxx = partial_derivative(partial_derivative(f, 1), 1)
    x2 = poly("x^2", "xyz")
    assert ma.reduce(f + Fraction(1, 990) * (17 * g1 + 6 * g2)) == {}
    assert ma.reduce(x2 * fxx + 20 * g1 + 18 * g2) == {}

    # [f^2] and [x^2 f_xx f] are independent modulo the Jacobian ideal
    # plus the span of monomial classes of order > 111/330 + 2
    order = condition_a_order(f)
    gamma_v = Fraction(111, 330) + 2
    space = ma.space

    def class_vector(g):
        return {space.index[m]: c for m, c in ma.reduce(g).items()}

    span = RowSpan()
    for m in space.monomials:
        if order.monomial_order(m) > gamma_v:
            span.insert(class_vector(Polynomial.monomial(3, m)))
    beyond = span.copy()  # J + TildeV^{>gamma_v}, as Milnor classes
    assert span.insert(class_vector(f * f))
    assert span.insert(class_vector(x2 * fxx * f))

    # modulo J, P(1, a+1) P(1, a) x^2 = 2 f^2 - a x^2 f_xx f and
    # P(2, a+1) P(1, a) x^2 = -a x^2 f_xy f = -12 a f (x^5 y^2 z^3 + g1).
    # By the first identity f x^5 y^2 z^3 = -(17 x^9 y^5 z^6 + 6 g1^2)/990,
    # and g1^2 = -(4 x^3 y^9 z^9 + 3 x^2 y^10 z^9)/9 mod J, all of order
    # > gamma_v; so the mixed chain is -12 a f g1 mod J + TildeV^{>gamma_v}
    assert ma.reduce(9 * g1 * g1 + poly("4*x^3*y^9*z^9 + 3*x^2*y^10*z^9",
                                        "xyz")) == {}
    assert beyond.contains(class_vector(f * poly("x^5*y^2*z^3", "xyz")))
    # f g1 is non-zero there, and by the two identities f g1 =
    # -(1485/31) (2 f^2 - (1/1485) x^2 f_xx f) mod J: independent of the
    # line 2 f^2 - a x^2 f_xx f for every a != 1/1485
    fg1 = f * g1
    assert not beyond.contains(class_vector(fg1))
    assert ma.reduce(2970 * f * f - x2 * fxx * f + 31 * fg1) == {}

    lo, hi = Fraction(254, 495), Fraction(173, 330)
    scan_points = ((lo + hi) / 2, hi)
    for a in scan_points:
        same = op_P_tilde(f, (1, 1), a, x2)
        assert ma.reduce(same - (2 * f * f - a * x2 * fxx * f)) == {}
        mixed = op_P_tilde(f, (1, 2), a, x2)
        assert beyond.contains(class_vector(mixed + 12 * a * fg1))

    # certificate: the ideal mod J generated by f^2 m, f P(j, a) m and
    # P(i, a+1) P(j, a) m over the minimal generators m of I_0(a Z), x^2
    # and the cubics it does not divide, at the lower scan point contains
    # every such generator at the upper one
    cubics = [e for e in space.monomials if sum(e) == 3 and e[0] < 2]
    minimal = [x2] + [Polynomial.monomial(3, e) for e in cubics]
    assert len(minimal) == 8

    def chain_generators(a):
        for m in minimal:
            yield f * f * m
            for j in (1, 2, 3):
                yield f * op_P(f, j, a, m)
                for i in (1, 2, 3):
                    yield op_P_tilde(f, (j, i), a, m)

    variables = [Polynomial.monomial(3, e)
                 for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    ideal = RowSpan()
    queue = list(chain_generators(scan_points[0]))
    while queue:  # close the span under multiplication by x, y, z
        vec = class_vector(queue.pop())
        if ideal.insert(vec):
            g = space.from_vector(vec)
            queue.extend(v * g for v in variables)
    assert ideal.rank() == 23
    assert all(ideal.contains(class_vector(g))
               for g in chain_generators(scan_points[1]))

    # so the scan, which compares exactly these two points inside the
    # interval, must find no violation there
    violations = monotonicity_scan(f, p=2)
    hits = [v for v in violations if lo < v[0] and v[1] <= hi]
    assert not hits, (
        "monotonicity violation reported in (%s, %s] at %r; but there "
        "I_0(a Z) = (x^2) + m^3 holds x^2, so the mixed chains "
        "P(i, a+1) P(j, a) x^2 lie in I_2(a Z) and with the "
        "same-direction chains span <[f^2], [x^2 f_xx f]>, and the "
        "chain ideal mod J at a = %s contains every chain at a = %s"
        % (lo, hi, [v[:2] for v in hits], scan_points[0], scan_points[1]))
    assert time.monotonic() - t0 < 600


def test_criterion_05_degenerate_boundary_quotients():
    t0 = time.monotonic()
    f = poly("(u^2 - v^2)^2 + z^5 + 4*u*v*z", "uvz")
    assert tjurina_number(f) == 11
    for extra in ("u*v", "u*z", "v*z"):
        assert quotient_dim_with(f, [poly(extra, "uvz")]) == 10
    verdict = is_nondegenerate(f)
    assert verdict.status == "no"
    assert verdict.face.points == frozenset({(4, 0, 0), (2, 2, 0),
                                             (0, 4, 0)})
    assert time.monotonic() - t0 < 30


def test_criterion_06_weighted_homogeneous_equivalence():
    t0 = time.monotonic()
    rng = random.Random(0)
    checked = 0
    while checked < 44:
        a, b = rng.randint(2, 5), rng.randint(2, 5)
        f = poly("x^%d + y^%d" % (a, b))
        w = (Fraction(1, a), Fraction(1, b))
        # sometimes add a weight-one cross term when one exists
        cross = [(i, j) for i in range(1, a) for j in range(1, b)
                 if Fraction(i, a) + Fraction(j, b) == 1]
        if cross and rng.random() < 0.5:
            candidate = f + Polynomial.monomial(2, rng.choice(cross))
            try:
                milnor_algebra(candidate)
                f = candidate
            except UnsupportedError:
                pass
        product = spectrum_product_formula(w)
        graded = filtered_quotient_dims(f, weight_order(w), False)
        assert graded == product
        assert steenbrink_spectrum(f, hint=w) == product
        assert hodge_ideal_spectrum(f, hint=w) == product
        assert tjurina_subspectrum(f, hint=w) == product
        checked += 1
    for a, b, c in [(2, 2, 2), (2, 2, 3), (2, 3, 3),
                    (2, 2, 5), (2, 3, 4), (3, 3, 3)]:
        f = poly("x^%d + y^%d + z^%d" % (a, b, c), "xyz")
        w = (Fraction(1, a), Fraction(1, b), Fraction(1, c))
        product = spectrum_product_formula(w)
        graded = filtered_quotient_dims(f, weight_order(w), False)
        assert graded == product
        assert steenbrink_spectrum(f, hint=w) == product
        assert hodge_ideal_spectrum(f, hint=w) == product
        assert tjurina_subspectrum(f, hint=w) == product
        checked += 1
    assert checked >= 50
    assert time.monotonic() - t0 < 120


def test_criterion_07_spectrum_invariants():
    for text, variables in FIXTURES:
        f = poly(text, variables)
        ma = milnor_algebra(f)
        sp, _, _ = spectra(text, variables)
        assert spectrum_symmetry_check(sp)
        assert sp.multiplicity(sp.min_exponent()) == 1
        assert sp.multiplicity(sp.max_exponent()) == 1
        assert sp.total() == ma.mu
        # multiplying by f raises the filtration order by at least one
        order = condition_a_order(f)
        for m in ma.basis_monomials:
            mono = Polynomial.monomial(f.n, m)
            assert order_of(order, f * mono) >= order.monomial_order(m) + 1


def test_criterion_08_subspectrum_relations():
    for text, variables in FIXTURES:
        sp, hi, tj = spectra(text, variables)
        assert tj.is_sub_multiset_of(sp)
        assert tj.is_sub_multiset_of(hi)


def test_criterion_09_polyhedron_properties():
    # strictly positive hull facets match strictly positive scaled facets
    rng = random.Random(1)
    checked = 0
    while checked < 20:
        n = rng.choice((2, 3))
        points = {p for p in (tuple(rng.randint(0, 4) for _ in range(n))
                              for _ in range(rng.randint(2, 4)))
                  if sum(p) >= 1}
        if len(points) < 2:
            continue
        f = Polynomial(n, {p: Fraction(1) for p in points})
        NP = newton_polyhedron(f)
        hull = set(strictly_positive_forms(polytope_linear_forms(f)))
        scaled = set(strictly_positive_forms(NP.facets))
        assert hull == scaled
        assert all(fc.positivity in ("strict", "weak") for fc in NP.facets)
        checked += 1

    # convenientization keeps non-degeneracy for several coefficients
    f = poly("x^3*y + x*y^3")
    exponents, builder = convenientize(f, 5)
    assert len(exponents) == 2 and all(a >= 5 for a in exponents)
    for c in (1, 2, 3):
        g = builder(c)
        assert is_convenient(support(g), 2)
        assert is_nondegenerate(g).status == "yes"

    # the order-filtration spectrum of the non-convenient input equals
    # the spectrum of its convenientized version
    graded = filtered_quotient_dims(
        f, newton_filtration(newton_polyhedron(f)), False)
    assert graded == steenbrink_spectrum(builder(1))
    assert graded == spectrum_product_formula((Fraction(1, 4),
                                               Fraction(1, 4)))


def test_criterion_10_unsupported_inputs(capsys):
    # non-isolated singularities are rejected with a typed error and the
    # command line maps them to exit code 2
    with pytest.raises(UnsupportedError):
        milnor_algebra(poly("x^2*y^2"))
    for verb in ("milnor", "spectrum", "hi-spectrum", "report"):
        code = cli_main([verb, "x^2*y^2"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unsupported" in captured.err
    # statement checks on out-of-scope inputs report not-applicable,
    # which is a successful run
    code = cli_main(["check", "thm2", "x^5 + y^4"])
    captured = capsys.readouterr()
    assert code == 0
    assert "applicable: False" in captured.out
