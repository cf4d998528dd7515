"""Hodge-ideal machinery: membership, filtration spectra, statement
checks, and the non-monotonicity scan."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from singspec import hodge
from singspec.hodge import (_op_chain, epsilon_f, hodge_ideal_member,
                            hodge_ideal_spectrum, monotonicity_scan,
                            prop1_check, prop2_witness,
                            theorem1_check, theorem2_check, theorem3_witness,
                            tjurina_subspectrum)
from singspec.localalg import milnor_algebra, steenbrink_spectrum
from singspec.polycore import (Polynomial, op_P_tilde,
                               parse_polynomial, partial_derivative)


def poly(text, variables=("x", "y")):
    return parse_polynomial(text, list(variables))


F54 = "x^5 + y^4 + x^3*y^2"


def test_membership_monomial_level():
    # I_0(alpha Z) is the monomial level C^{>= alpha}
    f = poly("x^5 + y^4")
    # v(x^3) = 4/5 + 1/4 = 21/20 > 1 >= alpha, always inside
    assert hodge_ideal_member(f, 1, 0, poly("x^3"))
    # v(1) = 9/20 < 1/2: not in I_0 at alpha = 1/2
    assert not hodge_ideal_member(f, Fraction(1, 2), 0, poly("1"))
    assert hodge_ideal_member(f, Fraction(9, 20), 0, poly("1"))


def test_membership_rejects_bad_alpha():
    f = poly("x^5 + y^4")
    with pytest.raises(ValueError):
        hodge_ideal_member(f, 0, 1, poly("x"))
    with pytest.raises(ValueError):
        hodge_ideal_member(f, 2, 1, poly("x"))


@pytest.mark.parametrize("p", [-1, Fraction(1, 2), "1"])
def test_hodge_index_must_be_a_natural_number(p):
    f = poly("x^5 + y^4")
    with pytest.raises(ValueError, match="p must be an integer >= 0"):
        hodge_ideal_member(f, Fraction(1, 2), p, poly("1"))
    with pytest.raises(ValueError, match="p_max must be an integer >= 0"):
        hodge_ideal_spectrum(f, p_max=p)
    with pytest.raises(ValueError, match="p must be an integer >= 0"):
        monotonicity_scan(f, p=p)


def test_hodge_index_zero_is_allowed():
    f = poly("x^5 + y^4")
    assert hodge_ideal_member(f, Fraction(1, 2), 0, poly("x"))
    assert hodge_ideal_spectrum(f, p_max=0).total() == 12
    assert monotonicity_scan(f, p=0) == []


@pytest.mark.parametrize("modulo", ["bogus", "jacobian_and_f"])
def test_membership_rejects_unknown_modulo(modulo):
    for g in ("x", "0"):
        with pytest.raises(ValueError, match="unknown modulo mode"):
            hodge_ideal_member(poly("x^5 + y^4"), 1, 1, poly(g), modulo)


def test_membership_f_multiple_moves_up_one_level():
    # multiplying by f sends level-p members to level p+1
    f = poly(F54)
    a = Fraction(9, 20)
    g = poly("1")
    assert hodge_ideal_member(f, a, 0, g)
    assert hodge_ideal_member(f, a, 1, f * g)
    assert hodge_ideal_member(f, a, 2, f * f * g)


def test_hi_spectrum_weighted_homogeneous_equals_spectrum():
    # mu = tau: no extra exponents at all
    for text, variables in [("x^5 + y^4", "xy"),
                            ("x^3 + y^3", "xy"),
                            ("x^2 + y^2 + z^4", "xyz")]:
        f = poly(text, variables)
        sp = steenbrink_spectrum(f)
        hi = hodge_ideal_spectrum(f)
        tj = tjurina_subspectrum(f)
        assert hi == sp
        assert tj == sp


def test_hi_spectrum_fixture():
    f = poly(F54)
    sp = steenbrink_spectrum(f)
    hi = hodge_ideal_spectrum(f)
    tj = tjurina_subspectrum(f)
    assert sp.total() == 12 and hi.total() == 12 and tj.total() == 11
    assert tj.is_sub_multiset_of(hi)
    assert hi.max_exponent() == Fraction(17, 10)
    assert sp.max_exponent() == Fraction(31, 20)


def dimension_at(sp, beta):
    """Dimension of the filtration step at beta: the exponents >= beta."""
    return sum(m for a, m in sp.entries.items() if a >= beta)


def test_vhi_filtration_dims_monotone():
    hi = hodge_ideal_spectrum(poly(F54))
    dims = [dimension_at(hi, b) for b in sorted(hi.entries)]
    assert dims == sorted(dims, reverse=True)  # ascending beta
    assert max(dims) == 12


def pmax_probe(f, hint=None, p_max=None):
    """True if raising the p cutoff by one leaves the whole V_HI
    filtration unchanged; the cutoff at n+1 is a working hypothesis,
    not a theorem."""
    if p_max is None:
        p_max = f.n + 1
    return hodge_ideal_spectrum(f, hint, p_max) \
        == hodge_ideal_spectrum(f, hint, p_max + 1)


def test_pmax_probe_stable():
    assert pmax_probe(poly(F54), p_max=3)


def test_epsilon_fixture():
    gamma_f, eps = epsilon_f(poly(F54))
    assert gamma_f == Fraction(7, 10)
    assert eps == Fraction(3, 20)


def test_theorem1_fixture_holds():
    report = theorem1_check(poly(F54))
    assert report["applicable"]
    assert report["holds"]
    assert report["shift"] == Fraction(3, 20)
    assert report["hi_alpha_max"] == Fraction(17, 10)


def test_theorem1_not_applicable_double_point():
    report = theorem1_check(poly("x^2 + y^5"))
    assert not report["applicable"]


def test_theorem1_negative_epsilon_shift_zero():
    # epsilon < 0: the maximal exponents coincide
    report = theorem1_check(poly("x^7 + y^5 + x^5*y^3"))
    assert report["applicable"]
    assert report["epsilon_f"] == Fraction(-4, 35)
    assert report["shift"] == 0
    assert report["holds"]


def test_theorem2_fixture():
    report = theorem2_check(poly(F54))
    assert report["applicable"]
    assert report["holds"]
    assert report["extra_exponents"] == [Fraction(17, 10)]


def test_theorem2_not_applicable_when_mu_equals_tau():
    report = theorem2_check(poly("x^5 + y^4"))
    assert not report["applicable"]


def test_theorem3_witness_found():
    g, cap = theorem3_witness(poly(F54))
    assert g is not None
    assert g.terms == {(0, 0): 1}


def test_prop1_fixture():
    # double point (suspension) with mu != tau
    f = poly("x^5 + y^4 + x^3*y^2 + z^2", "xyz")
    report = prop1_check(f)
    assert report["applicable"]
    assert report["alpha_1"] == Fraction(19, 20)
    assert report["mu"] == report["tau"] + 1
    assert report["holds"]
    assert report["spectra_differ_criterion"] == \
        (report["alpha_1"] > Fraction(f.n, 2) - 1)


def test_prop1_not_applicable_order3():
    report = prop1_check(poly("x^3 + y^3"))
    assert not report["applicable"]


def test_prop2_witness_fixture():
    f = poly("x^5 + y^4 + x^3*y^2 + z^2", "xyz")
    g, note = prop2_witness(f)
    assert g is not None
    assert note == "witness found"
    assert all(m[2] == 0 for m in g.terms)


def test_prop2_shape_rejected():
    g, note = prop2_witness(poly("x^5 + y^4 + y*z^2", "xyz"))
    assert g is None
    assert "shape" in note


def test_scan_asymmetric_endpoint_behaviour():
    # I_1(alpha Z) without mod: f - alpha x f_x drops out above a
    # threshold while f - alpha y f_y stays (order filtration jump);
    # mod the Jacobian ideal the scan stays clean for x^a + y^b
    violations = monotonicity_scan(poly("x^5 + y^4"), p=1)
    assert violations == []


def test_scan_weighted_homogeneous_clean():
    assert monotonicity_scan(poly("x^5 + y^4 + x^3*y^2"), p=2) == []


@st.composite
def op_chain_cases(draw):
    """A germ of order >= 2 in 2 or 3 variables, an operator sequence of
    length <= 3, a parameter beta, a monomial x^m and a truncation N."""
    n = draw(st.integers(2, 3))
    expo = st.tuples(*[st.integers(0, 4)] * n).filter(
        lambda e: 2 <= sum(e) <= 4)
    terms = draw(st.dictionaries(expo, st.integers(-3, 3).filter(bool),
                                 min_size=1, max_size=4))
    seq = tuple(draw(st.lists(st.integers(1, n), min_size=1, max_size=3)))
    beta = Fraction(draw(st.integers(-6, 12)), draw(st.integers(1, 6)))
    m = draw(st.tuples(*[st.integers(0, 2)] * n))
    N = draw(st.integers(3, 9))
    return Polynomial(n, terms), seq, beta, m, N


@given(op_chain_cases())
@settings(max_examples=60, deadline=None)
def test_op_chain_matches_op_P_tilde(case):
    # truncating after every step is exact mod m^N: ord f >= 2, so each
    # P(i, beta) raises the lowest degree of its argument by at least 1
    f, seq, beta, m, N = case
    fd = f.terms
    partials = [partial_derivative(f, i).terms for i in range(1, f.n + 1)]
    cache = {}
    for k in range(1, len(seq) + 1):  # prefixes first, as the cache is used
        expected = op_P_tilde(f, seq[:k], beta,
                              Polynomial.monomial(f.n, m)).truncate(N)
        fresh = _op_chain(fd, partials, f.n, seq[:k], beta, m, N, {})
        assert fresh == expected.terms
        assert _op_chain(fd, partials, f.n, seq[:k], beta, m, N,
                         cache) == expected.terms


@pytest.mark.parametrize("text", ["x^6+y^5+x^4*y^2",
                                  "x^4+y^6+x^2*y^3+x^3*y^2"])
def test_scan_violations_match_membership_reference(monkeypatch, text):
    """With generators dropped by a content rule the model is no longer
    monotone, so the scan reaches its violation branch; its verdicts
    must match consecutive-point membership tests mod the Jacobian
    ideal under the same generators."""
    pruned_generators = hodge._pruned_generators

    def pruned(*args):
        for G, mu in pruned_generators(*args):
            if any(mu) or sum(c.denominator for c in G.values()) % 3:
                yield G, mu

    monkeypatch.setattr(hodge, "_pruned_generators", pruned)
    f = poly(text)
    p = 1
    violations = monotonicity_scan(f, p=p)
    ma = milnor_algebra(f)
    order = ma.order()
    jumps = sorted({v for v in map(order.monomial_order, ma.space.monomials)
                    if 0 < v <= 1} | {Fraction(1)})
    points = sorted(set(jumps)
                    | {(a + b) / 2 for a, b in zip(jumps, jumps[1:])})
    reference = []
    for a, a_hi in zip(points, points[1:]):
        for G, mu in hodge._pruned_generators(f, a_hi, p, order, ma.space,
                                              a_hi + p,
                                              ma.space.by_order(order)):
            g = (Polynomial(2, G) * Polynomial.monomial(2, mu)) \
                .truncate(ma.space.N)
            if not hodge_ideal_member(f, a, p, g, "jacobian"):
                reference.append((a, a_hi))
                break
    assert reference
    assert [(a, a_hi) for a, a_hi, g in violations] == reference
    for a, a_hi, g in violations:
        assert hodge_ideal_member(f, a_hi, p, g, "jacobian")
        assert not hodge_ideal_member(f, a, p, g, "jacobian")


def reference_vhi(f, hint, start):
    """V_HI generated in full: stage by stage, the monomial level and
    every pruned generator are inserted into a copy of the span start
    (the Jacobian span, or the Jacobian span plus f), and only a full
    quotient ends the pass.  Returns (stage, dimension) pairs."""
    ma = milnor_algebra(f)
    order = ma.order(hint)
    space = ma.space
    span = start.copy()
    base = span.rank()
    by_order = sorted((order.monomial_order(m), m) for m in space.monomials)
    desc = list(reversed(by_order))
    levels = space.by_order(order)  # the generators' input format
    p_max = f.n + 1
    alphas = {1 - (-v) % 1 for v, m in by_order} | {Fraction(1)}
    stages = sorted({a + p for a in alphas for p in range(p_max + 1)},
                    reverse=True)
    frontier = 0
    dims = []
    for s in stages:
        while frontier < len(desc) and desc[frontier][0] >= s:
            span.insert({space.index[desc[frontier][1]]: Fraction(1)})
            frontier += 1
        for p in range(p_max + 1):
            if 0 < s - p <= 1:
                for G, mu in hodge._pruned_generators(f, s - p, p, order,
                                                      space, s, levels):
                    span.insert(space.to_vector(G, mu))
        dims.append((s, span.rank() - base))
        if dims[-1][1] == space.dimension - base:
            break
    return dims


def assert_matches_reference(sp, reference):
    """The spectrum's dimension equals the reference's at every stage the
    reference visits, its exponents are visited stages, and its total is
    the reference's last dimension."""
    assert all(dimension_at(sp, s) == d for s, d in reference)
    assert set(sp.entries) <= {s for s, d in reference}
    assert sp.total() == reference[-1][1]


def assert_vhi_matches_reference(f, hint):
    ma = milnor_algebra(f)
    jac = reference_vhi(f, hint, ma.span)
    assert jac[-1][1] == ma.mu
    assert_matches_reference(hodge_ideal_spectrum(f, hint), jac)
    tj = reference_vhi(f, hint, ma.tjurina_span)
    assert tj[-1][1] == ma.tau
    assert_matches_reference(tjurina_subspectrum(f, hint), tj)


@pytest.mark.parametrize("text,variables,hint", [
    (F54, "xy", None),
    (F54, "xy", (Fraction(1, 5), Fraction(1, 4))),
    ("x^5 + x^2*y^2 + y^5", "xy", None),
    ("x^3 + y^7 + x^2*y^3", "xy", None),
    ("x^3 + y^7 + x^2*y^3", "xy", (Fraction(1, 3), Fraction(1, 7))),
    ("x^3 + y^3 + z^4 + x*y*z^2", "xyz",
     (Fraction(1, 3), Fraction(1, 3), Fraction(1, 4))),
])
def test_vhi_matches_unstopped_reference(text, variables, hint):
    assert_vhi_matches_reference(poly(text, variables), hint)


@st.composite
def above_weight_one(draw):
    """x^a + y^b + c x^i y^j with i/a + j/b > 1, and its weights."""
    a = draw(st.integers(2, 6))
    b = draw(st.integers(3, 7))
    i = draw(st.integers(1, a))
    j = draw(st.integers(1, b))
    assume(Fraction(i, a) + Fraction(j, b) > 1)
    c = draw(st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]))
    f = Polynomial(2, {(a, 0): Fraction(1), (0, b): Fraction(1),
                       (i, j): Fraction(c)})
    return f, (Fraction(1, a), Fraction(1, b))


@given(above_weight_one(), st.booleans())
@settings(max_examples=12, deadline=None)
def test_vhi_matches_unstopped_reference_family(case, weighted):
    f, weights = case
    assert_vhi_matches_reference(f, weights if weighted else None)
