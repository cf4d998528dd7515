"""Polynomial core: parsing, arithmetic, operators, spectrum multisets."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singspec.polycore import (ParseError, Polynomial, Spectrum,
                               default_variables, make_weights, op_P,
                               op_P_tilde,
                               parse_polynomial, partial_derivative,
                               spectrum_T, spectrum_product_formula,
                               spectrum_symmetry_check,
                               verify_hilbert_poincare)


def test_parse_basic():
    f = parse_polynomial("x^5 + y^4 + x^3*y^2", ["x", "y"])
    assert f.terms == {(5, 0): 1, (0, 4): 1, (3, 2): 1}
    assert f.degree() == 5
    assert f.order() == 4


def test_parse_rational_coefficients_and_parens():
    f = parse_polynomial("(u^2 - v^2)^2 + z^5 + 4*u*v*z", ["u", "v", "z"])
    assert f.coefficient((4, 0, 0)) == 1
    assert f.coefficient((2, 2, 0)) == -2
    assert f.coefficient((0, 4, 0)) == 1
    assert f.coefficient((1, 1, 1)) == 4
    g = parse_polynomial("1/2*x^2 - 3/4*x", ["x"])
    assert g.coefficient((2,)) == Fraction(1, 2)
    assert g.coefficient((1,)) == Fraction(-3, 4)


def test_parse_rejects_unknown_symbols():
    with pytest.raises(ValueError):
        parse_polynomial("x + w", ["x", "y"])


@pytest.mark.parametrize("text, variables, message, position", [
    ("1.5*x", ["x"], "non-rational coefficient", 0),
    ("x + 1/", ["x"], "expected denominator digits", 6),
    ("1/0*x", ["x"], "zero denominator", 2),
    ("x $ y", ["x", "y"], "unexpected character '$'", 2),
    ("x^2)+y", ["x", "y"], "trailing input", 3),
    ("x^y", ["x", "y"], "exponent must be a non-negative integer", 1),
    ("x^1/2", ["x"], "exponent must be a non-negative integer", 1),
    ("x + w", ["x", "y"], "unknown variable 'w'", 4),
    ("", ["x"], "unexpected token", 0),
    ("x +", ["x"], "unexpected token", 3),
    ("(x", ["x"], "expected ')'", 2),
    ("x", [], "unknown variable 'x'", 0),
])
def test_parse_error_message_and_position(text, variables, message,
                                          position):
    with pytest.raises(ParseError) as err:
        parse_polynomial(text, variables)
    assert str(err.value) == "%s (at position %d)" % (message, position)
    assert err.value.position == position


def test_parse_unicode_names_and_digits():
    f = parse_polynomial("\u03b1^2 - 3/2*\u03b2", ["\u03b1", "\u03b2"])
    assert list(f.terms.items()) == [((2, 0), 1), ((0, 1), Fraction(-3, 2))]
    # a numeral letter is not a letter; a superscript digit is not a
    # decimal digit, so neither starts a token
    for text, position in (("x + \u216b", 4), ("x^\u00b2", 2)):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, ["x"])
        assert str(err.value) == "unexpected character %r (at position %d)" \
            % (text[position], position)


def test_parse_rejects_duplicate_variables():
    with pytest.raises(ValueError, match="duplicate variable name"):
        parse_polynomial("x^2 + y^2", ["x", "y", "x"])


def test_parse_constant_needs_a_variable():
    with pytest.raises(ValueError, match="^need at least one variable$"):
        parse_polynomial("1", [])


# Random expression trees, rendered with the parser's precedences: a sum
# (level 0) of terms (1) of factors (2) of atoms (3).  A unary minus
# takes a whole factor ("-x^2" is -(x^2)), so it renders at level 2.
TREE_VARS = ["x", "y", "z"]
_LEAF = st.one_of(
    st.sampled_from(TREE_VARS).map(lambda v: ("var", v)),
    st.tuples(st.just("num"), st.integers(0, 12), st.integers(1, 6)))


def _extend(children):
    return st.one_of(
        st.tuples(st.sampled_from(["add", "sub", "mul"]), children, children),
        st.tuples(st.sampled_from(["neg", "paren"]), children))


_BASE = st.recursive(_LEAF, _extend, max_leaves=4)
_TREE = st.recursive(
    st.one_of(_LEAF, st.tuples(st.just("pow"), _BASE, st.integers(0, 4))),
    _extend, max_leaves=8)


def _render(node):
    """(text, precedence level) of an expression tree."""
    kind = node[0]
    if kind == "var":
        return node[1], 3
    if kind == "num":
        return "%d/%d" % node[1:] if node[2] != 1 else str(node[1]), 3
    if kind == "paren":
        return "(%s)" % _render_at(node[1], 0), 3
    if kind == "neg":
        return "-" + _render_at(node[1], 2), 2
    if kind == "pow":
        return "%s^%d" % (_render_at(node[1], 3), node[2]), 2
    if kind == "mul":
        return _render_at(node[1], 1) + "*" + _render_at(node[2], 2), 1
    op = " + " if kind == "add" else " - "
    return _render_at(node[1], 0) + op + _render_at(node[2], 1), 0


def _render_at(node, level):
    text, own = _render(node)
    return text if own >= level else "(%s)" % text


def _evaluate(node):
    """The tree by Polynomial +, - and *; a power is repeated * grouped
    as binary powering groups it (p^3 = p*(p*p)), which fixes term order."""
    n = len(TREE_VARS)
    kind = node[0]
    if kind == "var":
        expo = [0] * n
        expo[TREE_VARS.index(node[1])] = 1
        return Polynomial.monomial(n, expo)
    if kind == "num":
        return Polynomial.constant(n, Fraction(node[1], node[2]))
    if kind == "paren":
        return _evaluate(node[1])
    if kind == "neg":
        return -_evaluate(node[1])
    if kind == "pow":
        p = _evaluate(node[1])
        return [Polynomial.constant(n, 1), p, p * p, p * (p * p),
                (p * p) * (p * p)][node[2]]
    a, b = _evaluate(node[1]), _evaluate(node[2])
    return a + b if kind == "add" else a - b if kind == "sub" else a * b


@given(_TREE)
@settings(max_examples=150, deadline=None)
def test_parse_matches_tree_arithmetic_in_term_order(tree):
    text = _render_at(tree, 0)
    parsed = parse_polynomial(text, TREE_VARS)
    assert list(parsed.terms.items()) == \
        list(_evaluate(tree).terms.items()), text


def test_arithmetic_and_immutability():
    f = parse_polynomial("x^2 + y", ["x", "y"])
    g = parse_polynomial("x^2 - y", ["x", "y"])
    assert (f + g).terms == {(2, 0): 2}
    assert (f - g).terms == {(0, 1): 2}
    assert (f * g).terms == {(4, 0): 1, (0, 2): -1}
    with pytest.raises(AttributeError):
        f.terms = {}


def test_partial_derivative():
    f = parse_polynomial("x^3*y^2 + y^4", ["x", "y"])
    assert partial_derivative(f, 1).terms == {(2, 2): 3}
    assert partial_derivative(f, 2).terms == {(3, 1): 2, (0, 3): 4}


def test_truncate():
    f = parse_polynomial("x + x^3 + x^5", ["x"])
    assert f.truncate(4).terms == {(1,): 1, (3,): 1}


def test_op_P_product_rule():
    # P(i, beta) g encodes the numerator of d_i(g f^-beta)
    f = parse_polynomial("x^3 + y^2", ["x", "y"])
    g = parse_polynomial("x*y", ["x", "y"])
    beta = Fraction(2, 3)
    out = op_P(f, 1, beta, g)
    expected = f * partial_derivative(g, 1) \
        - beta * (g * partial_derivative(f, 1))
    assert out.terms == expected.terms


def test_op_P_tilde_composition_and_empty_chain():
    f = parse_polynomial("x^3 + y^2", ["x", "y"])
    g = parse_polynomial("y", ["x", "y"])
    alpha = Fraction(1, 2)
    assert op_P_tilde(f, (), alpha, g).terms == g.terms
    step1 = op_P(f, 2, alpha, g)
    step2 = op_P(f, 1, alpha + 1, step1)
    assert op_P_tilde(f, (2, 1), alpha, g).terms == step2.terms


def test_spectrum_multiset_interface():
    sp = Spectrum(2, {Fraction(1, 2): 1, Fraction(3, 2): 1,
                      Fraction(1, 1): 2})
    assert sp.total() == 4
    assert sp.min_exponent() == Fraction(1, 2)
    assert sp.max_exponent() == Fraction(3, 2)
    assert sp.multiplicity(Fraction(1)) == 2
    sub = Spectrum(2, {Fraction(1, 1): 1})
    assert sub.is_sub_multiset_of(sp)
    assert not sp.is_sub_multiset_of(sub)


def test_product_formula_a4_cusp():
    # x^2 + y^3: exponents 5/6, 7/6
    sp = spectrum_product_formula(make_weights([Fraction(1, 2),
                                                Fraction(1, 3)]))
    assert sp.sorted_items() == [(Fraction(5, 6), 1), (Fraction(7, 6), 1)]


def test_product_formula_example_weights():
    sp = spectrum_product_formula(make_weights([Fraction(1, 5),
                                                Fraction(1, 4)]))
    assert sp.total() == 12
    assert sp.min_exponent() == Fraction(9, 20)
    assert sp.max_exponent() == Fraction(31, 20)
    assert spectrum_symmetry_check(sp)
    assert verify_hilbert_poincare([Fraction(1, 5), Fraction(1, 4)], sp)


def test_spectrum_T_matches_product_structure():
    # T_{q1,q2,q3} spectrum: t^(n-1)/2 (1 + t + sums over 0<j<q_i)
    sp = spectrum_T(5, 4, 4, 3)
    assert sp.total() == 1 + 1 + 4 + 3 + 3
    assert sp.multiplicity(Fraction(1)) == 1
    assert sp.multiplicity(Fraction(2)) == 1
    assert sp.multiplicity(Fraction(1) + Fraction(1, 4)) == 2
    assert spectrum_symmetry_check(sp)


@st.composite
def brieskorn_weights(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    return [Fraction(1, draw(st.integers(min_value=2, max_value=7)))
            for _ in range(n)]


@given(brieskorn_weights())
@settings(max_examples=40, deadline=None)
def test_product_formula_invariants(w):
    sp = spectrum_product_formula(make_weights(w))
    n = len(w)
    mu = 1
    for wi in w:
        mu *= int(1 / wi) - 1
    assert sp.total() == mu
    assert spectrum_symmetry_check(sp)
    assert sp.multiplicity(sp.min_exponent()) == 1
    assert sp.multiplicity(sp.max_exponent()) == 1
    assert sp.min_exponent() == sum(w)
    assert sp.max_exponent() == n - sum(w)


@given(st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=6),
              st.integers(min_value=0, max_value=6)),
    st.fractions(min_value=-5, max_value=5).filter(bool),
    min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_to_string_parse_roundtrip(terms):
    f = Polynomial(2, terms)
    text = f.to_string(["x", "y"])
    assert parse_polynomial(text, ["x", "y"]).terms == f.terms


def test_default_variables():
    assert default_variables(3) == ["x", "y", "z"]
    assert default_variables(6) == ["x", "y", "z", "u", "v", "w"]
