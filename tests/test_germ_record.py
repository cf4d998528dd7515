"""The cached Milnor algebra of a germ is its one record: each invariant
is computed once and kept, the weight-or-Newton route is chosen in one
place, and both V_HI modes come from one pass.  Memoized answers must
not depend on the order of queries or leak between alpha and p."""

import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singspec import hodge, localalg, newton
from singspec.cli import main
from singspec.errors import ResourceCapError
from singspec.hodge import hodge_ideal_member
from singspec.localalg import (condition_a_order, ideal_membership,
                               milnor_algebra, steenbrink_spectrum)
from singspec.polycore import Polynomial, parse_polynomial

F54 = "x^5 + y^4 + x^3*y^2"


@pytest.fixture
def fresh_cache():
    """Empty the germ records before and after, so a patched run neither
    reads a record built earlier nor leaves one behind."""
    milnor_algebra.cache_clear()
    yield
    milnor_algebra.cache_clear()


def report_json(capsys, *extra):
    code = main(["report", F54, "--json", *extra])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_reduction_cap_exits_3(fresh_cache, monkeypatch, capsys):
    # the edge of x^4 + 3x^2y^2 + y^4 holds 3 points, so it is no simplex
    # and its verdict needs the Groebner run that the patch caps
    monkeypatch.setattr(newton, "_buchberger_trivial",
                        lambda generators, cap: "unknown")
    text = "x^4 + 3*x^2*y^2 + y^4"
    f = parse_polynomial(text, ["x", "y"])
    with pytest.raises(ResourceCapError):
        steenbrink_spectrum(f)
    with pytest.raises(ResourceCapError):
        condition_a_order(f)
    assert main(["spectrum", text]) == 3
    assert "resource cap" in capsys.readouterr().err
    assert main(["spectrum", text, "--weights", "1/4,1/4"]) == 0
    assert "spectrum (9 exponents)" in capsys.readouterr().out


@pytest.mark.parametrize("route", [[], ["--weights", "1/5,1/4"]])
def test_report_computes_each_invariant_once(fresh_cache, monkeypatch,
                                             capsys, route):
    calls = Counter()
    stages = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    pruned_generators = hodge._pruned_generators

    def pruned(f, alpha, p, order, space, prune_level, *rest):
        stages[(alpha, p, prune_level)] += 1
        return pruned_generators(f, alpha, p, order, space, prune_level,
                                 *rest)

    tjurina_walks = Counter()
    level_filtration = localalg.level_filtration

    def walk(ma, order, span, *rest):
        if span is ma.tjurina_span:
            tjurina_walks[order] += 1
        return level_filtration(ma, order, span, *rest)

    monkeypatch.setattr(hodge, "_pruned_generators", pruned)
    for module in (localalg, hodge):
        monkeypatch.setattr(module, "level_filtration", walk)
    for name in ("newton_polyhedron", "_buchberger_trivial"):
        monkeypatch.setattr(newton, name,
                            counting(name, getattr(newton, name)))
    first = report_json(capsys, *route)
    assert calls["newton_polyhedron"] <= 1
    assert calls["_buchberger_trivial"] <= 1
    assert stages and max(stages.values()) == 1
    assert list(tjurina_walks.values()) == [1]
    calls.clear()
    stages.clear()
    tjurina_walks.clear()
    assert report_json(capsys, *route) == first
    assert not calls and not stages and not tjurina_walks


def test_weighted_report_keeps_one_record(fresh_cache, monkeypatch,
                                          capsys):
    # swh_structure tests the weight-one part f1 for isolation without
    # keeping a record of it, and reuses f's own record when f1 is f
    report_json(capsys, "--weights", "1/5,1/4")
    assert milnor_algebra.cache_info().currsize == 1
    milnor_algebra.cache_clear()
    builds = Counter()
    jacobian_span = localalg.jacobian_span

    def counting(f, N):
        builds[f] += 1
        return jacobian_span(f, N)

    monkeypatch.setattr(localalg, "jacobian_span", counting)
    assert main(["report", "x^5 + y^4", "--weights", "1/5,1/4"]) == 0
    assert milnor_algebra.cache_info().currsize == 1
    assert list(builds.values()) == [1]


def test_report_independent_of_trunc(fresh_cache, capsys):
    high = report_json(capsys, "--trunc", "40")
    plain = report_json(capsys)
    assert high["caps"].pop("trunc") == 40
    assert plain["caps"].pop("trunc") < 40
    # the thm3 search bound is N - 3 - ord f, exhaustive at every N
    assert high["checks"]["thm3"].pop("degree_cap") == 40 - 3 - 4
    plain["checks"]["thm3"].pop("degree_cap")
    assert high == plain


def brieskorn(a, b, c):
    return Polynomial(2, {(a, 0): 1, (0, b): 1}) \
        + Polynomial.monomial(2, (a - 1, b - 1), c)


family = given(st.integers(min_value=2, max_value=5),
               st.integers(min_value=3, max_value=5),
               st.fractions(min_value=-3, max_value=3))


@family
@settings(max_examples=8, deadline=None)
def test_milnor_basis_monomials_are_not_members(a, b, c):
    f = brieskorn(a, b, c)
    ma = milnor_algebra(f)
    for i in range(a - 1):
        for j in range(b - 1):
            g = Polynomial.monomial(2, (i, j))
            assert not ideal_membership(f, g, False)
            assert ma.reduce(g)


@family
@settings(max_examples=8, deadline=None)
def test_one_in_I0_iff_alpha_at_most_alpha_min(a, b, c):
    f = brieskorn(a, b, c)
    one = Polynomial.constant(2, 1)
    alpha_min = Fraction(1, a) + Fraction(1, b)
    delta = Fraction(1, 4 * a * b)
    for hint in (None, [Fraction(1, a), Fraction(1, b)]):
        for alpha in (alpha_min + delta, alpha_min, alpha_min - delta):
            assert hodge_ideal_member(f, alpha, 0, one, hint=hint) \
                == (alpha <= alpha_min)
