"""Self-test of the benchmark's inputs and span arithmetic.

    python3 -m pytest -q bench/test_germs.py
"""

import os
import sys
import time
from itertools import islice

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from germs import Germ, germ_stream, weighted_degree  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import WORKLOADS, Invariants, Queries, Report  # noqa: E402

from singspec.polycore import (parse_polynomial,  # noqa: E402
                               spectrum_product_formula)


def _first_requests(cls, seed, count):
    return [repr(item) for item in islice(cls(seed, HERE).requests(), count)]


def test_same_seed_same_inputs():
    for cls in WORKLOADS.values():
        assert _first_requests(cls, 7, 40) == _first_requests(cls, 7, 40)
        assert _first_requests(cls, 7, 40) != _first_requests(cls, 8, 40)


def test_streams_are_distinct_past_the_prepared_inputs():
    for cls in (Invariants, Report):
        texts = [item[0].text if isinstance(item, tuple) else item.text
                 for item in islice(cls(3, HERE).requests(),
                                    cls.PREPARED + 50)]
        assert len(set(texts)) == len(texts)


def test_germs_are_semi_weighted_homogeneous():
    for cls in (Invariants, Queries, Report):
        for germ in islice(germ_stream(5, cls.SHAPES, "t"), 60):
            terms = germ.terms()
            for i, a in enumerate(germ.exponents):
                power = tuple(a if j == i else 0 for j in range(germ.n))
                assert terms[power] == 1
            assert germ.extras
            for expo, c in germ.extras:
                assert c != 0
                assert weighted_degree(expo, germ.exponents) > 1
            assert sum(germ.spectrum.values()) == germ.mu
            f = parse_polynomial(germ.text, germ.variables)
            assert f.terms == terms


def test_expected_spectrum_is_the_product_formula():
    for cls in (Invariants, Queries, Report):
        for exponents in cls.CATALOGUE:
            germ = Germ(exponents, ())
            expected = spectrum_product_formula(germ.weights)
            assert germ.spectrum == expected.entries


def test_hodge_query_expectations():
    queries = Queries(2, HERE)
    for entry in queries.pool:
        amin = entry["germ"].alpha_min
        for alpha, expected in entry["alphas"]:
            assert 0 < alpha <= 1
            assert expected == (alpha <= amin)


def test_self_time_excludes_child_spans():
    rec = Recorder()
    inner = rec.wrap("localalg.milnor", lambda: time.sleep(0.02))

    def outer_body():
        inner()
        time.sleep(0.01)

    rec.wrap("cli.main", outer_body)()
    totals = rec.totals()
    incl, self_s, calls = totals["cli.main"]
    assert calls == 1 and totals["localalg.milnor"][2] == 1
    assert abs(self_s - (incl - totals["localalg.milnor"][0])) < 1e-9
    assert 0 < self_s < incl
