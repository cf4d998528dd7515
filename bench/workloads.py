"""The three closed-loop workloads.

Each workload builds its inputs from the seed when it is constructed,
yields an endless deterministic request stream, and runs one request
through a table of the package's public functions (plain or wrapped in
spans), returning None when every check holds or a one-line reason
when one does not.  The expected answers come from germs.py, never from
the package itself.
"""

import json
import os
import random
from collections import Counter
from fractions import Fraction
from itertools import chain, islice

from germs import (Germ, add_into, format_terms, germ_stream,
                   jacobian_member, make_shapes)


class Invariants:
    """Distinct germs in 2-4 variables; every invariant computed once."""

    name = "invariants"
    CATALOGUE = [(3, 7), (4, 6), (5, 6), (6, 7), (5, 9),
                 (2, 3, 7), (3, 3, 4), (2, 4, 6), (3, 4, 5), (3, 5, 5),
                 (2, 2, 3, 5), (2, 3, 3, 4), (3, 3, 3, 3)]
    SHAPES = make_shapes(CATALOGUE, 3, (1, 3), name)
    PREPARED = 400

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.counters = Counter()
        self.germs = list(islice(self._stream(), self.PREPARED))

    def _stream(self):
        return germ_stream(self.seed, self.SHAPES, self.name)

    def requests(self):
        return chain(self.germs, islice(self._stream(), self.PREPARED, None))

    def warm_up(self, api):
        """A germ with no extra terms, where tau = mu must hold."""
        return self.run(api, Germ((3, 4), ()))

    def run(self, api, germ):
        f = api.parse_polynomial(germ.text, germ.variables)
        ma = api.milnor_algebra(f)
        tau = api.tjurina_number(f)
        poly = api.newton_polyhedron(f)
        verdict = api.is_nondegenerate(f)
        sp = api.steenbrink_spectrum(f, list(germ.weights))
        api.epsilon_f(f, list(germ.weights))
        if ma.mu != germ.mu:
            return "mu = %d, expected %d" % (ma.mu, germ.mu)
        if sp.entries != germ.spectrum:
            return "spectrum differs from the product formula"
        if tau > ma.mu or (not germ.extras and tau != ma.mu):
            return "tau = %d with mu = %d" % (tau, ma.mu)
        if not poly.convenient or verdict.status != "yes":
            return "Newton boundary not convenient and non-degenerate"
        return None


class Queries:
    """Zipf-popular queries over a pool of germs larger than the caches."""

    name = "queries"
    CATALOGUE = [(2, 5), (3, 4), (3, 5), (4, 4), (2, 7), (3, 6), (4, 5),
                 (3, 7), (5, 5), (4, 6)]
    SHAPES = make_shapes(CATALOGUE, 3, (1, 2), name)
    POOL = 96  # localalg's lru_caches hold 64 entries
    KINDS = ("member", "nonmember", "reduce", "hodge")

    def __init__(self, seed, out_dir):
        self.counters = Counter()
        rng = random.Random("%s-prep-%d" % (self.name, seed))
        germs = list(islice(germ_stream(seed, self.SHAPES, self.name),
                            self.POOL))
        # Rank r is pool entry r: the pool cycles through the shapes, so
        # the most popular entries cover every shape once whatever the seed.
        self.pool = [self._prepare(rng, g) for g in germs]
        self.weights = [1 / (rank + 1) for rank in range(self.POOL)]

    @staticmethod
    def _prepare(rng, germ):
        """Texts of two Jacobian-ideal members, two Milnor-basis
        monomials, their sums, and alphas around the minimal exponent."""
        mult_degree = min(2, germ.degree - 2)
        members = []
        while len(members) < 2:
            g = jacobian_member(rng, germ, mult_degree)
            if g:
                members.append(g)
        basis = rng.sample(germ.basis_monomials(), 2)
        monos = [{m: Fraction(1)} for m in basis]
        sums = [add_into(dict(g), m) for g, m in zip(members, monos)]
        amin = germ.alpha_min
        delta = Fraction(1, rng.randint(2, 6) * germ.mu)
        alphas = [amin, amin - delta]
        if amin + delta <= 1:
            alphas.append(amin + delta)
        fmt = lambda t: format_terms(t, germ.variables)  # noqa: E731
        return {
            "germ": germ, "text": germ.text,
            "members": [fmt(g) for g in members],
            "monos": [fmt(m) for m in monos],
            "sums": [fmt(s) for s in sums],
            "alphas": [(a, a <= amin) for a in alphas],
        }

    def requests(self):
        # Which entry, which kind of query and which prepared input: the
        # same sequence for every seed, so every run measures the same mix
        # of supports, cache misses and query kinds; the seed draws the
        # germs' coefficients and the prepared inputs.
        rng = random.Random("%s-stream" % self.name)
        ranks = range(self.POOL)
        while True:
            rank = rng.choices(ranks, self.weights)[0]
            kind = rng.choice(self.KINDS)
            yield self.pool[rank], kind, rng.randrange(2)

    def warm_up(self, api):
        germ = Germ((3, 4), (((1, 3), Fraction(1, 2)),))
        entry = self._prepare(random.Random(0), germ)
        for kind in self.KINDS:
            err = self.run(api, (entry, kind, 0))
            if err:
                return err
        return None

    def run(self, api, item):
        entry, kind, k = item
        germ = entry["germ"]
        variables = germ.variables
        f = api.parse_polynomial(entry["text"], variables)
        if kind == "member":
            g = api.parse_polynomial(entry["members"][k], variables)
            if api.ideal_membership(f, g, False) is not True:
                return "Jacobian-ideal member reported outside the ideal"
        elif kind == "nonmember":
            g = api.parse_polynomial(entry["monos"][k], variables)
            if api.ideal_membership(f, g, False) is not False:
                return "Milnor-basis monomial reported inside the ideal"
        elif kind == "reduce":
            ma = api.milnor_algebra(f)
            m = api.parse_polynomial(entry["monos"][k], variables)
            s = api.parse_polynomial(entry["sums"][k], variables)
            nf = api.reduce(ma, m)
            if not nf or api.reduce(ma, s) != nf:
                return "normal form not invariant under ideal members"
        else:
            alpha, expected = entry["alphas"][k % len(entry["alphas"])]
            one = api.parse_polynomial("1", variables)
            if api.hodge_ideal_member(f, alpha, 0, one) != expected:
                return "1 in I_0(%s Z) should be %s" % (alpha, expected)
        return None


class Report:
    """The CLI `report` verb on distinct two-variable germs, alternating
    the weight-order route (--weights) and the Newton-order route."""

    name = "report"
    CATALOGUE = [(2, 5), (3, 3), (3, 4), (3, 5), (4, 4), (3, 6), (4, 5),
                 (3, 7), (5, 5), (4, 6), (5, 6)]
    SHAPES = make_shapes(CATALOGUE, 2, (1, 2), name)
    PREPARED = 100

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.counters = Counter()
        self.out = os.path.join(out_dir, "report-%d.json" % os.getpid())
        self.germs = list(islice(self._stream(), self.PREPARED))

    def _stream(self):
        return germ_stream(self.seed, self.SHAPES, self.name)

    def requests(self):
        stream = chain(self.germs, islice(self._stream(), self.PREPARED, None))
        for i, germ in enumerate(stream):
            yield germ, i % 2 == 0

    def warm_up(self, api):
        germ = Germ((3, 3), (((2, 2), Fraction(1)),))
        return self.run(api, (germ, True))

    def run(self, api, item):
        germ, weighted = item
        argv = ["report", germ.text, "--json", "--out", self.out]
        if weighted:
            argv += ["--weights", germ.weights_arg()]
        code = api.main(argv)
        if code != 0:
            return "exit code %d" % code
        with open(self.out) as handle:
            text = handle.read()
        os.remove(self.out)
        self.counters["output_bytes"] += len(text)
        data = json.loads(text)
        mu, tau = data["mu"], data["tau"]
        spectrum = {Fraction(e["num"], e["den"]): e["mult"]
                    for e in data["spectrum"]}
        if mu != germ.mu:
            return "mu = %d, expected %d" % (mu, germ.mu)
        if spectrum != germ.spectrum:
            return "spectrum differs from the product formula"
        if tau > mu:
            return "tau = %d exceeds mu = %d" % (tau, mu)
        for key, total in (("hi_spectrum", mu), ("tj_spectrum", tau)):
            if sum(e["mult"] for e in data[key]) != total:
                return "%s does not total %d" % (key, total)
        for name, check in data["checks"].items():
            if check.get("applicable") is True and check.get("holds") \
                    is not True:
                return "check %s applicable but does not hold" % name
        return None


WORKLOADS = {cls.name: cls for cls in (Invariants, Queries, Report)}
