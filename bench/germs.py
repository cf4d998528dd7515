"""Seeded generator of semi-weighted-homogeneous germs and query inputs.

A germ is f = sum_i x_i^{a_i} + (extra terms), where every extra
monomial has weighted degree > 1 for the weights w_i = 1/a_i.  The
principal part sum_i x_i^{a_i} has an isolated singularity, so f is
semi-weighted-homogeneous by construction and its invariants are known
in advance: mu = prod(a_i - 1), the spectrum is the product formula of
the weights, and the monomials x^e with every e_i <= a_i - 2 form a
basis of the Milnor algebra.

Everything here is plain Python over `fractions.Fraction`; nothing is
imported from the package under test, so the inputs and the expected
answers do not depend on the code being measured.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import prod

VARIABLES = ("x", "y", "z", "w")


@dataclass(frozen=True)
class Germ:
    """One generated germ: its principal exponents and its extra terms."""

    exponents: tuple
    extras: tuple  # ((exponent vector, Fraction), ...)

    @property
    def n(self):
        return len(self.exponents)

    @property
    def variables(self):
        return list(VARIABLES[:self.n])

    @property
    def weights(self):
        return tuple(Fraction(1, a) for a in self.exponents)

    @property
    def mu(self):
        return prod(a - 1 for a in self.exponents)

    @property
    def alpha_min(self):
        """Minimal spectral exponent, sum of the weights."""
        return sum(self.weights)

    @property
    def degree(self):
        return max(sum(e) for e in self.terms())

    def terms(self):
        """The germ as a {exponent vector: coefficient} dict."""
        out = {}
        for i, a in enumerate(self.exponents):
            out[_unit(self.n, i, a)] = Fraction(1)
        for expo, c in self.extras:
            out[expo] = c
        return out

    @cached_property
    def text(self):
        return format_terms(self.terms(), self.variables)

    def weights_arg(self):
        """Weights as the CLI's --weights value."""
        return ",".join(str(w) for w in self.weights)

    @cached_property
    def spectrum(self):
        """{exponent: multiplicity}: the exponents are the sums
        k_1/a_1 + ... + k_n/a_n with 1 <= k_i <= a_i - 1."""
        out = {}
        for ks in product(*(range(1, a) for a in self.exponents)):
            alpha = sum(Fraction(k, a) for k, a in zip(ks, self.exponents))
            out[alpha] = out.get(alpha, 0) + 1
        return out

    def basis_monomials(self):
        """Monomial basis of the Milnor algebra: every e_i <= a_i - 2."""
        return list(product(*(range(a - 1) for a in self.exponents)))


def _unit(n, i, k=1):
    expo = [0] * n
    expo[i] = k
    return tuple(expo)


def weighted_degree(expo, exponents):
    return sum(Fraction(e, a) for e, a in zip(expo, exponents))


def extra_candidates(exponents):
    """Monomials of weighted degree > 1 whose total degree is at most the
    lowest cap >= max a_i that admits one (max a_i, or max a_i + 1 when
    all a_i are equal).  The cap fixes deg f, and with it the starting
    truncation degree of the Milnor algebra, for each principal part."""
    top = max(exponents)
    while True:
        out = [e for e in product(range(top + 1), repeat=len(exponents))
               if sum(e) <= top and weighted_degree(e, exponents) > 1]
        if out:
            return out
        top += 1


def small_rational(rng):
    """Nonzero rational with numerator and denominator at most 5."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 5))


def make_shapes(catalogue, per_entry, extras_range, salt):
    """Fixed list of germ supports: `per_entry` choices of extra
    monomials for each principal exponent vector, interleaved so that any
    prefix of the list covers the catalogue evenly.  Independent of the
    run's seed, so every run measures the same mix of supports."""
    rng = random.Random(salt)
    cands = {a: extra_candidates(a) for a in catalogue}
    shapes = []
    for _ in range(per_entry):
        for a in catalogue:
            k = min(rng.randint(*extras_range), len(cands[a]))
            shapes.append((a, tuple(sorted(rng.sample(cands[a], k)))))
    return shapes


def germ_stream(seed, shapes, salt):
    """Endless stream of distinct germs cycling through the shapes in
    order; the seed draws the coefficients of the extra terms."""
    rng = random.Random("%s-%d" % (salt, seed))
    seen = set()
    while True:
        for exponents, monomials in shapes:
            for _ in range(100):
                germ = Germ(exponents, tuple((m, small_rational(rng))
                                             for m in monomials))
                if germ.text not in seen:
                    seen.add(germ.text)
                    yield germ
                    break
            else:
                raise ValueError("no new coefficients for %r"
                                 % ((exponents, monomials),))


# ---------------------------------------------------------------------------
# polynomial helpers for building query inputs


def format_terms(terms, variables):
    """Text form that `parse_polynomial` reads, in a fixed term order."""
    parts = []
    for expo in sorted(terms, key=lambda e: (sum(e), e)):
        c = terms[expo]
        mono = "*".join(v if e == 1 else "%s^%d" % (v, e)
                        for v, e in zip(variables, expo) if e)
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = "%s*%s" % (mag, mono)
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first = parts[0]
    text = ("-" if first_sign == "-" else "") + first
    for sign, body in parts[1:]:
        text += " %s %s" % (sign, body)
    return text


def derivative(terms, i):
    out = {}
    for expo, c in terms.items():
        if expo[i]:
            out[expo[:i] + (expo[i] - 1,) + expo[i + 1:]] = c * expo[i]
    return out


def add_into(acc, terms, scale=Fraction(1)):
    for expo, c in terms.items():
        v = acc.get(expo, Fraction(0)) + scale * c
        if v:
            acc[expo] = v
        else:
            acc.pop(expo, None)
    return acc


def shift(terms, mono):
    return {tuple(a + b for a, b in zip(e, mono)): c for e, c in terms.items()}


def jacobian_member(rng, germ, max_mult_degree):
    """A random element sum_i h_i * d_i f of the Jacobian ideal, each h_i
    a sum of up to two monomials of degree <= max_mult_degree."""
    f = germ.terms()
    monos = [e for e in product(range(max_mult_degree + 1), repeat=germ.n)
             if sum(e) <= max_mult_degree]
    g = {}
    for i in range(germ.n):
        for mono in rng.sample(monos, rng.randint(1, 2)):
            add_into(g, shift(derivative(f, i), mono), small_rational(rng))
    return g
