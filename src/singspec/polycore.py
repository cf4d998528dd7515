"""Exact sparse multivariate polynomial arithmetic, fractional-power
spectra, and the differential operators P and P-tilde.

All coefficients and exponents are `fractions.Fraction`; no floating
point appears anywhere.  Polynomials are immutable sparse maps from
exponent tuples to nonzero rationals, printed in graded lexicographic
order so that printing and hashing are deterministic.
"""

import re
from fractions import Fraction
from math import lcm
from operator import add

_ONE = Fraction(1)


def grlex_key(exponent):
    return (sum(exponent), exponent)


# Term-dict arithmetic, the one polynomial arithmetic of the package: a
# term dict maps exponent tuples to non-zero rationals.  add_scaled also
# takes other keys, such as the columns of a sparse vector.


def add_scaled(acc, terms, c=1, shift=None):
    """acc += c * x^shift * terms, in place, dropping zero coefficients;
    returns acc."""
    scaled = c != 1
    for e, v in terms.items():
        if shift is not None:
            e = tuple(map(add, e, shift))
        if scaled:
            v = c * v
        w = acc.get(e)
        if w is not None:
            v += w
        if v:
            acc[e] = v
        elif w is not None:
            del acc[e]
    return acc


def mul_terms(a, b, below=None):
    """Product of two term dicts; with `below`, only the terms of total
    degree < below, dropped before they are formed."""
    out = {}
    b_items = [(e, v, sum(e)) for e, v in b.items()]
    for e1, c1 in a.items():
        room = None if below is None else below - sum(e1)
        for e2, c2, d2 in b_items:
            if room is not None and d2 >= room:
                continue
            e = tuple(map(add, e1, e2))
            w = out.get(e)
            w = c1 * c2 if w is None else w + c1 * c2
            if w:
                out[e] = w
            elif e in out:
                del out[e]
    return out


def deriv_terms(terms, i):
    """Partial derivative of a term dict in the i-th variable (1-based)."""
    j = i - 1
    return {e[:j] + (e[j] - 1,) + e[j + 1:]: c * e[j]
            for e, c in terms.items() if e[j]}


def pow_terms(terms, k, n):
    """k-th power (k >= 0) of a term dict in n variables: a single term
    directly, otherwise by binary powering on mul_terms.  For k = 1 the
    result is `terms` itself."""
    if len(terms) == 1:
        (e, c), = terms.items()
        return {tuple([k * a for a in e]): c ** k}
    result = None
    while k:
        if k & 1:
            result = terms if result is None else mul_terms(result, terms)
        k >>= 1
        if k:
            terms = mul_terms(terms, terms)
    return {(0,) * n: _ONE} if result is None else result


class Polynomial:
    """Sparse polynomial in n variables with rational coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms):
        if n < 1:
            raise ValueError("need at least one variable")
        clean = {}
        for expo, coeff in terms.items():
            if len(expo) != n or any(e < 0 for e in expo):
                raise ValueError("bad exponent vector %r" % (expo,))
            c = Fraction(coeff)
            if c != 0:
                clean[tuple(int(e) for e in expo)] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _wrap(cls, n, terms):
        """Polynomial over a term dict that is already clean: integer
        exponent tuples of length n, non-zero Fraction coefficients."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "n", n)
        object.__setattr__(poly, "terms", terms)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def constant(cls, n, c):
        return cls(n, {(0,) * n: Fraction(c)})

    @classmethod
    def monomial(cls, n, expo, c=1):
        return cls(n, {tuple(expo): Fraction(c)})

    def is_zero(self):
        return not self.terms

    def support(self):
        return set(self.terms)

    def degree(self):
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def order(self):
        """Smallest total degree of a term (0 for the zero polynomial)."""
        if not self.terms:
            return 0
        return min(sum(e) for e in self.terms)

    def coefficient(self, expo):
        return self.terms.get(tuple(expo), Fraction(0))

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.n == other.n
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def _check(self, other):
        if self.n != other.n:
            raise ValueError("variable count mismatch: %d vs %d"
                             % (self.n, other.n))

    def __add__(self, other):
        self._check(other)
        return Polynomial._wrap(self.n, add_scaled(dict(self.terms),
                                                   other.terms))

    def __sub__(self, other):
        self._check(other)
        return Polynomial._wrap(self.n, add_scaled(dict(self.terms),
                                                   other.terms, -1))

    def __neg__(self):
        return Polynomial._wrap(self.n, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        return Polynomial._wrap(self.n, mul_terms(self.terms, other.terms))

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = Fraction(c)
        return Polynomial(self.n, {e: c * v for e, v in self.terms.items()})

    def truncate(self, degree_bound):
        """Drop all terms of total degree >= degree_bound."""
        return Polynomial._wrap(self.n, {e: c for e, c in self.terms.items()
                                         if sum(e) < degree_bound})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]))

    def to_string(self, variables=None):
        if variables is None:
            variables = default_variables(self.n)
        if not self.terms:
            return "0"
        parts = []
        for expo, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(variables, expo):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            mag = abs(coeff)
            if not factors:
                body = _fmt_rational(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([_fmt_rational(mag)] + factors)
            if not parts:
                parts.append(body if coeff > 0 else "-" + body)
            else:
                parts.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "Polynomial(%d, %s)" % (self.n, self.to_string())


def _fmt_rational(q):
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def default_variables(n):
    names = ["x", "y", "z", "u", "v", "w"]
    if n <= len(names):
        return names[:n]
    return ["x%d" % (i + 1) for i in range(n)]


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


_TOKEN = re.compile(r"\s*((\d+)(?:(\.)|/(\d*))?|(\w+)|([-+*^()])|(\S))")


def _tokenize(text):
    tokens = []
    for m in _TOKEN.finditer(text):
        _, num, dot, den, name, op, bad = m.groups()
        i = m.start(1)
        if op:
            tokens.append((op, op, i))
        elif name:
            # \w also matches digits that are not decimal, such as "\u00b2"
            if not (name[0].isalpha() or name[0] == "_"):
                raise ParseError("unexpected character %r" % name[0], i)
            tokens.append(("name", name, i))
        elif num:
            if dot:
                raise ParseError("non-rational coefficient", i)
            value = int(num)  # an exponent needs no Fraction
            if den is not None:
                k = i + len(num) + 1
                if not den:
                    raise ParseError("expected denominator digits", k)
                if not int(den):
                    raise ParseError("zero denominator", k)
                value = Fraction(value, int(den))
            tokens.append(("num", value, i))
        else:
            raise ParseError("unexpected character %r" % bad, i)
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive descent over tokens; every rule returns a term dict
    that the caller owns."""

    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        variables = list(variables)
        self.n = n = len(variables)
        self.units = {name: tuple(int(j == i) for j in range(n))
                      for i, name in enumerate(variables)}
        if len(self.units) != n:
            raise ValueError("duplicate variable name in %s" % variables)

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            raise ParseError("expected %r" % kind, tok[2])
        return tok

    def parse_expression(self):
        sign = self.peek()[0]
        if sign in ("+", "-"):
            self.pos += 1
        acc = self.parse_term()
        if sign == "-":
            acc = {e: -c for e, c in acc.items()}
        while self.peek()[0] in ("+", "-"):
            c = 1 if self.take()[0] == "+" else -1
            add_scaled(acc, self.parse_term(), c)
        return acc

    def parse_term(self):
        acc = self.parse_factor()
        while self.peek()[0] == "*":
            self.pos += 1
            acc = mul_terms(acc, self.parse_factor())
        return acc

    def parse_factor(self):
        base = self.parse_atom()
        if self.peek()[0] == "^":
            tok = self.take()
            exp_tok = self.peek()
            if exp_tok[0] != "num" or exp_tok[1].denominator != 1:
                raise ParseError("exponent must be a non-negative integer",
                                 tok[2])
            self.pos += 1
            base = pow_terms(base, int(exp_tok[1]), self.n)
        return base

    def parse_atom(self):
        kind, value, at = self.take()
        if kind == "(":
            inner = self.parse_expression()
            self.expect(")")
            return inner
        if kind == "num":
            if not self.n:
                raise ValueError("need at least one variable")
            return {(0,) * self.n: Fraction(value)} if value else {}
        if kind == "name":
            if value not in self.units:
                raise ParseError("unknown variable %r" % value, at)
            return {self.units[value]: _ONE}
        if kind == "-":
            return {e: -c for e, c in self.parse_factor().items()}
        raise ParseError("unexpected token", at)


def parse_polynomial(text, variables):
    """Parse `text` over the named variables into a Polynomial; terms keep
    the order in which the text produces them."""
    parser = _Parser(_tokenize(text), variables)
    terms = parser.parse_expression()
    end = parser.take()
    if end[0] != "end":
        raise ParseError("trailing input", end[2])
    return Polynomial._wrap(parser.n, terms)


def partial_derivative(f, i):
    """Formal partial derivative with respect to the i-th variable (1-based)."""
    if not 1 <= i <= f.n:
        raise IndexError("variable index %d out of range" % i)
    return Polynomial._wrap(f.n, deriv_terms(f.terms, i))


def op_P(f, i, beta, g):
    """f * d_i g - beta * g * d_i f."""
    f._check(g)
    return f * partial_derivative(g, i) - Fraction(beta) * (
        g * partial_derivative(f, i))


def op_P_tilde(f, indices, alpha, g):
    """Composite P(i_{k-1}, alpha+k-1) o ... o P(i_0, alpha) applied to g."""
    alpha = Fraction(alpha)
    result = g
    for step, i in enumerate(indices):
        result = op_P(f, i, alpha + step, result)
    return result


class Spectrum:
    """Finite multiset of rational exponents with positive multiplicities."""

    __slots__ = ("n", "entries")

    def __init__(self, n, entries):
        clean = {}
        for alpha, mult in entries.items():
            mult = int(mult)
            if mult < 0:
                raise ValueError("negative multiplicity")
            if mult:
                clean[Fraction(alpha)] = mult
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Spectrum is immutable")

    def total(self):
        return sum(self.entries.values())

    def sorted_items(self):
        return sorted(self.entries.items())

    def min_exponent(self):
        return min(self.entries)

    def max_exponent(self):
        return max(self.entries)

    def multiplicity(self, alpha):
        return self.entries.get(Fraction(alpha), 0)

    def mod1_multiset(self):
        out = {}
        for alpha, mult in self.entries.items():
            r = alpha - alpha.__floor__()
            out[r] = out.get(r, 0) + mult
        return out

    def is_sub_multiset_of(self, other):
        return all(other.multiplicity(a) >= m
                   for a, m in self.entries.items())

    def __eq__(self, other):
        return (isinstance(other, Spectrum) and self.n == other.n
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.n, frozenset(self.entries.items())))

    def __repr__(self):
        body = ", ".join("%s: %d" % (_fmt_rational(a), m)
                         for a, m in self.sorted_items())
        return "Spectrum(n=%d, {%s})" % (self.n, body)


def make_weights(weights):
    ws = tuple(Fraction(w) for w in weights)
    for w in ws:
        if not 0 < w <= Fraction(1, 2):
            raise ValueError("weight %s outside (0, 1/2]" % w)
    return ws


def _poly_mul(a, b):
    return _series_mul(a, b, len(a) + len(b) - 1)


def _poly_divmod(num, den):
    num = list(num)
    while num and num[-1] == 0:
        num.pop()
    den = list(den)
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ZeroDivisionError
    quo = [0] * max(len(num) - len(den) + 1, 0)
    lead = Fraction(den[-1])
    for i in range(len(num) - len(den), -1, -1):
        coeff = Fraction(num[i + len(den) - 1]) / lead
        quo[i] = coeff
        if coeff:
            for j, dj in enumerate(den):
                num[i + j] -= coeff * dj
    while num and num[-1] == 0:
        num.pop()
    return quo, num


def spectrum_product_formula(w):
    """Expand prod_i (t^{w_i} - t) / (1 - t^{w_i}) into a Spectrum."""
    ws = tuple(Fraction(x) for x in w)
    n = len(ws)
    for wi in ws:
        if wi <= 0 or 1 / wi - 1 <= 0:
            raise ValueError("weight %s does not satisfy 1/w - 1 > 0" % wi)
    e = lcm(*[wi.denominator for wi in ws]) if ws else 1
    num = [1]
    den = [1]
    for wi in ws:
        a = int(wi * e)
        factor_num = [0] * (e + 1)
        factor_num[a] += 1
        factor_num[e] -= 1
        factor_den = [0] * (a + 1)
        factor_den[0] = 1
        factor_den[a] -= 1
        num = _poly_mul(num, factor_num)
        den = _poly_mul(den, factor_den)
    quo, rem = _poly_divmod(num, den)
    if rem:
        raise ValueError("weights do not define a weighted homogeneous "
                         "isolated singularity spectrum")
    entries = {}
    for k, c in enumerate(quo):
        if c == 0:
            continue
        if c != int(c) or c < 0:
            raise ValueError("non-integral spectrum expansion")
        entries[Fraction(k, e)] = int(c)
    return Spectrum(n, entries)


def spectrum_T(q1, q2, q3, n):
    """Spectrum t^{(n-1)/2} (1 + t + sum_i sum_{0<j<q_i} t^{j/q_i})."""
    qs = (q1, q2, q3)
    if any(q < 2 for q in qs):
        raise ValueError("each index must be at least 2")
    if sum(Fraction(1, q) for q in qs) >= 1:
        raise ValueError("hyperbolicity 1/q1 + 1/q2 + 1/q3 < 1 violated")
    if n < 3:
        raise ValueError("ambient dimension must be at least 3")
    base = Fraction(n - 1, 2)
    entries = {base: 1, base + 1: 1}
    for q in qs:
        for j in range(1, q):
            alpha = base + Fraction(j, q)
            entries[alpha] = entries.get(alpha, 0) + 1
    return Spectrum(n, entries)


def spectrum_symmetry_check(s):
    """True iff the multiset is invariant under alpha -> n - alpha."""
    if not s.entries:
        raise ValueError("empty spectrum")
    return all(s.multiplicity(s.n - a) == m for a, m in s.entries.items())


def _geometric_series(step, length):
    out = [0] * length
    for k in range(0, length, step):
        out[k] = 1
    return out


def _series_mul(a, b, length):
    out = [0] * length
    for i, ai in enumerate(a[:length]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[:length - i]):
            if bj:
                out[i + j] += ai * bj
    return out


def verify_hilbert_poincare(w, spectrum, order=20):
    """Check prod (1-t^{w_i})^{-1} = t^{-sum w_i} Sp(t) prod (1-t^{1-w_i})^{-1}
    as formal power series up to t^order."""
    ws = tuple(Fraction(x) for x in w)
    e = lcm(*[wi.denominator for wi in ws])
    length = order * e + 1
    lhs = [1] + [0] * (length - 1)
    rhs = [0] * length
    shift = sum(int(wi * e) for wi in ws)
    for alpha, mult in spectrum.entries.items():
        k = alpha * e - shift
        if k.denominator != 1:
            return False
        k = int(k)
        if k < 0:
            return False
        if k < length:
            rhs[k] += mult
    for wi in ws:
        lhs = _series_mul(lhs, _geometric_series(int(wi * e), length), length)
        rhs = _series_mul(rhs, _geometric_series(e - int(wi * e), length),
                          length)
    return lhs == rhs
