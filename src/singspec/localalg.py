"""Truncated local-algebra engine: Milnor and Tjurina algebras by exact
linear algebra modulo a power of the maximal ideal, the one level walk
that every filtration spectrum comes from, the choice of filtration
order, and Steenbrink spectrum extraction.  The cached MilnorAlgebra of
f is the one record of the germ: every invariant of f is computed once
and kept on it.

The truncation degree N is grown until the truncated Jacobian span
contains m^{N-2}; by Nakayama this certifies m^{N-2} inside the Jacobian
ideal, so truncated membership agrees with analytic membership.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

from .errors import (NonIsolatedError, ResourceCapError, UnsupportedError,
                     ZeroJacobianError)
from .linalg import RowSpan
from .newton import (is_nondegenerate, newton_filtration, swh_structure,
                     weight_order)
from .polycore import (Polynomial, Spectrum, make_weights, partial_derivative,
                       spectrum_product_formula)

N_MAX = 64
_N_START = None


def set_truncation_start(N):
    """Override the starting truncation degree for subsequent Milnor
    algebra computations (None restores the default heuristic); returns
    the previous setting."""
    global _N_START
    prev = _N_START
    _N_START = None if N is None else int(N)
    milnor_algebra.cache_clear()
    return prev


class TruncatedSpace:
    """All monomials of total degree < N, in degree-ascending order."""

    __slots__ = ("n", "N", "monomials", "index")

    def __init__(self, n, N):
        mons = []
        for d in range(N):
            block = []
            for combo in combinations_with_replacement(range(n), d):
                expo = [0] * n
                for i in combo:
                    expo[i] += 1
                block.append(tuple(expo))
            block.sort()
            mons.extend(block)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "monomials", tuple(mons))
        object.__setattr__(self, "index",
                           {m: i for i, m in enumerate(mons)})

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSpace is immutable")

    @property
    def dimension(self):
        return len(self.monomials)

    def to_vector(self, terms, shift=None):
        """Sparse {column: coefficient} image of x^shift * terms (a term
        dict), truncated; distinct exponents stay distinct under the
        shift, so no two terms share a column."""
        shifted = shift is not None and any(shift)
        index = self.index
        vec = {}
        for expo, c in terms.items():
            if shifted:
                expo = tuple(a + b for a, b in zip(expo, shift))
            idx = index.get(expo)
            if idx is not None:
                vec[idx] = c
        return vec

    def from_vector(self, vec):
        return Polynomial(self.n, {self.monomials[i]: c
                                   for i, c in vec.items()})

    def by_order(self, order):
        """(order.monomial_order, column) pairs of every column, ascending
        by order, then by exponent."""
        groups = {}
        for m in sorted(self.monomials):
            groups.setdefault(order.monomial_order(m), []).append(m)
        return [(v, self.index[m]) for v in sorted(groups) for m in groups[v]]


def _insert_multiples(span, space, g, low=0):
    """Insert the truncated images of x^nu * g, low <= |nu| < N - ord g."""
    if g.is_zero():
        return
    room = space.N - g.order()
    for m in space.monomials:
        if sum(m) >= room:
            break
        if sum(m) < low:
            continue
        span.insert(space.to_vector(g.terms, m))


def _span_with(span, space, gens):
    """Copy of span with the truncated multiples of gens inserted."""
    span = span.copy()
    for g in gens:
        _insert_multiples(span, space, g)
    return span


def _partials(f):
    return [partial_derivative(f, i) for i in range(1, f.n + 1)]


def jacobian_span(f, N):
    """Row-reduced span of the truncated multiples of the partials of f."""
    space = TruncatedSpace(f.n, N)
    return space, _span_with(RowSpan(), space, _partials(f))


def _contains_power(space, span, k):
    """True if every monomial of degree >= k (below N) lies in the span."""
    for idx in range(space.dimension - 1, -1, -1):
        m = space.monomials[idx]
        if sum(m) < k:
            return True
        row = span.rows.get(idx)
        if row is None or len(row) != 1:
            return False
    return True


class MilnorAlgebra:
    """Milnor algebra of f, and the record of everything else computed
    for f: Tjurina span, non-degeneracy verdict, and per weight hint the
    order, the spectrum, the order filtration spectra and (from hodge)
    the V_HI spectrum, each computed on first use and kept while
    milnor_algebra keeps this."""

    __slots__ = ("f", "N", "space", "span", "mu", "basis_monomials",
                 "_memo")

    def __init__(self, f, N, space, span):
        mu = space.dimension - span.rank()
        pivots = span.pivot_columns()
        basis = tuple(space.monomials[i] for i in range(space.dimension)
                      if i not in pivots)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "span", span)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "basis_monomials", basis)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("MilnorAlgebra is immutable")

    def reduce(self, g):
        """Coordinates of g over basis_monomials, mod the Jacobian ideal."""
        nf = self.span.reduce(self.space.to_vector(g.terms))
        return {self.space.monomials[i]: c for i, c in nf.items()}

    def memo(self, key, compute, *args):
        """compute(*args) on the first use of key, the kept value after."""
        if key not in self._memo:
            self._memo[key] = compute(*args)
        return self._memo[key]

    @property
    def tjurina_span(self):
        """Row span of the Jacobian ideal plus (f); read-only."""
        return self.memo("tjurina_span", _span_with, self.span, self.space,
                         [self.f])

    @property
    def tau(self):
        return self.space.dimension - self.tjurina_span.rank()

    @property
    def verdict(self):
        """Non-degeneracy verdict, with the polyhedron it was made on."""
        return self.memo("verdict", is_nondegenerate, self.f)

    def order(self, hint=None):
        """Monomial order filtration attached to f: weight kind when f is
        semi-weighted-homogeneous for the hint weights, else Newton kind
        when the Newton boundary is non-degenerate."""
        w = None if hint is None else make_weights(hint)
        return self.memo(("order", w), self._route, w)

    def _route(self, w):
        """The one weight-or-Newton decision.  Every hint that falls back
        to the Newton route shares one order; a reduction cap hit while
        deciding non-degeneracy raises ResourceCapError."""
        if w is not None:
            if swh_structure(self.f, w).is_swh:
                return weight_order(w)
            return self.order()
        if self.verdict.status == "yes":
            return newton_filtration(self.verdict.polyhedron)
        error = ResourceCapError if self.verdict.status == "unknown" \
            else UnsupportedError
        raise error("need semi-weighted-homogeneous structure or a "
                    "non-degenerate Newton boundary (verdict %s)"
                    % self.verdict.status)

    def spectrum(self, hint=None):
        """Steenbrink spectrum along order(hint); on the weight route the
        Newton route is computed too when it applies, and they must
        agree."""
        order = self.order(hint)
        return self.memo(("spectrum", order), self._spectrum, order)

    def _spectrum(self, order):
        if order.kind == "newton":
            return filtered_quotient_dims(self.f, order, False)
        sp = spectrum_product_formula(order.weights)
        if self.verdict.status == "yes" and self.spectrum() != sp:
            raise AssertionError(
                "spectrum routes disagree: weights gave %s, newton gave %s"
                % (sp.sorted_items(), self.spectrum().sorted_items()))
        return sp


def _validate_input(f):
    if f.is_zero():
        raise ZeroJacobianError("zero polynomial")
    if f.order() < 2:
        raise UnsupportedError("polynomial must lie in the square of the "
                               "maximal ideal")
    # f and its partials vanish on the x_i-axis exactly when no term is
    # x_i^m or x_j x_i^m: every term has degree >= 2 in the others
    for i in range(f.n):
        if all(sum(p) - p[i] >= 2 for p in f.terms):
            raise NonIsolatedError("f is singular along the x_%d-axis"
                                   % (i + 1))


@lru_cache(maxsize=64)
def milnor_algebra(f):
    """Milnor algebra of f, truncated at the first certified degree N.

    The truncated span is (J + m^N)/m^N for the Jacobian ideal J.  Once
    it holds every monomial of degree N-2 and N-1, m^{N-2} is inside
    J + m * m^{N-2}, so m^{N-2} is inside J by Nakayama (Greuel-Pfister,
    A Singular Introduction to Commutative Algebra, finite determinacy):
    mu is the truncated codimension and membership in J is exact.  N
    grows by 4 while this fails; failure by N = %d, or past the Bezout
    bound of _certified_algebra, means the singularity is not isolated,
    and a larger starting degree raises ResourceCapError.""" % N_MAX
    return _certified_algebra(f, N_MAX)


def _certified_algebra(f, give_up):
    """The build of milnor_algebra, uncached; it also gives up, with
    NonIsolatedError, once the certificate fails at some N >= give_up.

    Two bounds prove that f is not isolated before N_MAX.  The refined
    Bezout theorem (Fulton, Intersection Theory, 12.3) bounds the
    intersection multiplicity of hypersurfaces V_1, ..., V_n of P^n at
    an isolated point of their intersection by deg V_1 ... deg V_n,
    whatever the rest of the intersection is.  For isolated f the
    partials cut out 0 as an isolated point and mu is their intersection
    multiplicity there, so mu <= B = prod deg d_i f.  The truncated
    codimension c(N) = dim C{x}/(J + m^N) is at most mu, so c(N) > B is
    a proof; and m^mu lies in J, so the certificate holds by N = B + 2,
    and its failure at any N >= B + 2 is a proof too."""
    _validate_input(f)
    bound = 1  # every partial has degree >= 1 after _validate_input
    for g in _partials(f):
        bound *= g.degree()
    N = max(2 * f.degree(), f.n + 2)
    if _N_START is not None:
        N = max(_N_START, f.n + 2)
    if N > N_MAX:
        raise ResourceCapError("starting truncation degree %d exceeds the "
                               "cap %d" % (N, N_MAX))
    while N <= N_MAX:
        space, span = jacobian_span(f, N)
        if _contains_power(space, span, N - 2):
            return MilnorAlgebra(f, N, space, span)
        codim = space.dimension - span.rank()
        if codim > bound:
            raise NonIsolatedError("Jacobian codimension %d at truncation "
                                   "degree %d exceeds the Bezout bound %d"
                                   % (codim, N, bound))
        if N >= min(give_up, bound + 2):
            break
        N += 4
    raise NonIsolatedError("Jacobian span does not contain m^(N-2) by "
                           "truncation degree %d" % min(N, N_MAX))


def tjurina_number(f):
    return milnor_algebra(f).tau


def quotient_dim_with(f, extra):
    """Codimension of (partials of f) + (f) + (extra generators)."""
    ma = milnor_algebra(f)
    return ma.space.dimension - _span_with(ma.tjurina_span, ma.space,
                                           extra).rank()


def ideal_membership(f, g, include_f):
    """Whether g lies in the Jacobian ideal (plus (f) when asked)."""
    ma = milnor_algebra(f)
    if g.is_zero():
        return True
    # to_vector drops only degrees >= N, which lie in m^N inside J
    span = ma.tjurina_span if include_f else ma.span
    return span.contains(ma.space.to_vector(g.terms))


def level_walk(space, order, span, stages=None):
    """The monomial levels of a descending filtration, inserted into span
    itself: at each stage s, in descending order, the columns of order
    >= s that span does not already hold as unit rows are inserted, and
    then s is yielded.  The stages default to the distinct orders of
    those columns; the walk stops once the quotient is full."""
    groups = {}  # only the columns it may insert: most lie in span
    for idx, m in enumerate(space.monomials):
        if len(span.rows.get(idx, ())) != 1:
            groups.setdefault(order.monomial_order(m), []).append(idx)
    levels = sorted(groups, reverse=True)
    if stages is None:
        stages = levels
    k = 0
    for s in stages:
        while k < len(levels) and levels[k] >= s:
            for idx in groups[levels[k]]:
                span.insert({idx: Fraction(1)})
            k += 1
        yield s
        if span.rank() == space.dimension:
            return


def level_filtration(ma, order, span, stages=None, extra=None):
    """Spectrum of a descending filtration on the quotient of ma's
    truncated space by span: the level walk on a copy of span, with the
    vectors extra(s) yields inserted after each stage's monomials; the
    rank growth at s is the multiplicity of s."""
    span = span.copy()
    jumps = {}
    rank = span.rank()
    for s in level_walk(ma.space, order, span, stages):
        if extra is not None:
            for vec in extra(s):
                span.insert(vec)
        jumps[s] = span.rank() - rank
        rank = span.rank()
    return Spectrum(ma.f.n, jumps)


def filtered_quotient_dims(f, order, include_f):
    """Spectrum of the monomial order filtration on the Milnor (or
    Tjurina) algebra, kept on the record."""
    ma = milnor_algebra(f)
    span = ma.tjurina_span if include_f else ma.span
    return ma.memo(("levels", order, include_f), level_filtration, ma,
                   order, span)


def condition_a_order(f, hint=None):
    """Monomial order filtration attached to f (MilnorAlgebra.order)."""
    return milnor_algebra(f).order(hint)


def steenbrink_spectrum(f, hint=None):
    """Spectrum of an isolated singularity that is semi-weighted-
    homogeneous (with hint weights) or has non-degenerate Newton
    boundary; both routes are compared when both apply."""
    return milnor_algebra(f).spectrum(hint)


def determinacy_bound(f):
    """Smallest k (at most mu+1) with m^{k+1} inside m^2 * (partials)."""
    ma = milnor_algebra(f)
    space = ma.space
    span = RowSpan()
    for g in _partials(f):
        _insert_multiples(span, space, g, 2)
    # Nakayama needs m^N inside m * m^{k+1}, i.e. k + 1 <= N - 1; beyond
    # that the check is vacuous and mu + 1 is the proven bound
    for k in range(1, space.N - 1):
        if _contains_power(space, span, k + 1):
            return min(k, ma.mu + 1)
    return ma.mu + 1
