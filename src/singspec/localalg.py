"""Truncated local-algebra engine: Milnor and Tjurina algebras by exact
linear algebra modulo a power of the maximal ideal, filtered quotient
dimensions, and Steenbrink spectrum extraction.

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
from .newton import (is_nondegenerate, newton_filtration, newton_polyhedron,
                     swh_structure)
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
    _tjurina_span.cache_clear()
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

    def to_vector(self, g):
        """Sparse {column: coefficient} image of g, truncated."""
        vec = {}
        for expo, c in g.terms.items():
            idx = self.index.get(expo)
            if idx is not None:
                vec[idx] = c
        return vec

    def from_vector(self, vec):
        return Polynomial(self.n, {self.monomials[i]: c
                                   for i, c in vec.items()})


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
        prod = {}
        for expo, c in g.terms.items():
            col = space.index.get(tuple(a + b for a, b in zip(m, expo)))
            if col is not None:
                prod[col] = prod.get(col, Fraction(0)) + c
        span.insert(prod)


def jacobian_span(f, N):
    """Row-reduced span of the truncated multiples of the partials of f."""
    space = TruncatedSpace(f.n, N)
    span = RowSpan()
    for i in range(1, f.n + 1):
        _insert_multiples(span, space, partial_derivative(f, i))
    return space, span


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
    __slots__ = ("f", "N", "space", "span", "mu", "basis_monomials")

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

    def __setattr__(self, name, value):
        raise AttributeError("MilnorAlgebra is immutable")

    def reduce(self, g):
        """Coordinates of g over basis_monomials, mod the Jacobian ideal."""
        nf = self.span.reduce(self.space.to_vector(g))
        return {self.space.monomials[i]: c for i, c in nf.items()}


def _validate_input(f):
    if f.is_zero():
        raise ZeroJacobianError("zero polynomial")
    if f.order() < 2:
        raise UnsupportedError("polynomial must lie in the square of the "
                               "maximal ideal")


@lru_cache(maxsize=64)
def milnor_algebra(f):
    """Milnor algebra of f, truncated at the first certified degree N.

    The truncated span is (J + m^N)/m^N for the Jacobian ideal J.  Once
    it holds every monomial of degree N-2 and N-1, m^{N-2} is inside
    J + m * m^{N-2}, so m^{N-2} is inside J by Nakayama (Greuel-Pfister,
    A Singular Introduction to Commutative Algebra, finite determinacy):
    mu is the truncated codimension and membership in J is exact.  N
    grows by 4 while this fails; failure by N = %d means the singularity
    is not isolated, and a larger starting degree raises
    ResourceCapError.""" % N_MAX
    _validate_input(f)
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
        N += 4
    raise NonIsolatedError("Jacobian span does not contain m^(N-2) by "
                           "truncation degree %d" % N_MAX)


@lru_cache(maxsize=64)
def _tjurina_span(f):
    ma = milnor_algebra(f)
    span = ma.span.copy()
    _insert_multiples(span, ma.space, f)
    return span


def tjurina_number(f):
    ma = milnor_algebra(f)
    return ma.space.dimension - _tjurina_span(f).rank()


def quotient_dim_with(f, extra):
    """Codimension of (partials of f) + (f) + (extra generators)."""
    ma = milnor_algebra(f)
    span = _tjurina_span(f).copy()
    for g in extra:
        _insert_multiples(span, ma.space, g)
    return ma.space.dimension - span.rank()


def ideal_membership(f, g, include_f):
    """Whether g lies in the Jacobian ideal (plus (f) when asked)."""
    ma = milnor_algebra(f)
    if g.is_zero():
        return True
    # to_vector drops only degrees >= N, which lie in m^N inside J
    span = _tjurina_span(f) if include_f else ma.span
    return span.contains(ma.space.to_vector(g))


class FilteredDims:
    """Jump exponents of a quotient filtration with Gr dimensions."""

    __slots__ = ("jumps",)

    def __init__(self, jumps):
        self.jumps = {Fraction(b): int(d) for b, d in jumps.items() if d}

    def total(self):
        return sum(self.jumps.values())

    def sorted_items(self):
        return sorted(self.jumps.items())

    def to_spectrum(self, n):
        return Spectrum(n, self.jumps)


def filtered_quotient_dims(f, order, include_f):
    """Gr dimensions of the monomial-order filtration on the Milnor
    (or Tjurina) algebra: insert monomial classes in descending order
    and count rank jumps."""
    ma = milnor_algebra(f)
    base = _tjurina_span(f) if include_f else ma.span
    span = base.copy()
    pivots = span.pivot_columns()
    groups = {}
    for idx, m in enumerate(ma.space.monomials):
        if idx in pivots and len(span.rows[idx]) == 1:
            continue
        groups.setdefault(order.monomial_order(m), []).append(idx)
    jumps = {}
    for beta in sorted(groups, reverse=True):
        grew = 0
        for idx in groups[beta]:
            if span.insert({idx: Fraction(1)}):
                grew += 1
        if grew:
            jumps[beta] = grew
    return FilteredDims(jumps)


def steenbrink_spectrum(f, hint=None):
    """Spectrum of an isolated singularity that is semi-weighted-
    homogeneous (with hint weights) or has non-degenerate Newton
    boundary; both routes are compared when both apply."""
    _validate_input(f)
    results = {}
    if hint is not None:
        w = make_weights(hint)
        st = swh_structure(f, w)
        if st.is_swh:
            results["weights"] = spectrum_product_formula(w)
    verdict = is_nondegenerate(f)
    if verdict.status == "yes":
        milnor_algebra(f)  # isolation check
        NP = newton_polyhedron(f)
        dims = filtered_quotient_dims(f, newton_filtration(NP), False)
        results["newton"] = dims.to_spectrum(f.n)
    if not results:
        raise UnsupportedError(
            "spectrum needs semi-weighted-homogeneous structure or a "
            "non-degenerate Newton boundary (verdict %s)" % verdict.status)
    if len(results) == 2 and results["weights"] != results["newton"]:
        raise AssertionError(
            "spectrum routes disagree: weights gave %s, newton gave %s"
            % (results["weights"].sorted_items(),
               results["newton"].sorted_items()))
    return next(iter(results.values()))


def determinacy_bound(f):
    """Smallest k (at most mu+1) with m^{k+1} inside m^2 * (partials)."""
    ma = milnor_algebra(f)
    space = ma.space
    span = RowSpan()
    for i in range(1, f.n + 1):
        _insert_multiples(span, space, partial_derivative(f, i), 2)
    # Nakayama needs m^N inside m * m^{k+1}, i.e. k + 1 <= N - 1; beyond
    # that the check is vacuous and mu + 1 is the proven bound
    for k in range(1, space.N - 1):
        if _contains_power(space, span, k + 1):
            return min(k, ma.mu + 1)
    return ma.mu + 1
