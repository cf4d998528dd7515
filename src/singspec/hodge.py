"""Hodge-ideal machinery: generator sets built from the operators
P(i, beta) = f d_i - beta f_i, the V_HI filtration on the Milnor
algebra, the Hodge-ideal spectrum and Tjurina subspectrum, epsilon_f,
and executable verdicts for the main statements about them.

The generator model: for alpha in (0, 1] and p >= 0, I_p(alpha Z) is
the ideal generated by
- the monomial level TildeV^{alpha+p}, the monomials x^m whose order
  (weight or Newton order of x^m x_1 ... x_n) is at least alpha + p;
- for k = 1, ..., p and every i_1, ..., i_k in 1..n, the chains
  P(i_k, alpha + p - 1) ... P(i_2, alpha + p - k + 1) P(i_1, alpha + p - k)
  applied to the monomials of order at least alpha + p - k.
So I_0(alpha Z) is the monomial level alone.  The model is a theorem
for weighted homogeneous f and a working hypothesis otherwise; the
tests check it against the minimal exponent and the decrease in p.

All ideal spans are truncated; soundness of every pruning step rests on
two facts: the Jacobian span contains m^{N-2}, and the monomial
filtration level s satisfies TildeV^s = span of monomials of order >= s,
which is always contained in I_p(alpha Z) for alpha + p >= s.
"""

from bisect import bisect_left
from fractions import Fraction
from itertools import product
from math import ceil

from .errors import ResourceCapError
from .linalg import RowSpan
from .localalg import (TruncatedSpace, filtered_quotient_dims,
                       ideal_membership, level_filtration, level_walk,
                       milnor_algebra)
from .newton import gamma, order_of
from .polycore import (Polynomial, add_scaled, deriv_terms, mul_terms,
                       partial_derivative)


def _multiples_below(order, bound, n, max_deg, wcache):
    """All exponent vectors mu (including 0) with order.degree(mu) <
    bound, for bound > 0; wcache keeps order.degree by exponent."""
    out = []
    seen = {(0,) * n}
    queue = [(0,) * n]
    while queue:
        mu = queue.pop()
        out.append(mu)
        if sum(mu) >= max_deg:
            continue
        for i in range(n):
            nxt = mu[:i] + (mu[i] + 1,) + mu[i + 1:]
            if nxt in seen:
                continue
            w = wcache.get(nxt)
            if w is None:
                w = order.degree(nxt)
                wcache[nxt] = w
            if w < bound:
                seen.add(nxt)
                queue.append(nxt)
    return out


def _op_chain(fd, partials, n, seq, beta0, m, N, cache):
    """Truncated composite P(seq[k-1], beta0+k-1) o ... o P(seq[0],
    beta0) applied to x^m, as a raw term dict, with prefix reuse.  fd
    and partials are the term dicts of f and its partial derivatives."""
    key = (beta0, seq, m)
    G = cache.get(key)
    if G is None:
        if len(seq) == 1:
            base = {m: Fraction(1)}
        else:
            base = _op_chain(fd, partials, n, seq[:-1], beta0, m, N, cache)
        i = seq[-1]
        beta = beta0 + len(seq) - 1
        G = add_scaled(mul_terms(fd, deriv_terms(base, i), N),
                       mul_terms(partials[i - 1], base, N), -beta)
        cache[key] = G
    return G


def _pruned_generators(f, alpha, p, order, space, prune_level, levels,
                       cache=None):
    """Operator-image generators of I_p(alpha Z): the k-fold composites
    start at parameter alpha + p - k, acting on monomials of order at
    least alpha + p - k (the level matching k derivatives applied to the
    twist by alpha + p - k).  Every element of order >= prune_level is
    omitted (those lie in the monomial level span).  levels is
    space.by_order(order).  Yields (term dict, mu) pairs standing for
    the truncated x^mu * G."""
    n = f.n
    drops = order.drops
    vals = [val for val, idx in levels]
    if cache is None:
        cache = {}
    fd = f.terms
    partials = [deriv_terms(fd, i) for i in range(1, n + 1)]
    wcache = {}
    mult_cache = {}
    for k in range(1, p + 1):
        level = alpha + p - k
        for seq in product(range(1, n + 1), repeat=k):
            drop = sum(drops[i - 1] for i in seq)
            ceiling = prune_level - k + drop
            for pos in range(bisect_left(vals, level), len(vals)):
                val, idx = levels[pos]
                if val >= ceiling:
                    break
                G = _op_chain(fd, partials, n, seq, level,
                              space.monomials[idx], space.N, cache)
                if not G:
                    continue
                vG = min(order.monomial_order(e) for e in G)
                if vG >= prune_level:
                    continue
                key = (prune_level - vG, space.N - min(sum(e) for e in G))
                mus = mult_cache.get(key)
                if mus is None:
                    mus = _multiples_below(order, key[0], n, key[1], wcache)
                    mult_cache[key] = mus
                for mu in mus:
                    yield G, mu


def _pspan_space(f, alpha, p, order, ma):
    """Truncated space fat enough that its top degrees lie inside the
    monomial filtration at level alpha + p."""
    N = ma.N
    while True:
        space = TruncatedSpace(f.n, N) if N != ma.N else ma.space
        top = min(order.monomial_order(m) for m in space.monomials
                  if sum(m) == N - 1)
        if top >= alpha + p:
            return space
        N += 4
        if N > 4 * ma.N + 40:
            raise ResourceCapError("cannot reach filtration level %s "
                                   "within truncation bounds" % (alpha + p))


def hodge_ideal_member(f, alpha, p, g, modulo="nothing", hint=None):
    """Exact truncated membership of g in I_p(alpha Z), plus the
    Jacobian ideal J when modulo is "jacobian".

    Modulo J the span lives on the record's space, degrees below ma.N,
    and starts from the record's span: the terms that truncation drops
    have degree >= N, so they lie in m^N, inside m^{N-2}, inside J, and
    truncated membership in I + J is exact.  Only I_p(alpha Z) alone
    needs a space fat enough for its dropped terms to lie in the
    monomial level (_pspan_space)."""
    alpha = Fraction(alpha)
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    _check_index(p, "p")
    if modulo not in ("nothing", "jacobian"):
        raise ValueError("unknown modulo mode %r" % modulo)
    if g.is_zero():
        return True
    ma = milnor_algebra(f)
    order = ma.order(hint)
    if modulo == "nothing":
        space = _pspan_space(f, alpha, p, order, ma)
        span = RowSpan()
    else:
        space = ma.space
        span = ma.span.copy()
    level = alpha + p
    next(level_walk(space, order, span, [level]))
    if p:  # I_0(alpha Z) is the monomial level alone
        for G, mu in _pruned_generators(f, alpha, p, order, space, level,
                                        space.by_order(order)):
            span.insert(space.to_vector(G, mu))
    return span.contains(space.to_vector(g.terms))


def _check_index(p, name):
    if not isinstance(p, int) or p < 0:
        raise ValueError("%s must be an integer >= 0, got %r" % (name, p))


def _v_hi_pass(ma, order, p_max):
    """V_HI modulo J: the level walk on the Jacobian span, one stage per
    candidate level s = alpha + p in descending order, each adding the
    pruned chain generators of the I_p(alpha Z) with alpha + p = s.  The
    operator-chain cache ends with the pass."""
    space = ma.space
    levels = space.by_order(order)
    # candidate alphas: 1 and the fractional parts, in (0, 1], of orders
    alphas = {1 - (-v) % 1 for v, idx in levels} | {Fraction(1)}
    stages = sorted({a + p for a in alphas for p in range(p_max + 1)},
                    reverse=True)
    cache = {}

    def chains(s):
        for p in range(p_max + 1):
            if 0 < s - p <= 1:
                for G, mu in _pruned_generators(ma.f, s - p, p, order, space,
                                                s, levels, cache):
                    yield space.to_vector(G, mu)

    return level_filtration(ma, order, ma.span, stages, chains)


def hodge_ideal_spectrum(f, hint=None, p_max=None):
    """Exponent multiset of V_HI^beta = sum of I_p(alpha Z) over
    alpha + p >= beta, p <= p_max, on the Milnor algebra; kept on the
    record of f."""
    if p_max is None:
        p_max = f.n + 1
    _check_index(p_max, "p_max")
    ma = milnor_algebra(f)
    order = ma.order(hint)
    sp = ma.memo(("v_hi", order, p_max), _v_hi_pass, ma, order, p_max)
    if sp.total() != ma.mu:
        raise AssertionError("V_HI spectrum totals %d, expected mu = %d"
                             % (sp.total(), ma.mu))
    return sp


def tjurina_subspectrum(f, hint=None):
    """Exponent multiset of V_HI on the Tjurina algebra, which is the
    monomial order filtration there, whatever the p cutoff: every chain
    generator P(i, beta)G = f d_i G - beta f_i G lies in (f) + J, and
    the terms that truncation drops have degree >= N, in m^N inside J,
    so modulo (f) + J only the monomial levels remain."""
    order = milnor_algebra(f).order(hint)
    return filtered_quotient_dims(f, order, True)


def _spectrum_difference(big, small):
    """Multiset difference; raises if small is not a sub-multiset."""
    if not small.is_sub_multiset_of(big):
        raise AssertionError("not a sub-multiset")
    return {a: m - small.multiplicity(a) for a, m in big.sorted_items()
            if m > small.multiplicity(a)}


def epsilon_f(f, hint=None):
    """(gamma_f, epsilon_f = gamma_f + 1 - max spectral exponent).

    gamma_f is taken from the quotient-filtration definition; for f in
    m^3 the order-based definition is computed too and compared."""
    ma = milnor_algebra(f)
    order = ma.order(hint)
    return ma.memo(("epsilon", order), _epsilon, ma, order,
                   ma.spectrum(hint))


def _epsilon(ma, order, sp):
    f = ma.f
    span2 = ma.span.copy()
    for idx, m in enumerate(ma.space.monomials):
        if sum(m) >= 2:
            span2.insert({idx: Fraction(1)})
    # the highest order among the classes of 1, x_1, ..., x_n outside
    # m^2 + J
    gamma_quot = max(order.monomial_order(m) for idx, m
                     in enumerate(ma.space.monomials)
                     if sum(m) < 2 and not span2.contains({idx: Fraction(1)}))
    if f.order() >= 3:
        gamma_ord = gamma(order, Polynomial.constant(f.n, 1))
        if gamma_ord != gamma_quot:
            raise AssertionError(
                "gamma definitions disagree: order-based %s, "
                "quotient-based %s" % (gamma_ord, gamma_quot))
    eps = gamma_quot + 1 - sp.max_exponent()
    return gamma_quot, eps


def _not_applicable(report, reason):
    report.update(applicable=False, reason=reason)
    return report


def theorem1_check(f, hint=None):
    """Checks the spectral-shift statement for singularities whose
    f-multiples span exactly the top graded piece and tau = mu - 1."""
    ma = milnor_algebra(f)
    report = {"mu": ma.mu}
    if f.order() < 3:
        return _not_applicable(
            report, "f is not in the cube of the maximal ideal")
    tau = ma.tau
    report["tau"] = tau
    order = ma.order(hint)
    sp = ma.spectrum(hint)
    alpha_max = sp.max_exponent()
    report["alpha_max"] = alpha_max
    span = ma.span.copy()  # the Jacobian span plus the top level
    next(level_walk(ma.space, order, span, [alpha_max]))
    top_dim = span.rank() - ma.span.rank()
    fvec = ma.space.to_vector(f.terms)
    f_in_top = span.contains(fvec)
    f_nonzero = not ma.span.contains(fvec)
    hyp = (tau == ma.mu - 1 and top_dim == 1 and f_in_top and f_nonzero)
    report["hypothesis_f_spans_top"] = hyp
    if not hyp:
        return _not_applicable(
            report, "hypothesis fails (tau=%d, mu=%d, top dim=%d, f in top: "
            "%s)" % (tau, ma.mu, top_dim, f_in_top))
    report["applicable"] = True
    gamma_f, eps = epsilon_f(f, hint)
    report["gamma_f"] = gamma_f
    report["epsilon_f"] = eps
    hi = hodge_ideal_spectrum(f, hint)
    shift = hi.max_exponent() - alpha_max
    report["hi_alpha_max"] = hi.max_exponent()
    report["shift"] = shift
    report["shift_equals_max_eps_0"] = (shift == max(eps, 0))
    report["top_formula"] = (hi.max_exponent() == max(gamma_f + 1, alpha_max))
    report["holds"] = report["shift_equals_max_eps_0"] \
        and report["top_formula"]
    return report


def theorem2_check(f, hint=None):
    """All extra Hodge-ideal exponents (beyond the Tjurina subspectrum)
    must exceed the maximal spectral exponent."""
    ma = milnor_algebra(f)
    tau = ma.tau
    report = {"mu": ma.mu, "tau": tau}
    if f.order() < 3:
        return _not_applicable(
            report, "f is not in the cube of the maximal ideal")
    if ma.mu == tau:
        return _not_applicable(report, "mu equals tau")
    gamma_f, eps = epsilon_f(f, hint)
    report["epsilon_f"] = eps
    if eps <= 0:
        return _not_applicable(report, "epsilon_f is not positive")
    report["applicable"] = True
    sp = ma.spectrum(hint)
    hi = hodge_ideal_spectrum(f, hint)
    tj = tjurina_subspectrum(f, hint)
    extra = _spectrum_difference(hi, tj)
    report["extra_exponents"] = sorted(extra)
    report["alpha_max"] = sp.max_exponent()
    report["holds"] = all(a > sp.max_exponent() for a in extra)
    return report


def theorem3_witness(f, hint=None, degree_cap=None):
    """Monomial g with f*g outside the Jacobian ideal and
    gamma_f(g) + 1 above the maximal spectral exponent; returns
    (witness or None, searched degree cap).  The default cap is
    exhaustive: deg g >= N - 2 - ord f puts f*g in m^{N-2}, inside the
    Jacobian ideal."""
    ma = milnor_algebra(f)
    order = ma.order(hint)
    sp = ma.spectrum(hint)
    alpha_max = sp.max_exponent()
    if degree_cap is None:
        degree_cap = max(ma.N - 3 - f.order(), 0)
    for m in ma.space.monomials:
        if sum(m) > degree_cap:
            continue
        g = Polynomial.monomial(f.n, m)
        gamma_g = gamma(order, g)
        if gamma_g + 1 <= alpha_max:
            continue
        if not ideal_membership(f, f * g, False):
            _check_hi_exceeds(f, hint, alpha_max)
            return g, degree_cap
    return None, degree_cap


def _check_hi_exceeds(f, hint, alpha_max):
    if not hodge_ideal_spectrum(f, hint).max_exponent() > alpha_max:
        raise AssertionError("witness found but the Hodge-ideal spectrum "
                             "maximum does not exceed the spectral maximum")


def prop1_check(f, hint=None):
    """Double-point statement: f mod the Jacobian ideal lies in V_HI at
    level alpha_1 + 2, via the operator membership chain."""
    report = {}
    if f.is_zero() or f.order() != 2:
        return _not_applicable(report, "f is not a double point")
    ma = milnor_algebra(f)
    tau = ma.tau
    report["mu"] = ma.mu
    report["tau"] = tau
    if ma.mu == tau:
        return _not_applicable(report, "mu equals tau")
    pair = next(((i, j) for i in range(1, f.n + 1) for j in range(1, f.n + 1)
                 if partial_derivative(partial_derivative(f, i), j)
                 .coefficient((0,) * f.n)), None)
    report["invertible_second_derivative"] = pair
    if pair is None:
        return _not_applicable(report, "no invertible second derivative")
    report["applicable"] = True
    sp = ma.spectrum(hint)
    alpha1 = sp.min_exponent()
    report["alpha_1"] = alpha1
    p = int(ceil(alpha1)) - 1
    a = alpha1 - p
    i, j = pair
    fj = partial_derivative(f, j)
    chain = {
        "one_in_I_p": hodge_ideal_member(
            f, a, p, Polynomial.constant(f.n, 1), "nothing", hint),
        "fj_in_I_p1": hodge_ideal_member(f, a, p + 1, fj, "nothing", hint),
        "f_dfj_in_I_p2_mod_jac": hodge_ideal_member(
            f, a, p + 2, f * partial_derivative(fj, i), "jacobian", hint),
        "f_in_I_p2_mod_jac": hodge_ideal_member(f, a, p + 2, f, "jacobian",
                                                hint),
    }
    report.update(chain)
    report["holds"] = all(chain.values())
    report["spectra_differ_criterion"] = alpha1 > Fraction(f.n, 2) - 1
    return report


def prop2_witness(f, hint=None, degree_cap=None):
    """For f = h + x_n^2 with h in the first n-1 variables: searches a
    polynomial g in those variables with f*g outside the Jacobian ideal
    and v(g) + 2 above the maximal spectral exponent; verifies the
    membership chain on success.  The default degree cap is exhaustive,
    as in theorem3_witness."""
    n = f.n
    xn_terms = {m: c for m, c in f.terms.items() if m[n - 1] != 0}
    square = (0,) * (n - 1) + (2,)
    if set(xn_terms) != {square}:
        return None, "shape not matched: need x_n appearing only as x_n^2"
    ma = milnor_algebra(f)
    order = ma.order(hint)
    sp = ma.spectrum(hint)
    alpha_max = sp.max_exponent()
    if degree_cap is None:
        degree_cap = max(ma.N - 3 - f.order(), 0)
    for m in ma.space.monomials:
        if m[n - 1] != 0 or sum(m) > degree_cap:
            continue
        g = Polynomial.monomial(n, m)
        vg = order_of(order, g)
        if vg + 2 <= alpha_max:
            continue
        if ideal_membership(f, f * g, False):
            continue
        p = int(ceil(vg)) - 1
        a = vg - p
        two_xn = Polynomial.monomial(n, (0,) * (n - 1) + (1,), 2)
        chain_ok = (
            hodge_ideal_member(f, a, p, g, "nothing", hint)
            and hodge_ideal_member(f, a, p + 1, g * two_xn, "nothing", hint)
            and hodge_ideal_member(f, a, p + 2, f * g * Fraction(2),
                                   "jacobian", hint))
        _check_hi_exceeds(f, hint, alpha_max)
        if not chain_ok:
            raise AssertionError("witness found but the membership chain "
                                 "failed")
        return g, "witness found"
    return None, "no witness up to degree %d" % degree_cap


def monotonicity_scan(f, hint=None, p=2):
    """Violations of weak decrease of I_p(alpha Z) mod the Jacobian
    ideal: for consecutive scan points alpha < alpha', reports
    (alpha, alpha', g) with g in I_p(alpha' Z) but not in I_p(alpha Z).

    Scan points are the order-filtration jump values inside (0, 1] plus
    the midpoints between consecutive jumps; only consecutive scan
    points are compared, so this is not a search over all of (0, 1].
    The ideals are those of the generator model in the module
    docstring, which is a theorem for weighted homogeneous f and a
    working hypothesis otherwise, so an empty result certifies weak
    decrease only within that model.  Between two jumps the generator
    classes are affine in alpha, so the span can drop only at isolated
    alpha, and the scan does not visit those points: for
    x^9 + y^10 + z^11 + (x + y) x^3 y^3 z^3 and p = 2, the classes
    taken on (254/495, 173/330] lose rank only at alpha = 0 and
    alpha = 1/1485."""
    _check_index(p, "p")
    ma = milnor_algebra(f)
    order = ma.order(hint)
    space = ma.space
    levels = space.by_order(order)
    jump_vals = sorted({val for val, idx in levels if 0 < val <= 1}
                       | {Fraction(1)})
    points = sorted(set(jump_vals) | {(a + b) / 2 for a, b
                                      in zip(jump_vals, jump_vals[1:])},
                    reverse=True)
    span = ma.span.copy()  # the Jacobian span plus the walk's level
    violations = []
    a_hi, sur_hi = None, []  # the previous scan point and its survivors
    for s in level_walk(space, order, span, [a + p for a in points]):
        # survivors: the generators of I_p(a Z) outside TildeV^s + J,
        # with their residues modulo the span at stage s
        a = s - p
        cur = []
        span_a = RowSpan()
        for G, mu in _pruned_generators(f, a, p, order, space, s, levels):
            res = span.reduce(space.to_vector(G, mu))
            if res:
                cur.append(((G, mu), res))
                span_a.insert(res)
        for (G, mu), res in sur_hi:
            res2 = span.reduce(res)
            if res2 and not span_a.contains(res2):
                g = Polynomial(f.n, G) * Polynomial.monomial(f.n, mu)
                violations.append((a, a_hi, g.truncate(space.N)))
                break
        a_hi, sur_hi = a, cur
    violations.sort()
    return violations
