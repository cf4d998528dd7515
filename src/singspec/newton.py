"""Newton polyhedra of germs: supports, facets, compact faces, the
filtration orders (weight order and Newton order v(g)), non-degeneracy
testing, convenientization, and semi-weighted-homogeneous structure.

Facets are found by exact dual enumeration: candidate normals come from
small subsets of the support combined with coordinate directions, which
is ample at the support sizes handled here (a few dozen points, n <= 6).
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

from .errors import DegenerateError, NonIsolatedError, ResourceCapError
from .linalg import nullspace, rank
from .polycore import Polynomial, add_scaled


class LinearForm:
    """ell(nu) = sum_i coeffs[i] * nu_i - constant, with ell >= 0 on the
    region it bounds.  Normalized so constant is 0 or 1 where possible."""

    __slots__ = ("coeffs", "constant")

    def __init__(self, coeffs, constant):
        coeffs = tuple(Fraction(c) for c in coeffs)
        constant = Fraction(constant)
        if all(c == 0 for c in coeffs):
            raise ValueError("zero linear form")
        if constant != 0:
            scale = abs(constant)
            coeffs = tuple(c / scale for c in coeffs)
            constant = constant / scale
        else:
            denom = 1
            for c in coeffs:
                denom = denom * c.denominator // gcd(denom, c.denominator)
            ints = [int(c * denom) for c in coeffs]
            g = 0
            for v in ints:
                g = gcd(g, abs(v))
            coeffs = tuple(Fraction(v, g) for v in ints)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "constant", constant)

    def __setattr__(self, name, value):
        raise AttributeError("LinearForm is immutable")

    def evaluate(self, point):
        return sum(c * p for c, p in zip(self.coeffs, point)) - self.constant

    @property
    def positivity(self):
        if all(c > 0 for c in self.coeffs):
            return "strict"
        if all(c >= 0 for c in self.coeffs):
            return "weak"
        return "other"

    def __eq__(self, other):
        return (isinstance(other, LinearForm)
                and self.coeffs == other.coeffs
                and self.constant == other.constant)

    def __hash__(self):
        return hash((self.coeffs, self.constant))

    def __repr__(self):
        return "LinearForm(%s, %s)" % (self.coeffs, self.constant)


class Face:
    """A compact face of a Newton polyhedron: its support points and its
    dimension."""

    __slots__ = ("points", "dimension")

    def __init__(self, points, dimension):
        object.__setattr__(self, "points", frozenset(points))
        object.__setattr__(self, "dimension", dimension)

    def __setattr__(self, name, value):
        raise AttributeError("Face is immutable")

    def __eq__(self, other):
        return isinstance(other, Face) and self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return "Face(dim=%d, points=%s)" % (self.dimension,
                                            sorted(self.points))


class NewtonPolyhedron:
    __slots__ = ("n", "support", "vertices", "facets", "convenient")

    def __init__(self, n, support, vertices, facets, convenient):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "support", frozenset(support))
        object.__setattr__(self, "vertices", frozenset(vertices))
        object.__setattr__(self, "facets", tuple(facets))
        object.__setattr__(self, "convenient", convenient)

    def __setattr__(self, name, value):
        raise AttributeError("NewtonPolyhedron is immutable")

    def scaling_facets(self):
        return [f for f in self.facets if f.constant != 0]


def support(f):
    if f.is_zero():
        raise ValueError("zero polynomial has no support")
    return f.support()


def _face_dimension(points, free, n):
    points = list(points)
    base = points[0]
    rows = [[p[i] - base[i] for i in range(n)] for p in points[1:]]
    for j in free:
        row = [0] * n
        row[j] = 1
        rows.append(row)
    if not rows:
        return 0
    return rank(rows, n)


def _candidate_facets(points, n):
    """All facet forms of conv(points) + R_{>=0}^n."""
    points = sorted(points)
    found = {}
    coords = range(n)
    for zero_count in range(n):
        keep_count = n - zero_count
        for zeros in combinations(coords, zero_count):
            keep = [i for i in coords if i not in zeros]
            for subset in combinations(points, keep_count):
                base = subset[0]
                rows = [[p[i] - base[i] for i in keep] for p in subset[1:]]
                if rows:
                    kernel = nullspace(rows, keep_count)
                    if len(kernel) != 1:
                        continue
                    normal = kernel[0]
                else:
                    normal = [Fraction(1)]
                coeffs = [Fraction(0)] * n
                for i, c in zip(keep, normal):
                    coeffs[i] = c
                if any(c < 0 for c in coeffs):
                    if all(c <= 0 for c in coeffs):
                        coeffs = [-c for c in coeffs]
                    else:
                        continue
                if all(c == 0 for c in coeffs):
                    continue
                values = [sum(c * p[i] for i, c in enumerate(coeffs))
                          for p in points]
                c0 = min(values)
                tight = [p for p, v in zip(points, values) if v == c0]
                free = [i for i in coords if coeffs[i] == 0]
                if _face_dimension(tight, free, n) != n - 1:
                    continue
                form = LinearForm(coeffs, c0)
                found[(form.coeffs, form.constant)] = form
    return sorted(found.values(), key=lambda f: (f.coeffs, f.constant))


def _missing_axes(supp, n):
    """Coordinate axes that the support does not meet."""
    return [i for i in range(n)
            if not any(all(p[j] == 0 for j in range(n) if j != i)
                       for p in supp)]


def is_convenient(supp, n):
    return not _missing_axes(supp, n)


def newton_polyhedron(f):
    """Vertices and minimal facet set of the Newton polyhedron of f."""
    supp = support(f)
    n = f.n
    if any(sum(p) == 0 for p in supp):
        raise ValueError("polynomial has a constant term")
    facets = _candidate_facets(supp, n)
    vertices = set()
    for p in supp:
        normals = [fc.coeffs for fc in facets if fc.evaluate(p) == 0]
        if normals and rank(normals, n) == n:
            vertices.add(p)
    return NewtonPolyhedron(n, supp, vertices, facets,
                            is_convenient(supp, n))


def polytope_linear_forms(f):
    """Minimal facet forms of the convex hull of the support of f.

    For a hull of dimension < n the defining system contains opposite
    pairs of forms; both members are reported."""
    supp = sorted(support(f))
    n = f.n
    found = {}
    hull_dim = _face_dimension(supp, (), n)
    candidates = []
    for size in range(2, min(len(supp), n + 1) + 1):
        for subset in combinations(supp, size):
            base = subset[0]
            rows = [[p[i] - base[i] for i in range(n)] for p in subset[1:]]
            candidates.extend(nullspace(rows, n))
    for i in range(n):
        axis = [Fraction(0)] * n
        axis[i] = Fraction(1)
        candidates.append(axis)
    for normal in candidates:
        for sign in (1, -1):
            coeffs = [sign * c for c in normal]
            if all(c == 0 for c in coeffs):
                continue
            values = [sum(c * p[i] for i, c in enumerate(coeffs))
                      for p in supp]
            c0 = min(values)
            tight = [p for p, v in zip(supp, values) if v == c0]
            proper_facet = _face_dimension(tight, (), n) == hull_dim - 1 \
                and len(tight) != len(supp)
            hull_equality = len(tight) == len(supp) and hull_dim < n
            if not (proper_facet or hull_equality):
                continue
            form = LinearForm(coeffs, c0)
            found[(form.coeffs, form.constant)] = form
    return sorted(found.values(), key=lambda x: (x.coeffs, x.constant))


def strictly_positive_forms(forms):
    return sorted((f for f in forms if f.positivity == "strict"),
                  key=lambda x: (x.coeffs, x.constant))


def compact_faces(NP):
    """All compact faces of the polyhedron, dimensions 0 .. n-1: the
    facet intersections whose recession cone has no free direction."""
    n = NP.n
    whole = (frozenset(NP.support), frozenset(range(n)))
    seen = {whole}
    queue = [whole]
    while queue:
        points, free = queue.pop()
        for facet in NP.facets:
            new_points = frozenset(p for p in points
                                   if facet.evaluate(p) == 0)
            if not new_points:
                continue
            new_free = frozenset(j for j in free if facet.coeffs[j] == 0)
            key = (new_points, new_free)
            if key not in seen:
                seen.add(key)
                queue.append(key)
    results = [Face(points, _face_dimension(points, (), n))
               for points, free in seen if not free]
    results.sort(key=lambda fc: (fc.dimension, sorted(fc.points)))
    return results


class FiltrationOrder:
    """Monomial order rule ord(x^nu) = min over forms ell of ell(nu + 1),
    for positive linear forms ell: the one form w of the weight kind, the
    scaling-facet coefficient vectors of the Newton kind v(x^nu).  kind
    labels the route; weights are kept for the product formula."""

    __slots__ = ("kind", "weights", "forms", "drops", "_cache")

    def __init__(self, kind, forms, weights=None):
        forms = tuple(tuple(Fraction(c) for c in ell) for ell in forms)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "forms", forms)
        object.__setattr__(self, "drops", tuple(
            max(ell[i] for ell in forms) for i in range(len(forms[0]))))
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("FiltrationOrder is immutable")

    def degree(self, mu):
        """min ell(mu): ord(x^mu * g) >= degree(mu) + ord(g)."""
        return min(sum(c * e for c, e in zip(ell, mu)) for ell in self.forms)

    def monomial_order(self, nu):
        """min ell(nu + 1); drops[i] = max ell_i bounds its decrease
        under d/dx_i."""
        nu = tuple(nu)
        cached = self._cache.get(nu)
        if cached is not None:
            return cached
        val = min(sum(c * (v + 1) for c, v in zip(ell, nu))
                  for ell in self.forms)
        self._cache[nu] = val
        return val


def weight_order(w):
    w = tuple(Fraction(x) for x in w)
    return FiltrationOrder("weight", (w,), w)


def newton_filtration(NP):
    scaling = NP.scaling_facets()
    if not scaling:
        raise ValueError("polyhedron has no scaling facet")
    return FiltrationOrder("newton", [fc.coeffs for fc in scaling])


def order_of(order, g):
    if g.is_zero():
        raise ValueError("zero polynomial has no order")
    return min(order.monomial_order(nu) for nu in g.support())


def gamma(order, g):
    """gamma_f(g) = max_i v(x_i g)."""
    if g.is_zero():
        raise ValueError("zero polynomial")
    n = g.n
    best = None
    for i in range(n):
        shift = [0] * n
        shift[i] = 1
        xi_g = Polynomial.monomial(n, shift) * g
        val = order_of(order, xi_g)
        if best is None or val > best:
            best = val
    return best


# ---------------------------------------------------------------------------
# non-degeneracy testing

REDUCTION_CAP = 100000  # s-polynomial reductions per face before 'unknown'


def _degrevlex_key(expo):
    return (sum(expo), tuple(-e for e in reversed(expo)))


def _lead(poly_dict):
    return max(poly_dict, key=_degrevlex_key)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _sub_exp(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _normal_form(poly, basis):
    result = {}
    work = dict(poly)
    while work:
        lead = _lead(work)
        reduced = False
        for g in basis:
            glead = g[0]
            if _divides(glead, lead):
                gpoly = g[1]
                add_scaled(work, gpoly, -work[lead] / gpoly[glead],
                           _sub_exp(lead, glead))
                reduced = True
                break
        if not reduced:
            result[lead] = work.pop(lead)
    return result


def _buchberger_trivial(generators, cap):
    """Returns 'trivial', 'nontrivial', or 'unknown' for whether the
    ideal generated by the given polynomials is the unit ideal."""
    basis = []
    for g in generators:
        g = {e: c for e, c in g.items() if c != 0}
        if g:
            basis.append((_lead(g), g))
    if not basis:
        return "nontrivial"
    for lead, _ in basis:
        if sum(lead) == 0:
            return "trivial"
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    reductions = 0
    while pairs:
        i, j = pairs.pop()
        li, pi = basis[i]
        lj, pj = basis[j]
        lcm = tuple(max(a, b) for a, b in zip(li, lj))
        if all(a + b == m for a, b, m in zip(li, lj, lcm)):
            continue  # coprime leads: s-polynomial reduces to zero
        s = add_scaled({}, pi, 1 / pi[li], _sub_exp(lcm, li))
        add_scaled(s, pj, -1 / pj[lj], _sub_exp(lcm, lj))
        reductions += 1
        if reductions > cap:
            return "unknown"
        nf = _normal_form(s, basis)
        if nf:
            lead = _lead(nf)
            if sum(lead) == 0:
                return "trivial"
            basis.append((lead, nf))
            k = len(basis) - 1
            pairs.extend((k, m) for m in range(k))
    return "nontrivial"


class NondegeneracyVerdict:
    """status 'yes', 'no' or 'unknown' (reduction cap hit), the face that
    decided it, and the Newton polyhedron the decision was made on."""

    __slots__ = ("status", "face", "reason", "polyhedron")

    def __init__(self, status, polyhedron, face=None, reason=None):
        self.status = status
        self.polyhedron = polyhedron
        self.face = face
        self.reason = reason

    def __repr__(self):
        return "NondegeneracyVerdict(%r, face=%r, reason=%r)" % (
            self.status, self.face, self.reason)


def _lattice_coordinates(vectors):
    """An echelon basis of the lattice the integer vectors span, and the
    integer coordinates of each vector over it.

    Euclid down each column in turn, on the rows not yet in the basis,
    leaves one row with a non-zero entry there; that row joins the basis.
    The row operations are unimodular, so the basis spans the same
    lattice, and a later basis row is zero in every earlier pivot
    column, so reading coordinates pivot by pivot divides exactly."""
    rows = [list(v) for v in vectors]
    basis = []
    for j in range(len(vectors[0]) if vectors else 0):
        live = [r for r in rows if r[j]]
        while len(live) > 1:
            top = min(live, key=lambda r: abs(r[j]))
            for r in live:
                if r is not top:
                    q = r[j] // top[j]
                    r[:] = [a - q * b for a, b in zip(r, top)]
            live = [r for r in live if r[j]]
        if live:
            basis.append((j, live[0]))
            rows = [r for r in rows if r is not live[0]]
    coords = []
    for v in vectors:
        rest = list(v)
        coords.append([])
        for j, b in basis:
            q = rest[j] // b[j]
            rest = [a - q * x for a, x in zip(rest, b)]
            coords[-1].append(q)
    return [b for _, b in basis], coords


def _face_torus_system(f, face):
    """Logarithmic derivative system of the face part of f, in the
    coordinates c(p) of p - p_0 over a basis b_1..b_d of the lattice L
    that the differences of the face points span.

    With y_k = x^{b_k}, x_i d_i f_sigma = x^{p_0} sum_p f_p p_i y^{c(p)}.
    Any Z-basis of L gives the same verdict, saturated in Z^n or not: the
    b_k are independent, so x -> (x^{b_k}) maps (C*)^n onto (C*)^d, as
    every character of L extends to Z^n (C* is divisible).  So the
    system has a zero in (C*)^n exactly when the y-system has one in
    (C*)^d; the unit x^{p_0} and the shift to non-negative exponents
    change no zero in the torus."""
    pts = sorted(face.points)
    basis, coords = _lattice_coordinates(
        [[a - b for a, b in zip(p, pts[0])] for p in pts])
    shift = [min(c[k] for c in coords) for k in range(len(basis))]
    return [{tuple(a - s for a, s in zip(c, shift)): f.terms[p] * p[i]
             for p, c in zip(pts, coords) if p[i]}
            for i in range(f.n)], len(basis)


def is_nondegenerate(f):
    """Decide non-degeneracy of the Newton boundary of f.

    For each compact face sigma the system {x_i d_i f_sigma = 0} must
    have no solution in the torus (Kouchnirenko); simplices pass at
    once, other faces are written in lattice coordinates and decided
    by an exact unit-ideal test with monomial saturation."""
    NP = newton_polyhedron(f)
    return _face_verdict(f, NP, compact_faces(NP))


def _face_verdict(f, NP, faces):
    """The face loop of is_nondegenerate, on a polyhedron NP of f and its
    compact faces already built.

    A face whose points are affinely independent needs no Groebner run.
    A compact face lies on a hyperplane l = c with c > 0, so its points
    p_j are then linearly independent.  With y_j = f_{p_j} x^{p_j} the
    system says sum_j p_{j,i} y_j = 0 for every i, which forces y = 0,
    impossible in the torus."""
    for face in faces:
        if face.dimension + 1 == len(face.points):
            continue
        systems, d = _face_torus_system(f, face)
        # saturate by the torus: add t * y_1 ... y_d - 1
        lifted = [{e + (0,): c for e, c in poly.items()} for poly in systems]
        sat = {tuple([1] * d + [1]): Fraction(1),
               tuple([0] * (d + 1)): Fraction(-1)}
        lifted.append(sat)
        verdict = _buchberger_trivial(lifted, REDUCTION_CAP)
        if verdict == "nontrivial":
            return NondegeneracyVerdict("no", NP, face=face)
        if verdict == "unknown":
            return NondegeneracyVerdict("unknown", NP, face=face,
                                        reason="reduction cap exceeded")
    return NondegeneracyVerdict("yes", NP)


# ---------------------------------------------------------------------------
# convenientization


def _new_faces_admissible(old_faces, new_faces, apex, n):
    """Every new compact face must be an old face, or conv(tau u {apex})
    with tau an old face (or empty) whose direction space misses e_apex."""
    axis = apex.index(max(apex))
    old_keys = {fc.points for fc in old_faces}
    old_list = [frozenset()] + [fc.points for fc in old_faces]
    for fc in new_faces:
        if fc.points in old_keys:
            continue
        if apex not in fc.points:
            return False
        tau = fc.points - {apex}
        if tau not in old_list:
            return False
        if tau:
            pts = sorted(tau)
            base = pts[0]
            diffs = [[p[i] - base[i] for i in range(n)] for p in pts[1:]]
            axis_row = [0] * n
            axis_row[axis] = 1
            if diffs and rank(diffs + [axis_row], n) == rank(diffs, n):
                return False
    return True


def convenientize(f, m):
    """Exponents a_i >= m and a builder c -> f + c * sum x_i^{a_i} making
    f convenient while preserving non-degeneracy."""
    if m < 1:
        raise ValueError("m must be at least 1")
    verdict = is_nondegenerate(f)
    if verdict.status != "yes":
        raise DegenerateError("input must have non-degenerate Newton "
                              "boundary (verdict %s)" % verdict.status)
    n = f.n
    missing = _missing_axes(f.support(), n)
    if not missing:
        return (), (lambda c: f)
    current = f
    old_faces = compact_faces(verdict.polyhedron)
    chosen = {}
    for i in missing:
        found = None
        for a in range(m, m + 65):
            if a in chosen.values():
                continue
            apex = tuple(a if j == i else 0 for j in range(n))
            candidate = current + Polynomial.monomial(n, apex)
            NP = newton_polyhedron(candidate)
            new_faces = compact_faces(NP)
            if not _new_faces_admissible(old_faces, new_faces, apex, n):
                continue
            if _face_verdict(candidate, NP, new_faces).status == "yes":
                found = a
                break
        if found is None:
            raise ResourceCapError(
                "no admissible exponent for axis %d in window [%d, %d]"
                % (i + 1, m, m + 64))
        chosen[i] = found
        current = candidate
        old_faces = new_faces

    axes = sorted(chosen)
    exponents = tuple(chosen[i] for i in axes)

    def builder(c):
        g = f
        for i in axes:
            expo = [0] * n
            expo[i] = chosen[i]
            g = g + Polynomial.monomial(n, expo, c)
        return g

    return exponents, builder


# ---------------------------------------------------------------------------
# semi-weighted-homogeneous structure


class SwhStructure:
    __slots__ = ("f1", "f_gt1", "is_swh", "below_weight_one")

    def __init__(self, f1, f_gt1, is_swh, below_weight_one):
        self.f1 = f1
        self.f_gt1 = f_gt1
        self.is_swh = is_swh
        self.below_weight_one = below_weight_one


def swh_structure(f, w):
    """Split f = f1 + f_{>1} by weighted degree and decide whether f is
    semi-weighted-homogeneous for the weights w: no terms below weight
    one, and an isolated weight-one part f1.

    The isolation test is bounded.  If the weighted homogeneous f1 is
    isolated, its Milnor algebra is graded with top weighted degree
    s = sum(1 - 2 w_i), so J(f1) holds every monomial of weighted degree
    above s; total degree d gives weighted degree >= d min w, so m^k lies
    in J(f1) for k = floor(s / min w) + 1.  The truncated span at degree
    N is (J(f1) + m^N)/m^N, so the certificate m^{N-2} holds at every
    N >= k + 2.  A failure at such N proves that f1 is not isolated, and
    the build stops there; an isolated f1 is certified at the same N."""
    ws = tuple(Fraction(x) for x in w)
    if len(ws) != f.n:
        raise ValueError("weight count mismatch")
    one_terms = {}
    high_terms = {}
    below = []
    for expo, c in f.terms.items():
        wdeg = sum(wi * e for wi, e in zip(ws, expo))
        if wdeg == 1:
            one_terms[expo] = c
        elif wdeg > 1:
            high_terms[expo] = c
        else:
            below.append(expo)
    f1 = Polynomial(f.n, one_terms)
    f_gt1 = Polynomial(f.n, high_terms)
    if below or f1.is_zero():
        return SwhStructure(f1, f_gt1, False, sorted(below))
    from . import localalg
    try:  # cached only when f1 is f: the one record is f's
        if f1 == f:
            localalg.milnor_algebra(f)
        else:
            localalg._certified_algebra(
                f1, sum(1 - 2 * wi for wi in ws) // min(ws) + 3)
    except NonIsolatedError:
        return SwhStructure(f1, f_gt1, False, [])
    return SwhStructure(f1, f_gt1, True, [])
