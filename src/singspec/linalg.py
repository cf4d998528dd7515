"""Exact linear algebra over the rationals and integer lattice utilities.

The sparse incremental row span is the one elimination routine: it is
the workhorse for truncated local algebra quotients, and the dense
rank, nullspace and solve for small systems (facet normals, lattice
coordinates) run on it too.  Smith normal form solves the separate
integer problem of lattice bases.
"""

from fractions import Fraction


def _row_span(rows):
    """RowSpan of dense rational rows; column j is entry j."""
    span = RowSpan()
    for row in rows:
        span.insert({j: Fraction(x) for j, x in enumerate(row) if x})
    return span


def rank(rows, n):
    """Rank of a list of length-n rational vectors."""
    return _row_span(rows).rank()


def nullspace(rows, n):
    """Basis of {v : M v = 0} for the matrix with the given rows: one
    vector per non-pivot column fc, with 1 at fc and zero at the other
    non-pivot columns, read off the reduced row-echelon form."""
    reduced = _row_span(rows).rows
    basis = []
    for fc in range(n):
        if fc not in reduced:
            vec = [Fraction(0)] * n
            vec[fc] = Fraction(1)
            for pc, row in reduced.items():
                vec[pc] = -row.get(fc, Fraction(0))
            basis.append(vec)
    return basis


def solve(rows, rhs):
    """Solve M x = rhs exactly; returns None if inconsistent.

    When the system is underdetermined the solution with every non-pivot
    unknown set to zero is returned."""
    n = len(rows[0])
    reduced = _row_span(list(row) + [b] for row, b in zip(rows, rhs)).rows
    if n in reduced:  # a row reduced to 0 = 1
        return None
    x = [Fraction(0)] * n
    for pc, row in reduced.items():
        x[pc] = row.get(n, Fraction(0))
    return x


def smith_normal_form(matrix):
    """Integer Smith normal form: returns (U, S, W) with M = U S W,
    U and W unimodular, S diagonal with the usual divisibility chain."""
    S = [list(map(int, row)) for row in matrix]
    m = len(S)
    n = len(S[0]) if m else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    W = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in S:
            row[i], row[j] = row[j], row[i]
        W[i], W[j] = W[j], W[i]

    def add_row(i, j, q):
        # row_i += q * row_j ; compensate in U
        S[i] = [a + q * b for a, b in zip(S[i], S[j])]
        U[i] = [a + q * b for a, b in zip(U[i], U[j])]

    def add_col(i, j, q):
        # col_i += q * col_j ; compensate in W (acting on the right)
        for row in S:
            row[i] += q * row[j]
        W[j] = [a - q * b for a, b in zip(W[j], W[i])]

    t = 0
    while t < min(m, n):
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if S[i][j] != 0 and (best is None or abs(S[i][j]) < best):
                    best = abs(S[i][j])
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        done = False
        while not done:
            done = True
            for i in range(t + 1, m):
                if S[i][t] != 0:
                    q = S[i][t] // S[t][t]
                    add_row(i, t, -q)
                    if S[i][t] != 0:
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, n):
                if S[t][j] != 0:
                    q = S[t][j] // S[t][t]
                    add_col(j, t, -q)
                    if S[t][j] != 0:
                        swap_cols(t, j)
                        done = False
        if S[t][t] < 0:
            S[t] = [-v for v in S[t]]
            U[t] = [-v for v in U[t]]
        t += 1
    return U, S, W


def saturated_lattice_basis(rows, n):
    """Basis of span_Q(rows) intersect Z^n, as integer vectors."""
    rows = [list(map(int, r)) for r in rows]
    if not rows:
        return []
    _, S, W = smith_normal_form(rows)
    d = sum(1 for i in range(min(len(S), n)) if S[i][i] != 0)
    return [list(W[i]) for i in range(d)]


class RowSpan:
    """Incrementally built reduced row span of sparse rational vectors.

    Columns are integers ordered by `<`; the pivot of a row is its
    smallest column.  Rows are kept fully reduced against each other,
    with pivot coefficient 1, so reduction gives canonical normal forms.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = {}

    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        """Normal form of a sparse {col: coeff} vector; input not mutated."""
        vec = {c: v for c, v in vec.items() if v != 0}
        result = {}
        while vec:
            col = min(vec)
            coeff = vec.pop(col)
            row = self.rows.get(col)
            if row is None:
                result[col] = coeff
                continue
            for c, v in row.items():
                if c == col:
                    continue
                newv = vec.get(c, Fraction(0)) - coeff * v
                if newv:
                    vec[c] = newv
                elif c in vec:
                    del vec[c]
        return result

    def insert(self, vec):
        """Add a vector to the span; returns True if the rank grew."""
        residue = self.reduce(vec)
        if not residue:
            return False
        piv = min(residue)
        inv = 1 / residue[piv]
        row = {c: v * inv for c, v in residue.items()}
        # back-substitute into existing rows so the span stays fully reduced
        for pcol, prow in self.rows.items():
            factor = prow.get(piv)
            if factor:
                for c, v in row.items():
                    newv = prow.get(c, Fraction(0)) - factor * v
                    if newv:
                        prow[c] = newv
                    elif c in prow:
                        del prow[c]
        self.rows[piv] = row
        return True

    def contains(self, vec):
        return not self.reduce(vec)

    def pivot_columns(self):
        return set(self.rows)

    def copy(self):
        clone = RowSpan()
        clone.rows = {p: dict(r) for p, r in self.rows.items()}
        return clone
