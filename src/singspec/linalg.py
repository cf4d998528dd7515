"""Exact linear algebra over the rationals.

The sparse incremental row span is the one elimination routine: it is
the workhorse for truncated local algebra quotients, and the dense rank
and nullspace for small systems (face dimensions, facet normals) run on
it too.
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
