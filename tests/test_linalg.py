"""Dense exact linear algebra: rank and nullspace, checked against their
defining properties and a reference elimination."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from singspec.linalg import nullspace, rank


def ref_rank(rows):
    """Rank by plain forward elimination, independent of singspec."""
    mat = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, len(mat)):
            q = mat[i][col] / mat[r][col]
            mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def apply(rows, v):
    return [sum(Fraction(a) * b for a, b in zip(row, v)) for row in rows]


@st.composite
def matrices(draw):
    """An integer matrix, possibly with no rows, and its column count."""
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n,
                                  max_size=n), max_size=5))
    return rows, n


def check_nullspace(rows, n):
    basis = nullspace(rows, n)
    for v in basis:
        assert len(v) == n
        assert all(x == 0 for x in apply(rows, v))
    assert not basis or ref_rank(basis) == len(basis)
    assert rank(rows, n) + len(basis) == n
    return basis


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_rank_nullspace_properties(case):
    rows, n = case
    assert rank(rows, n) == ref_rank(rows)
    check_nullspace(rows, n)


def test_zero_rows():
    assert rank([], 3) == 0
    assert check_nullspace([], 2) == [[1, 0], [0, 1]]
    assert rank([[0, 0, 0], [0, 0, 0]], 3) == 0
    assert len(check_nullspace([[0, 0, 0]], 3)) == 3


def test_underdetermined():
    rows = [[1, 2, 3], [2, 4, 7]]
    assert rank(rows, 3) == 2
    assert check_nullspace(rows, 3) == [[-2, 1, 0]]


def test_inconsistent():
    rows = [[1, 1], [2, 2], [1, -1]]
    assert rank(rows, 2) == 2
    assert check_nullspace(rows, 2) == []
