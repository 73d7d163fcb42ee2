"""Dense exact linear algebra over a FieldSpec.

Matrices are row-major lists of lists of element codes.  Pivoting is
first-nonzero, free columns are processed in ascending order, so reduced
forms and null-space bases are deterministic and reproducible byte for
byte.
"""

from __future__ import annotations

from .fields import FieldSpec


class Mat:
    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: FieldSpec, rows):
        rows = [list(r) for r in rows]
        if not rows:
            raise ValueError("matrix needs at least one row")
        ncols = len(rows[0])
        q = field.q
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            for x in r:
                if not isinstance(x, int) or not 0 <= x < q:
                    raise ValueError(f"entry {x!r} is not a GF({q}) code")
        self.field = field
        self.nrows = len(rows)
        self.ncols = ncols
        self.rows = rows

    @classmethod
    def _new(cls, field, rows):
        # trusted fast path: takes ownership of rows, skips validation
        m = object.__new__(cls)
        m.field = field
        m.nrows = len(rows)
        m.ncols = len(rows[0])
        m.rows = rows
        return m

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field == other.field
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, tuple(tuple(r) for r in self.rows)))

    def __repr__(self):
        return f"Mat({self.field!r}, {self.rows})"

    def key(self):
        """Hashable content key, used for group element lookup."""
        return tuple(x for row in self.rows for x in row)


def identity(field: FieldSpec, n: int) -> Mat:
    return Mat._new(field, [[1 if i == j else 0 for j in range(n)]
                            for i in range(n)])


def transpose(a: Mat) -> Mat:
    return Mat._new(a.field, [list(col) for col in zip(*a.rows)])


def mat_mul(a: Mat, b: Mat) -> Mat:
    if a.field != b.field:
        raise ValueError("field mismatch")
    if a.ncols != b.nrows:
        raise ValueError(f"shape mismatch {a.nrows}x{a.ncols} @ {b.nrows}x{b.ncols}")
    # row i combines b's rows, listed by their nonzeros, by row i of a
    comb, n = a.field.row_comb, b.ncols
    nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in b.rows]
    return Mat._new(a.field, [comb(arow, nonzero, n) for arow in a.rows])


def mat_vec(a: Mat, v) -> list:
    if len(v) != a.ncols:
        raise ValueError("vector length mismatch")
    # a v is a times the one-column matrix v
    comb, col = a.field.row_comb, [[(0, y)] if y else () for y in v]
    return [comb(row, col, 1)[0] for row in a.rows]


def rref(a: Mat):
    """Reduced row echelon form.

    Returns (R, rank, pivot_columns).  The pivot in each column is the first
    nonzero entry scanning rows top down, which fixes the output uniquely.
    """
    field = a.field
    row_sub, mul, inv = field.row_sub, field.mul, field.inv
    rows = [list(r) for r in a.rows]
    nrows, ncols = a.nrows, a.ncols
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pr = rows[r]
        piv_inv = inv(pr[c])
        if piv_inv != 1:
            rows[r] = pr = [mul(piv_inv, x) for x in pr]
        tail = pr[c:]  # pr is zero left of c
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                ri = rows[i]
                rows[i] = ri[:c] + row_sub(ri[c:], f, tail)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return Mat._new(field, rows), r, tuple(pivots)


def rank(a: Mat) -> int:
    return rref(a)[1]


def null_space(a: Mat):
    """Basis of the right kernel, as a list of column vectors.

    One basis vector per free column, in ascending free-column order, with
    the free coordinate set to 1.  a v = 0 holds exactly for each.
    """
    R, _, pivots = rref(a)
    neg = a.field.neg
    pivot_set = set(pivots)
    basis = []
    for j in range(a.ncols):
        if j in pivot_set:
            continue
        vec = [0] * a.ncols
        vec[j] = 1
        for k, pc in enumerate(pivots):
            vec[pc] = neg(R.rows[k][j])
        basis.append(vec)
    return basis


def mat_inv(a: Mat) -> Mat:
    if a.nrows != a.ncols:
        raise ValueError("inverse of non-square matrix")
    n = a.nrows
    aug = Mat._new(a.field, [list(r) + [1 if i == j else 0 for j in range(n)]
                             for i, r in enumerate(a.rows)])
    R, rk, _ = rref(aug)
    if rk < n or any(R.rows[i][i] != 1 for i in range(n)):
        raise ZeroDivisionError("matrix is singular")
    return Mat._new(a.field, [row[n:] for row in R.rows])
