"""Dense exact linear algebra over a FieldSpec.

Matrices are row-major lists of lists of element codes.  Pivoting is
first-nonzero, free columns are processed in ascending order, so reduced
forms and null-space bases are deterministic and reproducible byte for
byte.

``rref``, ``mat_mul`` and the hom solver run on the row operations that
``_row_ops`` picks.  Over GF(p) a row x_0..x_{n-1} packs into the int
sum x_j 2^(32 j) (Kronecker substitution), so x - f*y is x + (p - f)*y, one
big-int multiply-add in C.  Slots stay unreduced until a pivot search reads
one mod p or a row is unpacked.  An update by a reduced row adds at most
(p - 1)^2 to a slot, so an elimination renormalizes (reduces and repacks)
its rows every (2^32 - p) // (p - 1)^2 pivot steps (64 at p = 8191), before
a slot could carry into the next: simultaneous modular reduction (Dumas,
Fousse and Salvy, J. Symbolic Comput. 46, 2011), packed as the C MeatAxe
packs rows.  Extension fields, p with no room for (p - 1)^2 in a slot,
rows under _PACK_MIN_WIDTH entries and eliminations of fewer rows keep
lists of codes.
"""

from __future__ import annotations

import sys
from array import array
from collections import namedtuple
from operator import mul

from .fields import FieldSpec

_SLOT_MAX = (1 << 32) - 1
_SLOT_CODE = next(t for t in "IL" if array(t).itemsize == 4)  # 4-byte slots
_BIG_ENDIAN = sys.byteorder == "big"
_PACK_MIN_WIDTH = 6  # narrower rows are faster as lists (CHANGES.md)


def _little(a: array) -> array:  # a with little-endian slots
    if _BIG_ENDIAN:
        a.byteswap()
    return a


def _pack(rows) -> list:
    """Rows of codes, each < 2^32, as ints with entry j in slot j."""
    return [int.from_bytes(_little(array(_SLOT_CODE, row)), "little")
            for row in rows]


def _slots(xs, n: int) -> list:
    """The n slots, unreduced, of each packed row in xs."""
    return [_little(array(_SLOT_CODE, x.to_bytes(4 * n, "little")))
            for x in xs]


# Row operations of one row form, on lists of rows except sub: pack and
# unpack(xs, n) convert n-wide code lists and rows; column(xs, j) is entry j
# of each, reduced; sub(x, f, y, start) is x - f*y for y zero left of start;
# scale(xs, s, n) is each s*x, reduced; combs(coeff_rows, ys) is sum(c*y)
# over ys for each coefficient row.  A reduced row takes room updates by
# reduced rows, a combination of t rows counting as t, before scale by 1.
_Ops = namedtuple("_Ops", "pack unpack column sub scale combs room")


def _packed_ops(p: int) -> _Ops:
    def unpack(xs, n):
        return [[v % p for v in a] for a in _slots(xs, n)]

    def column(xs, j):
        return [(x >> 32 * j & _SLOT_MAX) % p for x in xs]

    def sub(x, f, y, start):
        return x + (p - f) * y

    def scale(xs, s, n):
        return _pack([[v * s % p for v in a] for a in _slots(xs, n)])

    def combs(coeff_rows, ys):
        return [sum(map(mul, cs, ys)) for cs in coeff_rows]

    return _Ops(_pack, unpack, column, sub, scale, combs,
                (_SLOT_MAX - (p - 1)) // (p - 1) ** 2)


def _list_ops(field: FieldSpec) -> _Ops:
    row_sub, row_comb, fmul, p = (field.row_sub, field.row_comb, field.mul,
                                  field.p)

    def sub(x, f, y, start):
        if start:
            return x[:start] + row_sub(x[start:], f, y[start:])
        return row_sub(x, f, y)

    def scale(xs, s, n):
        return xs if s == 1 else [[fmul(s, v) for v in x] for x in xs]

    def combs(coeff_rows, ys):
        if field.f == 1:  # one dot product per entry
            cols = list(zip(*ys))
            return [[sum(map(mul, cs, col)) % p for col in cols]
                    for cs in coeff_rows]
        nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in ys]
        return [row_comb(cs, nonzero, len(ys[0])) for cs in coeff_rows]

    return _Ops(list, lambda xs, n: xs, lambda xs, j: [x[j] for x in xs],
                sub, scale, combs, sys.maxsize)


_OPS: dict = {}  # (packed or None, list) ops, by p for GF(p), else by field


def _row_ops(field: FieldSpec, terms: int, width: int) -> _Ops:
    """Packed rows for width-wide rows over a prime field, when a
    combination of terms reduced rows fits a slot; list rows otherwise."""
    key = field.p if field.f == 1 else field
    if key not in _OPS:
        _OPS[key] = (_packed_ops(field.p) if field.f == 1 else None,
                     _list_ops(field))
    packed, listed = _OPS[key]
    if packed and width >= _PACK_MIN_WIDTH and terms <= packed.room:
        return packed
    return listed


def _eliminate(field: FieldSpec, ops: _Ops, rows: list, ncols: int,
               width: int):
    """Gauss-Jordan, in place, on width-wide rows of ops's form, pivoting
    in columns < ncols only.  Returns (rank, pivot columns)."""
    column, sub, scale, inv = ops.column, ops.sub, ops.scale, field.inv
    nrows = len(rows)
    pivots = []
    r = steps = 0  # a row takes at most one update per pivot step
    for c in range(ncols):
        col = column(rows, c)
        for i in range(r, nrows):
            if col[i]:
                break
        else:
            continue
        if steps == ops.room:
            rows[:], steps = scale(rows, 1, width), 0
        pr, = scale([rows[i]], inv(col[i]), width)
        rows[i], col[i] = rows[r], col[r]
        rows[r], col[r] = pr, 0
        for i, f in enumerate(col):
            if f:
                rows[i] = sub(rows[i], f, pr, c)
        steps += 1
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return r, pivots


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
    if a.field is not b.field and a.field != b.field:
        raise ValueError("field mismatch")
    if a.ncols != b.nrows:
        raise ValueError(f"shape mismatch {a.nrows}x{a.ncols} @ {b.nrows}x{b.ncols}")
    # row i combines b's rows by row i of a
    ops = _row_ops(a.field, b.nrows, b.ncols)
    return Mat._new(a.field, ops.unpack(ops.combs(a.rows, ops.pack(b.rows)),
                                        b.ncols))


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
    field, n = a.field, a.ncols
    ops = _row_ops(field, 1, min(a.nrows, n))  # few rows gain nothing
    rows = ops.pack(a.rows)
    r, pivots = _eliminate(field, ops, rows, n, n)
    return Mat._new(field, ops.unpack(rows, n)), r, tuple(pivots)


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
