"""Dense exact linear algebra on hand-checked examples."""

import random

import pytest

import symmpow as sp
from symmpow import linalg
from symmpow.linalg import (identity, mat_inv, mat_mul, mat_vec, null_space,
                            rank, ratio, rref, transpose)

from oracles import mat_mul_by_entries, null_space_by_entries, rref_by_entries

F5 = sp.make_field(5)
F7 = sp.make_field(7)


def test_constructors_and_equality():
    a = sp.Mat(F5, [[1, 2], [3, 4]])
    assert a == sp.Mat(F5, [[1, 2], [3, 4]])
    assert a != sp.Mat(F5, [[1, 2], [3, 0]])
    assert identity(F5, 2).rows == [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        sp.Mat(F5, [[1, 7]])  # out of range
    with pytest.raises(ValueError):
        sp.Mat(F5, [[1, 2], [3]])  # ragged


def test_product_against_hand_calculation():
    a = sp.Mat(F5, [[1, 2], [3, 4]])
    b = sp.Mat(F5, [[0, 1], [1, 1]])
    # [[1*0+2*1, 1*1+2*1], [3*0+4*1, 3*1+4*1]] = [[2,3],[4,2]] mod 5
    assert mat_mul(a, b).rows == [[2, 3], [4, 2]]
    assert transpose(a).rows == [[1, 3], [2, 4]]
    assert mat_vec(a, [1, 1]) == [3, 2]


def test_rref_rank_one_example():
    # second row is 3 * first row over GF(5)
    a = sp.Mat(F5, [[2, 4], [1, 2]])
    r, rk, pivots = rref(a)
    assert r.rows == [[1, 2], [0, 0]]
    assert rk == 1
    assert list(pivots) == [0]
    assert rank(a) == 1


def test_null_space_hand_example():
    # x0 + 2 x1 = 0 over GF(5); free coordinate set to 1 gives (3, 1)
    a = sp.Mat(F5, [[2, 4], [1, 2]])
    basis = null_space(a)
    assert basis == [[3, 1]]
    for v in basis:
        assert all(c == 0 for c in mat_vec(a, v))


def test_null_space_free_coordinate_convention():
    # one pivot at column 0, free columns 1 and 2, ascending order
    a = sp.Mat(F5, [[1, 1, 4]])
    basis = null_space(a)
    assert basis == [[4, 1, 0], [1, 0, 1]]


def test_rank_nullity_on_fixed_matrices():
    mats = [
        sp.Mat(F7, [[1, 2, 3], [4, 5, 6], [0, 0, 0]]),
        sp.Mat(F7, [[1, 0], [0, 1], [1, 1]]),
        sp.Mat(F7, [[0, 0, 0, 0], [0, 0, 0, 0]]),
        identity(F7, 3),
    ]
    for a in mats:
        assert rank(a) + len(null_space(a)) == a.ncols


def test_inverse():
    a = sp.Mat(F5, [[1, 2], [3, 4]])
    ainv = mat_inv(a)
    assert mat_mul(a, ainv) == identity(F5, 2)
    assert mat_mul(ainv, a) == identity(F5, 2)
    with pytest.raises(ZeroDivisionError):
        mat_inv(sp.Mat(F5, [[2, 4], [1, 2]]))


def test_rref_idempotent_and_deterministic():
    a = sp.Mat(F7, [[3, 1, 4], [1, 5, 2], [4, 6, 6]])
    r1, _, piv1 = rref(a)
    r2, _, piv2 = rref(a)
    assert r1 == r2 and list(piv1) == list(piv2)
    r3, _, _ = rref(r1)
    assert r3 == r1


# Packed rows: over GF(p) rref, mat_mul and the hom solver hold a row as
# one int with a 32-bit slot per entry.

def test_packed_rows_round_trip():
    edge = [linalg._SLOT_MAX, 0, 1, linalg._SLOT_MAX - 1]
    for rows in ([], [[0]], [[0] * 5, [0] * 5], [[linalg._SLOT_MAX]],
                 [edge, edge[::-1]], [[7], [0], [linalg._SLOT_MAX]]):
        n = len(rows[0]) if rows else 3
        packed = linalg._pack(rows)
        assert len(packed) == len(rows)
        assert [list(a) for a in linalg._slots(packed, n)] == rows
    # entry j sits in slot j, the bits 32j..32j+31, whatever the host order
    assert linalg._pack([[1, 2, 3]]) == [1 + (2 << 32) + (3 << 64)]
    assert linalg._pack([[linalg._SLOT_MAX]]) == [(1 << 32) - 1]


def test_packed_rows_round_trip_with_byte_swap(monkeypatch):
    # the big-endian branch swaps on the way in and on the way out
    monkeypatch.setattr(linalg, "_BIG_ENDIAN", True)
    rows = [[linalg._SLOT_MAX, 0, 5], [1, 2, 3]]
    assert [list(a) for a in linalg._slots(linalg._pack(rows), 3)] == rows


def test_packed_ops_unpack_reduces_and_keeps_width():
    ops = linalg._row_ops(F5, 1, 8)
    assert ops is not linalg._row_ops(F5, 1, 1)  # wide rows are packed
    rows = [[4, 0, 3, 0, 0, 0, 0, 0], [0] * 8]
    assert ops.unpack(ops.pack(rows), 8) == rows
    # x - f*y is x + (p - f)*y, left unreduced until read
    x, y = ops.pack([[1] * 8, [4] * 8])
    z = ops.sub(x, 4, y, 0)
    assert ops.column([z], 3) == [0] and ops.unpack([z], 8) == [[0] * 8]


def test_list_rows_where_a_slot_cannot_hold_the_products():
    # (p - 1)^2 leaves no room in 32 bits, and extension fields are not
    # packed; both keep lists of codes however wide the rows
    for field in (sp.make_field(2 ** 31 - 1), sp.make_field(5, 2)):
        assert linalg._row_ops(field, 1, 100) is linalg._row_ops(field, 1, 1)
    f8191 = sp.make_field(8191)
    assert linalg._row_ops(f8191, 65, 100) is linalg._row_ops(f8191, 1, 1)


def test_gf8191_rref_renormalizes_rows_mid_elimination():
    # at p = 8191 a 32-bit slot takes 64 updates by reduced rows, and these
    # eliminations have 80 pivot steps
    field = sp.make_field(8191)
    rng = random.Random(8191)
    x = sp.Mat(field, [[rng.randrange(8191) for _ in range(80)]
                       for _ in range(100)])
    y = sp.Mat(field, [[rng.randrange(8191) for _ in range(100)]
                       for _ in range(80)])
    a = sp.Mat(field, mat_mul_by_entries(x, y))
    ops = linalg._row_ops(field, 1, 100)
    assert ops is not linalg._row_ops(field, 1, 1) and ops.room == 64
    reduced, rk, pivots = rref(a)
    assert (reduced.rows, rk, list(pivots)) == rref_by_entries(a)
    assert rk == 80
    assert null_space(a) == null_space_by_entries(a)
    # the worst case for one slot: the last row takes the largest update,
    # (p - 1)^2, into its last slot at every one of 80 pivot steps
    rows = [[int(i == c) for i in range(99)] + [8190] for c in range(80)]
    worst = sp.Mat(field, rows + [[1] * 80 + [0] * 20])
    reduced, rk, pivots = rref(worst)
    assert (reduced.rows, rk, list(pivots)) == rref_by_entries(worst)


@pytest.mark.parametrize("p, f", [(2, 2), (3, 3), (5, 3), (2, 8), (3, 6)])
def test_table_row_kernels_match_the_per_entry_oracles(p, f):
    # GF(4), GF(27), GF(125) and GF(256) run the row kernels on full
    # tables; GF(729), past the bound, on the element operations
    field = sp.make_field(p, f)
    assert (field.mul_table is None) == (field.q > 256)
    rng = random.Random(field.q)

    def entry():  # zeros and q - 1 often
        return rng.choice([0, 0, field.q - 1, rng.randrange(field.q)])

    for nrows, inner, ncols in [(7, 3, 9), (12, 12, 12), (5, 9, 1),
                                (1, 4, 20)]:
        x = sp.Mat(field, [[entry() for _ in range(inner)]
                           for _ in range(nrows)])
        y = sp.Mat(field, [[entry() for _ in range(ncols)]
                           for _ in range(inner)])
        a = sp.Mat(field, mat_mul_by_entries(x, y))  # rank <= inner
        assert mat_mul(x, y) == a
        v = [entry() for _ in range(ncols)]
        assert mat_vec(a, v) == [row[0] for row in mat_mul_by_entries(
            a, sp.Mat(field, [[c] for c in v]))]
        reduced, rk, pivots = rref(a)
        assert (reduced.rows, rk, list(pivots)) == rref_by_entries(a)
        assert null_space(a) == null_space_by_entries(a)


@pytest.mark.parametrize("p, f", [(7, 1), (3, 2), (2, 17)])
def test_ratio_reads_the_scalar_of_a_proportional_vector(p, f):
    # c = 0, 1, q - 1 and a random c, on x with two leading zeros; y moved
    # off x's line at x's first nonzero entry, its last, or a zero of x
    # gets None
    field = sp.make_field(p, f)
    rng = random.Random(field.q)
    for _ in range(20):
        x = [0, 0] + [rng.randrange(1, field.q) for _ in range(4)]
        for c in [0, 1, field.q - 1, rng.randrange(field.q)]:
            y = [field.mul(c, xi) for xi in x]
            assert ratio(field, y, x) == c
            for i in (2, 5, 0):
                off = list(y)
                off[i] = field.add(off[i], 1)
                assert ratio(field, off, x) is None
