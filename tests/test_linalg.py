"""Dense exact linear algebra on hand-checked examples."""

import pytest

import symmpow as sp
from symmpow.linalg import (identity, mat_inv, mat_mul, mat_vec, null_space,
                            rank, rref, transpose)

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
