"""Randomized algebraic invariants.

Marked `properties`; the whole file must run standalone in well under
two minutes, so example counts stay modest and all heavy objects are
built once at module load.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import symmpow as sp
from symmpow.linalg import (Mat, mat_inv, mat_mul, mat_vec, null_space, rank,
                            rref)
from symmpow.reps import monomial_basis

from oracles import (apply_to_poly, hom_basis_by_kronecker,
                     mat_mul_by_entries, mat_vec_by_entries,
                     null_space_by_entries, rref_by_entries)

pytestmark = pytest.mark.properties

COMMON = settings(deadline=None, max_examples=60,
                  suppress_health_check=[HealthCheck.too_slow])

FIELDS = (
    sp.make_field(2),
    sp.make_field(5),
    sp.make_field(7),
    sp.make_field(2, 2),
    sp.make_field(3, 2),
    sp.make_field(2, 3),
)


def _build(name):
    if name == "s3":
        F = sp.make_field(7)
        return sp.build_group([sp.Mat(F, [[0, 1], [1, 0]]),
                               sp.Mat(F, [[0, 6], [1, 6]])])
    F = sp.make_field(5)
    return sp.build_group([sp.Mat(F, [[2, 0], [0, 3]]),
                           sp.Mat(F, [[0, 4], [1, 0]])])


S3 = _build("s3")
Q8 = _build("q8")
S3_V = sp.defining_rep(S3)
Q8_V = sp.defining_rep(Q8)
SYM_CACHE = {(g.order, m): sp.sym_power(v, m)
             for g, v in ((S3, S3_V), (Q8, Q8_V)) for m in (2, 3)}

PERM_F = sp.make_field(7)
PERM_GROUP = sp.build_group([sp.Mat(PERM_F, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
                             sp.Mat(PERM_F, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])])
PERM = sp.defining_rep(PERM_GROUP)
S3_STD = sp.paired_rep(S3, [sp.Mat(PERM_F, [[0, 1], [1, 0]]),
                            sp.Mat(PERM_F, [[0, 6], [1, 6]])])


def _modules_and_sym_powers(v, images):
    """v's modules given by generator images, the trivial module twice
    over (not cyclic, so spinning it takes two seeds), and Sym^m(v) for
    m <= 4."""
    mods = [sp.paired_rep(v.group, [sp.Mat(v.field, g) for g in gens])
            for gens in images]
    twice = sp.paired_rep(v.group, [sp.identity(v.field, 2)] * len(v.gens))
    return mods + [twice] + [sp.sym_power(v, m) for m in range(1, 5)]


# Same-group families of modules over GF(7), GF(4) and GF(25): the order-6
# group in characteristic 7, SL(2, 2) in the characteristic dividing its
# order, and Q8 pushed into GF(25).
SL22 = sp.build_group([sp.Mat(sp.make_field(2), [[1, 1], [0, 1]]),
                       sp.Mat(sp.make_field(2), [[1, 0], [1, 1]])])
HOM_FAMILIES = {
    "s3_gf7": _modules_and_sym_powers(
        S3_V, [([[1]], [[1]]), ([[6]], [[1]])]),
    "sl2_2_gf4": [sp.extend_scalars(r, 2) for r in _modules_and_sym_powers(
        sp.defining_rep(SL22), [([[1]], [[1]])])],
    "q8_gf25": [sp.extend_scalars(r, 2) for r in _modules_and_sym_powers(
        Q8_V, [([[1]], [[4]]), ([[4]], [[4]])])],
}


@COMMON
@given(data=st.data(), fi=st.integers(0, len(FIELDS) - 1))
def test_field_axioms(data, fi):
    F = FIELDS[fi]
    a = data.draw(st.integers(0, F.q - 1))
    b = data.draw(st.integers(0, F.q - 1))
    c = data.draw(st.integers(0, F.q - 1))
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, F.neg(a)) == 0
    assert F.sub(a, b) == F.add(a, F.neg(b))
    if a:
        assert F.mul(a, F.inv(a)) == 1
    # the Frobenius map is additive in characteristic p
    assert F.pow(F.add(a, b), F.p) == F.add(F.pow(a, F.p), F.pow(b, F.p))


# Widths up to 24 reach both row forms of linalg: rows of 6 entries or
# more over GF(p) are packed, narrower ones stay lists.
@COMMON
@given(data=st.data(),
       nrows=st.integers(1, 24), ncols=st.integers(1, 24))
def test_rank_nullity_and_rref_shape(data, nrows, ncols):
    F = sp.make_field(5)
    rows = [[data.draw(st.integers(0, 4)) for _ in range(ncols)]
            for _ in range(nrows)]
    a = Mat(F, rows)
    basis = null_space(a)
    assert rank(a) + len(basis) == ncols
    for v in basis:
        assert all(x == 0 for x in mat_vec(a, v))
    r, rk, pivots = rref(a)
    assert rk == rank(a) == len(pivots)
    r2, _, _ = rref(r)
    assert r2 == r
    for j, p in enumerate(pivots):
        col = [r.rows[i][p] for i in range(nrows)]
        assert col[j] == 1 and all(x == 0 for i, x in enumerate(col) if i != j)


# GF(2^31 - 1) makes the prime kernels' unreduced sums large ints; it
# and GF(25) keep list rows at every width
KERNEL_FIELDS = (sp.make_field(2), sp.make_field(5),
                 sp.make_field(2 ** 31 - 1), sp.make_field(5, 2))


@COMMON
@given(data=st.data(), fi=st.integers(0, len(KERNEL_FIELDS) - 1),
       nrows=st.integers(1, 24), inner=st.integers(1, 24),
       ncols=st.integers(1, 24))
def test_row_kernels_match_per_element_reference(data, fi, nrows, inner,
                                                 ncols):
    F = KERNEL_FIELDS[fi]
    # zeros drawn often, for the zero skipping, and a as a product through
    # a random inner dimension, so that it is often rank deficient
    entry = st.one_of(st.just(0), st.just(F.q - 1), st.integers(0, F.q - 1))

    def matrix(r, c):
        row = st.lists(entry, min_size=c, max_size=c)
        return Mat(F, data.draw(st.lists(row, min_size=r, max_size=r)))

    x, y, b = matrix(nrows, inner), matrix(inner, ncols), matrix(ncols, inner)
    a = Mat(F, mat_mul_by_entries(x, y))
    assert mat_mul(x, y).rows == a.rows
    assert mat_mul(a, b).rows == mat_mul_by_entries(a, b)
    v = [data.draw(entry) for _ in range(ncols)]
    assert mat_vec(a, v) == mat_vec_by_entries(a, v)
    reduced, rk, pivots = rref(a)
    assert (reduced.rows, rk, list(pivots)) == rref_by_entries(a)
    assert null_space(a) == null_space_by_entries(a)


@COMMON
@given(data=st.data(), m=st.sampled_from([2, 3]),
       which=st.sampled_from(["s3", "q8"]))
def test_sym_power_is_a_homomorphism(data, m, which):
    group = S3 if which == "s3" else Q8
    sym = SYM_CACHE[(group.order, m)]
    a = data.draw(st.integers(0, group.order - 1))
    b = data.draw(st.integers(0, group.order - 1))
    assert mat_mul(sym.images[a], sym.images[b]) \
        == sym.images[group.prod(a, b)]


@COMMON
@given(data=st.data(), g=st.integers(0, 5))
def test_apply_to_poly_is_multiplicative(data, g):
    F = S3.field
    basis1 = monomial_basis(2, 1)
    coeffs_a = [data.draw(st.integers(0, 6)) for _ in range(2)]
    coeffs_b = [data.draw(st.integers(0, 6)) for _ in range(3)]
    fa = sp.PolyVec(F, basis1, coeffs_a)
    fb = sp.PolyVec(F, monomial_basis(2, 2), coeffs_b)
    lhs = apply_to_poly(g, sp.poly_mul(fa, fb), S3_V)
    rhs = sp.poly_mul(apply_to_poly(g, fa, S3_V),
                      apply_to_poly(g, fb, S3_V))
    assert lhs == rhs


@COMMON
@given(g=st.integers(0, 7))
def test_left_translation_permutes_cosets(g):
    seen = {Q8.coset_of[Q8.prod(g, Q8.transversal[c])]
            for c in range(Q8.coset_count)}
    assert seen == set(range(Q8.coset_count))


@COMMON
@given(seed=st.integers(0, 10_000))
def test_meataxe_verdict_ignores_seed(seed):
    assert sp.is_irreducible(S3_STD, seed=seed).irreducible
    assert sp.is_irreducible(Q8_V, seed=seed).irreducible
    res = sp.is_irreducible(PERM, seed=seed)
    assert not res.irreducible
    assert 0 < res.sub_rep.dim < 3


def _in_random_basis(r, rng):
    """r with every generator image conjugated by one random invertible
    matrix over r's field."""
    field, n = r.field, r.dim
    while True:
        p = Mat(field, [[rng.randrange(field.q) for _ in range(n)]
                        for _ in range(n)])
        if rank(p) == n:
            break
    p_inv = mat_inv(p)
    return sp.Rep(r.group, [mat_mul(mat_mul(p, g), p_inv) for g in r.gens])


@settings(deadline=None, max_examples=30,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), family=st.sampled_from(sorted(HOM_FAMILIES)),
       seed=st.integers(0, 10_000))
@pytest.mark.parametrize("shape", ["source smaller", "source larger",
                                   "endomorphisms"])
def test_hom_space_is_the_kronecker_basis(shape, data, family, seed):
    # the spin solver spins the smaller side, transposing when that is
    # the target; either way the basis must be the oracle's, element for
    # element
    reps = HOM_FAMILIES[family]
    if shape == "endomorphisms":
        pairs = [(u, u) for u in reps]
    elif shape == "source smaller":
        pairs = [(u, w) for u in reps for w in reps if u.dim < w.dim]
    else:
        pairs = [(u, w) for u in reps for w in reps if u.dim > w.dim]
    u, w = data.draw(st.sampled_from(pairs))
    rng = random.Random(seed)
    if w is u:
        u = w = _in_random_basis(u, rng)
    else:
        u, w = _in_random_basis(u, rng), _in_random_basis(w, rng)
    expected = hom_basis_by_kronecker(u.field, list(zip(u.gens, w.gens)),
                                      u.dim, w.dim)
    assert sp.hom_space(u, w) == expected


def _direct_sum(reps):
    """The block-diagonal sum of reps of one group."""
    n = sum(r.dim for r in reps)
    gens = []
    for images in zip(*(r.gens for r in reps)):
        rows, off = [], 0
        for g in images:
            rows += [[0] * off + row + [0] * (n - off - g.nrows)
                     for row in g.rows]
            off += g.nrows
        gens.append(Mat(reps[0].field, rows))
    return sp.Rep(reps[0].group, gens)


# Pairs whose larger side has dimension >= 9, so that the spin solver packs
# its rows: Sym^m of SL(2, 3) over GF(3) at m = 8..10 and of the signed
# permutation group B3 over GF(7) at m = 3, 4.  Sym^2 + k + k is not
# cyclic (k + k is not), so its spin needs more than one seed.
F3 = sp.make_field(3)
SL23 = sp.build_group([Mat(F3, [[1, 1], [0, 1]]), Mat(F3, [[1, 0], [1, 1]])])
SL23_SYM = {m: sp.sym_power(sp.defining_rep(SL23), m)
            for m in (0, 1, 2, 4, 8, 9, 10)}
SL23_SEEDS = _direct_sum([SL23_SYM[2], SL23_SYM[0], SL23_SYM[0]])
B3_F = sp.make_field(7)
B3 = sp.build_group([Mat(B3_F, g) for g in (
    [[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
    [[6, 0, 0], [0, 1, 0], [0, 0, 1]])])
B3_SYM = {m: sp.sym_power(sp.defining_rep(B3), m) for m in range(5)}
PACKED_HOM_PAIRS = {
    "several seeds": [(SL23_SEEDS, SL23_SYM[8]), (SL23_SEEDS, SL23_SYM[10])],
    "source larger": [(SL23_SYM[10], SL23_SEEDS), (SL23_SYM[9], SL23_SYM[1]),
                      (B3_SYM[4], B3_SYM[2]), (B3_SYM[3], B3_SYM[1])],
    "source smaller": [(SL23_SYM[4], SL23_SYM[8]), (B3_SYM[1], B3_SYM[3]),
                       (B3_SYM[2], B3_SYM[4])],
    "K cut to 0": [(SL23_SYM[1], SL23_SYM[8]), (SL23_SEEDS, SL23_SYM[9]),
                   (B3_SYM[0], B3_SYM[3]), (SL23_SYM[9], SL23_SEEDS)],
}


@settings(deadline=None, max_examples=8,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), seed=st.integers(0, 10_000))
@pytest.mark.parametrize("case", sorted(PACKED_HOM_PAIRS))
def test_packed_spin_is_the_kronecker_basis(case, data, seed):
    u, w = data.draw(st.sampled_from(PACKED_HOM_PAIRS[case]))
    assert max(u.dim, w.dim) >= 9
    rng = random.Random(seed)
    u, w = _in_random_basis(u, rng), _in_random_basis(w, rng)
    expected = hom_basis_by_kronecker(u.field, list(zip(u.gens, w.gens)),
                                      u.dim, w.dim)
    assert bool(expected) == (case != "K cut to 0")
    assert sp.hom_space(u, w) == expected
