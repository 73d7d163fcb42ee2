"""Representation building blocks: monomial bases, symmetric powers,
polynomial action, duals, scalar extension, central characters."""

import random
from itertools import product
from math import comb

import pytest

import symmpow as sp
from symmpow.fields import extend_field
from symmpow.linalg import (Mat, identity, mat_inv, mat_mul, mat_vec, rank,
                            transpose)
from symmpow.reps import _sym_image

from oracles import apply_to_poly, hom_defect_count, poly_mul_by_exponents


def test_monomial_basis_order():
    b = sp.monomial_basis(2, 2)
    assert b.exponents == ((2, 0), (1, 1), (0, 2))
    b32 = sp.monomial_basis(3, 2)
    assert b32.exponents == ((2, 0, 0), (1, 1, 0), (1, 0, 1),
                             (0, 2, 0), (0, 1, 1), (0, 0, 2))
    assert len(b32.exponents) == comb(3 + 2 - 1, 2)
    for i, e in enumerate(b32.exponents):
        assert b32.index[e] == i
    assert sp.monomial_basis(3, 0).exponents == ((0, 0, 0),)
    # decreasing lexicographic throughout
    for n, m in ((2, 5), (3, 3), (4, 2)):
        exps = sp.monomial_basis(n, m).exponents
        assert list(exps) == sorted(exps, reverse=True)
        assert len(set(exps)) == len(exps)
    # every exponent vector of total degree m, sorted by brute force
    for n in range(1, 5):
        for m in range(7):
            brute = sorted((e for e in product(range(m + 1), repeat=n)
                            if sum(e) == m), reverse=True)
            assert list(sp.monomial_basis(n, m).exponents) == brute


def test_sym_power_small_cases(s3):
    group, v, _ = s3
    assert sp.sym_power(v, 1).images == v.images
    s0 = sp.sym_power(v, 0)
    assert s0.dim == 1
    assert all(im.rows == [[1]] for im in s0.images)
    s2 = sp.sym_power(v, 2)
    assert s2.dim == 3
    assert hom_defect_count(s2) == 0
    # swap generator: x -> y, y -> x sends x^2 -> y^2, xy -> xy
    swap = s2.images[group.index[group.generators[0].key()]]
    assert swap.rows == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]


def test_sym_square_golden_sl2_3(sl23):
    group, v, mods = sl23
    s2 = sp.sym_power(v, 2)
    a = s2.images[group.generator_indices[0]]
    b = s2.images[group.generator_indices[1]]
    assert a.rows == [[1, 1, 1], [0, 1, 2], [0, 0, 1]]
    assert b.rows == [[1, 0, 0], [2, 1, 0], [1, 1, 1]]
    # and the module listed in the suite is exactly this symmetric square
    assert mods["sym2"].images == s2.images


def test_sym_power_is_homomorphism_spot(q8):
    group, v, _ = q8
    s3_ = sp.sym_power(v, 3)
    for a in range(group.order):
        for b in (0, 3, 5):
            ab = group.prod(a, b)
            assert mat_mul(s3_.images[a], s3_.images[b]) == s3_.images[ab]


def test_apply_to_poly_moves_linear_forms(s3):
    group, v, _ = s3
    F = group.field
    for g in range(group.order):
        for w in ([1, 0], [0, 1], [2, 5], [3, 3]):
            lin = sp.poly_from_vector(F, w)
            moved = apply_to_poly(g, lin, v)
            gw = mat_vec(v.images[g], w)
            assert moved == sp.poly_from_vector(F, gw)


def test_apply_to_poly_matches_sym_power_matrices(s3):
    group, v, _ = s3
    F = group.field
    lin = sp.poly_from_vector(F, [1, 2])
    cube = sp.poly_pow(lin, 3)
    s3m = sp.sym_power(v, 3)
    for g in range(group.order):
        via_poly = apply_to_poly(g, cube, v)
        via_matrix = mat_vec(s3m.images[g], cube.coeffs)
        assert list(via_poly.coeffs) == list(via_matrix)


def test_poly_arithmetic_by_hand():
    F = sp.make_field(7)
    x = sp.poly_from_vector(F, [1, 0])
    y = sp.poly_from_vector(F, [0, 1])
    xy = sp.poly_mul(x, y)
    # basis at degree 2 is x^2, xy, y^2
    assert list(xy.coeffs) == [0, 1, 0]
    sq = sp.poly_mul(sp.poly_from_vector(F, [1, 1]), sp.poly_from_vector(F, [1, 6]))
    # (x + y)(x - y) = x^2 - y^2
    assert list(sq.coeffs) == [1, 0, 6]
    one = sp.poly_one(F, 2)
    assert sp.poly_mul(one, xy) == xy
    assert sp.poly_pow(x, 4).coeffs[0] == 1
    assert sum(sp.poly_pow(x, 4).coeffs) == 1


@pytest.mark.parametrize("p, f", [(5, 1), (3, 3), (5, 3), (3, 6)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_poly_mul_matches_the_exponent_oracle(p, f, n):
    # two variables index a product by ia + ib, more by exponent vectors;
    # over GF(27) and GF(125) the sums run on full tables, over GF(729)
    # on the element operations
    F = sp.make_field(p, f)
    rng = random.Random(f"{p}^{f}/{n}")
    for da, db in [(0, 0), (0, 5), (1, 1), (4, 7), (9, 3)]:
        a, b = (sp.PolyVec(F, sp.monomial_basis(n, d), [
            rng.choice([0, 0, F.q - 1, rng.randrange(F.q)])
            for _ in range(comb(n + d - 1, d))]) for d in (da, db))
        assert sp.poly_mul(a, b).coeffs == poly_mul_by_exponents(a, b)


def test_dual_rep(q8):
    group, v, _ = q8
    d = sp.dual_rep(v)
    assert hom_defect_count(d) == 0
    for g in range(group.order):
        prod = mat_mul(sp.linalg.transpose(d.images[g]), v.images[g])
        assert prod == identity(group.field, 2)
    dd = sp.dual_rep(d)
    assert dd.images == v.images


def test_extend_scalars(s3):
    _, v, _ = s3
    ext = sp.extend_scalars(v, 2)
    assert ext.field.q == 49
    assert ext.dim == 2
    assert hom_defect_count(ext) == 0
    assert sp.extend_scalars(v, 1) is v


def test_restrict_scalar_character(q8):
    group, _, mods = q8
    flag, t = sp.restrict_scalar_character(mods["chi_i"])
    assert flag and t == 0  # -1 squares away in a linear character
    flag, t = sp.restrict_scalar_character(mods["defining"])
    assert flag and t == 1  # -1 acts as the scalar itself
    flag, t = sp.restrict_scalar_character(mods["trivial"])
    assert flag and t == 0


def test_restrict_scalar_character_central(c6):
    group, v, mods = c6
    for t in range(6):
        flag, got = sp.restrict_scalar_character(mods[f"chi{t}"])
        assert flag
        # lam = 3 and chi_t sends the generator 3 to 3^t
        assert pow(3, got, 7) == pow(3, t, 7)


def test_induced_from_center(q8):
    group, _, _ = q8
    ind = sp.induced_from_center(group, 1)
    assert ind.dim == group.coset_count == 4
    assert hom_defect_count(ind) == 0
    # the center acts by its character on the induced module
    z = group.z_generator_index
    assert ind.images[z] == Mat(group.field, [[group.lam if i == j else 0
                                                for j in range(4)]
                                               for i in range(4)])
    # monomial shape: one nonzero entry per column
    for im in ind.images:
        for j in range(4):
            col = [im.rows[i][j] for i in range(4)]
            assert sum(1 for c in col if c) == 1


def test_paired_rep_rejects_non_homomorphism(s3):
    group, _, _ = s3
    F = group.field
    with pytest.raises(sp.NotARepresentation):
        sp.paired_rep(group, [sp.Mat(F, [[2]]), sp.Mat(F, [[3]])])
    with pytest.raises(ValueError):
        sp.paired_rep(group, [sp.Mat(F, [[1]])])  # wrong count


# Per-element constructions: each builds the image of every group element
# directly, with no replay through the edge table.  The generator-first
# reps must replay to exactly these.

def _sym_oracle(r, m):
    basis = sp.monomial_basis(r.dim, m)
    return [_sym_image(g, basis) for g in r.images]


def _dual_oracle(r):
    return [transpose(r.images[r.group.inverse[g]])
            for g in range(r.group.order)]


def _extend_oracle(r, e):
    ext, table = extend_field(r.field, e)
    return [Mat(ext, [[table[x] for x in row] for row in m.rows])
            for m in r.images]


def _induced_oracle(group, t):
    field = group.field
    n = group.coset_count
    out = []
    for g in range(group.order):
        rows = [[0] * n for _ in range(n)]
        for c, h in enumerate(group.transversal):
            gh = group.prod(g, h)
            c2 = group.coset_of[gh]
            z = group.prod(group.inverse[group.transversal[c2]], gh)
            rows[c2][c] = field.pow(group.elements[z].rows[0][0], t)
        out.append(Mat(field, rows))
    return out


def test_replayed_images_match_per_element_constructions(s3, q8, sl23):
    for group, v, mods in (s3, q8, sl23):
        assert v.images == group.elements
        for r in [v, *mods.values()]:
            for m in (0, 2, 3):
                assert sp.sym_power(r, m).images == _sym_oracle(r, m)
            assert sp.dual_rep(r).images == _dual_oracle(r)
            assert sp.extend_scalars(r, 2).images == _extend_oracle(r, 2)
        for t in range(group.center_order):
            assert sp.induced_from_center(group, t).images == \
                _induced_oracle(group, t)


# the signed permutation matrices of bench/inputs.py's B3 document, a
# 3-dim V over GF(7)
B3_GENS = ([[0, 1, 0], [1, 0, 0], [0, 0, 1]],
           [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
           [[6, 0, 0], [0, 1, 0], [0, 0, 1]])


@pytest.mark.parametrize("e", [1, 2], ids=["prime", "extension"])
@pytest.mark.parametrize("name, depth", [("c6", 20), ("sl23", 20),
                                         ("b3", 10)])
def test_sym_powers_match_sym_power(request, name, depth, e):
    # each degree of sym_powers is built from the one before; it must be
    # the direct build at every degree, in a basis where V is dense
    if name == "b3":
        group = sp.build_group([Mat(sp.make_field(7), g) for g in B3_GENS])
        v = sp.defining_rep(group)
    else:
        v = request.getfixturevalue(name)[1]
    rng = random.Random(name)
    while True:
        p = Mat(v.field, [[rng.randrange(v.field.q) for _ in range(v.dim)]
                          for _ in range(v.dim)])
        if rank(p) == v.dim:
            break
    v = sp.extend_scalars(sp.Rep(v.group, [mat_mul(mat_mul(p, g), mat_inv(p))
                                           for g in v.gens]), e)
    degrees = 0
    for m, sym in enumerate(sp.sym_powers(v, depth), 1):
        assert sym.gens == sp.sym_power(v, m).gens, m
        degrees = m
    assert degrees == depth


def test_defining_rep_takes_the_elements_as_images(monkeypatch, load_doc):
    # the elements are the closure of the generators, so there is nothing
    # to replay
    group, _, _ = load_doc("sl2_5_gf5")
    calls = []
    monkeypatch.setattr(sp.reps, "mat_mul", lambda *a: calls.append(a))
    v = sp.defining_rep(group)
    assert v.gens == group.generators
    assert v.images == group.elements
    assert not calls
