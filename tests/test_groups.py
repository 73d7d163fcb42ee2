"""Group enumeration, scalar center, and coset structure."""

import pathlib
import random
from collections import Counter

import pytest

import symmpow as sp
from symmpow.groups import conjugacy_classes, scalar_of
from symmpow.linalg import identity, mat_inv, mat_mul

from oracles import scalar_by_entries

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "problems"


def naive_closure(gen_mats):
    """Reference closure: repeated multiplication over raw entry tuples."""
    def key(m):
        return tuple(tuple(r) for r in m.rows)

    seen = {key(g): g for g in gen_mats}
    frontier = list(gen_mats)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gen_mats:
                prod = mat_mul(a, g)
                k = key(prod)
                if k not in seen:
                    seen[k] = prod
                    nxt.append(prod)
        frontier = nxt
    return set(seen)


def test_s3_closure_matches_naive(s3):
    group, _, _ = s3
    gens = list(group.generators)
    expected = naive_closure(gens + [identity(group.field, group.dim)])
    got = {tuple(tuple(r) for r in m.rows) for m in group.elements}
    assert got == expected
    assert group.order == 6
    assert group.elements[0] == identity(group.field, 2)
    assert all(getattr(group, s) is not None
               for s in sp.GroupData.__slots__)
    orders = Counter(group.element_order(i) for i in range(group.order))
    assert orders == {1: 1, 2: 3, 3: 2}


def test_q8_closure_and_center(q8):
    group, _, _ = q8
    gens = list(group.generators)
    expected = naive_closure(gens + [identity(group.field, group.dim)])
    assert len(expected) == 8
    assert group.order == 8
    assert group.center_order == 2
    assert group.coset_count == 4
    # the only nontrivial scalar is -1, encoded 4 in GF(5)
    assert group.lam == 4
    z_mats = [group.elements[i] for i in group.z_indices]
    assert {m.rows[0][0] for m in z_mats} == {1, 4}
    for m in z_mats:
        assert m.rows[0][1] == m.rows[1][0] == 0
        assert m.rows[0][0] == m.rows[1][1]


def test_fully_scalar_group(c6):
    group, _, _ = c6
    assert group.order == 6
    assert group.center_order == 6
    assert group.coset_count == 1
    assert group.lam == 3  # generator itself has maximal order
    assert group.element_order(group.z_generator_index) == 6


def test_trivial_scalar_center(c3_gf2):
    group, _ = c3_gf2
    assert group.order == 3
    assert group.center_order == 1
    assert group.coset_count == 3


def test_product_and_inverse_tables(sl23):
    group, _, _ = sl23
    assert group.order == 24 and group.center_order == 2
    assert group.coset_count == 12
    n = group.order
    for a in range(n):
        assert group.prod(a, group.inverse[a]) == 0
        assert group.prod(group.inverse[a], a) == 0
        for b in range(0, n, 5):
            lhs = mat_mul(group.elements[a], group.elements[b])
            assert group.elements[group.prod(a, b)] == lhs


def test_edges_replay_to_elements(s3):
    group, _, _ = s3
    assert group.elements[0] == identity(group.field, group.dim)
    for i, row in enumerate(group.edges):
        for k, j in enumerate(row):
            assert group.elements[j] == mat_mul(group.elements[i],
                                                group.generators[k])


def test_transversal_decomposition(q8):
    group, _, _ = q8
    assert group.transversal[0] == 0
    assert len(group.transversal) == group.coset_count
    z_set = set(group.z_indices)
    for g in range(group.order):
        c = group.coset_of[g]
        t = group.transversal[c]
        z = group.prod(group.inverse[t], g)
        assert z in z_set


def test_enumeration_cap():
    F = sp.make_field(7)
    gens = [sp.Mat(F, [[0, 1], [1, 0]]), sp.Mat(F, [[0, 6], [1, 6]])]
    with pytest.raises(sp.CapExceeded):
        sp.enumerate_group(gens, cap=3)


def test_non_invertible_generator_rejected():
    F = sp.make_field(7)
    with pytest.raises(ValueError):
        sp.build_group([sp.Mat(F, [[1, 1], [1, 1]])])


def test_center_generator_is_the_least_index_of_maximal_scalar_order():
    # the rule before scalars were known to be cyclic: the scalar element
    # of maximal multiplicative order, ties broken by lowest index
    rng = random.Random(0)
    checked = 0
    while checked < 30:
        F = sp.make_field(rng.choice([2, 3, 5, 7, 11, 13]))
        gens = [sp.Mat(F, [[rng.randrange(F.q) for _ in range(2)]
                           for _ in range(2)])
                for _ in range(rng.choice([1, 2]))]
        try:
            group = sp.build_group(gens, cap=500)
        except (ValueError, sp.CapExceeded):  # singular, or too large
            continue
        scalars = [(i, m.rows[0][0]) for i, m in enumerate(group.elements)
                   if sp.groups.scalar_of(m) is not None]
        best = max(scalars, key=lambda ic: (sp.mult_order(F, ic[1]), -ic[0]))
        assert [i for i, _ in scalars] == group.z_indices
        assert (group.z_generator_index, group.lam) == best
        assert sp.mult_order(F, group.lam) == group.center_order
        checked += 1


# class counts: S3, Q8, SL(2,3), SL(2,5), then the benchmark's B3 and
# GL(2,3)
CLASS_COUNTS = {"s3_gf7": 3, "q8_gf5": 5, "sl2_3_gf3": 7, "sl2_5_gf5": 9,
                "b3_gf7": 10, "gl2_3_gf3_defining": 8}


def test_conjugacy_classes_partition_the_group(load_doc):
    for name, count in CLASS_COUNTS.items():
        group, _, _ = load_doc(name)
        classes = conjugacy_classes(group)
        assert len(classes) == count, name
        assert sum(size for _, size in classes) == group.order, name
        assert [a for a, _ in classes] == sorted(a for a, _ in classes)
        seen = set()
        for a, size in classes:
            # the class by matrix products, over every conjugating element
            members = {group.prod(group.prod(group.inverse[g], a), g)
                       for g in range(group.order)}
            assert len(members) == size and min(members) == a, (name, a)
            assert not members & seen, (name, a)
            seen |= members
            for s in group.generator_indices:
                s_inv = group.inverse[s]
                assert {group.prod(group.prod(s_inv, x), s)
                        for x in members} == members, (name, a, s)
        assert seen == set(range(group.order)), name


def test_inverse_table_matches_matrix_inverses(load_doc):
    # enumerate_group inverts through BFS parents, one mat_inv per generator
    names = [p.stem for p in sorted(PROBLEMS.glob("*.json"))] + [
        "b3_gf7", "gl2_3_gf3_defining"]
    for name in names:
        group, _, _ = load_doc(name)
        assert group.inverse == [group.index[mat_inv(g).key()]
                                 for g in group.elements], name


@pytest.mark.parametrize("p, f", [(7, 1), (3, 2)])
def test_scalar_of_matches_the_entry_loop(p, f):
    # c I for every c, 0 included; a diagonal with one entry off c; c I
    # with one off-diagonal entry, above or below the diagonal
    field = sp.make_field(p, f)
    for n in (1, 2, 3):
        for c in range(field.q):
            cases = [[[c if i == j else 0 for j in range(n)]
                      for i in range(n)]]
            if n > 1:
                d = field.add(c, 1)
                cases.append([[(d if i == n - 1 else c) if i == j else 0
                               for j in range(n)] for i in range(n)])
                for i, j in ((0, n - 1), (n - 1, 0)):
                    rows = [list(r) for r in cases[0]]
                    rows[i][j] = 1
                    cases.append(rows)
            for rows in cases:
                m = sp.Mat(field, rows)
                assert scalar_of(m) == scalar_by_entries(m), rows
            assert scalar_of(sp.Mat(field, cases[0])) == c
