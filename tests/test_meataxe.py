"""Randomized irreducibility testing and module splitting."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symmpow as sp
from symmpow import cli, meataxe
from symmpow.linalg import mat_vec, null_space, rank
from symmpow.meataxe import _LINE_LIMIT, _kernel_lines, _restrict, _spin

from oracles import hom_defect_count, spin_by_words


def embedding_of(sub, rep):
    """The injective intertwiner from sub into rep, unique up to scalars
    when sub is simple and occurs once."""
    (x,) = sp.hom_space(sub, rep)
    assert rank(x) == sub.dim
    return x


def test_one_dimensional_fast_path(s3):
    _, _, mods = s3
    res = sp.is_irreducible(mods["sign"])
    assert res.irreducible and res.verdict == "irreducible"
    assert res.draws == 0


def test_standard_module_is_irreducible(s3):
    _, _, mods = s3
    res = sp.is_irreducible(mods["standard"], seed=0)
    assert res.irreducible
    assert res.draws == 1
    assert res.sub_rep is None
    # replayable evidence: the element drawn, how many kernel lines were
    # spun, and the dual vector that completed the argument
    assert set(res.certificate) >= {"theta", "kernel_dim", "lines_checked",
                                    "dual_vector"}


def test_permutation_module_splits(s3_perm):
    _, perm = s3_perm
    res = sp.is_irreducible(perm, seed=0)
    assert not res.irreducible and res.verdict == "split"
    assert res.sub_rep.dim == 2  # seed 0 finds the sum-zero plane first
    # the carved piece is a genuine representation, and a submodule
    assert hom_defect_count(res.sub_rep) == 0
    embedding_of(res.sub_rep, perm)


def test_indecomposable_but_reducible_splits():
    # order-2 group in characteristic 2: unique stable line, no complement
    F = sp.make_field(2)
    group = sp.build_group([sp.Mat(F, [[1, 1], [0, 1]])])
    rep = sp.defining_rep(group)
    res = sp.is_irreducible(rep, seed=0)
    assert res.verdict == "split"
    assert res.sub_rep.dim == 1
    x = embedding_of(res.sub_rep, rep)
    assert [x.rows[0][0], x.rows[1][0]] == [1, 0]


def test_budget_exhaustion_raises(monkeypatch):
    F = sp.make_field(7)
    group = sp.build_group([sp.Mat(F, [[0, 1], [1, 0]]),
                            sp.Mat(F, [[0, 6], [1, 6]])])
    rep = sp.defining_rep(group)
    monkeypatch.setattr(sp.meataxe, "_DEFAULT_BUDGET", 0)
    with pytest.raises(sp.MeataxeInconclusive,
                       match=r"^no verdict after 0 draws \(seed 0\); vary"):
        sp.is_irreducible(rep, seed=0)


def _big_kernel_doc(p, dim):
    """The order-8 group on [[0, 1], [1, 0]] and [[p - 1, 0], [0, 1]] over
    GF(p), with its trivial module of dimension dim: every singular draw
    has the whole space as kernel, more lines than the MeatAxe lists."""
    ident = [[int(i == j) for j in range(dim)] for i in range(dim)]
    return {"schema": "symmpow-v1", "field": {"p": p, "f": 1},
            "generators": [[[0, 1], [1, 0]], [[p - 1, 0], [0, 1]]],
            "modules": [{"label": "trivial", "images": [ident, ident]}]}


@pytest.mark.parametrize("p, dim", [(17, 4), (11, 6)])
def test_big_kernel_draws_still_split(tmp_path, capsys, p, dim):
    # (p^dim - 1) / (p - 1) lines is past _LINE_LIMIT, so no draw can
    # certify; a split needs only one proper spin, found on revisiting
    doc = _big_kernel_doc(p, dim)
    assert (p ** dim - 1) // (p - 1) > _LINE_LIMIT
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    group = sp.build_group([sp.Mat(sp.make_field(p), g)
                            for g in doc["generators"]])
    rep = sp.paired_rep(group, [sp.Mat(group.field, m)
                                for m in doc["modules"][0]["images"]])
    for seed in range(4):
        res = sp.is_irreducible(rep, seed=seed)
        assert res.verdict == "split"
        assert "lines_checked" not in res.certificate
        assert res.certificate["kernel_dim"] == dim
        # theta is 0, and the first vector of ker theta's basis splits
        vec = res.certificate["primal_vector"]
        assert sorted(vec) == [0] * (dim - 1) + [1]
        assert 1 <= res.draws <= meataxe._DEFAULT_BUDGET
        assert 1 <= res.sub_rep.dim < dim
        assert hom_defect_count(res.sub_rep) == 0
        assert cli.main(["check", "--input", str(path),
                         "--seed", str(seed)]) == 1
    capsys.readouterr()


def test_dual_side_split_on_sl2_5(load_doc):
    # on Sym^5 of SL(2,5)'s defining module every kernel line of draw 5
    # spins to the whole space, and a kernel vector of theta^T does not:
    # the split is the annihilator of that vector's dual spin
    group, v, _ = load_doc("sl2_5_gf5")
    sym5 = sp.sym_power(v, 5)
    res = sp.is_irreducible(sym5, seed=0)
    assert (res.verdict, res.draws) == ("split", 5)
    assert "dual_vector" in res.certificate
    assert "primal_vector" not in res.certificate
    assert res.sub_rep.dim == 2
    dual = _spin(res.certificate["dual_vector"], sp.dual_rep(sym5).gens,
                 sym5.field, sym5.dim)
    rows = null_space(dual)
    assert len(rows) == 2
    for g in sym5.gens:
        for row in rows:
            assert rank(sp.Mat(sym5.field, rows + [mat_vec(g, row)])) == 2
    assert hom_defect_count(res.sub_rep) == 0
    sub = sp.simple_submodule(sym5, seed=0)
    assert sub.dim == 2 and sp.is_irreducible(sub, seed=0).irreducible


def test_seed_changes_nothing_about_verdicts(s3, s3_perm, q8):
    _, _, mods = s3
    _, perm = s3_perm
    _, _, qmods = q8
    for seed in range(5):
        assert sp.is_irreducible(mods["standard"], seed=seed).irreducible
        assert not sp.is_irreducible(perm, seed=seed).irreducible
        assert sp.is_irreducible(qmods["defining"], seed=seed).irreducible


def test_deterministic_for_fixed_seed(s3_perm):
    _, perm = s3_perm
    a = sp.is_irreducible(perm, seed=3)
    b = sp.is_irreducible(perm, seed=3)
    assert a.verdict == b.verdict and a.draws == b.draws
    assert a.sub_rep.gens == b.sub_rep.gens
    assert a.certificate == b.certificate


def test_simple_submodule_and_quotient(s3_perm):
    group, perm = s3_perm
    sub = sp.simple_submodule(perm, seed=0)
    assert sp.is_irreducible(sub, seed=0).irreducible
    embedding_of(sub, perm)
    quot = sp.simple_quotient(perm, seed=0)
    assert sp.is_irreducible(quot, seed=0).irreducible
    (x,) = sp.hom_space(perm, quot)
    assert rank(x) == quot.dim


def test_splitting_extension_absolute_case(s3, sl23):
    _, _, mods = s3
    e, piece = sp.splitting_extension(mods["standard"])
    assert e == 1
    assert piece.dim == 2 and piece.field.q == 7
    _, _, smods = sl23
    e, piece = sp.splitting_extension(smods["defining"])
    assert e == 1 and piece.field.q == 3


def test_splitting_extension_quadratic_case(c3_gf2):
    _, w = c3_gf2
    e, piece = sp.splitting_extension(w)
    assert e == 2
    assert piece.dim == 1
    assert piece.field.q == 4
    assert len(sp.hom_space(piece, piece)) == 1


def counter_lines(field, kernel_vectors):
    """Kernel lines from a base-q counter over the tail coefficients,
    least significant digit first: the order that check reports pin
    through primal_vector and lines_checked."""
    k, q, n = len(kernel_vectors), field.q, len(kernel_vectors[0])
    lines = []
    for lead in range(k):
        tail = k - lead - 1
        for code in range(q ** tail):
            coeffs = [0] * lead + [1]
            for _ in range(tail):
                coeffs.append(code % q)
                code //= q
            vec = [0] * n
            for co, kv in zip(coeffs, kernel_vectors):
                vec = [field.add(a, field.mul(co, x)) for a, x in zip(vec, kv)]
            lines.append(vec)
    return lines


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (5, 1)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_kernel_lines_follow_the_counter_order(p, f, k):
    field = sp.make_field(p, f)
    q = field.q
    assert (q ** k - 1) // (q - 1) <= _LINE_LIMIT
    # echelon rows: row i is 0 before column i, 1 at it, mixed after
    n = k + 2
    kernel = [[0] * i + [1] + [(i + 2 * j + 1) % q for j in range(n - i - 1)]
              for i in range(k)]
    lines = _kernel_lines(field, kernel)
    assert lines == counter_lines(field, kernel)
    assert len(lines) == (q ** k - 1) // (q - 1)
    assert all(next(x for x in line if x) == 1 for line in lines)


@pytest.fixture(scope="session")
def spin_modules(s3_perm, q8, sl23):
    F = sp.make_field(2)
    jordan = sp.build_group([sp.Mat(F, [[1, 1, 0, 0], [0, 1, 1, 0],
                                        [0, 0, 1, 1], [0, 0, 0, 1]])])
    return {"s3_perm": s3_perm[1],
            "q8_defining": q8[2]["defining"],
            "sl23_sym2": sl23[2]["sym2"],
            # e_4 spins to the whole space one dimension per round
            "jordan4_gf2": sp.defining_rep(jordan)}


@pytest.mark.parametrize("name", ["s3_perm", "q8_defining", "sl23_sym2",
                                  "jordan4_gf2"])
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_spin_is_the_closure_under_words(spin_modules, name, data):
    rep = spin_modules[name]
    vec = data.draw(st.lists(st.integers(0, rep.field.q - 1),
                             min_size=rep.dim, max_size=rep.dim).filter(any))
    spun = _spin(vec, rep.gens, rep.field, rep.dim)
    assert spun == spin_by_words(vec, rep.gens)
    assert _restrict(rep, spun).dim == spun.nrows


def test_restrict_rejects_an_unstable_subspace(s3_perm):
    _, perm = s3_perm
    with pytest.raises(ValueError, match="not stable"):
        _restrict(perm, sp.Mat(perm.field, [[1, 0, 0]]))
