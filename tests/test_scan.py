"""Occurrence tables, the character-series oracle, and the full
verification driver."""

import json
import pathlib
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

import symmpow as sp
import symmpow.cli as cli
from symmpow.cli import _build_group, parse_problem
from symmpow.fields import poly_divmod
from symmpow.linalg import rank
from symmpow.scan import _cyclotomic

from oracles import (hom_dim_by_enumeration, integer_at_zeta,
                     molien_by_elements)

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "problems"

S3_TABLES = {
    # (m, submodule count, quotient count) for m = 1..6 over GF(7)
    "trivial": [(1, 0, 0), (2, 1, 1), (3, 1, 1), (4, 1, 1), (5, 1, 1),
                (6, 2, 2)],
    "sign": [(1, 0, 0), (2, 0, 0), (3, 1, 1), (4, 0, 0), (5, 1, 1),
             (6, 1, 1)],
    "standard": [(1, 1, 1), (2, 1, 1), (3, 1, 1), (4, 2, 2), (5, 2, 2),
                 (6, 2, 2)],
}


def test_scan_tables_for_s3(s3):
    _, v, mods = s3
    for label, expected in S3_TABLES.items():
        table = sp.occurrence_scan(v, mods[label])
        assert table.rows == expected, label
        assert table.bound == 6
    assert sp.occurrence_scan(v, mods["trivial"]).minimal_sub_m == 2
    assert sp.occurrence_scan(v, mods["sign"]).minimal_sub_m == 3
    assert sp.occurrence_scan(v, mods["sign"]).minimal_quot_m == 3
    assert sp.occurrence_scan(v, mods["standard"]).minimal_sub_m == 1


def test_scan_respects_m_max_and_cap(s3):
    _, v, mods = s3
    short = sp.occurrence_scan(v, mods["sign"], m_max=2)
    assert len(short.rows) == 2
    assert short.minimal_sub_m is None
    with pytest.raises(sp.CapExceeded):
        sp.occurrence_scan(v, mods["sign"], m_max=6, cap_dim=3)


def test_scan_of_reducible_modules_matches_enumeration():
    # no shipped document has a reducible module, so the scan rows are
    # checked against a count of every intertwiner over the prime field;
    # V is the unipotent Jordan block J acting on the plane
    cases = ((2, [[1, 1], [0, 1]], 5),
             (3, [[1, 1], [0, 1]], 3),
             (2, [[1, 0, 0], [0, 1, 1], [0, 0, 1]], 3))  # block-diag(1, J)
    for p, w_image, m_max in cases:
        F = sp.make_field(p)
        group = sp.build_group([sp.Mat(F, [[1, 1], [0, 1]])])
        v = sp.defining_rep(group)
        w = sp.paired_rep(group, [sp.Mat(F, w_image)])
        table = sp.occurrence_scan(v, w, m_max=m_max)
        expected = []
        for m in range(1, m_max + 1):
            sym = sp.sym_power(v, m)
            expected.append((m, hom_dim_by_enumeration(w, sym),
                             hom_dim_by_enumeration(sym, w)))
        assert table.rows == expected, (p, w_image)


def test_molien_against_partition_count(s3):
    # the trivial multiplicity in degree m counts invariant monomial
    # combinations: solutions of 2a + 3b = m, a, b >= 0
    _, v, mods = s3
    table = sp.molien_table(v, mods["trivial"], 12)
    for m in range(13):
        expected = sum(1 for a in range(m // 2 + 1)
                       if (m - 2 * a) % 3 == 0)
        assert table[m] == expected, m


def test_molien_matches_scan_everywhere(s3):
    _, v, mods = s3
    for label, w in mods.items():
        table = sp.molien_table(v, w, 6)
        rows = sp.occurrence_scan(v, w).rows
        for m, subs, quots in rows:
            assert subs == table[m] == quots, (label, m)


def test_molien_cyclic_residue_classes(c6):
    _, v, mods = c6
    for t in range(6):
        table = sp.molien_table(v, mods[f"chi{t}"], 12)
        for m in range(13):
            expected = 1 if (m - t) % 6 == 0 else 0
            assert table[m] == expected


def test_molien_rejects_modular_characteristic(sl23):
    _, v, mods = sl23
    with pytest.raises(ValueError):
        sp.molien_table(v, mods["trivial"], 4)


def test_molien_over_a_large_prime_field():
    # C2 acting by -1 over GF(100003): the root of unity of order 2 is
    # the last field element, found by exact-order tests
    F = sp.make_field(100003)
    group = sp.build_group([sp.Mat(F, [[100002]])])
    v = sp.defining_rep(group)
    assert sp.molien_table(v, v, 4) == [0, 1, 0, 1, 0]


def test_verify_theorem_s3_sign(s3):
    _, _, mods = s3
    [rep] = sp.verify_theorem([("sign", mods["sign"])],
                              sp.VerifyOptions(k_max=1))
    assert rep.splitting_degree == 1
    assert rep.irreducible_draws == 0
    assert rep.sub_claim.degree == 5 and rep.quot_claim.degree == 5
    assert rep.sub_claim is rep.quot_claim  # base case reuses one claim
    assert rep.molien_ok is True
    assert rep.periodicity == [True]
    assert rep.table.minimal_sub_m == 3


def test_verify_theorem_modular_case(sl23):
    _, _, mods = sl23
    [rep] = sp.verify_theorem([("defining", mods["defining"])],
                              sp.VerifyOptions(k_max=0))
    assert rep.molien_ok is None  # characteristic divides the group order
    assert rep.sub_claim.degree == 23
    assert rep.sub_claim.extension_degree == 3
    assert rep.table.minimal_sub_m == 1
    assert rep.periodicity == []


def test_verify_theorem_non_absolute_case(c3_gf2):
    _, w = c3_gf2
    [rep] = sp.verify_theorem([("w", w)], sp.VerifyOptions(k_max=0))
    assert rep.splitting_degree == 2
    assert rep.sub_claim is not rep.quot_claim
    assert rep.sub_claim.degree == 2 and rep.quot_claim.degree == 2
    assert rep.table.minimal_sub_m == 1


def test_verify_theorem_scans_the_groups_own_module():
    # C3 = <[[2]]> over GF(7) has the faithful modules <[[2]]> and <[[4]]>;
    # V is always the defining one, whose certificates assemble builds, so
    # chi1 = V itself certifies at degree 1 and the base-field rows agree
    F = sp.make_field(7)
    group = sp.build_group([sp.Mat(F, [[2]])])
    chi1 = sp.paired_rep(group, [sp.Mat(F, [[2]])])
    [rep] = sp.verify_theorem([("chi1", chi1)], sp.VerifyOptions(k_max=1))
    assert rep.sub_claim.degree == rep.quot_claim.degree == 1
    assert rep.table.rows[0] == (1, 1, 1)
    assert rep.table.minimal_sub_m == rep.table.minimal_quot_m == 1


def test_verify_theorem_rejects_reducible(s3_perm):
    _, perm = s3_perm
    # a reducible module has no guaranteed occurrence, so no report
    assert sp.verify_theorem([("perm", perm)]) == [None]


def test_molien_options_flow(s3):
    _, _, mods = s3
    [rep] = sp.verify_theorem([("trivial", mods["trivial"])],
                              sp.VerifyOptions(k_max=0, molien="off"))
    assert rep.molien_ok is None
    assert rep.table.molien_multiplicities is None
    [rep_on] = sp.verify_theorem([("trivial", mods["trivial"])],
                                 sp.VerifyOptions(k_max=0, molien="on"))
    assert rep_on.molien_ok is True
    assert rep_on.table.molien_multiplicities == [0, 1, 1, 1, 1, 2]


# ---------------------------------------------------------------------------
# the label shortcut: a degree where no (h, z) label of W occurs in Sym^m
# is answered (m, 0, 0) with no spin; the scalar z = lam on V acts on
# Sym^m as lam^m, so this skips what a central-character filter would

def _unfiltered_rows(v, w, m_max):
    return [sp.scan._scan_one(sym, w, m)
            for m, sym in enumerate(sp.sym_powers(v, m_max), 1)]


def _spun_degrees(monkeypatch, v, w, m_max):
    """The scan's rows, and the degree and labels of each of its spins."""
    degree, spins = [], []
    scan_one, spin = sp.scan._scan_one, sp.homs._spin

    def numbered(sym, w, m):
        degree[:] = [m]
        return scan_one(sym, w, m)

    def counting(field, pairs, nu, nv, labels=None):
        spins.append((degree[0], labels))
        return spin(field, pairs, nu, nv, labels)

    monkeypatch.setattr(sp.scan, "_scan_one", numbered)
    monkeypatch.setattr(sp.homs, "_spin", counting)
    rows = sp.occurrence_scan(v, w, m_max=m_max).rows
    monkeypatch.undo()
    assert all(labels for _, labels in spins)
    return rows, [m for m, _ in spins]


def test_degrees_beyond_the_scan_are_built_once_per_document(monkeypatch,
                                                              load_doc):
    # q8_gf5's five modules certify at degrees 6, 6, 6, 6 and 7; a scan to
    # m = 1 leaves both degrees beyond it, and each is built once for all
    group, v, modules = load_doc("q8_gf5")
    built, real = [], sp.scan.sym_power
    monkeypatch.setattr(sp.scan, "sym_power",
                        lambda v, m: built.append(m) or real(v, m))
    reports = sp.verify_theorem(modules,
                                sp.VerifyOptions(k_max=0, m_max=1))
    assert [r.sub_claim.degree for r in reports] == [6, 6, 6, 6, 7]
    assert built == [6, 7]


def test_scan_validates_modules_before_skipping(fresh_case):
    group, v, mods = fresh_case("c4_gf5")
    trivial = mods["chi0"]
    # z = 2 acts on Sym^m as 2^m, never 1 for m = 1..3: every degree silent
    assert sp.occurrence_scan(v, trivial, m_max=3).rows == [
        (1, 0, 0), (2, 0, 0), (3, 0, 0)]
    _, _, other_mods = fresh_case("c4_gf5")
    with pytest.raises(ValueError, match="share a group"):
        sp.occurrence_scan(v, other_mods["chi0"], m_max=3)
    with pytest.raises(ValueError, match="share a field"):
        sp.occurrence_scan(v, sp.extend_scalars(trivial, 2), m_max=3)


def test_filter_skips_silent_residues_of_a_reducible_module(
        monkeypatch, fresh_case):
    group, v, _ = fresh_case("c4_gf5")
    assert (group.lam, group.center_order) == (2, 4)
    # W(z) = diag(1, 2) = diag(lam^0, lam^1) is not scalar
    w = sp.paired_rep(group, [sp.Mat(group.field, [[1, 0], [0, 2]])])
    rows, spun = _spun_degrees(monkeypatch, v, w, 12)
    # two spins, one each way, at each degree with a shared label
    assert spun == [m for m in range(1, 13) if m % 4 in (0, 1)
                    for _ in range(2)]
    assert rows == _unfiltered_rows(v, w, 12)
    assert [m for m, s, q in rows if s] == [1, 4, 5, 8, 9, 12]


def test_filter_skips_even_degrees_on_q8(monkeypatch, q8):
    group, v, mods = q8
    # z = -1 acts on the defining module as -1 = lam and on Sym^m as (-1)^m
    rows, spun = _spun_degrees(monkeypatch, v, mods["defining"], 8)
    assert spun == [1, 1, 3, 3, 5, 5, 7, 7]
    assert rows == _unfiltered_rows(v, mods["defining"], 8)


def test_scan_with_a_non_scalar_z_matches_the_unlabelled_scan(q8):
    group, v, mods = q8
    # V = defining + chi_i, where z acts as diag(-1, -1, 1)
    gens = [sp.Mat(group.field, [list(row) + [0] for row in d.rows]
                   + [[0, 0, c.rows[0][0]]])
            for d, c in zip(v.gens, mods["chi_i"].gens)]
    v3 = sp.paired_rep(group, gens)
    z = sp.word_images(v3, [group.z_generator_index])[
        group.z_generator_index]
    assert z.rows == [[4, 0, 0], [0, 4, 0], [0, 0, 1]]
    ws = list(mods.values())
    tables = sp.occurrence_tables(v3, ws, 8)
    for w, table in zip(ws, tables):
        assert table.rows == _unfiltered_rows(v3, w, 8)
    assert all(any(s for _, s, _ in t.rows) for t in tables)


def test_filter_matches_unfiltered_scan_over_the_corpus():
    for path in sorted(PROBLEMS.glob("*.json")):
        doc = parse_problem(json.loads(path.read_text()))
        group = _build_group(doc)
        v = sp.defining_rep(group)
        m_max = min(group.order, 16)
        syms = list(sp.sym_powers(v, m_max))
        for spec in doc.modules:
            w = sp.paired_rep(group, spec.images)
            expected = [sp.scan._scan_one(sym, w, m)
                        for m, sym in enumerate(syms, 1)]
            assert sp.occurrence_scan(v, w, m_max).rows == expected, (
                path.stem, spec.label)


# ---------------------------------------------------------------------------
# one degree loop per document: every module is solved on the one Sym^m
# of each degree, and the checks run module by module afterwards

def test_scan_builds_each_degree_once_for_all_modules(monkeypatch, tmp_path,
                                                      capsys):
    calls = []
    sym_image = sp.reps._sym_image

    def counting(*args):
        calls.append(1)
        return sym_image(*args)

    monkeypatch.setattr(sp.reps, "_sym_image", counting)
    out = tmp_path / "scan.json"
    assert cli.main(["scan", "--input", str(PROBLEMS / "sl2_5_gf5.json"),
                     "--m-max", "8", "--out", str(out)]) == 0
    capsys.readouterr()
    assert len(json.loads(out.read_text())["modules"]) == 5
    assert len(calls) == 2 * 8   # 2 generators x 8 degrees, not x 5 modules


def test_shared_tables_match_per_module_scans_over_the_corpus(load_doc):
    for path in sorted(PROBLEMS.glob("*.json")):
        group, v, modules = load_doc(path.stem)
        opts = sp.VerifyOptions(m_max=min(group.order, 12))
        tables = sp.scan.scan_modules(modules, opts)
        assert len(tables) == len(modules)
        for (label, w), table in zip(modules, tables):
            alone = sp.occurrence_scan(v, w, opts.m_max)
            assert table._replace(molien_multiplicities=None) == alone, (
                path.stem, label)
            if group.order % v.field.p:
                assert table.molien_multiplicities == sp.molien_table(
                    v, w, opts.m_max)[1:], (path.stem, label)


def test_document_without_modules_scans_nothing(tmp_path, capsys):
    # p = 3 divides |SL(2,3)| = 24: with a module, --molien on is exit 2
    doc = json.loads((PROBLEMS / "sl2_3_gf3.json").read_text())
    doc["modules"] = []
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["scan", "--input", str(path), "--molien", "on"]) == 0
    assert capsys.readouterr().out.rstrip().endswith("ok")


def test_oracle_disagreement_names_the_first_failing_module(monkeypatch,
                                                            tmp_path, capsys):
    real = sp.scan.molien_table

    def only_sign_disagrees(v, w, m_max):
        mt = real(v, w, m_max)
        sign = w.dim == 1 and w.gens[0].rows == [[6]]
        return [x + 1 for x in mt] if sign else mt

    monkeypatch.setattr(sp.scan, "molien_table", only_sign_disagrees)
    # s3_gf7 lists trivial, sign, standard: module 2 of 3 disagrees
    assert cli.main(["scan", "--input", str(PROBLEMS / "s3_gf7.json")]) == 6
    err = capsys.readouterr().err
    assert err == "error: module sign: scan and character oracle disagree\n"


# ---------------------------------------------------------------------------
# the Molien sum over conjugacy classes against the per-element sum

def test_molien_by_classes_matches_the_element_sum(load_doc):
    for path in sorted(PROBLEMS.glob("*.json")):
        group, v, modules = load_doc(path.stem)
        if group.order % v.field.p == 0:
            continue
        for label, w in modules:
            assert sp.molien_table(v, w, 10) == molien_by_elements(
                v, w, 10), (path.stem, label)


@pytest.mark.parametrize("total, L, value", [
    ([5], 1, 5), ([1, 1, 1], 3, 0), ([0, 1, 1], 3, -1),
    ([0, 0, 3, 0], 4, -3), ([0, 1, 0, 1], 4, 0), ([2, 0, 0, 0, 0, 0], 6, 2),
    ([0, 2, 0], 3, None), ([0, 1, 0, 0], 4, None), ([1, 1, 0, 0, 0], 5, None),
])
def test_integer_at_zeta_reads_a_rational_value_or_raises(total, L, value):
    if value is None:  # 2 zeta_3, zeta_4 and 1 + zeta_5 are irrational
        with pytest.raises(sp.TheoremViolation, match="not rational"):
            integer_at_zeta(total, L)
    else:
        assert integer_at_zeta(total, L) == value


@st.composite
def _cyclotomic_sums(draw):
    """(S, L): S in Z[x]/(x^L - 1), half of them Galois-invariant (S_k a
    function of gcd(k, L), so S(zeta_L) is rational) plus a multiple of
    Phi_L of degree below L."""
    L = draw(st.integers(1, 30))
    coeff = st.integers(-50, 50)
    if not draw(st.booleans()):
        return draw(st.lists(coeff, min_size=L, max_size=L)), L
    by_gcd = draw(st.lists(coeff, min_size=L + 1, max_size=L + 1))
    total = [by_gcd[gcd(k, L)] for k in range(L)]
    phi = _cyclotomic(L)
    for i, a in enumerate(draw(st.lists(coeff, max_size=L - len(phi) + 1))):
        for j, b in enumerate(phi):
            total[i + j] += a * b
    return total, L


@settings(deadline=None, max_examples=300)
@given(_cyclotomic_sums())
def test_integer_at_zeta_matches_the_cyclotomic_remainder(case):
    # the oracle's trace test against molien_table's reduction mod Phi_L
    total, L = case
    c, *rest = poly_divmod(total, _cyclotomic(L))[1]
    if any(rest):
        with pytest.raises(sp.TheoremViolation, match="not rational"):
            integer_at_zeta(total, L)
    else:
        assert integer_at_zeta(total, L) == c


def test_molien_by_classes_over_an_extension(load_doc):
    # element orders of B3 reach 4 and 6, so L = 12 and 12 | 7^2 - 1:
    # the eigenvalues live in GF(49)
    group, v, modules = load_doc("b3_gf7")
    L = lcm(*(group.element_order(g) for g in range(group.order)))
    assert L == 12 and 7 % L != 1 and 7 ** 2 % L == 1
    for label, w in modules:
        expected = molien_by_elements(v, w, 8)
        assert sp.molien_table(v, w, 8) == expected, label
        assert expected[1:] == [m for _, m, _ in sp.occurrence_scan(
            v, w, 8).rows], label


# ---------------------------------------------------------------------------
# the eigenbasis: the scan conjugates V and every W by joint eigenvectors
# of one semisimple h and the scalar generator z, and each seed of a hom
# solve opens only the Sym^m coordinates of its own (h, z) label

EIGEN_DOCS = [p.stem for p in sorted(PROBLEMS.glob("*.json"))] + [
    "b3_gf7", "gl2_3_gf3_defining"]

# (order of h, labels on Sym^6) for the h the scan picks; z is scalar on
# each V, so the labels on Sym^6 are as many as h's eigenvalues there,
# and h is the identity where no element has more than one
EIGEN_ELEMENTS = {"sl2_5_gf5": (4, 2), "q8_gf5": (4, 2), "b3_gf7": (3, 3),
                  "s3_gf7": (3, 3), "gl2_3_gf3_defining": (2, 2),
                  "sl2_3_gf3": (1, 1), "sl2_2_gf2": (1, 1), "c3_gf7": (1, 1),
                  "c4_gf5": (1, 1), "c6_gf7": (1, 1)}


def _eigenvalue_ratio_order(v, g):
    """The order of the group that the ratios of V(g)'s eigenvalues in F
    generate, the eigenvalues found by trying every field element."""
    field, n, image = v.field, v.dim, sp.word_images(v, [g])[g]
    lams = [x for x in range(1, field.q)
            if rank(sp.Mat(field, [[field.sub(a, x) if i == j else a
                                    for j, a in enumerate(row)]
                                   for i, row in enumerate(image.rows)]))
            < n]
    inv = field.inv(lams[0])
    return lcm(*(sp.mult_order(field, field.mul(x, inv)) for x in lams))


def _labelled(v, ws):
    """v and ws conjugated into the scan's eigenbasis."""
    eigen = sp.scan._eigen_element(v)
    return [sp.scan._in_eigenbasis(r, *eigen) for r in (v, *ws)]


def test_eigen_element_has_the_most_eigenvalues_on_sym(load_doc):
    for name, expected in EIGEN_ELEMENTS.items():
        group, v, _ = load_doc(name)
        q = v.field.q
        counts = [(_eigenvalue_ratio_order(v, g), g)
                  for g, _ in sp.groups.conjugacy_classes(group)
                  if (q - 1) % group.element_order(g) == 0]
        most = max(c for c, _ in counts)
        h, omega, d = eigen = sp.scan._eigen_element(v)
        assert (most == 1) == (eigen == (0, 1, 1)), name  # the identity
        assert h == min(g for c, g in counts if c == most), name
        assert d == group.element_order(h) and sp.mult_order(
            v.field, omega) == d, name
        lv, = _labelled(v, [])
        sym = list(sp.sym_powers(lv, 6))[-1]
        assert (d, len(set(sym.eigen[1]))) == expected, name
        # the images of h and z are diagonal in the new basis, with the
        # two parts of the labels on them
        images = sp.word_images(lv, [h, group.z_generator_index])
        for g, k in ((h, 0), (group.z_generator_index, 1)):
            assert images[g].rows == [
                [lam[k] if i == j else 0 for j in range(v.dim)]
                for i, lam in enumerate(lv.eigen[1])], name
        assert lv.eigen[0] == h


def test_eigen_setup_pairs_only_the_eigenvalues_of_z(monkeypatch):
    # C_60 = <2> over GF(61) is its own scalar subgroup: every class is
    # tried for h, and pairing each omega^t with all 60 powers of zeta
    # took 97,020 null spaces
    group = sp.build_group([sp.Mat(sp.make_field(61), [[2]])])
    assert group.order == group.center_order == 60
    calls = []
    null_space = sp.scan.null_space
    monkeypatch.setattr(sp.scan, "null_space",
                        lambda a: calls.append(a) or null_space(a))
    assert sp.scan._eigen_element(sp.defining_rep(group)) == (0, 1, 1)
    assert len(calls) < 10_000


def test_eigen_element_reads_eigenvalues_off_one_word_walk(monkeypatch,
                                                          load_doc):
    # every candidate h is scored by _exponents on its image; no
    # eigenbasis is built until occurrence_tables has chosen h
    f61 = sp.make_field(61)
    c60 = sp.build_group([sp.Mat(f61, [[2]])])
    for v in (load_doc("sl2_5_gf5")[1], sp.defining_rep(c60)):
        calls = {"_in_eigenbasis": 0, "word_images": 0}
        for name in calls:
            def spy(*args, _name=name, _real=getattr(sp.scan, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(sp.scan, name, spy)
        sp.scan._eigen_element(v)
        monkeypatch.undo()
        assert calls == {"_in_eigenbasis": 0, "word_images": 1}


def test_eigenbasis_solves_match_plain_solves_in_dense_bases(load_doc):
    for name in EIGEN_DOCS:
        for seed in (1, 2):
            group, v, modules = load_doc(name, seed=seed)
            ws = [w for _, w in modules]
            m_max = min(group.order, 8)
            plain = [[sp.scan._scan_one(sym, w, m) for w in ws]
                     for m, sym in enumerate(sp.sym_powers(v, m_max), 1)]
            tables = sp.occurrence_tables(v, ws, m_max)
            assert [t.rows for t in tables] == [list(r) for r in
                                                zip(*plain)], name
            lv, *lws = _labelled(v, ws)
            for m, sym in enumerate(sp.sym_powers(lv, m_max), 1):
                # every degree, also those the label shortcut answers
                assert [sp.scan._scan_one(sym, w, m) for w in lws] == \
                    plain[m - 1], (name, seed, m)
                # the scan reads dimensions only; the bases agree
                assert [(m, len(sp.hom_space(w, sym)),
                         len(sp.hom_space(sym, w))) for w in lws] == \
                    plain[m - 1], (name, seed, m)


def _spin_labels(monkeypatch, v, w, m_max):
    """(nu, nv, labels) of every spin of w's scan against v."""
    calls, spin = [], sp.homs._spin

    def recording(field, pairs, nu, nv, labels=None):
        calls.append((nu, nv, labels))
        return spin(field, pairs, nu, nv, labels)

    monkeypatch.setattr(sp.homs, "_spin", recording)
    sp.occurrence_scan(v, w, m_max)
    monkeypatch.undo()
    return calls


def _first_block(monkeypatch, u, w):
    """How many unknowns the first seed of the solve of Hom(u, w) opens:
    the unit rows its T is built from, all made before the first row
    update, which is its first image."""
    events, row_ops = [], sp.homs._row_ops

    def recording(*args):
        ops = row_ops(*args)

        def unit(*a):
            events.append("unit")
            return ops.unit(*a)

        def sub(*a):
            events.append("sub")
            return ops.sub(*a)
        return ops._replace(unit=unit, sub=sub)

    monkeypatch.setattr(sp.homs, "_row_ops", recording)
    sp.hom_space(u, w)
    monkeypatch.undo()
    return events.index("sub")


def test_first_seed_opens_half_of_sym_on_sl2_5(monkeypatch, load_doc):
    # h has eigenvalues i, -i on V, so x^a y^b has i^m (-1)^b on Sym^m:
    # blocks of (m + 2) // 2 and (m + 1) // 2 of the m + 1 coordinates
    _, v, modules = load_doc("sl2_5_gf5")
    for label, degrees in (("defining", (1, 3, 5, 7, 9)),
                           ("sym2", (2, 4, 6, 8))):
        w = dict(modules)[label]
        lv, lw = _labelled(v, [w])
        for m, (sym, lsym) in enumerate(zip(sp.sym_powers(v, 9),
                                            sp.sym_powers(lv, 9)), 1):
            if m not in degrees:  # the degrees with a shared label
                continue
            assert _first_block(monkeypatch, w, sym) == m + 1
            # smallest block first: at even m, m // 2 of m // 2 + 1
            assert _first_block(monkeypatch, lw, lsym) == (m + 1) // 2
            blocks = sorted(lsym.eigen[1].count(x) for x in set(lw.eigen[1]))
            assert blocks == [(m + 1) // 2, (m + 2) // 2], (label, m)
        calls = _spin_labels(monkeypatch, v, w, 9)
        assert len(calls) == 2 * len(degrees)
        assert all(labels is not None for *_, labels in calls)


def test_scans_without_an_eligible_element_are_labelled_by_z_alone(
        monkeypatch, load_doc):
    for name, zs in (("sl2_3_gf3", {1, 2}), ("sl2_2_gf2", {1})):
        _, v, modules = load_doc(name)
        assert sp.scan._eigen_element(v) == (0, 1, 1)
        for _, w in modules:
            calls = _spin_labels(monkeypatch, v, w, 6)
            assert calls, (name, w.dim)
            for *_, (src, dst) in calls:
                # h = 1 labels every coordinate 1; z parts are z's scalars
                assert {x for x, _ in src + dst} == {1}
                assert {y for _, y in src + dst} <= zs
