"""Occurrence tables, the character-series oracle, and the full
verification driver."""

import json
import pathlib
from math import lcm

import pytest

import symmpow as sp
import symmpow.cli as cli
from symmpow.cli import _build_group, parse_problem
from symmpow.linalg import rank

from oracles import hom_dim_by_enumeration, molien_by_elements

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
    _, v, mods = s3
    [rep] = sp.verify_theorem(v, [("sign", mods["sign"])],
                              sp.VerifyOptions(k_max=1))
    assert rep.splitting_degree == 1
    assert rep.irreducible_draws == 0
    assert rep.sub_claim.degree == 5 and rep.quot_claim.degree == 5
    assert rep.sub_claim is rep.quot_claim  # base case reuses one claim
    assert rep.molien_ok is True
    assert rep.periodicity == [True]
    assert rep.table.minimal_sub_m == 3


def test_verify_theorem_modular_case(sl23):
    _, v, mods = sl23
    [rep] = sp.verify_theorem(v, [("defining", mods["defining"])],
                              sp.VerifyOptions(k_max=0))
    assert rep.molien_ok is None  # characteristic divides the group order
    assert rep.sub_claim.degree == 23
    assert rep.sub_claim.extension_degree == 3
    assert rep.table.minimal_sub_m == 1
    assert rep.periodicity == []


def test_verify_theorem_non_absolute_case(c3_gf2):
    _, w = c3_gf2
    [rep] = sp.verify_theorem(w, [("w", w)], sp.VerifyOptions(k_max=0))
    assert rep.splitting_degree == 2
    assert rep.sub_claim is not rep.quot_claim
    assert rep.sub_claim.degree == 2 and rep.quot_claim.degree == 2
    assert rep.table.minimal_sub_m == 1


def test_verify_theorem_rejects_reducible(s3_perm):
    group, perm = s3_perm
    v = sp.defining_rep(group)
    # a reducible module has no guaranteed occurrence, so no report
    assert sp.verify_theorem(v, [("perm", perm)]) == [None]


def test_molien_options_flow(s3):
    _, v, mods = s3
    [rep] = sp.verify_theorem(v, [("trivial", mods["trivial"])],
                              sp.VerifyOptions(k_max=0, molien="off"))
    assert rep.molien_ok is None
    assert rep.table.molien_multiplicities is None
    [rep_on] = sp.verify_theorem(v, [("trivial", mods["trivial"])],
                                 sp.VerifyOptions(k_max=0, molien="on"))
    assert rep_on.molien_ok is True
    assert rep_on.table.molien_multiplicities == [0, 1, 1, 1, 1, 2]


# ---------------------------------------------------------------------------
# the central-character filter: degrees whose power of z's scalar is no
# eigenvalue of W(z) are answered (m, 0, 0) without a solve

def _unfiltered_rows(v, w, m_max):
    return [sp.scan._scan_one(sym, w, m)
            for m, sym in enumerate(sp.sym_powers(v, m_max), 1)]


def _solved_degrees(monkeypatch, v, w, m_max):
    """The scan's rows, the degrees it solved and its hom_space calls."""
    solved, calls = [], []
    scan_one, hom_space = sp.scan._scan_one, sp.scan.hom_space

    def counting_scan_one(sym, w, m):
        solved.append(m)
        return scan_one(sym, w, m)

    def counting_hom_space(a, b):
        calls.append(1)
        return hom_space(a, b)

    monkeypatch.setattr(sp.scan, "_scan_one", counting_scan_one)
    monkeypatch.setattr(sp.scan, "hom_space", counting_hom_space)
    rows = sp.occurrence_scan(v, w, m_max=m_max).rows
    monkeypatch.undo()
    return rows, solved, len(calls)


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
    rows, solved, calls = _solved_degrees(monkeypatch, v, w, 12)
    assert solved == [m for m in range(1, 13) if m % 4 in (0, 1)]
    assert calls == 2 * len(solved)
    assert rows == _unfiltered_rows(v, w, 12)
    assert [m for m, s, q in rows if s] == [1, 4, 5, 8, 9, 12]


def test_filter_skips_even_degrees_on_q8(monkeypatch, q8):
    group, v, mods = q8
    # z = -1 acts on the defining module as -1 = lam and on Sym^m as (-1)^m
    rows, solved, calls = _solved_degrees(monkeypatch, v, mods["defining"], 8)
    assert solved == [1, 3, 5, 7]
    assert calls == 8
    assert rows == _unfiltered_rows(v, mods["defining"], 8)


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
        tables = sp.scan.scan_modules(v, modules, opts)
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
# the eigenbasis path: the scan conjugates V and every W by eigenvectors of
# one semisimple h, and each seed of a hom solve opens only the Sym^m
# coordinates of its own h-eigenvalue

EIGEN_DOCS = [p.stem for p in sorted(PROBLEMS.glob("*.json"))] + [
    "b3_gf7", "gl2_3_gf3_defining"]

# (order of h, eigenvalues of h on Sym^m) for the h the scan picks
EIGEN_ELEMENTS = {"sl2_5_gf5": (4, 2), "q8_gf5": (4, 2), "b3_gf7": (3, 3),
                  "s3_gf7": (3, 3), "gl2_3_gf3_defining": (2, 2),
                  "sl2_3_gf3": None, "sl2_2_gf2": None, "c3_gf7": None,
                  "c4_gf5": None, "c6_gf7": None}


def _eigenvalue_ratio_order(v, g):
    """The order of the group that the ratios of V(g)'s eigenvalues in F
    generate, the eigenvalues found by trying every field element."""
    field, n = v.field, v.dim
    lams = [x for x in range(1, field.q)
            if rank(sp.Mat(field, [[field.sub(a, x) if i == j else a
                                    for j, a in enumerate(row)]
                                   for i, row in enumerate(
                                       v.images[g].rows)])) < n]
    inv = field.inv(lams[0])
    return lcm(*(sp.mult_order(field, field.mul(x, inv)) for x in lams))


def _labelled(v, ws):
    """v and ws conjugated into the scan's eigenbasis, or None."""
    eigen = sp.scan._eigen_element(v)
    return eigen and [sp.scan._in_eigenbasis(r, *eigen) for r in (v, *ws)]


def test_eigen_element_has_the_most_eigenvalues_on_sym(load_doc):
    for name, expected in EIGEN_ELEMENTS.items():
        group, v, _ = load_doc(name)
        q = v.field.q
        counts = [(_eigenvalue_ratio_order(v, g), g)
                  for g, _ in sp.groups.conjugacy_classes(group)
                  if (q - 1) % group.element_order(g) == 0]
        most = max(c for c, _ in counts)
        eigen = sp.scan._eigen_element(v)
        if expected is None:
            assert most == 1 and eigen is None, name
            continue
        h, omega, d = eigen
        assert h == min(g for c, g in counts if c == most), name
        assert d == group.element_order(h) and sp.mult_order(
            v.field, omega) == d, name
        lv, = _labelled(v, [])
        sym = list(sp.sym_powers(lv, 6))[-1]
        assert (d, len(set(sym.eigen[1]))) == expected, name
        # h's image is diagonal in the new basis, with the labels on it
        assert lv.images[h].rows == [
            [lam if i == j else 0 for j in range(v.dim)]
            for i, lam in enumerate(lv.eigen[1])], name
        assert lv.eigen[0] == h


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
            labelled = _labelled(v, ws)
            if labelled is None:
                continue
            lv, *lws = labelled
            for m, sym in enumerate(sp.sym_powers(lv, m_max), 1):
                # every degree, also those the central filter answers
                assert [sp.scan._scan_one(sym, w, m) for w in lws] == \
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
    """How many unknowns the solve of Hom(u, w) holds when it first maps a
    spin vector: the first seed's block (its first unpack of a T_j)."""
    sizes, row_ops = [], sp.homs._row_ops

    def recording(*args):
        ops = row_ops(*args)

        def unpack(xs, n):
            sizes.append(len(xs))
            return ops.unpack(xs, n)
        return ops._replace(unpack=unpack)

    monkeypatch.setattr(sp.homs, "_row_ops", recording)
    sp.hom_space(u, w)
    monkeypatch.undo()
    return sizes[0]


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
            if m not in degrees:  # the degrees the filter leaves
                continue
            assert _first_block(monkeypatch, w, sym) == m + 1
            # smallest block first: at even m, m // 2 of m // 2 + 1
            assert _first_block(monkeypatch, lw, lsym) == (m + 1) // 2
            blocks = sorted(lsym.eigen[1].count(x) for x in set(lw.eigen[1]))
            assert blocks == [(m + 1) // 2, (m + 2) // 2], (label, m)
        calls = _spin_labels(monkeypatch, v, w, 9)
        assert len(calls) == 2 * len(degrees)
        assert all(labels is not None for *_, labels in calls)


def test_scans_without_an_eligible_element_are_unlabelled(monkeypatch,
                                                          load_doc):
    for name in ("sl2_3_gf3", "sl2_2_gf2"):
        _, v, modules = load_doc(name)
        assert sp.scan._eigen_element(v) is None
        for _, w in modules:
            calls = _spin_labels(monkeypatch, v, w, 6)
            assert calls and all(labels is None for *_, labels in calls)
