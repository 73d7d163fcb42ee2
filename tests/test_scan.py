"""Occurrence tables, the character-series oracle, and the full
verification driver."""

import pytest

import symmpow as sp

from oracles import hom_dim_by_enumeration

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
    rep = sp.verify_theorem(v, mods["sign"],
                            sp.VerifyOptions(k_max=1), label="sign")
    assert rep.splitting_degree == 1
    assert rep.irreducible_draws == 0
    assert rep.sub_claim.degree == 5 and rep.quot_claim.degree == 5
    assert rep.sub_claim is rep.quot_claim  # base case reuses one claim
    assert rep.molien_ok is True
    assert rep.periodicity == [True]
    assert rep.table.minimal_sub_m == 3


def test_verify_theorem_modular_case(sl23):
    _, v, mods = sl23
    rep = sp.verify_theorem(v, mods["defining"], sp.VerifyOptions(k_max=0))
    assert rep.molien_ok is None  # characteristic divides the group order
    assert rep.sub_claim.degree == 23
    assert rep.sub_claim.extension_degree == 3
    assert rep.table.minimal_sub_m == 1
    assert rep.periodicity == []


def test_verify_theorem_non_absolute_case(c3_gf2):
    _, w = c3_gf2
    rep = sp.verify_theorem(w, w, sp.VerifyOptions(k_max=0))
    assert rep.splitting_degree == 2
    assert rep.sub_claim is not rep.quot_claim
    assert rep.sub_claim.degree == 2 and rep.quot_claim.degree == 2
    assert rep.table.minimal_sub_m == 1


def test_verify_theorem_rejects_reducible(s3_perm):
    group, perm = s3_perm
    v = sp.defining_rep(group)
    # a reducible module has no guaranteed occurrence, so no report
    assert sp.verify_theorem(v, perm) is None


def test_molien_options_flow(s3):
    _, v, mods = s3
    rep = sp.verify_theorem(v, mods["trivial"],
                            sp.VerifyOptions(k_max=0, molien="off"))
    assert rep.molien_ok is None
    assert rep.table.molien_multiplicities is None
    rep_on = sp.verify_theorem(v, mods["trivial"],
                               sp.VerifyOptions(k_max=0, molien="on"))
    assert rep_on.molien_ok is True
    assert rep_on.table.molien_multiplicities == [0, 1, 1, 1, 1, 2]
