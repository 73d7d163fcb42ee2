"""End-to-end acceptance criteria.

Each test is one criterion and prints one PASS/FAIL line (visible with
-s or -rA; the -v test names mirror the same statements).  The sweep
fixture builds every suite group from the shipped problem documents, so
the documents themselves are part of what is accepted.
"""

import json
import pathlib
import subprocess
import sys
import time

import pytest

import symmpow as sp
from symmpow.cli import _build_group, _module_reps, parse_problem

pytestmark = pytest.mark.acceptance

ROOT = pathlib.Path(__file__).resolve().parents[1]
PROBLEMS = ROOT / "problems"

SWEEP_DOCS = ("c3_gf7", "c4_gf5", "c6_gf7", "s3_gf7", "sl2_2_gf2",
              "sl2_3_gf3", "q8_gf5")


def _emit(num, ok, text):
    line = f"CRITERION {num} {'PASS' if ok else 'FAIL'}: {text}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def sweep():
    """verify_theorem over every module of the seven suite documents."""
    out = {}
    t0 = time.perf_counter()
    for name in SWEEP_DOCS:
        doc = parse_problem(json.loads(
            (PROBLEMS / f"{name}.json").read_text()))
        group = _build_group(doc)
        v = sp.defining_rep(group)
        modules = _module_reps(doc, group)
        reports = sp.verify_theorem(v, modules, sp.VerifyOptions(k_max=0))
        out[name] = (group, v, {label: rep for (label, _), rep
                                in zip(modules, reports)})
    elapsed = time.perf_counter() - t0
    return out, elapsed


def test_criterion_1_sweep_minima_within_group_order(sweep):
    reports_by_suite, elapsed = sweep
    ok = elapsed < 300.0
    checked = 0
    for name, (group, _, reports) in reports_by_suite.items():
        for label, rep in reports.items():
            ok = ok and 1 <= rep.table.minimal_sub_m <= group.order
            ok = ok and 1 <= rep.table.minimal_quot_m <= group.order
            checked += 1
    ok = ok and checked == 3 + 4 + 6 + 3 + 2 + 3 + 5
    _emit(1, ok, f"all {checked} irreducible modules of the 7 suite groups "
          f"located with 1 <= m <= |G| in {elapsed:.1f}s")


def test_criterion_2_cyclic_top_character_is_extremal(sweep):
    reports_by_suite, _ = sweep
    expected = {"c3_gf7": ("chi2", 2), "c4_gf5": ("chi3", 3),
                "c6_gf7": ("chi5", 5)}
    ok = True
    for name, (label, want) in expected.items():
        table = reports_by_suite[name][2][label].table
        ok = ok and table.minimal_sub_m == want
        ok = ok and table.minimal_quot_m == want
    _emit(2, ok, "C_k top character first occurs at degree exactly k - 1 "
          "for k in {3, 4, 6}")


def test_criterion_3_sl2_small_symmetric_powers():
    ok = True
    for p in (2, 3, 5):
        F = sp.make_field(p)
        group = sp.build_group([sp.Mat(F, [[1, 1], [0, 1]]),
                                sp.Mat(F, [[1, 0], [1, 1]])])
        v = sp.defining_rep(group)
        powers = [sp.sym_power(v, m) for m in range(p)]
        for w in powers:
            ok = ok and sp.is_irreducible(w, seed=0).irreducible
        for a in range(p):
            for b in range(p):
                if a != b:
                    ok = ok and not sp.hom_space(powers[a], powers[b])
        if p > 1:
            table = sp.occurrence_scan(v, powers[p - 1], m_max=p - 1)
            ok = ok and table.minimal_sub_m == p - 1
            ok = ok and table.minimal_quot_m == p - 1
    _emit(3, ok, "SL2(p) symmetric powers below p are irreducible, pairwise "
          "non-isomorphic, and the top one first occurs at degree p - 1")


def test_criterion_4_certificates_are_exact(sweep):
    reports_by_suite, _ = sweep
    ok = True
    for name, (group, _, reports) in reports_by_suite.items():
        central = group.center_order == group.order
        for label, rep in reports.items():
            for cert in (rep.sub_claim, rep.quot_claim):
                ok = ok and all(cert.flags.values())
                if central:
                    t = cert.char_exponent
                    ok = ok and cert.degree == (t if t else cert.center_order)
                else:
                    ok = ok and cert.degree == (cert.coset_count
                                                * cert.center_order
                                                - cert.complement_exponent)
                    ok = ok and cert.degree < cert.group_order
    _emit(4, ok, "every sweep certificate passes all exact identity flags, "
          "with the predicted degree, below the group order for "
          "noncentral groups")


def test_criterion_5_periodicity_witnesses():
    F7 = sp.make_field(7)
    s3 = sp.build_group([sp.Mat(F7, [[0, 1], [1, 0]]),
                         sp.Mat(F7, [[0, 6], [1, 6]])])
    sign = sp.paired_rep(s3, [sp.Mat(F7, [[6]]), sp.Mat(F7, [[1]])])
    [rep_a] = sp.verify_theorem(sp.defining_rep(s3), [("sign", sign)],
                                sp.VerifyOptions(k_max=1))
    F3 = sp.make_field(3)
    sl23 = sp.build_group([sp.Mat(F3, [[1, 1], [0, 1]]),
                           sp.Mat(F3, [[1, 0], [1, 1]])])
    v3 = sp.defining_rep(sl23)
    [rep_b] = sp.verify_theorem(v3, [("defining", v3)],
                                sp.VerifyOptions(k_max=1))
    ok = rep_a.periodicity == [True] and rep_b.periodicity == [True]
    _emit(5, ok, "shifted witnesses verified at degree m + |G| for S3 sign "
          "and for SL2(3) defining in dividing characteristic")


def test_criterion_6_hom_dimensions_survive_extension(sweep):
    reports_by_suite, _ = sweep
    ok = True
    pairs = 0
    es = (1, 2, 3)
    for name in ("s3_gf7", "q8_gf5", "sl2_3_gf3"):
        group, _, reports = reports_by_suite[name]
        doc = parse_problem(json.loads(
            (PROBLEMS / f"{name}.json").read_text()))
        mods = [sp.paired_rep(group, spec.images) for spec in doc.modules]
        for i, u in enumerate(mods):
            for j, w in enumerate(mods):
                e = es[(i + j) % 3]
                d0 = len(sp.hom_space(u, w))
                d1 = len(sp.hom_space(sp.extend_scalars(u, e),
                                      sp.extend_scalars(w, e)))
                ok = ok and d0 == d1
                pairs += 1
    ok = ok and pairs >= 10
    _emit(6, ok, f"hom dimension unchanged under scalar extension for "
          f"{pairs} module pairs with e in {{1, 2, 3}}")


def test_criterion_7_character_oracle_matches_hom_scan(sweep):
    reports_by_suite, _ = sweep
    coprime = ("c3_gf7", "c4_gf5", "c6_gf7", "s3_gf7", "q8_gf5")
    ok = True
    cells = 0
    for name in coprime:
        group, _, reports = reports_by_suite[name]
        for label, rep in reports.items():
            mult = rep.table.molien_multiplicities
            ok = ok and mult is not None
            ok = ok and len(rep.table.rows) == group.order
            for (m, subs, quots), predicted in zip(rep.table.rows, mult):
                ok = ok and subs == predicted == quots
                cells += 1
    _emit(7, ok, f"character oracle equals both hom-space counts in all "
          f"{cells} (module, degree) cells of the coprime suites")


def test_criterion_8_property_suites_standalone():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-m", "properties", "-q"],
        cwd=str(ROOT), capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    ok = proc.returncode == 0 and elapsed < 120.0
    _emit(8, ok, f"property suites pass standalone in {elapsed:.1f}s "
          f"(budget 120s)")
