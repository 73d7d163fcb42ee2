"""Self-test of the benchmark's own checks:  python3 -m pytest bench -q

The output check must catch a tampered report, the seeded inputs must
repeat per seed and keep their golden answers, and self time must be
computed from spans as documented.
"""

import copy
import json
import pathlib
import random
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from symmpow import cli  # noqa: E402

WORK = BENCH.parent / ".bench_build" / "selftest"


def _report(doc: str, cmd: str, seed):
    paths = inputs.write_docs("corpus", seed, WORK / str(seed))
    out = WORK / f"{doc}.{cmd}.{seed}.json"
    code = cli.main([cmd, "--input", str(paths[doc]), "--out", str(out)])
    return code, json.loads(out.read_text())


@pytest.fixture(scope="module")
def construct_s3():
    golden = check.load_golden()[inputs.op_key("s3_gf7", "construct", ())]
    code, report = _report("s3_gf7", "construct", 7)
    return golden, code, report


def test_untampered_report_passes(construct_s3):
    golden, code, report = construct_s3
    assert check.verdict(golden, code, report) is None


def _flip_flag(r):
    r["modules"][2]["report"]["submodule_claim"]["flags"]["span_dimension"] = False


def _bump_row(r):
    r["modules"][0]["report"]["scan"]["rows"][0][1] += 1


def _shift_degree(r):
    r["modules"][1]["report"]["quotient_claim"]["degree"] += 1


def _not_ok(r):
    r["ok"] = False


def _drop_module(r):
    del r["modules"][1]


def _drop_key(r):
    del r["modules"][0]["report"]["splitting_degree"]


@pytest.mark.parametrize("tamper", [_flip_flag, _bump_row, _shift_degree,
                                    _not_ok, _drop_module, _drop_key])
def test_tampered_report_is_caught(construct_s3, tamper):
    golden, code, report = construct_s3
    bad = copy.deepcopy(report)
    tamper(bad)
    assert check.verdict(golden, code, bad) is not None


def test_wrong_exit_or_missing_report_is_caught(construct_s3):
    golden, code, report = construct_s3
    assert check.verdict(golden, 6, report) is not None
    assert check.verdict(golden, code, None) is not None


def test_seed_fixes_the_bases():
    a = inputs.rebase(inputs.load_doc("b3_gf7"), random.Random("1:b3_gf7"))
    b = inputs.rebase(inputs.load_doc("b3_gf7"), random.Random("1:b3_gf7"))
    c = inputs.rebase(inputs.load_doc("b3_gf7"), random.Random("2:b3_gf7"))
    assert a == b
    assert a["generators"] != c["generators"]
    assert all(x for g in a["generators"] for row in g for x in row)


def test_rebased_scan_matches_golden():
    golden = check.load_golden()[inputs.op_key("sl2_3_gf3", "scan", ())]
    code, report = _report("sl2_3_gf3", "scan", 3)
    assert check.verdict(golden, code, report) is None


def test_self_time_subtracts_direct_children():
    spans = [("bench.op", 0, 100, -1), ("homs.solve", 10, 60, 0),
             ("linalg.rref", 20, 50, 1), ("linalg.rref", 70, 80, 0)]
    m = tracing.layer_metrics(spans, tracing.Tracer().counters)
    assert m["bench.self_s"] == pytest.approx(40e-9)
    assert m["homs.self_s"] == pytest.approx(20e-9)
    assert m["linalg.self_s"] == pytest.approx(40e-9)
    assert m["linalg.rref_s"] == pytest.approx(40e-9)
    assert m["linalg.rref_calls"] == 2
