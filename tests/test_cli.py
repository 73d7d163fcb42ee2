"""The command-line contract: parsing, reports, exit codes, determinism."""

import contextlib
import copy
import io
import json
import os
import pathlib
import resource
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import symmpow.cli as cli
import symmpow.meataxe as meataxe
import symmpow.scan as scan
from symmpow.errors import MeataxeInconclusive, TheoremViolation

ROOT = pathlib.Path(__file__).resolve().parents[1]
PROBLEMS = ROOT / "problems"

S3_DOC = {
    "schema": "symmpow-v1",
    "field": {"p": 7, "f": 1},
    "generators": [[[0, 1], [1, 0]], [[0, 6], [1, 6]]],
    "modules": [
        {"label": "trivial", "images": [[[1]], [[1]]]},
        {"label": "sign", "images": [[[6]], [[1]]]},
    ],
    "options": {"m_max": 6, "k_max": 0},
}


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(argv):
    return cli.main(argv)


def test_check_scan_construct_happy_path(tmp_path, capsys):
    doc = write_doc(tmp_path, S3_DOC)
    out = tmp_path / "report.json"
    assert run(["check", "--input", doc, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["kind"] == "check-report" and report["ok"]
    assert report["group"]["order"] == 6
    assert [m["verdict"] for m in report["modules"]] == ["irreducible"] * 2

    assert run(["scan", "--input", doc, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    mods = {m["label"]: m for m in report["modules"]}
    assert mods["trivial"]["minimal_submodule_degree"] == 2
    assert mods["sign"]["minimal_submodule_degree"] == 3
    assert mods["sign"]["molien"] == [0, 0, 1, 0, 1, 1]

    assert run(["construct", "--input", doc, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    for m in report["modules"]:
        r = m["report"]
        assert r["ok"]
        assert r["submodule_claim"]["degree"] == 5
        assert r["quotient_claim"]["degree"] == 5
        assert all(r["submodule_claim"]["flags"].values())
    capsys.readouterr()


def test_reports_are_byte_identical(tmp_path, capsys):
    doc = write_doc(tmp_path, S3_DOC)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["construct", "--input", doc, "--out", str(a)]) == 0
    assert run(["construct", "--input", doc, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")
    capsys.readouterr()


def _corpus_reports():
    # check and scan on every shipped document, construct on those of
    # group order at most 60, as the corpus digests pin them
    for path in sorted(PROBLEMS.glob("*.json")):
        for cmd in (cli.cmd_check, cli.cmd_scan, cli.cmd_construct):
            if cmd is not cli.cmd_construct or path.stem != "sl2_5_gf5":
                doc = cli.parse_problem(json.loads(path.read_text()))
                yield f"{cmd.__name__} {path.stem}", cmd(doc)[0]


def test_report_writer_matches_json_dumps_on_the_corpus():
    for name, report in _corpus_reports():
        assert cli._dumps(report) == json.dumps(report, sort_keys=True,
                                                indent=2), name


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda kids: st.lists(kids) | st.dictionaries(st.text(), kids),
    max_leaves=30)


@settings(deadline=None, max_examples=200)
@given(obj=JSON_VALUES)
def test_report_writer_matches_json_dumps_on_any_json(obj):
    # bools are ints to isinstance but write as true and false; big ints,
    # non-ASCII text and empty containers take json's own spelling
    for value in (obj, [obj], [1, True, obj], [2 ** 70, -3, 0], {"é": obj},
                  [], {}, [[]], {"": {}}):
        assert cli._dumps(value) == json.dumps(value, sort_keys=True,
                                               indent=2)


def test_human_summary_goes_to_stdout(tmp_path, capsys):
    doc = write_doc(tmp_path, S3_DOC)
    assert run(["scan", "--input", doc]) == 0
    text = capsys.readouterr().out
    assert "minimal submodule degree 3" in text
    assert text.rstrip().endswith("ok")


def test_malformed_documents_exit_2(tmp_path, capsys):
    cases = [
        {"schema": "wrong", "field": {"p": 7}, "generators": [[[1]]]},
        {"schema": "symmpow-v1", "field": {"p": 6}, "generators": [[[1]]]},
        {"schema": "symmpow-v1", "field": {"p": 7},
         "generators": [[[1, 0]]]},
        {"schema": "symmpow-v1", "field": {"p": 7},
         "generators": [[[9]]]},
        {"schema": "symmpow-v1", "field": {"p": 7}, "generators": [[[1]]],
         "modules": [{"label": "w", "images": [[[1]], [[1]]]}]},
        {"schema": "symmpow-v1", "field": {"p": 7}, "generators": [[[1]]],
         "options": {"bogus": 1}},
    ]
    bad_options = [{"m_max": "5"}, {"m_max": -3}, {"m_max": None},
                   {"m_max": 0}, {"k_max": -1}, {"seed": 1.5},
                   {"seed": -1}, {"cap_group": True}, {"cap_dim": 0},
                   {"jobs": 0}, {"jobs": "2"}, {"molien": "maybe"}]
    cases += [dict(S3_DOC, options=opts) for opts in bad_options]
    bad_fields = [{"p": 1000000000000000003}, {"p": 2, "f": 10 ** 18},
                  {"p": True}, {"p": 7, "f": True},
                  {"p": 7, "f": 2, "modulus": [3, True, 1]},
                  {"p": 7, "f": 2, "modulus": [3.0, 1, 1]},
                  {"p": 7, "f": 2, "modulus": "311"}]
    cases += [dict(S3_DOC, field=f) for f in bad_fields]
    cases += [dict(S3_DOC, modules=m) for m in (None, 3, "trivial", {})]
    for i, doc in enumerate(cases):
        path = write_doc(tmp_path, doc, f"bad{i}.json")
        assert run(["check", "--input", path]) == 2, doc
    # flags are validated after they are merged into the options
    good = write_doc(tmp_path, S3_DOC, "good.json")
    assert run(["scan", "--input", good, "--m-max", "-3"]) == 2
    # an unknown flag is an argparse usage error, raised before main's try
    with pytest.raises(SystemExit) as exc:
        run(["scan", "--input", good, "--jobs", "0"])
    assert exc.value.code == 2
    # the character oracle does not apply when p divides |G| (3 | 24)
    sl23 = str(PROBLEMS / "sl2_3_gf3.json")
    assert run(["scan", "--input", sl23, "--molien", "on"]) == 2
    assert run(["construct", "--input", sl23, "--molien", "on"]) == 2
    assert run(["check", "--input", str(tmp_path / "missing.json")]) == 2
    # bytes that are not UTF-8, an integer past Python's digit limit, and
    # nesting past the recursion limit
    raw = tmp_path / "raw.json"
    digits = b'{"field": {"p": ' + b"7" * 5000 + b"}}"
    nested = b"[" * 100000 + b"]" * 100000
    for content in (b'{"schema": "\xff"}', digits, nested):
        raw.write_bytes(content)
        assert run(["check", "--input", str(raw)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


def test_reducible_module_exits_1(tmp_path, capsys, monkeypatch):
    doc = {
        "schema": "symmpow-v1",
        "field": {"p": 7, "f": 1},
        "generators": [[[0, 1, 0], [1, 0, 0], [0, 0, 1]],
                       [[0, 0, 1], [1, 0, 0], [0, 1, 0]]],
        "modules": [{"label": "perm",
                     "images": [[[0, 1, 0], [1, 0, 0], [0, 0, 1]],
                                [[0, 0, 1], [1, 0, 0], [0, 1, 0]]]}],
        "options": {"k_max": 0},
    }
    path = write_doc(tmp_path, doc)
    assert run(["check", "--input", path]) == 1
    built = _count_degrees(monkeypatch)
    assert run(["construct", "--input", path]) == 1
    assert built == []      # a reducible module is not scanned
    text = capsys.readouterr().out
    assert "REDUCIBLE" in text


def test_non_homomorphism_exits_4(tmp_path, capsys):
    doc = dict(S3_DOC)
    doc["modules"] = [{"label": "bogus", "images": [[[2]], [[3]]]}]
    path = write_doc(tmp_path, doc)
    assert run(["check", "--input", path]) == 4
    capsys.readouterr()


def test_caps_exit_3(tmp_path, capsys):
    doc = dict(S3_DOC)
    doc["options"] = {"cap_group": 3}
    path = write_doc(tmp_path, doc)
    assert run(["check", "--input", path]) == 3
    doc2 = dict(S3_DOC)
    doc2["options"] = {}
    path2 = write_doc(tmp_path, doc2, "doc2.json")
    assert run(["scan", "--input", path2, "--cap-dim", "2"]) == 3
    capsys.readouterr()


def test_cap_dim_bounds_construct(capsys):
    # the certified degree 5 (dim Sym^5 = 6) lies beyond a scan to m = 1;
    # with k_max = 1 the shifted certificate needs Sym^11 (dim 12)
    s3 = str(PROBLEMS / "s3_gf7.json")
    assert run(["construct", "--input", s3, "--cap-dim", "3",
                "--m-max", "1", "--k-max", "0"]) == 3
    assert run(["construct", "--input", s3, "--cap-dim", "6",
                "--m-max", "1", "--k-max", "1"]) == 3
    err = capsys.readouterr().err
    assert "exceeds the cap" in err and "Traceback" not in err


def test_cap_dim_bounds_the_largest_shift_up_front(capsys):
    # dim Sym^(5 + 6k) = 6k + 6, so k_max = 10^6 is far past the default
    # cap of 5000 and is refused before the first shift is built
    s3 = str(PROBLEMS / "s3_gf7.json")
    start = time.perf_counter()
    assert run(["construct", "--input", s3, "--k-max", "1000000"]) == 3
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert "Sym^6000005 " in err and "Traceback" not in err


def test_cap_dim_bounds_the_degree_of_a_1_dim_v(capsys):
    # dim Sym^M = 1 for every M when dim V = 1, so the cap binds on the
    # degree M = m + k_max |G| itself
    c3 = str(PROBLEMS / "c3_gf7.json")
    start = time.perf_counter()
    assert run(["construct", "--input", c3, "--k-max", "1000000"]) == 3
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "exceeds the cap 5000" in err and "Traceback" not in err


def test_extension_past_the_field_guard_exits_3(tmp_path, capsys):
    # GF(65537) is under the 2^31 guard, but the character oracle needs
    # cube roots of unity, which first lie in GF(65537^2), past it
    p = 65537
    doc = {"schema": "symmpow-v1", "field": {"p": p, "f": 1},
           "generators": [[[0, 1], [1, 0]], [[0, p - 1], [1, p - 1]]],
           "modules": [{"label": "sign", "images": [[[p - 1]], [[1]]]}],
           "options": {"m_max": 4}}
    path = write_doc(tmp_path, doc)
    for command in ("scan", "construct"):
        assert run([command, "--input", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "65537^2 exceeds the 2^31 guard" in err
        assert "internal error" not in err and "Traceback" not in err
    assert run(["scan", "--input", path, "--molien", "off"]) == 0


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    assert run(["check", "--input", str(PROBLEMS / "c3_gf7.json"),
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_inconclusive_exits_5(tmp_path, capsys, monkeypatch):
    def fake(rep, seed=0, budget=64):
        raise MeataxeInconclusive("no verdict after 0 draws")
    monkeypatch.setattr(cli, "is_irreducible", fake)
    path = write_doc(tmp_path, S3_DOC)
    assert run(["check", "--input", path]) == 5
    capsys.readouterr()


def test_construct_runs_the_meataxe_once_per_module(capsys, monkeypatch):
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(args[0].dim)
            return fn(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(cli, "is_irreducible", counting(cli.is_irreducible))
    monkeypatch.setattr(scan, "is_irreducible", counting(scan.is_irreducible))
    # splitting_extension and simple_submodule call through this one
    monkeypatch.setattr(meataxe, "is_irreducible",
                        counting(meataxe.is_irreducible))
    assert run(["construct", "--k-max", "0", "--input",
                str(PROBLEMS / "s3_gf7.json")]) == 0
    assert sorted(calls) == [1, 1, 2]   # each of the three modules once
    capsys.readouterr()


def _count_degrees(monkeypatch):
    """The degrees scan.sym_powers yields from now on, in one list."""
    built, real = [], scan.sym_powers

    def counting(v, m_max):
        for m, sym in enumerate(real(v, m_max), 1):
            built.append(m)
            yield sym
    monkeypatch.setattr(scan, "sym_powers", counting)
    return built


@pytest.mark.parametrize("stem,depth", [
    ("c3_gf7", 3), ("c4_gf5", 4), ("c6_gf7", 6), ("q8_gf5", 8),
    ("s3_gf7", 6), ("sl2_2_gf2", 6), ("sl2_3_gf3", 24)])
def test_construct_shares_the_scan_of_its_document(stem, depth, monkeypatch):
    # construct scans all of a document's modules on one Sym^m per degree,
    # the scan that scan makes: each module's "scan" block is its entry of
    # the scan report, and the tower is built once, not once per module
    doc = cli.parse_problem(json.loads((PROBLEMS / f"{stem}.json").read_text()))
    scan_report, _ = cli.cmd_scan(doc)
    built = _count_degrees(monkeypatch)
    construct_report, _ = cli.cmd_construct(doc)
    assert scan_report["m_max"] == depth
    assert built == list(range(1, depth + 1))
    for entry, module in zip(scan_report["modules"],
                             construct_report["modules"], strict=True):
        assert module["report"]["scan"] == {
            k: v for k, v in entry.items() if k not in ("label", "dim", "ok")}


def test_irreducibility_verdicts_come_before_any_certificate(capsys,
                                                            monkeypatch):
    # every module's MeatAxe verdict precedes the scan and the
    # certificates, so the last module's inconclusive test (exit 5) wins
    # over the first module's certificate running past the cap (exit 3)
    argv = ["construct", "--input", str(PROBLEMS / "s3_gf7.json"),
            "--m-max", "2", "--k-max", "100", "--cap-dim", "50"]
    raised, real_assemble = [], scan.assemble

    def recording(*args):
        try:
            return real_assemble(*args)
        except Exception as exc:
            raised.append(type(exc).__name__)
            raise
    monkeypatch.setattr(scan, "assemble", recording)
    assert run(argv) == 3
    assert raised == ["CapExceeded"]
    real = scan.is_irreducible

    def inconclusive_standard(rep, seed=0, budget=64):
        if rep.dim == 2:    # "standard", the last module
            raise MeataxeInconclusive("no verdict after 0 draws")
        return real(rep, seed, budget)
    monkeypatch.setattr(scan, "is_irreducible", inconclusive_standard)
    assert run(argv) == 5
    assert raised == ["CapExceeded"]    # no certificate was attempted
    capsys.readouterr()


def test_internal_violation_exits_6(tmp_path, capsys, monkeypatch):
    def fake(v, modules, options=None):
        raise TheoremViolation("verified identity failed: synthetic")
    monkeypatch.setattr(cli, "verify_theorem", fake)
    path = write_doc(tmp_path, S3_DOC)
    assert run(["construct", "--input", path]) == 6
    capsys.readouterr()


def test_oracle_disagreement_exits_6(tmp_path, capsys, monkeypatch, s3):
    real = scan.molien_table
    monkeypatch.setattr(scan, "molien_table",
                        lambda v, w, m_max: [x + 1 for x in real(v, w, m_max)])
    path = write_doc(tmp_path, S3_DOC)
    assert run(["scan", "--input", path]) == 6
    assert run(["construct", "--input", path]) == 6
    err = capsys.readouterr().err
    assert "scan and character oracle disagree" in err
    assert "Traceback" not in err
    _, v, mods = s3
    with pytest.raises(TheoremViolation):
        scan.verify_theorem(v, [("sign", mods["sign"])],
                            scan.VerifyOptions(k_max=0))


def test_missing_base_occurrence_is_a_violation(tmp_path, capsys,
                                                monkeypatch, s3):
    # a scan row that lacks the certified occurrence contradicts the
    # theorem: verify_theorem raises, and construct writes no report.
    # The document's modules are all scanned before any is certified, so
    # the oracle is off: it would reject the standard module's faked row
    # at m = 1 before the trivial module's certificate is checked
    monkeypatch.setattr(scan, "_scan_one", lambda v, w, m: (m, 0, 0))
    _, v, mods = s3
    with pytest.raises(TheoremViolation, match="certified degree"):
        scan.verify_theorem(v, [("sign", mods["sign"])],
                            scan.VerifyOptions(m_max=1, k_max=0))
    out = tmp_path / "r.json"
    assert run(["construct", "--m-max", "1", "--molien", "off", "--input",
                str(PROBLEMS / "s3_gf7.json"), "--out", str(out)]) == 6
    assert not out.exists()
    err = capsys.readouterr().err
    assert "certified degree" in err and "Traceback" not in err


def test_unexpected_exception_exits_7(tmp_path, capsys, monkeypatch):
    def fake(rep, seed=0, budget=64):
        raise RuntimeError("synthetic")
    monkeypatch.setattr(cli, "is_irreducible", fake)
    path = write_doc(tmp_path, S3_DOC)
    assert run(["check", "--input", path]) == 7
    err = capsys.readouterr().err
    assert err == "error: internal error: RuntimeError: synthetic\n"


def test_cli_flags_override_document_options(tmp_path, capsys):
    doc = write_doc(tmp_path, S3_DOC)
    out = tmp_path / "r.json"
    assert run(["scan", "--input", doc, "--m-max", "3",
                "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["m_max"] == 3
    assert all(len(m["rows"]) == 3 for m in report["modules"])
    capsys.readouterr()


def test_construct_scan_shallower_than_certificate(tmp_path, capsys):
    # the certified degree 5 lies beyond the scan; that is not a bug
    out = tmp_path / "r.json"
    assert run(["construct", "--m-max", "1", "--input",
                str(PROBLEMS / "s3_gf7.json"), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    for m in report["modules"]:
        r = m["report"]
        assert r["scan_consistent"] and r["ok"]
        assert r["base_submodule_ok"] and r["base_quotient_ok"]
        assert len(r["scan"]["rows"]) == 1
    capsys.readouterr()


def test_extension_field_elements_as_coefficient_lists(tmp_path, capsys):
    # order-3 scalar group over GF(4); elements are [c0, c1] lists
    doc = {
        "schema": "symmpow-v1",
        "field": {"p": 2, "f": 2},
        "generators": [[[[0, 1]]]],
        "modules": [
            {"label": "chi1", "images": [[[[0, 1]]]]},
            {"label": "chi2", "images": [[[[1, 1]]]]},
        ],
        "options": {"k_max": 0},
    }
    path = write_doc(tmp_path, doc)
    out = tmp_path / "r.json"
    assert run(["scan", "--input", path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["field"] == {"p": 2, "f": 2, "modulus": [1, 1, 1]}
    mods = {m["label"]: m for m in report["modules"]}
    assert mods["chi1"]["minimal_submodule_degree"] == 1
    assert mods["chi2"]["minimal_submodule_degree"] == 2
    # element codes out of coefficient range are rejected
    bad = dict(doc)
    bad["generators"] = [[[3]]]
    path_bad = write_doc(tmp_path, bad, "bad.json")
    assert run(["scan", "--input", path_bad]) == 2
    capsys.readouterr()


def test_shipped_problem_documents_parse_and_check(capsys):
    docs = sorted(PROBLEMS.glob("*.json"))
    assert len(docs) == 8
    for path in docs:
        assert run(["check", "--input", str(path)]) == 0, path.name
    capsys.readouterr()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "symmpow", "scan", "--input",
         str(PROBLEMS / "c3_gf7.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.rstrip().endswith("ok")


def _src_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every CLI call is its own process and pays for each module the
    # import drags in; dataclasses alone brings inspect, ast and dis
    def loaded(code):
        proc = subprocess.run(
            [sys.executable, "-c", f"{code}; import sys; print(*sys.modules)"],
            capture_output=True, text=True, env=_src_env(), check=True)
        return set(proc.stdout.split())

    extra = loaded("import symmpow.cli") - loaded("pass")
    assert "symmpow.cli" in extra
    assert not extra & {"dataclasses", "inspect"}


# GF(2^31 - 1) is the largest prime field under the 2^31 guard: C2 = <-1>
# with its sign module, and the order-6 reflection group with its
# one-dimensional modules, which needs a generic vector
BIG_P = 2147483647
BIG_FIELD_DOCS = (
    {"schema": "symmpow-v1", "field": {"p": BIG_P, "f": 1},
     "generators": [[[BIG_P - 1]]],
     "modules": [{"label": "sign", "images": [[[BIG_P - 1]]]}]},
    {"schema": "symmpow-v1", "field": {"p": BIG_P, "f": 1},
     "generators": [[[0, 1], [1, 0]], [[0, BIG_P - 1], [1, BIG_P - 1]]],
     "modules": [{"label": "trivial", "images": [[[1]], [[1]]]},
                 {"label": "sign", "images": [[[BIG_P - 1]], [[1]]]}]},
)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_largest_prime_field_runs_in_bounded_memory(tmp_path):
    # small problems: no step may cost time or memory of order q
    env = _src_env()
    for i, doc in enumerate(BIG_FIELD_DOCS):
        path = write_doc(tmp_path, doc, f"big{i}.json")
        for argv in (["check"], ["scan", "--molien", "on"], ["construct"]):
            proc = subprocess.run(
                [sys.executable, "-m", "symmpow", *argv, "--input", path],
                capture_output=True, text=True, env=env, timeout=60,
                preexec_fn=_limit_address_space)
            assert proc.returncode == 0, (i, argv, proc.stderr)
            assert proc.stdout.rstrip().endswith("ok")


# integers are unbounded, so p and f also get huge values
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.text(max_size=4), kids, max_size=3)),
    max_leaves=8)

# paths into S3_DOC that the fuzzer may overwrite; option keys that the
# flags below set are left out, since the flags override them
FUZZ_PATHS = (
    ("schema",), ("field",), ("field", "p"), ("field", "f"),
    ("field", "modulus"), ("generators",), ("generators", 0),
    ("generators", 1, 0), ("generators", 0, 1, 1), ("modules",),
    ("modules", 1), ("modules", 0, "label"), ("modules", 1, "images"),
    ("modules", 1, "images", 0, 0, 0), ("options",), ("options", "molien"),
    ("options", "seed"), ("extra",),
)


@settings(deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["check", "scan", "construct"]),
       edits=st.lists(st.tuples(st.sampled_from(FUZZ_PATHS), JSON_VALUES),
                      min_size=1, max_size=2))
def test_fuzzed_documents_exit_with_a_documented_code(command, edits):
    doc = copy.deepcopy(S3_DOC)
    for path, value in edits:
        node = doc
        try:
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit replaced a parent of this path
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        # the flags bound the work of any document that parses
        argv = [command, "--input", str(path), "--m-max", "3",
                "--k-max", "0", "--cap-group", "60", "--cap-dim", "20"]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = run(argv)
    assert 0 <= code <= 6, err.getvalue()
    assert "Traceback" not in err.getvalue()
