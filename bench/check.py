"""Output check: the basis-independent invariants of a symmpow report.

``golden.json`` stores, per operation, the exit code and the invariants
of its report.  A change of basis of V or W leaves every stored field
unchanged (hom dimensions, occurrence degrees, Molien multiplicities,
splitting and extension degrees, flags, verdicts, ok), so the same golden
entry checks every seed.  Basis-dependent data (generic vectors,
witnesses, MeatAxe certificates) is left out.
"""

from __future__ import annotations

import json
import pathlib

GOLDEN = pathlib.Path(__file__).resolve().with_name("golden.json")


def _claim(c: dict) -> dict:
    return {k: c[k] for k in ("degree", "shift", "total_degree",
                              "extension_degree", "char_exponent",
                              "coset_count", "central", "flags")}


def _table(t: dict) -> dict:
    return {k: t[k] for k in ("rows", "minimal_submodule_degree",
                              "minimal_quotient_degree", "bound", "molien")}


def _module(kind: str, m: dict) -> dict:
    out = {"label": m["label"], "dim": m["dim"]}
    if kind == "check-report":
        out["verdict"] = m["verdict"]
    elif kind == "scan-report":
        out.update(_table(m), ok=m["ok"])
    else:
        r = m["report"]
        out["report"] = None if r is None else {
            "splitting_degree": r["splitting_degree"],
            "submodule_claim": _claim(r["submodule_claim"]),
            "quotient_claim": _claim(r["quotient_claim"]),
            "base_submodule_ok": r["base_submodule_ok"],
            "base_quotient_ok": r["base_quotient_ok"],
            "scan": _table(r["scan"]),
            "scan_consistent": r["scan_consistent"],
            "molien_ok": r["molien_ok"],
            "periodicity": r["periodicity"],
            "ok": r["ok"],
        }
    return out


def invariants(report: dict) -> dict:
    """The part of a report every basis must reproduce exactly."""
    kind = report["kind"]
    out = {"kind": kind, "group": report["group"], "ok": report["ok"],
           "modules": [_module(kind, m) for m in report["modules"]]}
    if kind == "scan-report":
        out["m_max"] = report["m_max"]
    return out


def _flags_true(inv: dict) -> bool:
    for m in inv["modules"]:
        r = m.get("report")
        if r is None:
            continue
        for claim in (r["submodule_claim"], r["quotient_claim"]):
            if not all(claim["flags"].values()):
                return False
        if not all(r["periodicity"]):
            return False
    return True


def verdict(expected: dict, code: int, report: dict | None) -> str | None:
    """None when the operation matches its golden entry, else the reason."""
    if code != expected["exit"]:
        return f"exit code {code}, expected {expected['exit']}"
    if report is None:
        return "no report written"
    try:
        got = invariants(report)
    except (KeyError, TypeError) as exc:
        return f"malformed report: {exc!r}"
    if not got["ok"] or not _flags_true(got):
        return "report is not ok or has a false certificate flag"
    if got != expected["invariants"]:
        return "report invariants differ from golden"
    return None


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def read_report(path: pathlib.Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None
