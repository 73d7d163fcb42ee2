"""The benchmark's trace hooks still find the functions they wrap.

bench/tracing.py wraps each ENTRY_POINTS name in the symmpow module that
defines it, and its counters read positional arguments of some of them
and attributes of their results.  A rename or a reordered signature would
silently drop a layer from the per-layer breakdown, and a missing result
attribute would crash the traced run, so all three are pinned here.
"""

import collections
import importlib
import importlib.util
import inspect
import pathlib
import sys

import symmpow as sp
from symmpow.groups import enumerate_group

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# positional parameters the counters read, by function
SIGNATURES = {
    ("reps", "sym_power"): ["v", "m"],
    ("reps", "_sym_image"): ["m", "basis"],
    ("reps", "paired_rep"): ["group", "gen_images"],
    ("homs", "hom_basis_from_pairs"): ["field", "pairs", "nu", "nv"],
}


def _load_tracing(monkeypatch):
    # the module puts bench/ and src/ on sys.path and imports its siblings
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(mod)
    finally:
        for sibling in ("check", "inputs"):
            sys.modules.pop(sibling, None)
    return mod


def test_trace_entry_points_resolve(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    assert tracing.ENTRY_POINTS
    for modname, fname, _ in tracing.ENTRY_POINTS:
        mod = importlib.import_module(f"symmpow.{modname}")
        assert callable(getattr(mod, fname, None)), f"{modname}.{fname}"
    for (modname, fname), params in SIGNATURES.items():
        fn = getattr(importlib.import_module(f"symmpow.{modname}"), fname)
        got = list(inspect.signature(fn).parameters)[:len(params)]
        assert got == params, f"{modname}.{fname}"


def test_trace_counters_read_real_results(monkeypatch, s3):
    tracing = _load_tracing(monkeypatch)
    group, v, mods = s3
    w = mods["sign"]
    calls = (
        ("scan.occurrence_scan", sp.occurrence_scan, (v, w, 2),
         "scan.degrees", 2),
        ("meataxe.irreducible", sp.is_irreducible, (mods["standard"],),
         "meataxe.draws", 1),
        ("construct.assemble", sp.assemble, (w,),
         "construct.extension_degree", 2),
        ("groups.enumerate", enumerate_group, (group.generators,),
         "groups.elements", 6),
    )
    for span, fn, args, key, value in calls:
        counters = collections.Counter()
        tracing.COUNTERS[span](counters, args, fn(*args))
        assert counters[key] == value, span
