"""The benchmark's trace hooks still find the functions they wrap.

bench/tracing.py wraps each ENTRY_POINTS name in the symmpow module that
defines it, and its counters read positional arguments of some of them.
A rename or a reordered signature would silently drop a layer from the
per-layer breakdown, so both are pinned here.
"""

import importlib
import importlib.util
import inspect
import pathlib
import sys

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
