"""In-process pass over a workload, with or without layer spans.

Run as its own process, one per pass, because symmpow keeps module-level
caches keyed by object identity (``_sym_cache``, ``_generic_cache``,
``_molien_contexts``) that would carry memory from one pass to the next:

    python3 bench/tracing.py --workload scan_deep --docs DIR --traced 1 \
        --seed 0 --spans FILE

Each operation calls ``symmpow.cli.main`` with the same arguments the CLI
gets.  With ``--traced 1`` the layer entry points listed in ``ENTRY_POINTS``
are wrapped in every ``symmpow`` module namespace that binds them (``from
.linalg import rref`` copies the name at import time, so patching
``linalg`` alone would miss callers).  Each wrapper records one span
(name, start, end, parent) and the counters of that boundary; spans stay
in memory and are written as JSON lines when the pass ends.  Prints one
JSON object: pass time, operation outcomes and, when traced, the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import importlib
import io
import json
import pathlib
import random
import statistics
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
import inputs  # noqa: E402


# (module, function, span name).  Spans are named <layer>.<what>; the
# layer is the symmpow module the function belongs to.
ENTRY_POINTS = (
    ("cli", "parse_problem", "cli.parse"),
    ("cli", "cmd_check", "cli.check"),
    ("cli", "cmd_scan", "cli.scan"),
    ("cli", "cmd_construct", "cli.construct"),
    ("groups", "enumerate_group", "groups.enumerate"),
    ("groups", "center_scalars", "groups.center"),
    ("groups", "coset_transversal", "groups.transversal"),
    ("meataxe", "is_irreducible", "meataxe.irreducible"),
    ("meataxe", "splitting_extension", "meataxe.split"),
    ("construct", "assemble", "construct.assemble"),
    ("construct", "find_generic_vector", "construct.generic_vector"),
    ("construct", "is_generic_vector", "construct.is_generic"),
    ("scan", "verify_theorem", "scan.verify_theorem"),
    ("scan", "occurrence_scan", "scan.occurrence_scan"),
    ("scan", "molien_table", "scan.molien"),
    ("reps", "paired_rep", "reps.paired_rep"),
    ("reps", "sym_power", "reps.sym_power"),
    ("reps", "_sym_image", "reps.sym_image"),
    ("homs", "hom_basis_from_pairs", "homs.solve"),
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "mat_vec", "linalg.mat_vec"),
    ("linalg", "mat_mul", "linalg.mat_mul"),
)

LAYERS = ("bench", "cli", "groups", "meataxe", "construct", "scan", "reps",
          "homs", "linalg")


def _count_rref(c, args, res):
    c["linalg.rref_cells"] += args[0].nrows * args[0].ncols


def _count_solve(c, args, res):
    c["homs.unknowns"] += args[2] * args[3]


def _count_sym_image(c, args, res):
    c["reps.sym_dim_max"] = max(c["reps.sym_dim_max"], len(args[1]))


def _count_irreducible(c, args, res):
    c["meataxe.draws"] += res.draws


def _count_assemble(c, args, res):
    c["construct.extension_degree"] = max(c["construct.extension_degree"],
                                          res.extension_degree)


def _count_enumerate(c, args, res):
    c["groups.elements"] += res.order


def _count_scan(c, args, res):
    c["scan.degrees"] += len(res.rows)


# counters read at a span's boundary, from its arguments and result
COUNTERS = {
    "linalg.rref": _count_rref,
    "homs.solve": _count_solve,
    "reps.sym_image": _count_sym_image,
    "meataxe.irreducible": _count_irreducible,
    "construct.assemble": _count_assemble,
    "groups.enumerate": _count_enumerate,
    "scan.occurrence_scan": _count_scan,
}


class Tracer:
    """Spans as (name, start_ns, end_ns, parent index), in call order."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = collections.Counter()

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        parent = self.stack[-2] if len(self.stack) > 1 else -1
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans[idx] = (name, t0, time.perf_counter_ns(), parent)
            self.stack.pop()

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            with self.span(name):
                res = fn(*args, **kwargs)
            if count is not None:
                count(self.counters, args, res)
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Replace each entry point in every symmpow namespace bound to it."""
        for modname, _, _ in ENTRY_POINTS:
            importlib.import_module(f"symmpow.{modname}")
        mods = [m for n, m in list(sys.modules.items())
                if n == "symmpow" or n.startswith("symmpow.")]
        for modname, fname, span in ENTRY_POINTS:
            orig = getattr(sys.modules[f"symmpow.{modname}"], fname)
            wrapped = self.wrap(span, orig)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)

    def write(self, path: pathlib.Path):
        """One JSON line per span; "op" is the id of the operation's root
        span, shared by every span of that operation."""
        path.parent.mkdir(parents=True, exist_ok=True)
        root = []
        with path.open("w") as fh:
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                root.append(i if parent < 0 else root[parent])
                fh.write(json.dumps({"id": i, "op": root[i], "name": name,
                                     "start_ns": t0, "end_ns": t1,
                                     "parent": parent}) + "\n")


def layer_metrics(spans, counters) -> dict:
    """Per-layer metrics from a finished span list.

    A name's time is the summed duration of its outermost spans (a span
    nested inside one of the same name is not counted twice).  Self time
    is a span's duration minus the time its direct children cover.
    """
    n = len(spans)
    child_ns = [0] * n
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    total = {}
    calls = {}
    self_ns = {}
    layer_self = dict.fromkeys(LAYERS, 0)
    for i, (name, t0, t1, parent) in enumerate(spans):
        dur = t1 - t0
        calls[name] = calls.get(name, 0) + 1
        own = dur - child_ns[i]
        self_ns[name] = self_ns.get(name, 0) + own
        layer_self[name.split(".", 1)[0]] += own
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total[name] = total.get(name, 0) + dur

    def s(name):
        return total.get(name, 0) / 1e9

    # generic_tries: is_generic_vector calls per vector search that ran
    searches = sum(1 for i, sp in enumerate(spans)
                   if sp[0] == "construct.generic_vector" and child_ns[i])
    out = {
        "linalg.rref_s": s("linalg.rref"),
        "linalg.rref_calls": calls.get("linalg.rref", 0),
        "linalg.rref_cells": counters["linalg.rref_cells"],
        "homs.solve_s": s("homs.solve"),
        "homs.solves": calls.get("homs.solve", 0),
        "homs.unknowns": counters["homs.unknowns"],
        "linalg.mat_vec_s": s("linalg.mat_vec"),
        "linalg.mat_vec_calls": calls.get("linalg.mat_vec", 0),
        "linalg.mat_mul_s": s("linalg.mat_mul"),
        "reps.sym_image_s": s("reps.sym_image"),
        "reps.sym_images": calls.get("reps.sym_image", 0),
        "reps.sym_dim_max": counters["reps.sym_dim_max"],
        "reps.paired_rep_s": s("reps.paired_rep"),
        "groups.build_s": s("groups.enumerate") + s("groups.center")
        + s("groups.transversal"),
        "groups.elements": counters["groups.elements"],
        "cli.parse_s": s("cli.parse"),
        "cli.check_s": s("cli.check"),
        "cli.scan_s": s("cli.scan"),
        "cli.construct_s": s("cli.construct"),
        "meataxe.irreducible_s": s("meataxe.irreducible"),
        "meataxe.draws": counters["meataxe.draws"],
        "meataxe.split_s": s("meataxe.split"),
        "construct.assemble_s": s("construct.assemble"),
        "construct.assemble_self_s":
            self_ns.get("construct.assemble", 0) / 1e9,
        "construct.generic_vector_s": s("construct.generic_vector"),
        "construct.generic_tries":
            calls.get("construct.is_generic", 0) / max(searches, 1),
        "construct.extension_degree": counters["construct.extension_degree"],
        "scan.occurrence_scan_s": s("scan.occurrence_scan"),
        "scan.degrees": counters["scan.degrees"],
        "scan.molien_s": s("scan.molien"),
        "scan.verify_theorem_self_s":
            self_ns.get("scan.verify_theorem", 0) / 1e9,
        "trace.spans": n,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer] / 1e9
    return out


def span_cost_ns(calls: int = 20_000, repeats: int = 5) -> float:
    """Calibrated cost of one span: a wrapped no-op call minus a bare one.

    The traced-minus-untraced pass time is the difference of two runs and
    can be swamped by run-to-run noise; spans times this cost is an
    estimate of the same overhead that noise does not move."""
    def noop():
        return None

    def loop(fn):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            fn()
        return time.perf_counter_ns() - t0

    wrapped = Tracer().wrap("bench.noop", noop)
    bare = statistics.median(loop(noop) for _ in range(repeats))
    traced = statistics.median(loop(wrapped) for _ in range(repeats))
    return (traced - bare) / calls


# ---------------------------------------------------------------------------
# field microbenchmark

FIELD_CASES = (("gf5", 5, 1), ("gf125", 5, 3), ("gf78125", 5, 7))
_FIELD_OPS = 20_000
_FIELD_REPEATS = 5


def field_metrics(seed: int) -> dict:
    """ns per mul and add on a prime field, a table-backed extension and
    one past the exp/log table limit, over a fixed operand stream drawn
    from the seed.  The time includes the Python call and loop overhead
    that every caller of the bound field operations pays."""
    from symmpow.fields import make_field
    out = {}
    for label, p, f in FIELD_CASES:
        field = make_field(p, f)
        rng = random.Random(f"{seed}:{label}")
        pairs = [(rng.randrange(field.q), rng.randrange(field.q))
                 for _ in range(_FIELD_OPS)]
        for op in ("mul", "add"):
            fn = getattr(field, op)
            runs = []
            for _ in range(_FIELD_REPEATS):
                t0 = time.perf_counter_ns()
                for a, b in pairs:
                    fn(a, b)
                runs.append(time.perf_counter_ns() - t0)
            out[f"fields.{op}_ns.{label}"] = statistics.median(runs) / _FIELD_OPS
    return out


# ---------------------------------------------------------------------------

def run_pass(workload: str, docs: pathlib.Path, tracer: Tracer | None):
    """Run every operation of the workload in this process; returns
    (pass seconds, [(op key, reason or None)]).  Importing happens before
    the clock starts."""
    from symmpow import cli
    golden = check.load_golden()
    results = []
    elapsed = 0.0
    for doc, cmd, flags in inputs.WORKLOADS[workload]:
        out = docs / f"{doc}.{cmd}.inproc.json"
        out.unlink(missing_ok=True)
        argv = [cmd, "--input", str(docs / f"{doc}.json"), "--out", str(out),
                *flags]
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                if tracer is None:
                    code = cli.main(argv)
                else:
                    with tracer.span("bench.op"):
                        code = cli.main(argv)
        except Exception as exc:  # an uncaught error is a failed operation
            code = f"uncaught {type(exc).__name__}: {exc}"
        elapsed += time.perf_counter() - t0
        key = inputs.op_key(doc, cmd, flags)
        if isinstance(code, str):
            reason = code
        else:
            reason = check.verdict(golden[key], code, check.read_report(out))
        results.append((key, reason))
    return elapsed, results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--docs", required=True, type=pathlib.Path)
    ap.add_argument("--traced", type=int, choices=(0, 1), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--spans", type=pathlib.Path)
    args = ap.parse_args(argv)

    tracer = Tracer() if args.traced else None
    if tracer is not None:
        tracer.install()
    run_s, results = run_pass(args.workload, args.docs, tracer)
    out = {"run_s": run_s, "results": results}
    if tracer is not None:
        out["metrics"] = layer_metrics(tracer.spans, tracer.counters)
        out["metrics"]["trace.span_cost_s"] = \
            len(tracer.spans) * span_cost_ns() / 1e9
        out["metrics"].update(field_metrics(args.seed))
        if args.spans is not None:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
