"""symmpow benchmark: one workload per call, or every workload at once.

    python3 bench/run.py --workload corpus --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0 [--write-baseline]
    python3 bench/run.py --write-golden

Run from the repository root; the program is the checkout's ``src/``,
needing no build.  Each operation is one CLI call,
``python3 -m symmpow {check,scan,construct} --input DOC --out REPORT``,
in a fresh process, one at a time: a closed loop with a single client.
The documents come from ``inputs.py``; the seed picks their bases.  Every
report is checked against ``golden.json``; a nonzero exit, a timeout or a
mismatch counts as a failed operation.

--trace 0 times whole passes over the workload and prints the end-to-end
metrics.  --trace 1 runs the workload in-process twice, in two fresh
processes, once bare and once with layer spans (``tracing.py``), and prints
the per-layer metrics plus the tracing overhead.  The last line of output
is always one JSON object: correct, attempted, failed, metrics.
``--workload all`` runs both modes on every workload and prints every
metric; with --write-baseline it also writes BENCHMARK.json and
``bench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import threading
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import inputs  # noqa: E402

WORK = ROOT / ".bench_build" / "symmpow"
BASELINE = BENCH / "baseline.json"

RUN_SECONDS = 40
SETUP_PROBES = 9
# Per-operation timeout; a run also stops starting new work once it is
# RUN_DEADLINE_S old, so it ends within 180 s even when an operation hangs.
OP_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 165.0

WORKLOAD_WHY = {
    "corpus": "check+scan on the 8 shipped docs, construct on the 7 of order "
              "<= 60: many small CLI calls; start-up, import, parse, group "
              "build, MeatAxe and Molien dominate",
    "scan_deep": f"scan sl2_5_gf5 (|G|=120, GF(5), 5 modules) to "
                 f"m={inputs.SCAN_DEEP_SL2_5_M} and B3/GF(7) (dim 3, |G|=48, "
                 f"Molien on) to m={inputs.SCAN_DEEP_B3_M}, each in "
                 f"{inputs.SCAN_DEEP_COPIES} bases: prime-field Kronecker "
                 f"hom solves",
    "construct_deep": "construct --k-max 0 on GL(2,3)/GF(3), defining "
                      "module only, in fresh bases each pass: degree 47 over "
                      "GF(27); coset mat_vec, all-element sym_power, hom "
                      "solves",
}

# (name, unit, bound).  All three are lower-is-better.  setup_s is the
# median of SETUP_PROBES fresh processes and gets the largest bound.
END_TO_END = (
    ("run_s", "s", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.1),
)


def _unit(name: str) -> str:
    """Units follow the name: *_s seconds, *_ns.<field> ns per operation,
    *_mb megabytes, anything else a count."""
    if name.endswith("_s"):
        return "s"
    if "_ns." in name:
        return "ns"
    if name.endswith("_mb"):
        return "MB"
    return "count"


# Time metrics of layers that a workload bypasses: scan_deep runs no
# MeatAxe, construct or mat_vec, construct_deep no scan subcommand or
# Molien.  They read exactly 0 there, so they are printed with the rest
# but left out of BENCHMARK.json's per_layer list and the result line.
BYPASSED_SOMEWHERE = frozenset({
    "linalg.mat_vec_s", "cli.check_s", "cli.scan_s", "cli.construct_s",
    "meataxe.irreducible_s", "meataxe.split_s", "meataxe.self_s",
    "construct.assemble_s", "construct.assemble_self_s",
    "construct.generic_vector_s", "construct.self_s", "scan.molien_s",
    "scan.verify_theorem_self_s",
})


# ---------------------------------------------------------------------------
# operations

def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


def run_process(argv, timeout: float):
    """Run argv to completion; returns (exit code, wall s, peak RSS MB).

    The child is reaped with wait4 for its own resource usage; a timer
    kills it after ``timeout`` seconds (exit code -9)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_env(),
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def run_op(doc_path: pathlib.Path, cmd: str, flags, timeout: float):
    """One CLI call; returns (exit code, wall s, peak RSS MB, report)."""
    out = doc_path.with_suffix(f".{cmd}.report.json")
    out.unlink(missing_ok=True)
    argv = [sys.executable, "-m", "symmpow", cmd, "--input", str(doc_path),
            "--out", str(out), *flags]
    code, wall, rss = run_process(argv, timeout)
    return code, wall, rss, check.read_report(out)


def probe_setup(paths, deadline: float) -> float:
    argv = [sys.executable, str(BENCH / "setup_probe.py"), *map(str, paths)]
    timeout = min(OP_TIMEOUT_S, max(1.0, deadline - time.perf_counter()))
    code, wall, _ = run_process(argv, timeout)
    if code != 0:
        raise RuntimeError(f"setup probe failed with exit code {code}")
    return wall


# ---------------------------------------------------------------------------
# the two modes

def untraced_run(workload: str, seed: int, seconds: float):
    """Closed-loop passes for ``seconds``; medians of per-pass figures.

    Pass k runs the documents in the k-th set of bases the seed draws, so
    a run that fits several passes (corpus) averages over bases as well."""
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    work = WORK / f"{workload}-{seed}"
    paths = inputs.write_docs(workload, seed, work / "0")
    golden = check.load_golden()
    doc_paths = list(paths.values())
    probe_setup(doc_paths, deadline)   # warm-up: byte code, file cache
    setup = [probe_setup(doc_paths, deadline) for _ in range(SETUP_PROBES)]

    ops = inputs.WORKLOADS[workload]
    passes = []
    attempted = failed = 0
    failures = []
    t_measure = time.perf_counter()
    while True:
        if passes:
            paths = inputs.write_docs(workload, seed, work / str(len(passes)),
                                      draw=len(passes))
        per_cmd = {}
        op_walls = []
        rss = 0.0
        p0 = time.perf_counter()
        for doc, cmd, flags in ops:
            attempted += 1
            remaining = deadline - time.perf_counter()
            key = inputs.op_key(doc, cmd, flags)
            if remaining <= 0:
                failed += 1
                failures.append((key, "run deadline passed"))
                continue
            code, wall, op_rss, report = run_op(
                paths[doc], cmd, flags, min(OP_TIMEOUT_S, remaining))
            reason = check.verdict(golden[key], code, report)
            if reason is not None:
                failed += 1
                failures.append((key, reason))
            per_cmd[cmd] = per_cmd.get(cmd, 0.0) + wall
            op_walls.append(wall)
            rss = max(rss, op_rss)
        pass_s = time.perf_counter() - p0
        passes.append({"run_s": sum(op_walls), "rss": rss,
                       "per_cmd": per_cmd})
        elapsed = time.perf_counter() - t_measure
        if elapsed + pass_s > seconds or time.perf_counter() + pass_s > deadline:
            break

    metrics = {
        "run_s": statistics.median(p["run_s"] for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["rss"] for p in passes),
    }
    detail = {
        "pass_run_s": [p["run_s"] for p in passes],
        "setup_probes": len(setup),
        "per_cmd": {cmd: statistics.median(p["per_cmd"].get(cmd, 0.0)
                                           for p in passes)
                    for cmd in dict.fromkeys(c for _, c, _ in ops)},
        "failures": failures[:10],
    }
    return metrics, attempted, failed, detail


def _in_process(workload, seed, docs, traced: bool, deadline: float):
    argv = [sys.executable, str(BENCH / "tracing.py"), "--workload", workload,
            "--docs", str(docs), "--traced", str(int(traced)),
            "--seed", str(seed)]
    if traced:
        argv += ["--spans", str(WORK / "spans" / f"{workload}-{seed}.jsonl")]
    proc = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True,
                          text=True,
                          timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        raise RuntimeError(f"tracing.py failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def traced_run(workload: str, seed: int):
    """One bare and one traced in-process pass, each in its own process."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    docs = WORK / f"{workload}-{seed}" / "0"
    inputs.write_docs(workload, seed, docs)
    bare = _in_process(workload, seed, docs, False, deadline)
    traced = _in_process(workload, seed, docs, True, deadline)
    metrics = dict(traced["metrics"])
    metrics["trace.run_s"] = traced["run_s"]
    metrics["trace.untraced_run_s"] = bare["run_s"]
    metrics["trace.overhead_s"] = traced["run_s"] - bare["run_s"]
    results = bare["results"] + traced["results"]
    failures = [(k, r) for k, r in results if r is not None]
    return metrics, len(results), len(failures), {"failures": failures[:10]}


# ---------------------------------------------------------------------------
# reporting

def slowest_layer(metrics: dict):
    selfs = {k[:-len(".self_s")]: v for k, v in metrics.items()
             if k.endswith(".self_s")}
    name = max(selfs, key=selfs.get)
    return name, selfs[name], sum(selfs.values())


def print_metrics(workload: str, trace: int, metrics, attempted, failed,
                  detail):
    mode = "traced, in-process" if trace else "untraced, CLI processes"
    print(f"== {workload} ({mode})")
    for name, value in metrics.items():
        mark = "  (not in BENCHMARK.json)" if name in BYPASSED_SOMEWHERE else ""
        print(f"  {name:34} {value:14.6f} {_unit(name)}{mark}")
    print(f"  {'fail_share':34} {failed / attempted:14.6f} "
          f"({failed} of {attempted} operations)")
    if trace:
        name, own, total = slowest_layer(metrics)
        print(f"  slowest layer by self time: {name} ({own:.3f} s of "
              f"{total:.3f} s traced)")
        print(f"  tracing overhead: {metrics['trace.overhead_s']:.3f} s "
              f"(traced {metrics['trace.run_s']:.3f} s minus untraced "
              f"{metrics['trace.untraced_run_s']:.3f} s, one pass each; "
              "run-to-run noise can exceed it); spans x calibrated span "
              f"cost: {metrics['trace.span_cost_s']:.3f} s")
    else:
        print(f"  run_s of each pass: "
              f"{' '.join(f'{x:.3f}' for x in detail['pass_run_s'])}; "
              f"setup probes {detail['setup_probes']}")
        print("  per-subcommand seconds per pass (median):")
        for cmd, v in detail["per_cmd"].items():
            print(f"  {cmd + '_s':34} {v:14.6f} s")
    for key, reason in detail["failures"]:
        print(f"  FAILED {key}: {reason}")


def result_line(metrics, attempted, failed) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)}
                    for k, v in metrics.items()
                    if k not in BYPASSED_SOMEWHERE},
    })


# ---------------------------------------------------------------------------

def write_golden():
    """Golden invariants from every operation on the shipped bases."""
    golden = {}
    for workload, ops in inputs.WORKLOADS.items():
        paths = inputs.write_docs(workload, None, WORK / f"golden-{workload}")
        for doc, cmd, flags in ops:
            key = inputs.op_key(doc, cmd, flags)
            if key in golden:
                continue
            code, wall, _, report = run_op(paths[doc], cmd, flags, 600.0)
            print(f"{key}: exit {code}, {wall:.2f} s", file=sys.stderr)
            golden[key] = {"exit": code,
                           "invariants": check.invariants(report)}
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
             for k, v in sorted(golden.items())]
    check.GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def write_baseline(seed: int, results: dict):
    per_layer = [k for k in next(iter(results.values()))[1]
                 if k not in BYPASSED_SOMEWHERE]
    spec = {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WORKLOAD_WHY[w]}
                      for w in inputs.WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": "lower", "bound": b}
                       for n, u, b in END_TO_END],
        "per_layer": [{"name": n, "unit": _unit(n), "better": "lower"}
                      for n in per_layer],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n")
    meta = json.loads(BASELINE.read_text())
    meta["workloads"] = {
        w: {"why": WORKLOAD_WHY[w],
            "operations_per_pass": [" ".join((d, c) + tuple(f))
                                    for d, c, f in ops]}
        for w, ops in inputs.WORKLOADS.items()}
    meta["python"] = platform.python_version()
    meta["nproc"] = os.cpu_count()
    meta["baseline"] = {"seed": seed, "workloads": {
        w: {"end_to_end": r[0], "per_layer": r[1]}
        for w, r in results.items()}}
    BASELINE.write_text(json.dumps(meta, indent=2) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(inputs.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true")
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "symmpow" / "__main__.py",
                           inputs.PROBLEMS) if not p.exists()]
    if missing:
        print(f"error: not a symmpow checkout, missing {missing[0]}",
              file=sys.stderr)
        return 2
    if args.write_golden:
        write_golden()
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    if args.workload != "all":
        if args.trace:
            res = traced_run(args.workload, args.seed)
        else:
            res = untraced_run(args.workload, args.seed, args.seconds)
        print_metrics(args.workload, args.trace, *res)
        print(result_line(*res[:3]))
        return 0

    results = {}
    attempted = failed = 0
    for workload in inputs.WORKLOADS:
        e2e = untraced_run(workload, args.seed, args.seconds)
        print_metrics(workload, 0, *e2e)
        layer = traced_run(workload, args.seed)
        print_metrics(workload, 1, *layer)
        results[workload] = (e2e[0], layer[0])
        attempted += e2e[1] + layer[1]
        failed += e2e[2] + layer[2]
    if args.write_baseline:
        write_baseline(args.seed, results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {w: {**r[0], **r[1]}
                                  for w, r in results.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
