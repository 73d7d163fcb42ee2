#!/usr/bin/env python3
"""Collect observed minimal occurrence degrees across group families.

For every irreducible module the guaranteed bound is the group order, but
the observed minimum is usually far smaller.  This script scans families
of small groups and writes one CSV row per module with the observed
minimal submodule and quotient degrees, as raw material for guessing a
sharper bound.  Nothing is asserted here beyond the scan itself.
"""

from __future__ import annotations

import argparse
import csv
import pathlib
import sys
from typing import NamedTuple

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from symmpow import (Mat, build_group, defining_rep, make_field, mult_order,
                     occurrence_tables, paired_rep, sym_power)


class ScanRow(NamedTuple):
    family: str
    p: int
    f: int
    group_order: int
    center_order: int
    module: str
    dim: int
    min_sub: int | None
    min_quot: int | None
    bound: int
    scanned_to: int


def _element_of_order(field, k: int) -> int:
    for x in range(2, field.q):
        if mult_order(field, x) == k:
            return x
    raise ValueError(f"GF({field.q}) has no element of order {k}")


def cyclic_rows(p: int, k: int, m_max: int) -> list[ScanRow]:
    """C_k acting on a line over GF(p), all k characters, scanned in one
    degree loop."""
    field = make_field(p)
    g = _element_of_order(field, k)
    group = build_group([Mat(field, [[g]])])
    v = defining_rep(group)
    cap = min(m_max, group.order)
    ws = [paired_rep(group, [Mat(field, [[pow(g, t, field.q)]])])
          for t in range(k)]
    return [ScanRow("cyclic", p, 1, group.order, group.center_order,
                    f"chi{t}", 1, table.minimal_sub_m, table.minimal_quot_m,
                    table.bound, cap)
            for t, table in enumerate(occurrence_tables(v, ws, m_max=cap))]


def sl2_rows(p: int, m_max: int) -> list[ScanRow]:
    """SL2(p) on its defining plane, modules the small symmetric powers,
    scanned in one degree loop."""
    field = make_field(p)
    gens = [Mat(field, [[1, 1], [0, 1]]), Mat(field, [[1, 0], [1, 1]])]
    group = build_group(gens)
    v = defining_rep(group)
    cap = min(m_max, group.order)
    ws = [sym_power(v, j) for j in range(p)]
    tables = occurrence_tables(v, ws, m_max=cap)
    return [ScanRow("sl2", p, 1, group.order, group.center_order,
                    f"sym{j}", w.dim, table.minimal_sub_m,
                    table.minimal_quot_m, table.bound, cap)
            for j, (w, table) in enumerate(zip(ws, tables))]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cyclic", default="7:3,7:6,5:4,11:5,13:12",
                    help="comma list of p:k pairs")
    ap.add_argument("--sl2", default="2,3,5",
                    help="comma list of primes")
    ap.add_argument("--m-max", type=int, default=12, dest="m_max",
                    help="scan depth per group (capped at the group order)")
    ap.add_argument("--out", help="CSV path (default stdout)")
    args = ap.parse_args(argv)

    rows: list[ScanRow] = []
    for pair in filter(None, args.cyclic.split(",")):
        p_s, k_s = pair.split(":")
        rows.extend(cyclic_rows(int(p_s), int(k_s), args.m_max))
    for p_s in filter(None, args.sl2.split(",")):
        rows.extend(sl2_rows(int(p_s), args.m_max))

    sink = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(sink)
        writer.writerow(ScanRow._fields)
        writer.writerows(rows)
    finally:
        if args.out:
            sink.close()
    if args.out:
        print(f"{len(rows)} rows written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
