"""Command-line front end and the symmpow-v1 JSON contract.

Input document (schema "symmpow-v1"):

    {
      "schema": "symmpow-v1",
      "field": {"p": 7, "f": 1},
      "generators": [[[0, 1], [1, 0]], [[0, 6], [1, 6]]],
      "modules": [{"label": "sign", "images": [[[6]], [[1]]]}],
      "options": {"m_max": 6, "seed": 0}
    }

Field elements are plain integers when f = 1 and coefficient lists of
length f (constant term first) otherwise.  Matrices are row-major nested
arrays.  Reports are emitted as JSON with sorted keys and fixed
indentation, so identical inputs produce byte-identical files.

Exit codes: 0 success; 1 a module failed certification (e.g. reducible);
2 malformed input; 3 enumeration or dimension cap exceeded; 4 generator
images do not define a homomorphism; 5 irreducibility test inconclusive;
6 a verified-by-construction identity failed, which means a bug, not bad
input; 7 any other unexpected exception (an internal error).  Codes 2-6
are carried by the exception classes in ``errors`` (``exit_code``); this
module only parses, dispatches and encodes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NamedTuple

from .construct import Certificate
from .errors import ParseError, SymmpowError
from .fields import FieldSpec, make_field
from .groups import DEFAULT_GROUP_CAP, GroupData, build_group
from .linalg import Mat
from .meataxe import is_irreducible
from .reps import defining_rep, paired_rep
from .scan import (OccurrenceTable, TheoremReport, VerifyOptions,
                   scan_modules, verify_theorem)

SCHEMA = "symmpow-v1"

# integer options and their least allowed value
_INT_OPTIONS = {"m_max": 1, "k_max": 0, "seed": 0, "cap_group": 1,
                "cap_dim": 1}
_OPTION_KEYS = set(_INT_OPTIONS) | {"molien"}


class ModuleSpec(NamedTuple):
    label: str
    images: list


class ProblemDoc(NamedTuple):
    field: FieldSpec
    generators: list
    modules: list
    options: dict


def _dumps(obj, indent: str = "") -> str:
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte, with each
    list of plain ints (not bools, which write as true) in one join."""
    inner, ends = indent + "  ", "[]"
    if isinstance(obj, dict) and obj:
        items, ends = (f"{json.dumps(k)}: {_dumps(v, inner)}"
                       for k, v in sorted(obj.items())), "{}"
    elif isinstance(obj, (list, tuple)) and obj:
        ints = all(type(x) is int for x in obj)
        items = map(str, obj) if ints else (_dumps(x, inner) for x in obj)
    else:
        return json.dumps(obj)
    body = (",\n" + inner).join(items)
    return f"{ends[0]}\n{inner}{body}\n{indent}{ends[1]}"


# ---------------------------------------------------------------------------
# decoding

def _fail(msg: str):
    raise ParseError(msg)


def decode_element(field: FieldSpec, obj, where: str) -> int:
    try:
        return field.from_json(obj)
    except ValueError as exc:
        _fail(f"{where}: {exc}")


def decode_matrix(field: FieldSpec, obj, where: str) -> Mat:
    if not isinstance(obj, list) or not obj:
        _fail(f"{where}: expected a nonempty matrix")
    n = len(obj)
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != n:
            _fail(f"{where}: matrix must be square (row {i})")
        rows.append([decode_element(field, x, f"{where}[{i}][{j}]")
                     for j, x in enumerate(row)])
    return Mat(field, rows)


def parse_problem(obj) -> ProblemDoc:
    if not isinstance(obj, dict):
        _fail("document must be a JSON object")
    if obj.get("schema") != SCHEMA:
        _fail(f'missing or unsupported "schema" (expected "{SCHEMA}")')
    fobj = obj.get("field")
    if not isinstance(fobj, dict) or "p" not in fobj:
        _fail('"field" must be an object with at least "p"')
    try:
        field = make_field(fobj["p"], fobj.get("f", 1),
                           tuple(fobj["modulus"]) if "modulus" in fobj else None)
    except (ValueError, TypeError) as exc:
        _fail(f"invalid field: {exc}")
    gens_obj = obj.get("generators")
    if not isinstance(gens_obj, list) or not gens_obj:
        _fail('"generators" must be a nonempty list of matrices')
    generators = [decode_matrix(field, g, f"generators[{i}]")
                  for i, g in enumerate(gens_obj)]
    dim = generators[0].nrows
    for i, g in enumerate(generators):
        if g.nrows != dim:
            _fail(f"generators[{i}]: size differs from generators[0]")
    modules_obj = obj.get("modules", [])
    if not isinstance(modules_obj, list):
        _fail('"modules" must be a list')
    modules = []
    for i, mobj in enumerate(modules_obj):
        if not isinstance(mobj, dict):
            _fail(f"modules[{i}] must be an object")
        label = mobj.get("label", f"W{i}")
        if not isinstance(label, str):
            _fail(f"modules[{i}]: label must be a string")
        imgs_obj = mobj.get("images")
        if not isinstance(imgs_obj, list) or len(imgs_obj) != len(generators):
            _fail(f"modules[{i}]: need exactly {len(generators)} images")
        images = [decode_matrix(field, m, f"modules[{i}].images[{s}]")
                  for s, m in enumerate(imgs_obj)]
        d = images[0].nrows
        for s, m in enumerate(images):
            if m.nrows != d:
                _fail(f"modules[{i}].images[{s}]: size differs from the first")
        modules.append(ModuleSpec(label=label, images=images))
    options = obj.get("options", {})
    if not isinstance(options, dict):
        _fail('"options" must be an object')
    unknown = set(options) - _OPTION_KEYS
    if unknown:
        _fail(f"unknown options: {sorted(unknown)}")
    return ProblemDoc(field=field, generators=generators, modules=modules,
                      options=dict(options))


def check_options(options: dict):
    """Types and ranges of the options, once CLI flags are merged in."""
    for key, low in _INT_OPTIONS.items():
        val = options.get(key, low)
        if not isinstance(val, int) or isinstance(val, bool):
            _fail(f'option "{key}" must be an integer')
        if val < low:
            _fail(f'option "{key}" must be at least {low}')
    if "molien" in options and options["molien"] not in ("auto", "on", "off"):
        _fail('option "molien" must be "auto", "on" or "off"')


# ---------------------------------------------------------------------------
# encoding

def enc_vector(field: FieldSpec, vec):
    return [field.to_json(x) for x in vec]


def enc_matrix(m: Mat):
    return [enc_vector(m.field, row) for row in m.rows]


def enc_field(field: FieldSpec):
    out = {"p": field.p, "f": field.f}
    if field.f > 1:
        out["modulus"] = list(field.modulus)
    return out


def enc_poly(p):
    return enc_vector(p.field, p.coeffs)


def enc_certificate(cert: Certificate):
    return {
        "field": enc_field(cert.field),
        "extension_degree": cert.extension_degree,
        "generic_vector": enc_vector(cert.field, cert.generic_vector),
        "char_exponent": cert.char_exponent,
        "complement_exponent": cert.complement_exponent,
        "coset_count": cert.coset_count,
        "center_order": cert.center_order,
        "group_order": cert.group_order,
        "degree": cert.degree,
        "shift": 0,
        "total_degree": cert.degree,
        "coset_products": [enc_poly(f) for f in cert.coset_products],
        "transversal_product": enc_poly(cert.transversal_product),
        "orbit_product": enc_poly(cert.orbit_product),
        "span_polys": [enc_poly(f) for f in cert.span_polys],
        "embedding_witness": enc_matrix(cert.embedding_witness),
        "quotient_witness": enc_matrix(cert.quotient_witness),
        "central": cert.central,
        "flags": dict(cert.flags),
    }


def enc_table(table: OccurrenceTable):
    return {
        "rows": [list(r) for r in table.rows],
        "minimal_submodule_degree": table.minimal_sub_m,
        "minimal_quotient_degree": table.minimal_quot_m,
        "bound": table.bound,
        "molien": (list(table.molien_multiplicities)
                   if table.molien_multiplicities is not None else None),
    }


def enc_theorem_report(rep: TheoremReport):
    # verify_theorem raises on every failed check, so the schema's
    # verdict keys are always true on a returned report
    return {
        "irreducible_draws": rep.irreducible_draws,
        "splitting_degree": rep.splitting_degree,
        "submodule_claim": enc_certificate(rep.sub_claim),
        "quotient_claim": enc_certificate(rep.quot_claim),
        "base_submodule_ok": True,
        "base_quotient_ok": True,
        "scan": enc_table(rep.table),
        "scan_consistent": True,
        "molien_ok": rep.molien_ok,
        "periodicity": list(rep.periodicity),
        "ok": True,
    }


def _split_certificate_json(field: FieldSpec, cert: dict):
    out = dict(cert)
    for key in ("primal_vector", "dual_vector"):
        if key in out:
            out[key] = enc_vector(field, out[key])
    return out


# ---------------------------------------------------------------------------
# commands

def _build_group(doc: ProblemDoc) -> GroupData:
    cap = doc.options.get("cap_group", DEFAULT_GROUP_CAP)
    try:
        return build_group(doc.generators, cap)
    except ValueError as exc:
        raise ParseError(f"invalid generators: {exc}")


def _report(kind: str, doc: ProblemDoc, group: GroupData, modules: list,
            ok: bool, **extra):
    """The frame every command's report shares, and the exit code: 0 when
    ok, 1 when a module failed certification."""
    return {
        "schema": SCHEMA,
        "kind": f"{kind}-report",
        "field": enc_field(doc.field),
        "group": {
            "order": group.order,
            "center_order": group.center_order,
            "coset_count": group.coset_count,
            "dim": group.dim,
            "generators": len(group.generators),
        },
        "modules": modules,
        "ok": ok,
        **extra,
    }, 0 if ok else 1


def _verify_options(doc: ProblemDoc) -> VerifyOptions:
    """The pipeline options among the merged ones; unset keys take the
    defaults of VerifyOptions."""
    return VerifyOptions(**{k: v for k, v in doc.options.items()
                            if k in VerifyOptions._fields})


def _module_reps(doc: ProblemDoc, group: GroupData):
    return [(spec.label, paired_rep(group, spec.images))
            for spec in doc.modules]


def cmd_check(doc: ProblemDoc):
    """Certify the inputs: group closure, homomorphism property,
    irreducibility of each module."""
    group = _build_group(doc)
    seed = _verify_options(doc).seed
    reps = _module_reps(doc, group)
    verdicts = [is_irreducible(rep, seed) for _, rep in reps]
    modules = [{
        "label": label,
        "dim": rep.dim,
        "verdict": res.verdict,
        "draws": res.draws,
        "certificate": _split_certificate_json(doc.field, res.certificate),
    } for (label, rep), res in zip(reps, verdicts)]
    return _report("check", doc, group, modules,
                   all(res.irreducible for res in verdicts))


def cmd_scan(doc: ProblemDoc):
    """Occurrence tables for every module, with the character oracle as a
    cross-check when the characteristic permits."""
    group = _build_group(doc)
    opts = _verify_options(doc)
    reps = _module_reps(doc, group)
    tables = scan_modules(defining_rep(group), reps, opts)
    # scan_modules raises on every failure, so a returned table is ok
    modules = [{"label": label, "dim": rep.dim, "ok": True, **enc_table(table)}
               for (label, rep), table in zip(reps, tables)]
    return _report("scan", doc, group, modules, True, m_max=opts.depth(group))


def cmd_construct(doc: ProblemDoc):
    """Full verification per module, certificates serialized in full."""
    group = _build_group(doc)
    reps = _module_reps(doc, group)
    reports = verify_theorem(defining_rep(group), reps, _verify_options(doc))
    # a reducible module gets no report
    modules = [{"label": label, "dim": rep.dim,
                "report": tr if tr is None else enc_theorem_report(tr)}
               for (label, rep), tr in zip(reps, reports)]
    return _report("construct", doc, group, modules, None not in reports)


# ---------------------------------------------------------------------------
# human-readable summaries

def _print_check(report):
    g = report["group"]
    print(f"group: order {g['order']}, scalar center {g['center_order']}, "
          f"cosets {g['coset_count']}")
    for m in report["modules"]:
        print(f"  {m['label']}: dim {m['dim']}, {m['verdict']} "
              f"({m['draws']} draws)")


def _print_scan(report):
    g = report["group"]
    print(f"group: order {g['order']}, scan to m = {report['m_max']}")
    for m in report["modules"]:
        print(f"  {m['label']} (dim {m['dim']}): minimal submodule degree "
              f"{m['minimal_submodule_degree']}, minimal quotient degree "
              f"{m['minimal_quotient_degree']}, bound {m['bound']}")
        sub_row = " ".join(str(r[1]) for r in m["rows"])
        quot_row = " ".join(str(r[2]) for r in m["rows"])
        print(f"    sub:  {sub_row}")
        print(f"    quot: {quot_row}")
        if m["molien"] is not None:
            print(f"    char: {' '.join(str(x) for x in m['molien'])}")


def _print_construct(report):
    g = report["group"]
    print(f"group: order {g['order']}, scalar center {g['center_order']}, "
          f"cosets {g['coset_count']}")
    for m in report["modules"]:
        r = m["report"]
        if r is None:
            print(f"  {m['label']} (dim {m['dim']}): REDUCIBLE, skipped")
            continue
        sub = r["submodule_claim"]
        quot = r["quotient_claim"]
        print(f"  {m['label']} (dim {m['dim']}): splitting degree "
              f"{r['splitting_degree']}, submodule degree {sub['degree']}, "
              f"quotient degree {quot['degree']}, "
              f"shifts verified {len(r['periodicity'])}")
        print("    base-field witnesses: submodule yes, quotient yes; "
              "scan consistent: yes")


_PRINTERS = {"check-report": _print_check, "scan-report": _print_scan,
             "construct-report": _print_construct}


# ---------------------------------------------------------------------------
# entry point

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--input", required=True, help="problem document (JSON)")
    p.add_argument("--out", help="write the JSON report here")
    for key in _INT_OPTIONS:
        p.add_argument("--" + key.replace("_", "-"), type=int, dest=key)
    p.add_argument("--molien", choices=("auto", "on", "off"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symmpow",
        description="locate irreducible modules inside symmetric powers "
                    "of a faithful finite matrix group action")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("check", cmd_check), ("scan", cmd_scan),
                     ("construct", cmd_construct)):
        p = sub.add_parser(name, help=fn.__doc__)
        _add_common(p)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except (ValueError, RecursionError) as exc:
                # bad JSON, bytes that are not UTF-8, an integer past
                # Python's digit limit, or nesting past the recursion limit
                raise ParseError(f"invalid JSON: {exc}")
        doc = parse_problem(obj)
        for key in _OPTION_KEYS:
            val = getattr(args, key, None)
            if val is not None:
                doc.options[key] = val
        check_options(doc.options)
        report, code = args.fn(doc)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(_dumps(report) + "\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SymmpowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:
        # not SystemExit or KeyboardInterrupt, which derive from BaseException
        print(f"error: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 7
    _PRINTERS[report["kind"]](report)
    print("ok" if report["ok"] else "FAILED")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
