"""Benchmark inputs: the documents each workload runs, drawn from a seed.

The seed draws one random invertible change of basis per document, over
the document's prime field, for V and for each module W (in general
position, see ``conjugate_general``).  Hom dimensions,
occurrence degrees, splitting degrees and Molien multiplicities do not
depend on the basis, so every seed has the same expected answers (see
``golden.json``), while the cost of the linear algebra does change.
The arithmetic here is a few lines of GF(p) matrix code of the
benchmark's own, so generating inputs never runs the code under test.
"""

from __future__ import annotations

import json
import pathlib
import random

ROOT = pathlib.Path(__file__).resolve().parents[1]
PROBLEMS = ROOT / "problems"

# (document, subcommand, extra CLI flags).  corpus is the shipped corpus
# with each document's own options; construct skips the one group of
# order above 60 (sl2_5_gf5), which is construct_deep's job.  A name
# "doc#k" is copy k of doc: the same problem in its own seeded bases.
_CORPUS_DOCS = ("c3_gf7", "c4_gf5", "c6_gf7", "q8_gf5", "s3_gf7",
                "sl2_2_gf2", "sl2_3_gf3", "sl2_5_gf5")
_CORPUS_CONSTRUCT = tuple(d for d in _CORPUS_DOCS if d != "sl2_5_gf5")

# Depths and copies of scan_deep; BENCHMARK.json records them in its why.
# Scan cost swings by about 15% from one basis to another, so the pass
# scans each document in several bases and the total varies less.
SCAN_DEEP_SL2_5_M = 18
SCAN_DEEP_B3_M = 8
SCAN_DEEP_COPIES = 3

WORKLOADS = {
    "corpus": (
        [(d, "check", ()) for d in _CORPUS_DOCS]
        + [(d, "scan", ()) for d in _CORPUS_DOCS]
        + [(d, "construct", ()) for d in _CORPUS_CONSTRUCT]),
    "scan_deep": (
        [(f"sl2_5_gf5#{k}", "scan", ("--m-max", str(SCAN_DEEP_SL2_5_M)))
         for k in range(SCAN_DEEP_COPIES)]
        + [(f"b3_gf7#{k}", "scan",
            ("--m-max", str(SCAN_DEEP_B3_M), "--molien", "on"))
           for k in range(SCAN_DEEP_COPIES)]),
    # One construct of 3 to 5 s, so a run times about ten passes, each in
    # fresh bases, and reports their median.  The same construct on
    # sl2_5_gf5 takes about 35 s, one sample per run: too noisy to bound.
    "construct_deep": [
        ("gl2_3_gf3_defining", "construct", ("--k-max", "0")),
    ],
}


def problem(name: str) -> str:
    """The problem a document copy poses: "doc#k" -> "doc"."""
    return name.split("#", 1)[0]


def op_key(doc: str, cmd: str, flags) -> str:
    """Golden-file key of an operation; copies of a document share it."""
    return " ".join((problem(doc), cmd) + tuple(flags))


def workload_docs(workload: str):
    """Document names of a workload, in first-use order."""
    return list(dict.fromkeys(d for d, _, _ in WORKLOADS[workload]))


# ---------------------------------------------------------------------------
# GF(p) matrices as lists of rows of ints

def _mat_mul(a, b, p):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols]
            for row in a]


def _mat_inv(a, p):
    """Inverse mod p by Gauss-Jordan, or None when a is singular."""
    n = len(a)
    aug = [list(row) + [int(i == j) for j in range(n)]
           for i, row in enumerate(a)]
    for c in range(n):
        piv = next((r for r in range(c, n) if aug[r][c] % p), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = pow(aug[c][c], p - 2, p)
        aug[c] = [x * inv % p for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def random_basis(rng: random.Random, n: int, p: int):
    """A uniformly random invertible n x n matrix over GF(p), with its
    inverse."""
    while True:
        m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        inv = _mat_inv(m, p)
        if inv is not None:
            return m, inv


_BASIS_TRIES = 64


def conjugate_general(images, p: int, rng: random.Random):
    """images written in a random basis P, as P^-1 g P, in general position.

    The elimination skips zero entries, so a draw that happens to leave
    many zeros in the generators is much cheaper: scanning B3 to m = 10
    took 8.0 to 13.9 s over six uniform draws.  Bases are therefore drawn
    until no image has a zero entry (at most _BASIS_TRIES draws, keeping
    the one with fewest zeros), which makes every input dense and keeps
    cost from swinging with the seed.  GF(2) in dimension 2 cannot avoid
    zeros and keeps its draw with the fewest.
    """
    n = len(images[0])
    best = None
    for _ in range(_BASIS_TRIES):
        b, b_inv = random_basis(rng, n, p)
        out = [_mat_mul(_mat_mul(b_inv, g, p), b, p) for g in images]
        zeros = sum(x == 0 for g in out for row in g for x in row)
        if best is None or zeros < best[0]:
            best = (zeros, out)
        if not zeros:
            break
    return best[1]


def rebase(doc: dict, rng: random.Random) -> dict:
    """The same problem written in fresh random bases of V and of each W."""
    field = doc["field"]
    if field.get("f", 1) != 1:
        raise ValueError("rebase supports prime fields only")
    p = field["p"]

    def conj(images):
        return conjugate_general(images, p, rng)

    out = dict(doc)
    out["generators"] = conj(doc["generators"])
    out["modules"] = [dict(m, images=conj(m["images"])) for m in doc["modules"]]
    return out


# ---------------------------------------------------------------------------
# documents

def b3_gf7() -> dict:
    """The 3 x 3 signed permutation matrices (order 48) over GF(7), from
    two adjacent transpositions and one sign change.  Unlike the shipped
    corpus it acts on a 3-dimensional V, so dim Sym^m grows like m^2."""
    s1 = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    s2 = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    t = [[6, 0, 0], [0, 1, 0], [0, 0, 1]]
    gens = [s1, s2, t]
    return {
        "schema": "symmpow-v1",
        "field": {"p": 7, "f": 1},
        "generators": gens,
        "modules": [
            {"label": "trivial", "images": [[[1]], [[1]], [[1]]]},
            {"label": "det", "images": [[[6]], [[6]], [[6]]]},
            {"label": "defining", "images": gens},
        ],
        "options": {"seed": 0},
    }


def gl2_3_gf3_defining() -> dict:
    """GL(2,3) (order 48) over GF(3) on its defining module only, from a
    transvection and the coordinate swap.  Its construct certifies degree
    47 over GF(27): the same extension-field path as sl2_5_gf5 (degree 119
    over GF(125)) at about an eighth of the cost."""
    a = [[1, 1], [0, 1]]
    b = [[0, 1], [1, 0]]
    return {
        "schema": "symmpow-v1",
        "field": {"p": 3, "f": 1},
        "generators": [a, b],
        "modules": [{"label": "defining", "images": [a, b]}],
        "options": {"seed": 0},
    }


def load_doc(name: str) -> dict:
    """A document by benchmark name, in its shipped basis."""
    name = problem(name)
    if name == "b3_gf7":
        return b3_gf7()
    if name == "gl2_3_gf3_defining":
        return gl2_3_gf3_defining()
    return json.loads((PROBLEMS / f"{name}.json").read_text())


def write_docs(workload: str, seed: int | None, out_dir: pathlib.Path,
               draw: int = 0):
    """Write the workload's documents, each in the bases that the seed and
    the draw number pick (the shipped bases when seed is None).  Returns
    {name: path}."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in workload_docs(workload):
        doc = load_doc(name)
        if seed is not None:
            doc = rebase(doc, random.Random(f"{seed}:{draw}:{name}"))
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(doc) + "\n")
        paths[name] = path
    return paths
