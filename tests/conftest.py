"""Shared builders for the small-group suites the tests revolve around.

Every case is a faithful matrix group over a prime field together with
the complete list of its irreducible modules (given by generator
images).  Completeness of those lists is asserted in the acceptance
tests, not here.
"""

from __future__ import annotations

import importlib.util
import pathlib
import random
from dataclasses import dataclass

import pytest

import symmpow as sp
from symmpow.cli import _build_group, _module_reps, parse_problem

BENCH_INPUTS = (pathlib.Path(__file__).resolve().parents[1] / "bench"
                / "inputs.py")


@dataclass(frozen=True)
class SuiteCase:
    name: str
    p: int
    generators: tuple
    modules: tuple  # (label, generator image list) pairs
    coprime: bool   # characteristic does not divide the group order


SUITES = (
    SuiteCase(
        "c3_gf7", 7,
        ([[2]],),
        (("chi0", ([[1]],)),
         ("chi1", ([[2]],)),
         ("chi2", ([[4]],))),
        True),
    SuiteCase(
        "c4_gf5", 5,
        ([[2]],),
        (("chi0", ([[1]],)),
         ("chi1", ([[2]],)),
         ("chi2", ([[4]],)),
         ("chi3", ([[3]],))),
        True),
    SuiteCase(
        "c6_gf7", 7,
        ([[3]],),
        (("chi0", ([[1]],)),
         ("chi1", ([[3]],)),
         ("chi2", ([[2]],)),
         ("chi3", ([[6]],)),
         ("chi4", ([[4]],)),
         ("chi5", ([[5]],))),
        True),
    SuiteCase(
        "s3_gf7", 7,
        ([[0, 1], [1, 0]], [[0, 6], [1, 6]]),
        (("trivial", ([[1]], [[1]])),
         ("sign", ([[6]], [[1]])),
         ("standard", ([[0, 1], [1, 0]], [[0, 6], [1, 6]]))),
        True),
    SuiteCase(
        "sl2_2_gf2", 2,
        ([[1, 1], [0, 1]], [[1, 0], [1, 1]]),
        (("trivial", ([[1]], [[1]])),
         ("defining", ([[1, 1], [0, 1]], [[1, 0], [1, 1]]))),
        False),
    SuiteCase(
        "sl2_3_gf3", 3,
        ([[1, 1], [0, 1]], [[1, 0], [1, 1]]),
        (("trivial", ([[1]], [[1]])),
         ("defining", ([[1, 1], [0, 1]], [[1, 0], [1, 1]])),
         ("sym2", ([[1, 1, 1], [0, 1, 2], [0, 0, 1]],
                   [[1, 0, 0], [2, 1, 0], [1, 1, 1]]))),
        False),
    SuiteCase(
        "q8_gf5", 5,
        ([[2, 0], [0, 3]], [[0, 4], [1, 0]]),
        (("trivial", ([[1]], [[1]])),
         ("chi_i", ([[1]], [[4]])),
         ("chi_j", ([[4]], [[1]])),
         ("chi_k", ([[4]], [[4]])),
         ("defining", ([[2, 0], [0, 3]], [[0, 4], [1, 0]]))),
        True),
)

SUITES_BY_NAME = {case.name: case for case in SUITES}


def build_case(case: SuiteCase):
    """Return (group, defining rep, {label: module rep})."""
    field = sp.make_field(case.p)
    gens = [sp.Mat(field, [list(r) for r in g]) for g in case.generators]
    group = sp.build_group(gens)
    v = sp.defining_rep(group)
    mods = {}
    for label, images in case.modules:
        mats = [sp.Mat(field, [list(r) for r in im]) for im in images]
        mods[label] = sp.paired_rep(group, mats)
    return group, v, mods


@pytest.fixture
def fresh_case():
    """Builds a suite case by name from scratch, sharing no group with the
    session fixtures."""
    return lambda name: build_case(SUITES_BY_NAME[name])


@pytest.fixture(scope="session")
def s3():
    return build_case(SUITES_BY_NAME["s3_gf7"])


@pytest.fixture(scope="session")
def q8():
    return build_case(SUITES_BY_NAME["q8_gf5"])


@pytest.fixture(scope="session")
def sl23():
    return build_case(SUITES_BY_NAME["sl2_3_gf3"])


@pytest.fixture(scope="session")
def c6():
    return build_case(SUITES_BY_NAME["c6_gf7"])


@pytest.fixture(scope="session")
def s3_perm():
    """Permutation action of the order-6 group on three coordinates,
    reducible in characteristic 7."""
    field = sp.make_field(7)
    gens = [sp.Mat(field, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
            sp.Mat(field, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])]
    group = sp.build_group(gens)
    return group, sp.defining_rep(group)


@pytest.fixture(scope="session")
def c3_gf2():
    """Order-3 group on the plane over GF(2): irreducible but not
    absolutely irreducible, and the scalar center is trivial."""
    field = sp.make_field(2)
    group = sp.build_group([sp.Mat(field, [[0, 1], [1, 1]])])
    return group, sp.defining_rep(group)


@pytest.fixture(scope="session")
def bench_inputs():
    """The benchmark's input module, bench/inputs.py."""
    spec = importlib.util.spec_from_file_location("bench_inputs",
                                                  BENCH_INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


@pytest.fixture(scope="session")
def load_doc(bench_inputs):
    """Builds (group, defining rep, [(label, module rep)]) of a document by
    name: a shipped problem or a benchmark document (bench/inputs.py), in
    its shipped basis, or with a seed in the dense random bases that the
    benchmark draws from it."""

    def build(name, seed=None):
        doc = bench_inputs.load_doc(name)
        if seed is not None:
            doc = bench_inputs.rebase(doc, random.Random(seed))
        doc = parse_problem(doc)
        group = _build_group(doc)
        return group, sp.defining_rep(group), _module_reps(doc, group)
    return build
