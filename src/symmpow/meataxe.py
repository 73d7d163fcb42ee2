"""Irreducibility certification and splitting (Norton/Parker style).

Random group-algebra elements theta are drawn from a tiny linear
congruential generator so verdicts replay exactly: state' = (A*state + C)
mod 2^64 with A = 6364136223846793005 and C = 1442695040888963407, output
= upper 31 bits of the new state.  Reproducibility across runs and
languages matters here; statistical quality does not.

For a singular theta the kernel is enumerated line by line (spinning a
vector and any scalar multiple agree, so one representative per line
suffices).  Every kernel line must spin to the full space, and one kernel
vector of the transposed theta must spin to the full dual space under the
contragredient action; together these certify irreducibility.  A proper
spin on either side hands back an explicit stable subspace: directly in
the primal case, as the annihilator of the dual spin otherwise.  Spins
are rref closures, and all row arithmetic goes through linalg.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from .errors import MeataxeInconclusive, TheoremViolation
from .homs import hom_space
from .linalg import Mat, mat_mul, mat_vec, null_space, rref, transpose
from .reps import Rep, dual_rep, extend_scalars

_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_LCG_MASK = (1 << 64) - 1

_LINE_LIMIT = 4096
_DEFAULT_BUDGET = 64


class Lcg:
    """Deterministic 64-bit linear congruential generator (see module doc)."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _LCG_MASK

    def next_raw(self) -> int:
        self.state = (_LCG_A * self.state + _LCG_C) & _LCG_MASK
        return self.state >> 33

    def randrange(self, n: int) -> int:
        return self.next_raw() % n


class SplitResult(NamedTuple):
    """Outcome of an irreducibility test.

    verdict is "irreducible" or "split".  On a split, sub_rep carries
    the action on a proper stable subspace.  The certificate is enough
    to replay the verdict: the theta recipe and the vectors whose spins
    decided it.
    """

    verdict: str
    draws: int
    certificate: dict
    sub_rep: Rep | None = None

    @property
    def irreducible(self) -> bool:
        return self.verdict == "irreducible"


def _spin(vec, gens, field, dim):
    """Closure of a vector under the given matrices, as canonical rref rows.

    Each round row-reduces the rows stacked over their images under every
    generator, until the rank stops growing or fills the space.
    """
    gens_t = [transpose(g) for g in gens]
    rows, rank = [list(vec)], 0
    while True:
        reduced, new_rank, _ = rref(Mat._new(field, rows))
        basis = Mat._new(field, reduced.rows[:new_rank])
        if new_rank in (rank, dim):
            return basis
        rank = new_rank
        rows = basis.rows + [y for gt in gens_t for y in mat_mul(basis, gt).rows]


def _random_theta(rng: Lcg, r: Rep, gens):
    """A short random element of the acting algebra, with its recipe."""
    field = r.field
    add, mul = field.add, field.mul
    nterms = 2 + rng.randrange(3)
    theta = [[0] * r.dim for _ in range(r.dim)]
    recipe = []
    for _ in range(nterms):
        coeff = 1 + rng.randrange(field.q - 1)
        length = 1 + rng.randrange(6)
        word = [rng.randrange(len(gens)) for _ in range(length)]
        m = gens[word[0]]
        for k in word[1:]:
            m = mat_mul(m, gens[k])
        theta = [[add(t, mul(coeff, x)) for t, x in zip(trow, mrow)]
                 for trow, mrow in zip(theta, m.rows)]
        recipe.append({"coeff": coeff, "word": word})
    return Mat._new(field, theta), recipe


def _kernel_lines(field, kernel_vectors):
    """One representative per line of the span, first nonzero coord = 1.

    Returns None when the line count exceeds the enumeration limit.
    """
    k, q = len(kernel_vectors), field.q
    count = (q ** k - 1) // (q - 1)
    if count > _LINE_LIMIT:
        return None
    lines = []
    # 1 at lead, reversed(tail) after it: the first tail coefficient varies
    # fastest, the order that check reports pin (primal_vector)
    for lead in range(k):
        cols = transpose(Mat._new(field, kernel_vectors[lead:]))
        for tail in product(range(q), repeat=k - lead - 1):
            lines.append(mat_vec(cols, [1, *reversed(tail)]))
    assert len(lines) == count
    return lines


def is_irreducible(r: Rep, seed: int = 0, budget: int = _DEFAULT_BUDGET) -> SplitResult:
    """Norton/Parker test; raises MeataxeInconclusive after the draw budget."""
    if r.dim < 1:
        raise ValueError("empty module")
    if r.dim == 1:
        return SplitResult("irreducible", draws=0,
                           certificate={"reason": "dimension 1"})
    rng = Lcg(seed)
    gens, field = r.gens, r.field
    dual_gens = None
    for draw in range(1, budget + 1):
        theta, recipe = _random_theta(rng, r, gens)
        kernel = null_space(theta)
        if not kernel:
            continue
        lines = _kernel_lines(field, kernel)
        if lines is None:
            continue
        cert = {"theta": recipe, "kernel_dim": len(kernel),
                "lines_checked": len(lines)}
        for vec in lines:
            spun = _spin(vec, gens, field, r.dim)
            if spun.nrows < r.dim:
                cert["primal_vector"] = vec
                return SplitResult("split", sub_rep=_restrict(r, spun),
                                   draws=draw, certificate=cert)
        if dual_gens is None:
            dual_gens = dual_rep(r).gens
        w0 = null_space(transpose(theta))[0]
        cert["dual_vector"] = w0
        dual_spun = _spin(w0, dual_gens, field, r.dim)
        if dual_spun.nrows == r.dim:
            return SplitResult("irreducible", draws=draw, certificate=cert)
        # annihilator of a stable dual subspace is a stable subspace
        ann_rows, _, _ = rref(Mat._new(field, null_space(dual_spun)))
        return SplitResult("split", sub_rep=_restrict(r, ann_rows),
                           draws=draw, certificate=cert)
    raise MeataxeInconclusive(
        f"no verdict after {budget} draws (seed {seed}); raise the budget "
        "or vary the seed")


def _restrict(r: Rep, rows_mat: Mat) -> Rep:
    """Action on the row space of rows_mat (rows must be in rref)."""
    pivots = [next(i for i, x in enumerate(row) if x) for row in rows_mat.rows]
    gens = []
    for m in r.gens:
        images = mat_mul(rows_mat, transpose(m))
        coords = Mat._new(r.field, [[y[p] for p in pivots] for y in images.rows])
        # stability of the subspace is asserted, not assumed
        if mat_mul(coords, rows_mat) != images:
            raise ValueError("subspace is not stable under the action")
        gens.append(transpose(coords))
    return Rep(r.group, gens)


def simple_submodule(r: Rep, seed: int = 0) -> Rep:
    """Descend through splits until an irreducible submodule remains."""
    res = is_irreducible(r, seed)
    if res.irreducible:
        return r
    return simple_submodule(res.sub_rep, seed)


def simple_quotient(r: Rep, seed: int = 0) -> Rep:
    """A simple quotient: dualize, take a simple submodule, dualize back."""
    s = simple_submodule(dual_rep(r), seed)
    return dual_rep(s)


def splitting_extension(r: Rep, seed: int = 0):
    """Smallest e with an absolutely irreducible piece over GF(q^e).

    Returns (e, piece).  For irreducible r the endomorphism algebra is the
    field GF(q^e) (Schur's lemma over a finite field), so e is its
    dimension, and r splits over GF(q^e) into absolutely irreducible
    pieces, none of which exists over a smaller extension.  When e = 1
    the piece is r itself, so r must already be known irreducible.
    """
    e = len(hom_space(r, r))
    if e == 1:
        return 1, r
    s = simple_submodule(extend_scalars(r, e), seed)
    if len(hom_space(s, s)) != 1:
        raise TheoremViolation("simple piece over the splitting field is "
                               "not absolutely irreducible")
    return e, s
