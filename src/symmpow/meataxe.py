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
the primal case, as the annihilator of the dual spin otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import product

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


@dataclass
class SplitResult:
    """Outcome of an irreducibility test.

    verdict is "irreducible" or "split".  On a split, sub_rep carries
    the action on a proper stable subspace.  The certificate is enough
    to replay the verdict: the theta recipe and the vectors whose spins
    decided it.
    """

    verdict: str
    sub_rep: Rep | None = None
    draws: int = 0
    certificate: dict = dc_field(default_factory=dict)

    @property
    def irreducible(self) -> bool:
        return self.verdict == "irreducible"


def _spin(vec, gens, field, dim):
    """Breadth-first closure of a vector under the given matrices.

    Returns the subspace in reduced row echelon form (rows are a canonical
    basis).  Stops early once the whole space is reached.
    """
    rows = []          # echelon rows, pivot-normalized, kept pivot-sorted
    pivots = []
    queue = []

    def insert(y):
        y = list(y)
        for p, row in zip(pivots, rows):
            c = y[p]
            if c:
                sub, mul = field.sub, field.mul
                y = [sub(a, mul(c, b)) for a, b in zip(y, row)]
        piv = next((i for i, c in enumerate(y) if c), None)
        if piv is None:
            return False
        inv_c = field.inv(y[piv])
        y = [field.mul(inv_c, c) for c in y]
        at = next((t for t, p in enumerate(pivots) if p > piv), len(pivots))
        pivots.insert(at, piv)
        rows.insert(at, y)
        queue.append(y)
        return True

    insert(vec)
    qi = 0
    while qi < len(queue) and len(rows) < dim:
        v = queue[qi]
        qi += 1
        for g in gens:
            if insert(mat_vec(g, v)) and len(rows) == dim:
                break
    reduced, _, _ = rref(Mat._new(field, rows))
    return reduced


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
    k = len(kernel_vectors)
    q = field.q
    count = (q ** k - 1) // (q - 1)
    if count > _LINE_LIMIT:
        return None
    add, mul = field.add, field.mul
    lines = []
    # 1 at lead, reversed(tail) after it: the first tail coefficient varies
    # fastest, the order that check reports pin (primal_vector)
    for lead in range(k):
        for tail in product(range(q), repeat=k - lead - 1):
            vec = list(kernel_vectors[lead])
            for co, kv in zip(reversed(tail), kernel_vectors[lead + 1:]):
                if co:
                    for i, x in enumerate(kv):
                        if x:
                            vec[i] = add(vec[i], mul(co, x))
            lines.append(vec)
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
    gens = r.gens
    field = r.field
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
        proper = None
        for vec in lines:
            spun = _spin(vec, gens, field, r.dim)
            if spun.nrows < r.dim:
                cert["primal_vector"] = vec
                proper = spun
                break
        if proper is not None:
            return SplitResult("split", sub_rep=_restrict(r, proper),
                               draws=draw, certificate=cert)
        if dual_gens is None:
            dual_gens = dual_rep(r).gens
        dual_kernel = null_space(transpose(theta))
        w0 = dual_kernel[0]
        cert["dual_vector"] = w0
        dual_spun = _spin(w0, dual_gens, field, r.dim)
        if dual_spun.nrows == r.dim:
            return SplitResult("irreducible", draws=draw, certificate=cert)
        # annihilator of a stable dual subspace is a stable subspace
        ann = null_space(dual_spun)
        ann_rows, _, _ = rref(Mat._new(field, [list(v) for v in ann]))
        return SplitResult("split", sub_rep=_restrict(r, ann_rows),
                           draws=draw, certificate=cert)
    raise MeataxeInconclusive(
        f"no verdict after {budget} draws (seed {seed}); raise the budget "
        "or vary the seed")


def _restrict(r: Rep, rows_mat: Mat) -> Rep:
    """Action on the row space of rows_mat (rows must be in rref)."""
    field = r.field
    rows = rows_mat.rows
    s = rows_mat.nrows
    pivots = [next(i for i, x in enumerate(row) if x) for row in rows]
    sub, mul = field.sub, field.mul
    gens = []
    for m in r.gens:
        cols = []
        for b in rows:
            y = mat_vec(m, b)
            coords = [y[p] for p in pivots]
            # residual must vanish: stability of the subspace is asserted,
            # not assumed
            for t, c in enumerate(coords):
                if c:
                    row = rows[t]
                    y = [sub(a, mul(c, x)) for a, x in zip(y, row)]
            if any(y):
                raise ValueError("subspace is not stable under the action")
            cols.append(coords)
        gens.append(Mat._new(field, [[cols[t][u] for t in range(s)]
                                     for u in range(s)]))
    return Rep(r.group, field, s, gens, embed=r.embed)


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
    pieces, none of which exists over a smaller extension.
    """
    e = len(hom_space(r, r))
    s = simple_submodule(extend_scalars(r, e), seed)
    if len(hom_space(s, s)) != 1:
        raise TheoremViolation("simple piece over the splitting field is "
                               "not absolutely irreducible")
    return e, s
