"""Spaces of module homomorphisms between two representations.

A hom from u to v is a v.dim x u.dim matrix X with X u(g) = v(g) X on
the generators, which suffices.  The solver spins the smaller side (the
MeatAxe standard-basis method): standard vectors of the source are spun
under the generators, and each one outside the span so far opens a block
of nv unknowns for its image, so reducible sources work too.  Spin vector
b_i has image T_i y, y in a candidate space K.  A new vector a b_j gets
b T_j; a dependent one, a b_j = sum c_i b_i, cuts K to the null space of
b T_j - sum c_i T_i.  Each y in K gives X = [T_i y] B^-1, B = [b_i].  A
larger source is solved through the transposed pairs.  Reps labelled in
joint eigenbases of one h and z (Rep.eigen) have X commuting with both,
so seed e_s opens only the target coordinates of its label pair, seeds
run smallest block first, and X = 0 when no source label is a target's.

The basis is canonical: the homs flattened row-major, in reduced echelon
form with the columns taken right to left, ordered by pivot column.  It
is null_space's basis of the equations in the entries of X, so reports,
which serialize basis elements, do not depend on the solver.
"""

from __future__ import annotations

from .linalg import (Mat, _eliminate, _row_ops, identity, mat_inv, mat_mul,
                     mat_vec, rref, transpose)
from .reps import Rep


def _spin(field, pairs, nu: int, nv: int, labels=None) -> list[Mat]:
    """Transposes of a basis of the nv x nu X with X a = b X for all
    (a, transpose(b)) in pairs.  T_i is kept as its k columns, rows of
    linalg's row form: an image b T_j combines nv rows and reduce updates
    it at most nu times, so its slots never need renormalizing.  Seed s
    opens the target coordinates whose label (in labels[1]) is s's."""
    ops = _row_ops(field, nv + nu, nv)
    pack, unpack, _, sub, scale, combs, _ = ops
    row_sub, mul = field.row_sub, field.mul
    pairs = [(a, pack(bt.rows)) for a, bt in pairs]
    ech, ts = [], []  # spin vectors in semi-echelon form (pivot, row); T_i
    k = 0

    def reduce(w, cols):  # w minus its part in the span; cols likewise
        for (p, row), t in zip(ech, ts):
            f = w[p]
            if f:
                w = row_sub(w, f, row)
                cols = [sub(c, f, q, 0) for c, q in zip(cols, t)]
        return w, cols

    def adjoin(w, cols):
        p = next(i for i, x in enumerate(w) if x)
        f = field.inv(w[p])
        ech.append((p, [mul(f, x) for x in w]))
        ts.append(scale(cols, f, nv))

    src, dst = labels or ([0] * nu, [0] * nv)
    blocks = {x: [c for c, y in enumerate(dst) if y == x] for x in set(dst)}
    j = 0
    for s in sorted(range(nu), key=lambda s: len(blocks.get(src[s], ()))):
        seed, _ = reduce([int(i == s) for i in range(nu)], [])
        if not any(seed):
            continue
        # M, the span so far, is a submodule, the sum of its parts in each
        # eigenspace, so seed, the one vector of e_s + M that is 0 at M's
        # pivots, keeps e_s's label, and X maps it into its block
        block = blocks.get(src[s], [])
        ts = [t + pack([[0] * nv] * len(block)) for t in ts]
        adjoin(seed, pack([[0] * nv] * k + [[int(i == c) for i in range(nv)]
                                            for c in block]))
        k += len(block)
        while j < len(ech):
            for a, bt in pairs:
                # the image b T_j, as k columns of nv terms each
                image = combs(unpack(ts[j], nv), bt) if k else []
                w, cols = reduce(mat_vec(a, ech[j][1]), image)
                if any(w):
                    adjoin(w, cols)
                elif k and any(map(any, cols := unpack(cols, nv))):
                    # a nonzero relation cuts K to the left kernel of cols:
                    # the I_k part of the rows of [cols | I_k] that
                    # eliminate to 0 in cols
                    aug = pack([c + e for c, e in zip(
                        cols, identity(field, k).rows)])
                    rk, _ = _eliminate(field, ops, aug, nv, nv + k)
                    kernel = [y[nv:] for y in unpack(aug[rk:], nv + k)]
                    k -= rk
                    ts = [scale(combs(kernel, t), 1, nv) if k else []
                          for t in ts]
            j += 1
    if not k:
        return []
    binv = mat_inv(Mat._new(field, [row for _, row in ech]))
    return [mat_mul(binv, Mat._new(field, unpack([t[y] for t in ts], nv)))
            for y in range(k)]


def hom_basis_from_pairs(field, pairs, nu: int, nv: int, labels=None):
    """Solve X a = b X for all (a, b) in pairs; X is nv x nu, row-major,
    labels the source's and target's.  Returns the canonical basis."""
    if nu <= nv:
        xs = [transpose(x) for x in _spin(
            field, [(a, transpose(b)) for a, b in pairs], nu, nv, labels)]
    else:
        xs = _spin(field, [(transpose(b), a) for a, b in pairs], nv, nu,
                   labels and labels[::-1])
    if not xs:
        return []
    reduced, r, _ = rref(Mat._new(
        field, [[c for row in x.rows for c in row][::-1] for x in xs]))
    return [Mat._new(field, [flat[i * nu:(i + 1) * nu] for i in range(nv)])
            for flat in (row[::-1] for row in reduced.rows[r - 1::-1])]


def hom_space(u: Rep, v: Rep) -> list[Mat]:
    """A basis of all X with X u(g) = v(g) X, as matrices target x
    source; its length is the dimension of the hom space."""
    if u.group is not v.group:
        raise ValueError("representations must share a group")
    if u.field != v.field:
        raise ValueError("representations must share a field")
    same = u.eigen and v.eigen and u.eigen[0] == v.eigen[0]
    if same and set(u.eigen[1]).isdisjoint(v.eigen[1]):
        return []
    return hom_basis_from_pairs(u.field, list(zip(u.gens, v.gens)), u.dim,
                                v.dim, same and (u.eigen[1], v.eigen[1]))
