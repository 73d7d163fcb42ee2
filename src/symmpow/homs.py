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

Over GF(p) the T_i stay in linalg's packed row form from seed to cut: a
seed's T is f E_block, written as packed unit rows, and its first images
are f times rows of the packed b^T, until a cut combines them.  K's
dimension is the hom space's, so hom_dim stops at the cut space; only
hom_space builds X = [T_i y] B^-1 for a basis of K.

The basis is canonical: the homs flattened row-major, in reduced echelon
form with the columns taken right to left, ordered by pivot column.  It
is null_space's basis of the equations in the entries of X, so reports,
which serialize basis elements, do not depend on the solver.
"""

from __future__ import annotations

from .linalg import (Mat, _row_ops, mat_inv, mat_mul, mat_vec, null_space,
                     rref, transpose)
from .reps import Rep


def _spin(field, pairs, nu: int, nv: int, labels=None):
    """The cut space of the nv x nu X with X a = b X for all
    (a, transpose(b)) in pairs: (k, B, ts), k its dimension, B the rows
    b_i and ts[i] T_i, kept as its k columns, rows of linalg's row form
    from seed to cut.  An image b T_j combines nv rows and reduce updates
    it at most nu times, so its slots never need renormalizing.  A
    relation's k columns, unpacked, make an nv x k matrix; its cut is
    that matrix's null_space, and each T_i's columns are recombined by
    that basis.  Seed s opens the target coordinates whose label (in
    labels[1]) is s's."""
    ops = _row_ops(field, nv + nu, nv)
    pack, unpack, _, sub, scale, combs, _, _, unit = ops
    row_sub, mul, neg, zero = field.row_sub, field.mul, field.neg, ops.zero(nv)
    packed = [(a, pack(bt.rows)) for a, bt in pairs]
    pairs = [(a, bt, combs(bt)) for a, bt in packed]  # a, b^T, T -> b T
    ech, ts = [], []  # spin vectors in semi-echelon form (pivot, row); T_i
    k = 0

    def reduce(w, cols):  # w minus its part in the span; cols likewise
        for (p, row), t in zip(ech, ts):
            f = w[p]
            if f:
                w = row_sub(w, f, row)
                cols = [sub(c, f, q, 0) for c, q in zip(cols, t)]
        return w, cols

    def adjoin(w):  # the scale that takes w's pivot to 1
        p = next(i for i, x in enumerate(w) if x)
        f = field.inv(w[p])
        ech.append((p, [mul(f, x) for x in w]))
        return f

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
        ts = [t + [zero] * len(block) for t in ts]
        f = adjoin(seed)
        ts.append([zero] * k + [unit(c, f, nv) for c in block])
        k += len(block)
        fresh = j  # T_j is f E_block until the next cut
        while j < len(ech):
            for a, bt, comb in pairs:
                # the image b T_j, as k columns of nv terms each
                if not k:
                    image = []
                elif j == fresh:  # b f e_c is f times row c of b^T
                    image = [zero] * (k - len(block)) + [
                        sub(zero, neg(f), bt[c], 0) for c in block]
                else:
                    image = comb(unpack(ts[j], nv))
                w, cols = reduce(mat_vec(a, ech[j][1]), image)
                if any(w):
                    ts.append(scale(cols, adjoin(w), nv))
                    continue
                cols = unpack(cols, nv)
                if any(map(any, cols)):
                    # a nonzero relation cuts K to the null space of the
                    # nv x k matrix whose columns are cols
                    kernel = null_space(transpose(Mat._new(field, cols)))
                    k = len(kernel)
                    ts = [scale(combs(t)(kernel), 1, nv) if k else []
                          for t in ts]
                    fresh = None
            j += 1
    return k, [row for _, row in ech], ts


def _spin_smaller(field, pairs, nu: int, nv: int, labels):
    """_spin of X a = b X over pairs (a, b), on the smaller side: its
    result, and True when B^-1 T_y is the transpose of an X."""
    if nu <= nv:
        return _spin(field, [(a, transpose(b)) for a, b in pairs], nu, nv,
                     labels), True
    return _spin(field, [(transpose(b), a) for a, b in pairs], nv, nu,
                 labels and labels[::-1]), False


def hom_basis_from_pairs(field, pairs, nu: int, nv: int, labels=None):
    """Solve X a = b X for all (a, b) in pairs; X is nv x nu, row-major,
    labels the source's and target's.  Returns the canonical basis."""
    (k, b, ts), transposed = _spin_smaller(field, pairs, nu, nv, labels)
    if not k:
        return []
    n = max(nu, nv)  # the spin's target
    binv, unpack = (mat_inv(Mat._new(field, b)),
                    _row_ops(field, nu + nv, n).unpack)
    xs = [mat_mul(binv, Mat._new(field, unpack([t[y] for t in ts], n)))
          for y in range(k)]
    reduced, r, _ = rref(Mat._new(field, [
        [c for row in (transpose(x) if transposed else x).rows
         for c in row][::-1] for x in xs]))
    return [Mat._new(field, [flat[i * nu:(i + 1) * nu] for i in range(nv)])
            for flat in (row[::-1] for row in reduced.rows[r - 1::-1])]


def _problem(u: Rep, v: Rep):
    """The arguments hom_basis_from_pairs takes for Hom(u, v), or None
    when the labels force Hom(u, v) = 0."""
    if u.group is not v.group:
        raise ValueError("representations must share a group")
    if u.field != v.field:
        raise ValueError("representations must share a field")
    same = u.eigen and v.eigen and u.eigen[0] == v.eigen[0]
    if same and set(u.eigen[1]).isdisjoint(v.eigen[1]):
        return None
    return (u.field, list(zip(u.gens, v.gens)), u.dim, v.dim,
            same and (u.eigen[1], v.eigen[1]))


def hom_space(u: Rep, v: Rep) -> list[Mat]:
    """A basis of all X with X u(g) = v(g) X, as matrices target x
    source; its length is the dimension of the hom space."""
    problem = _problem(u, v)
    return hom_basis_from_pairs(*problem) if problem else []


def hom_dim(u: Rep, v: Rep) -> int:
    """len(hom_space(u, v)), the dimension of the spin's cut space; no
    basis is built."""
    problem = _problem(u, v)
    return _spin_smaller(*problem)[0][0] if problem else 0
