"""Spaces of module homomorphisms between two representations.

A hom from u to v is a v.dim x u.dim matrix X with X u(g) = v(g) X for
all g.  Imposing the condition on the generators suffices: intertwining
with generators propagates to every product, and the exhaustive check is
kept as a test invariant rather than paid on every call.  The equations
are linear in the entries of X, so the space is the null space of a
stacked coefficient matrix and bases come out deterministically.
"""

from __future__ import annotations

from .linalg import Mat, null_space
from .reps import Rep


def hom_basis_from_pairs(field, pairs, nu: int, nv: int):
    """Solve X a = b X for all (a, b) in pairs; X is nv x nu, row-major.

    The solver behind hom_space.
    """
    nvars = nu * nv
    add, sub = field.add, field.sub
    rows = []
    for a, b in pairs:
        for i in range(nv):
            bi = b.rows[i]
            for j in range(nu):
                row = [0] * nvars
                for k in range(nv):
                    c = bi[k]
                    if c:
                        row[k * nu + j] = add(row[k * nu + j], c)
                for k in range(nu):
                    c = a.rows[k][j]
                    if c:
                        idx = i * nu + k
                        row[idx] = sub(row[idx], c)
                rows.append(row)
    vecs = null_space(Mat._new(field, rows))
    return [Mat._new(field, [vec[i * nu:(i + 1) * nu] for i in range(nv)])
            for vec in vecs]


def hom_space(u: Rep, v: Rep) -> list[Mat]:
    """A basis of all X with X u(g) = v(g) X, as matrices target x
    source; its length is the dimension of the hom space."""
    if u.group is not v.group:
        raise ValueError("representations must share a group")
    if u.field != v.field:
        raise ValueError("representations must share a field")
    return hom_basis_from_pairs(u.field, list(zip(u.gens, v.gens)),
                                u.dim, v.dim)
