"""Spaces of module homomorphisms between two representations.

A hom from u to v is a v.dim x u.dim matrix X with X u(g) = v(g) X for
all g.  Imposing the condition on the generators suffices: intertwining
with generators propagates to every product, and the exhaustive check is
kept as a test invariant rather than paid on every call.  The equations
are linear in the entries of X, so the space is the null space of a
stacked coefficient matrix and bases come out deterministically.
"""

from __future__ import annotations

from .linalg import Mat, null_space, rank, stack_rows
from .reps import Rep


class HomSpace:
    """Basis of the intertwiner space from source to target."""

    __slots__ = ("source_dim", "target_dim", "basis")

    def __init__(self, source_dim: int, target_dim: int, basis):
        self.source_dim = source_dim
        self.target_dim = target_dim
        self.basis = list(basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __repr__(self):
        return (f"HomSpace(source_dim={self.source_dim}, "
                f"target_dim={self.target_dim}, dim={self.dim})")


def hom_basis_from_pairs(field, pairs, nu: int, nv: int):
    """Solve X a = b X for all (a, b) in pairs; X is nv x nu, row-major.

    The solver behind hom_space.
    """
    nvars = nu * nv
    add, sub = field.add, field.sub
    blocks = []
    for a, b in pairs:
        rows = []
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
        blocks.append(Mat._new(field, rows))
    coeff = stack_rows(blocks)
    vecs = null_space(coeff)
    return [Mat._new(field, [vec[i * nu:(i + 1) * nu] for i in range(nv)])
            for vec in vecs]


def hom_space(u: Rep, v: Rep) -> HomSpace:
    """All X with X u(g) = v(g) X, as matrices target x source."""
    if u.group is not v.group:
        raise ValueError("representations must share a group")
    if u.field != v.field:
        raise ValueError("representations must share a field")
    basis = hom_basis_from_pairs(u.field, list(zip(u.gens, v.gens)),
                                 u.dim, v.dim)
    return HomSpace(u.dim, v.dim, basis)


def occurs_as_submodule(w: Rep, u: Rep):
    """Does irreducible w embed into u?  Returns (flag, witness or None).

    The witness is the first basis element of Hom(w, u); irreducibility of
    w forces its kernel to vanish, which the rank check confirms.
    """
    hs = hom_space(w, u)
    if not hs.basis:
        return False, None
    x = hs.basis[0]
    if rank(x) != w.dim:
        raise ValueError("non-injective witness; source module is reducible")
    return True, x


def occurs_as_quotient(w: Rep, u: Rep):
    """Is irreducible w a quotient of u?  Returns (flag, witness or None)."""
    hs = hom_space(u, w)
    if not hs.basis:
        return False, None
    x = hs.basis[0]
    if rank(x) != w.dim:
        raise ValueError("non-surjective witness; target module is reducible")
    return True, x


def verify_extension_invariance(u: Rep, v: Rep, e: int):
    """Hom dimension before and after a degree-e extension of scalars.

    Returns (dim_base, dim_ext, equal).  The two dims always agree; a
    mismatch exposes a bug, which is the point of computing both.
    """
    from .reps import extend_scalars
    if e < 1:
        raise ValueError("extension degree must be at least 1")
    d0 = hom_space(u, v).dim
    d1 = hom_space(extend_scalars(u, e), extend_scalars(v, e)).dim
    return d0, d1, d0 == d1
