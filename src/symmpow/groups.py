"""Finite matrix groups given by generators.

A group is enumerated by breadth-first closure under right multiplication
by the generators; the identity gets index 0 and elements within a BFS
level follow generator order, so indices are deterministic.  Because the
elements are the matrices themselves, faithfulness of the defining action
needs no separate certificate.
"""

from __future__ import annotations

from .errors import CapExceeded
from .fields import FieldSpec, mult_order
from .linalg import Mat, identity, mat_inv, mat_mul, rank

DEFAULT_GROUP_CAP = 10_000


class GroupData:
    """Enumerated group together with its central scalar data and a fixed
    transversal of the scalar subgroup.

    Every attribute but generic is populated by :func:`enumerate_group`:
      field, dim, generators, generator_indices, elements, index (matrix
      key -> element index), edges (edges[i][k] = index of
      elements[i] @ generators[k]), inverse; z_indices, z_generator_index,
      lam (by :func:`center_scalars`); transversal, coset_of (by
      :func:`coset_transversal`).

    Populated by :func:`symmpow.construct.find_generic_vector`: generic.
    """

    __slots__ = ("field", "dim", "generators", "generator_indices",
                 "elements", "index", "edges", "inverse",
                 "z_indices", "z_generator_index", "lam",
                 "transversal", "coset_of", "generic")

    def __init__(self, field, dim, generators, generator_indices,
                 elements, index, edges, inverse):
        self.field = field
        self.dim = dim
        self.generators = generators
        self.generator_indices = generator_indices
        self.elements = elements
        self.index = index
        self.edges = edges
        self.inverse = inverse
        self.z_indices = None
        self.z_generator_index = None
        self.lam = None
        self.transversal = None
        self.coset_of = None
        self.generic = None

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def center_order(self) -> int:
        return len(self.z_indices)

    @property
    def coset_count(self) -> int:
        return len(self.transversal)

    def prod(self, a: int, b: int) -> int:
        """Index of elements[a] @ elements[b]."""
        return self.index[mat_mul(self.elements[a], self.elements[b]).key()]

    def element_order(self, a: int) -> int:
        x = a
        d = 1
        while x != 0:
            x = self.prod(x, a)
            d += 1
        return d

    def __repr__(self):
        return (f"GroupData(order={len(self.elements)}, dim={self.dim}, "
                f"field={self.field!r})")


def enumerate_group(generators, cap: int = DEFAULT_GROUP_CAP) -> GroupData:
    """Close the generators under multiplication; add center and cosets.

    Raises CapExceeded if more than ``cap`` elements appear, and ValueError
    for empty input, shape or field mismatches, or a singular generator.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator is required")
    field = gens[0].field
    n = gens[0].nrows
    for g in gens:
        if not isinstance(g, Mat):
            raise ValueError("generators must be Mat instances")
        if g.nrows != g.ncols or g.nrows != n:
            raise ValueError("generators must be square of equal size")
        if g.field != field:
            raise ValueError("generators must share one field")
        if rank(g) != n:
            raise ValueError("singular generator")

    ident = identity(field, n)
    elements = [ident]
    index = {ident.key(): 0}
    edges = []
    i = 0
    while i < len(elements):
        row = []
        for g in gens:
            m = mat_mul(elements[i], g)
            key = m.key()
            j = index.get(key)
            if j is None:
                j = len(elements)
                if j >= cap:
                    raise CapExceeded(
                        f"group closure exceeded cap of {cap} elements")
                index[key] = j
                elements.append(m)
            row.append(j)
        edges.append(row)
        i += 1

    inverse = []
    for m in elements:
        inverse.append(index[mat_inv(m).key()])
    generator_indices = [index[g.key()] for g in gens]
    group = GroupData(field, n, gens, generator_indices,
                      elements, index, edges, inverse)
    center_scalars(group)
    coset_transversal(group)
    return group


def scalar_of(m: Mat):
    """The scalar c when m = c * I, else None."""
    c = m.rows[0][0]
    for i, row in enumerate(m.rows):
        for j, x in enumerate(row):
            if i == j:
                if x != c:
                    return None
            elif x:
                return None
    return c


def center_scalars(group: GroupData):
    """Identify the subgroup of scalar matrices inside the group.

    Returns (z_indices, z_generator_index, lam) and stores them on the
    group; enumerate_group calls it.  The distinguished generator is the
    scalar element whose scalar has maximal multiplicative order, ties
    broken by lowest element index; lam is that scalar.  The scalars form
    a cyclic group, so the maximal order equals the subgroup size.
    """
    field = group.field
    z_indices = []
    scalars = []
    for idx, m in enumerate(group.elements):
        c = scalar_of(m)
        if c is not None:
            z_indices.append(idx)
            scalars.append(c)
    best = None
    for idx, c in zip(z_indices, scalars):
        d = mult_order(field, c)
        if best is None or d > best[0]:
            best = (d, idx, c)
    order, z_gen, lam = best
    if order != len(z_indices):
        raise ArithmeticError("scalar subgroup is not cyclic of its size")
    group.z_indices = z_indices
    group.z_generator_index = z_gen
    group.lam = lam
    return z_indices, z_gen, lam


def coset_transversal(group: GroupData):
    """Fixed representatives for the cosets of the scalar subgroup.

    Greedy sweep in element-index order: an element starts a new coset iff
    no earlier element lies in its coset.  Coset 0 is the identity coset.
    Returns (transversal, coset_of) and stores them on the group;
    enumerate_group calls it after center_scalars.
    """
    n_el = len(group.elements)
    coset_of = [None] * n_el
    transversal = []
    for a in range(n_el):
        if coset_of[a] is not None:
            continue
        c = len(transversal)
        transversal.append(a)
        for z in group.z_indices:
            coset_of[group.prod(a, z)] = c
    if len(transversal) * len(group.z_indices) != n_el:
        raise ArithmeticError("coset partition does not tile the group")
    group.transversal = transversal
    group.coset_of = coset_of
    return transversal, coset_of


def build_group(generators, cap: int = DEFAULT_GROUP_CAP) -> GroupData:
    """The complete group on the generators; see :func:`enumerate_group`."""
    return enumerate_group(generators, cap)
