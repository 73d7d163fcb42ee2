"""Finite matrix groups given by generators.

A group is enumerated by breadth-first closure under right multiplication
by the generators; the identity gets index 0 and elements within a BFS
level follow generator order, so indices are deterministic.  Because the
elements are the matrices themselves, faithfulness of the defining action
needs no separate certificate.
"""

from __future__ import annotations

from .errors import CapExceeded
from .fields import mult_order
from .linalg import Mat, identity, mat_inv, mat_mul, rank

DEFAULT_GROUP_CAP = 10_000


class GroupData:
    """Enumerated group together with its central scalar data and a fixed
    transversal of the scalar subgroup, complete at construction.

    Built from the closure that :func:`enumerate_group` computes:
    generators, elements, index (matrix key -> element index), edges
    (edges[i][k] = index of elements[i] @ generators[k]) and inverse.
    The constructor reads field, dim and generator_indices off those,
    takes z_indices, z_generator_index and lam from
    :func:`center_scalars` and transversal and coset_of from
    :func:`coset_transversal`.
    """

    __slots__ = ("field", "dim", "generators", "generator_indices",
                 "elements", "index", "edges", "inverse",
                 "z_indices", "z_generator_index", "lam",
                 "transversal", "coset_of")

    def __init__(self, generators, elements, index, edges, inverse):
        self.generators = generators
        self.elements = elements
        self.index = index
        self.edges = edges
        self.inverse = inverse
        self.field = generators[0].field
        self.dim = generators[0].nrows
        self.generator_indices = [index[g.key()] for g in generators]
        self.z_indices, self.z_generator_index, self.lam = center_scalars(self)
        self.transversal, self.coset_of = coset_transversal(self)

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
    parents = []  # (i, k) with elements[j] = elements[i] @ gens[k], j >= 1
    i = 0
    while i < len(elements):
        row = []
        for k, g in enumerate(gens):
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
                parents.append((i, k))
            row.append(j)
        edges.append(row)
        i += 1

    invs, inverse = [mat_inv(g) for g in gens], [0]
    for i, k in parents:  # (x g)^-1 = g^-1 x^-1, and x precedes x g
        inverse.append(index[mat_mul(invs[k], elements[inverse[i]]).key()])
    return GroupData(gens, elements, index, edges, inverse)


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

    Reads the group's field and elements and returns (z_indices,
    z_generator_index, lam); the GroupData constructor calls it.  The
    distinguished generator is the scalar element whose scalar has maximal
    multiplicative order, ties broken by lowest element index; lam is that
    scalar.  The scalars form a cyclic group, so the maximal order equals
    the subgroup size.
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
    return z_indices, z_gen, lam


def coset_transversal(group: GroupData):
    """Fixed representatives for the cosets of the scalar subgroup.

    Greedy sweep in element-index order: an element starts a new coset iff
    no earlier element lies in its coset.  Coset 0 is the identity coset.
    Reads the group's elements and z_indices and returns (transversal,
    coset_of); the GroupData constructor calls it after center_scalars.
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
    return transversal, coset_of


def conjugacy_classes(group: GroupData):
    """(least index, size) of each conjugacy class, in index order: the
    orbits of x -> s^-1 x s for the generators s, which is
    edges[inverse[edges[inverse[x]][k]]][k] in the group's tables."""
    edges, inv = group.edges, group.inverse
    seen, classes = set(), []
    for a in range(group.order):
        if a in seen:
            continue
        orbit = [a]
        seen.add(a)
        for x in orbit:
            for k in range(len(group.generators)):
                y = edges[inv[edges[inv[x]][k]]][k]
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
        classes.append((a, len(orbit)))
    return classes


def build_group(generators, cap: int = DEFAULT_GROUP_CAP) -> GroupData:
    """The complete group on the generators; see :func:`enumerate_group`."""
    return enumerate_group(generators, cap)
