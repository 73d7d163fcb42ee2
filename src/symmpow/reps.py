"""Representations and the polynomial machinery for their symmetric powers.

Conventions that every downstream module relies on:

* A ``Rep`` stores one image matrix per generator, in the order of
  ``group.generators``, and nothing per element.  ``word_images``
  multiplies out the images of the elements a caller names, along the
  group's first-word tree (``group.parents``); only ``paired_rep``, for
  outside input, checks the other edges.  Images act on coordinate
  column vectors from the left.
* Degree-m monomials in n variables are ordered by decreasing
  lexicographic order on exponent vectors (for n = 2, m = 2 that is
  x1^2, x1 x2, x2^2).  A degree-m polynomial is the coefficient vector
  over that basis.
* A group element g acts on polynomials by substituting column i of its
  matrix for the variable x_i and re-expanding.  With this convention the
  degree-1 action reproduces the action on V itself.
* Symmetric powers are spaces of polynomials; divided powers are not used,
  so in characteristic p the action can be non-semisimple.  That is
  intentional.
* Sym^m is built two ways with the same result.  ``sym_power`` expands
  each column directly as a product of powers of the transformed
  variables, the cheaper route to a single degree (construct, and a
  scan's row beyond its depth).  ``sym_powers`` yields Sym^1, Sym^2, ...
  for a scan, each degree from the one before: column alpha of Sym^m(g)
  is column alpha - e_i of Sym^(m-1)(g) times g.x_i, i the first variable
  of alpha.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement, count
from math import comb

from .errors import CapExceeded, NotARepresentation
from .fields import FieldSpec, discrete_log, extend_field, field_embedding
from .groups import GroupData, scalar_of
from .linalg import Mat, identity, mat_inv, mat_mul, transpose

DEFAULT_DIM_CAP = 5000


class MonomialBasis:
    """Exponent vectors of total degree m in n variables, decreasing lex."""

    __slots__ = ("n", "m", "exponents", "index")

    def __init__(self, n: int, m: int):
        self.n = n
        self.m = m
        # instances are cached and shared, so the exponent list is frozen;
        # multisets of variables in lex order are exponent vectors in
        # decreasing lex order
        self.exponents = tuple(
            tuple(c.count(i) for i in range(n))
            for c in combinations_with_replacement(range(n), m))
        self.index = {e: i for i, e in enumerate(self.exponents)}

    def __len__(self):
        return len(self.exponents)

    def __repr__(self):
        return f"MonomialBasis(n={self.n}, m={self.m})"


@lru_cache(maxsize=None)
def monomial_basis(n: int, m: int) -> MonomialBasis:
    return MonomialBasis(n, m)


class PolyVec:
    """Homogeneous polynomial as coefficients over a MonomialBasis."""

    __slots__ = ("field", "basis", "coeffs")

    def __init__(self, field: FieldSpec, basis: MonomialBasis, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) != len(basis):
            raise ValueError("coefficient count does not match basis size")
        self.field = field
        self.basis = basis
        self.coeffs = coeffs

    def __eq__(self, other):
        return (isinstance(other, PolyVec) and self.field == other.field
                and self.basis.n == other.basis.n
                and self.basis.m == other.basis.m
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return f"PolyVec(n={self.basis.n}, m={self.basis.m}, {self.coeffs})"


def poly_one(field: FieldSpec, n: int) -> PolyVec:
    return PolyVec(field, monomial_basis(n, 0), [1])


def poly_from_vector(field: FieldSpec, v) -> PolyVec:
    """The linear form with coefficient v[i] on x_{i+1}."""
    n = len(v)
    return PolyVec(field, monomial_basis(n, 1), list(v))


def poly_mul(a: PolyVec, b: PolyVec) -> PolyVec:
    if a.field != b.field:
        raise ValueError("field mismatch")
    if a.basis.n != b.basis.n:
        raise ValueError("variable count mismatch")
    n = a.basis.n
    out_basis = monomial_basis(n, a.basis.m + b.basis.m)
    if n == 2:
        # x1^(m-i) x2^i has index i, so a product's index is ia + ib
        rows = (zip(count(ia), b.coeffs) for ia in range(len(a.coeffs)))
    else:
        index = out_basis.index
        rows = ([(index[tuple(map(int.__add__, ea, eb))], cb)
                 for eb, cb in zip(b.basis.exponents, b.coeffs) if cb]
                if ca else () for ea, ca in zip(a.basis.exponents, a.coeffs))
    return PolyVec(a.field, out_basis,
                   a.field.row_comb(a.coeffs, rows, len(out_basis)))


def poly_pow(a: PolyVec, k: int) -> PolyVec:
    if k < 0:
        raise ValueError("negative power")
    result = poly_one(a.field, a.basis.n)
    for _ in range(k):
        result = poly_mul(result, a)
    return result


class Rep:
    """Matrix representation of an enumerated group, given by generator
    images.

    ``gens[k]`` is the image of ``group.generators[k]``; the generator
    images are the whole representation, and ``field`` and ``dim`` are
    read off them.  ``field`` may be an extension of the group's field;
    scalar data attached to the group is carried into it by
    :func:`symmpow.fields.field_embedding` where it is consumed.

    Generators determine the whole action, so stability and intertwining
    checks run on ``gens``; the arguments that are per-element by nature
    read the elements they need through :func:`word_images`.  ``eigen``
    is None, or (h, labels) for images written in a joint eigenbasis of
    the images of h and of the scalar generator z, labels[i] the pair of
    their eigenvalues on coordinate i.
    """

    __slots__ = ("group", "field", "dim", "gens", "eigen")

    def __init__(self, group: GroupData, gens, eigen=None):
        gens = list(gens)
        if len(gens) != len(group.generators):
            raise ValueError("need one image per generator")
        self.group = group
        self.gens = gens
        self.field = gens[0].field
        self.dim = gens[0].nrows
        self.eigen = eigen

    def __repr__(self):
        return (f"Rep(dim={self.dim}, field={self.field!r}, "
                f"group_order={len(self.group.elements)})")


def word_images(r: Rep, indices) -> dict:
    """{j: image of element j} for j in indices, each the product of the
    generator images along j's first word in group.parents: walk up to
    the nearest element already built, then multiply back down.  No other
    edge is checked (see paired_rep)."""
    parents, gens = r.group.parents, r.gens
    images, out = {0: identity(r.field, r.dim)}, {}
    for j in indices:
        path, i = [], j
        while i not in images:
            path.append(i)
            i = parents[i][0]
        for i in reversed(path):
            p, k = parents[i]
            images[i] = mat_mul(images[p], gens[k])
        out[j] = images[j]
    return out


def defining_rep(group: GroupData) -> Rep:
    """The representation whose images are the group elements themselves."""
    return Rep(group, group.generators)


def paired_rep(group: GroupData, gen_images) -> Rep:
    """The representation with the given generator images, certified.

    Shapes and fields are validated, then one pass over the group's edge
    table in row order multiplies out every element's image: the first
    edge to reach an element, its ``group.parents`` edge, sets the image,
    and every later edge must reproduce it.  Success certifies the
    homomorphism property; a mismatch raises NotARepresentation.  The
    images are dropped; the Rep keeps the generator images only.
    """
    gen_images = list(gen_images)
    if len(gen_images) != len(group.generators):
        raise ValueError("need exactly one image per generator")
    dim = gen_images[0].nrows
    for m in gen_images:
        if not isinstance(m, Mat) or m.nrows != m.ncols or m.nrows != dim:
            raise ValueError("generator images must be square of equal size")
        if m.field != group.field:
            raise ValueError("generator images must live over the group field")
    images = [identity(group.field, dim)] + [None] * (group.order - 1)
    for i, row in enumerate(group.edges):
        for k, j in enumerate(row):
            image = mat_mul(images[i], gen_images[k])
            if images[j] is None:
                images[j] = image
            elif image != images[j]:
                raise NotARepresentation(
                    "generator images are inconsistent: two words "
                    f"for group element {j} yield different matrices")
    return Rep(group, gen_images)


def _sym_image(m: Mat, basis: MonomialBasis, prev: Mat = None) -> Mat:
    """The image of m on Sym^d, d = basis.m, built directly or, when
    given, from prev, the image of m on Sym^(d-1)."""
    if prev is not None:
        return _sym_image_from(m, basis, prev)
    field = m.field
    n = basis.n
    forms = [poly_from_vector(field, col) for col in zip(*m.rows)]
    # powers of each transformed variable, grown on demand
    pows = [[poly_one(field, n), forms[i]] for i in range(n)]

    def power(i, k):
        lst = pows[i]
        while len(lst) <= k:
            lst.append(poly_mul(lst[-1], forms[i]))
        return lst[k]

    cols = []
    for alpha in basis.exponents:
        poly = None
        for i, a in enumerate(alpha):
            if a:
                pw = power(i, a)
                poly = pw if poly is None else poly_mul(poly, pw)
        if poly is None:
            poly = poly_one(field, n)
        cols.append(poly.coeffs)
    return Mat._new(field, [list(r) for r in zip(*cols)])


def _parents(basis: MonomialBasis):
    """(i, j) per monomial x^alpha of the basis, degree m >= 1: i the first
    variable of alpha and j the index of alpha - e_i in degree m - 1."""
    m = basis.m
    if basis.n == 2:  # x1^(m-k) x2^k has index k
        return [(int(k == m), min(k, m - 1)) for k in range(m + 1)]
    lower = monomial_basis(basis.n, m - 1).index
    out = []
    for alpha in basis.exponents:
        i = next(k for k, a in enumerate(alpha) if a)
        out.append((i, lower[alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]]))
    return out


def _sym_image_from(m: Mat, basis: MonomialBasis, prev: Mat) -> Mat:
    # times x_i, the coefficient of beta moves to beta + e_i, so column
    # alpha is a combination of prev's column alpha - e_i, shifted
    n = basis.n
    prev_cols = [[(k, x) for k, x in enumerate(col) if x]
                 for col in zip(*prev.rows)]
    forms = [[m.rows[j][i] for j in range(n)] for i in range(n)]
    comb, dim, parents = m.field.row_comb, len(basis), _parents(basis)
    if n == 2:  # times x1 keeps an index, times x2 adds one to it
        cols = [comb(forms[i], [prev_cols[j], [(k + 1, x) for k, x in
                                               prev_cols[j]]], dim)
                for i, j in parents]
    else:
        lower = monomial_basis(n, basis.m - 1)
        shifts = [[basis.index[e[:j] + (e[j] + 1,) + e[j + 1:]]
                   for e in lower.exponents] for j in range(n)]
        cols = [comb(forms[i], [[(up[k], x) for k, x in prev_cols[j]]
                                for up in shifts], dim) for i, j in parents]
    return Mat._new(m.field, [list(r) for r in zip(*cols)])


def check_sym_dim(n: int, m: int, cap: int):
    """Raise CapExceeded when Sym^m of an n-dim space, or m itself, is
    larger than cap; dim Sym^m >= m + 1 for n >= 2, so m binds at n = 1."""
    dim = comb(n + m - 1, m)
    if dim > cap:
        raise CapExceeded(f"dim Sym^{m} = {dim} exceeds the cap {cap}")
    if m > cap:
        raise CapExceeded(f"Sym^{m}: the degree {m} exceeds the cap {cap}")


def sym_power(v: Rep, m: int) -> Rep:
    """Action on degree-m polynomials in dim(V) variables, built directly:
    each generator image column is the expanded product of transformed
    variables for the corresponding basis monomial.
    """
    if m < 0:
        raise ValueError("negative symmetric power")
    basis = monomial_basis(v.dim, m)
    return Rep(v.group, [_sym_image(g, basis) for g in v.gens])


def sym_powers(v: Rep, m_max: int):
    """Yield Sym^1(v), ..., Sym^m_max(v), each degree built from the one
    before, the only one kept; x^alpha gets the eigen label prod
    lam_i^alpha_i, lam_i the label of x_i, multiplied part by part: the
    label of x^alpha / x_i times lam_i, i the first variable of alpha."""
    gens = [identity(v.field, 1)] * len(v.gens)
    mul, labels = v.field.mul, [(1, 1)]
    for m in range(1, m_max + 1):
        basis = monomial_basis(v.dim, m)
        gens = [_sym_image(g, basis, prev) for g, prev in zip(v.gens, gens)]
        if v.eigen:
            lams = v.eigen[1]
            labels = [(mul(labels[j][0], lams[i][0]),
                       mul(labels[j][1], lams[i][1]))
                      for i, j in _parents(basis)]
        yield Rep(v.group, gens, v.eigen and (v.eigen[0], labels))


def dual_rep(r: Rep) -> Rep:
    """Contragredient action: g maps to the transpose of the inverse of its
    image."""
    return Rep(r.group, [transpose(mat_inv(g)) for g in r.gens])


def extend_scalars(r: Rep, e: int) -> Rep:
    """Same group, entries pushed through the degree-e field extension."""
    if e == 1:
        return r
    ext, table = extend_field(r.field, e)
    return Rep(r.group, [Mat._new(ext, [[table[x] for x in row]
                                        for row in m.rows]) for m in r.gens])


def restrict_scalar_character(w: Rep):
    """How the scalar subgroup acts on w.

    Returns (True, t) when the distinguished scalar generator acts on w as
    the scalar lam^t (t taken in [0, center order)), and (False, None)
    when its image is not scalar.
    """
    group = w.group
    z = group.z_generator_index
    c = scalar_of(word_images(w, [z])[z])
    if c is None:
        return False, None
    lam_here = field_embedding(group.field, w.field)[group.lam]
    t = discrete_log(w.field, lam_here, c, len(group.z_indices))
    return True, t


def induced_from_center(group: GroupData, t: int,
                        field: FieldSpec = None) -> Rep:
    """Induction of the scalar character lam^t up to the whole group,
    over field (an extension of the group's field; the group's own by
    default).

    The basis is indexed by the coset transversal; each image is a monomial
    matrix recording how left multiplication permutes cosets and which
    scalar falls out of the coset representative correction.
    """
    field = group.field if field is None else field
    embed = field_embedding(group.field, field)
    n = len(group.transversal)
    gens = []
    for g in group.generator_indices:
        rows = [[0] * n for _ in range(n)]
        for c, h in enumerate(group.transversal):
            gh = group.prod(g, h)
            c2 = group.coset_of[gh]
            z = group.prod(group.inverse[group.transversal[c2]], gh)
            scalar = group.elements[z].rows[0][0]
            rows[c2][c] = field.pow(embed[scalar], t)
        gens.append(Mat._new(field, rows))
    return Rep(group, gens)

