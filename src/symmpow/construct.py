"""Constructive occurrence of an irreducible module in a symmetric power.

Pipeline, for a group G acting on V with scalar subgroup Z of order z,
coset count N = |G/Z|, and an irreducible W on which Z acts through the
t-th power of the distinguished scalar character:

* pick a generic vector v: one whose line no non-central element fixes
  (sweeping extensions of the base field until one exists);
* per coset c, form the product F_c of the linear forms of h(v) over the
  transversal representatives h of all OTHER cosets (degree N - 1);
* the span of the N polynomials F_c^j * B^t * C^k, with B the product of
  all transversal lines (degree N), C the product of the lines of the full
  orbit (degree |G|), and j = z - t, lives in degree m + k|G| where
  m = Nz - j; it is N-dimensional, permuted by G coset-compatibly, carries
  the central character matching W, and is isomorphic to the module
  induced from that character;
* hence W maps nontrivially both into and out of the span, and composing
  with the inclusion of the span into the full symmetric power yields
  explicit embedding and quotient witnesses.

Every one of those assertions is verified exactly; any failure raises
TheoremViolation, since each is a proved identity and a failure can only
mean an implementation bug or a violated precondition.

Central groups (G = Z) run the same steps with one coset: any nonzero v
works (no generic vector is needed), F_c = 1, the span is the single
polynomial B^t, or C when t = 0, and the degree rule gives m = t for
t >= 1 and m = z for t = 0 (the smallest positive degree with the right
central character).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import reduce
from math import lcm

from .errors import TheoremViolation
from .fields import FieldSpec, extend_field, field_embedding
from .groups import GroupData, scalar_of
from .homs import hom_space
from .linalg import Mat, mat_mul, mat_vec, rank, transpose
from .reps import (DEFAULT_DIM_CAP, Rep, check_sym_dim, defining_rep,
                   extend_scalars, induced_from_center, poly_from_vector,
                   poly_mul, poly_one, poly_pow, restrict_scalar_character,
                   sym_power, PolyVec)

_MAX_EXTENSION_SWEEP = 64


def _ratio(field: FieldSpec, y, x):
    """The c with y = c * x for the nonzero vector x, or None."""
    i0 = next(i for i, c in enumerate(x) if c)
    c = field.mul(y[i0], field.inv(x[i0]))
    return c if all(yi == field.mul(c, xi) for yi, xi in zip(y, x)) else None


def is_generic_vector(images, v) -> bool:
    """True when no matrix in images maps v to a scalar multiple of v."""
    return all(_ratio(m.field, mat_vec(m, v), v) is None for m in images)


def find_generic_vector(group: GroupData, v_rep: Rep):
    """First vector (coordinate-lex sweep) whose line no non-central
    element fixes, extending scalars until one exists.

    Returns (v, field) and caches it on the group.  Termination: once q^e
    exceeds |G| the union of the eigenspaces cannot cover the whole space.
    """
    if group.center_order == group.order:
        raise ValueError("group acts by scalars; every vector is fixed")
    if group.generic is not None:
        return group.generic
    n = group.dim
    z_set = set(group.z_indices)
    noncentral = [i for i in range(group.order) if i not in z_set]
    for e in range(1, _MAX_EXTENSION_SWEEP + 1):
        ext_rep = extend_scalars(v_rep, e)
        ext = ext_rep.field
        images = [ext_rep.images[i] for i in noncentral]
        # genericity is a property of the line, and the lex-first vector
        # of a line has leading coordinate 1, so only those are tried; in
        # coordinate-lex order a later leading 1 comes first, and its tail
        # counts up in base q
        q = ext.q
        for lead in reversed(range(n)):
            width = n - 1 - lead
            for k in range(q ** width):
                v = [0] * lead + [1] + [k // q ** (width - 1 - i) % q
                                        for i in range(width)]
                if is_generic_vector(images, v):
                    group.generic = (tuple(v), ext)
                    return group.generic
    raise AssertionError("no generic vector within the extension sweep")


def build_coset_products(v, group: GroupData, v_rep: Rep):
    """Per coset c: the product over all other cosets c' of the linear
    form of (transversal representative of c') applied to v."""
    field = v_rep.field
    lines = [poly_from_vector(field, mat_vec(v_rep.images[h], list(v)))
             for h in group.transversal]
    return [reduce(poly_mul, lines[:c] + lines[c + 1:])
            if len(lines) > 1 else poly_one(field, v_rep.dim)
            for c in range(len(lines))]


def check_independence(coset_products, j: int) -> bool:
    """Rank of the stacked coefficient vectors of the j-th powers."""
    if j < 1:
        raise ValueError("power must be at least 1")
    field = coset_products[0].field
    rows = [poly_pow(f, j).coeffs for f in coset_products]
    return rank(Mat._new(field, rows)) == len(coset_products)


@dataclass
class Certificate:
    """Full record of one verified occurrence in a symmetric power.

    All polynomial and witness data is kept so an external tool can replay
    every check.  degree is m; total_degree is m + shift * group_order.
    """

    field: FieldSpec
    extension_degree: int
    generic_vector: tuple
    char_exponent: int            # power of the scalar character on W
    complement_exponent: int      # center_order - char_exponent
    coset_count: int
    center_order: int
    group_order: int
    degree: int
    shift: int
    total_degree: int
    coset_products: list
    transversal_product: PolyVec
    orbit_product: PolyVec
    span_polys: list
    embedding_witness: Mat
    quotient_witness: Mat
    central: bool
    flags: dict = dc_field(default_factory=dict)


def _require(flags: dict, name: str, ok: bool):
    flags[name] = bool(ok)
    if not ok:
        raise TheoremViolation(f"verified identity failed: {name}")


def _align_to_common_field(group: GroupData, w: Rep, v, v_field: FieldSpec):
    """Push w, the defining action, and v into one common extension."""
    f0 = group.field.f
    target = lcm(w.field.f, v_field.f)
    w_ext = extend_scalars(w, target // w.field.f)
    v_rep = extend_scalars(defining_rep(group), target // f0)
    if v_field.f == target:
        v_t = tuple(v)
    else:
        _, table = extend_field(v_field, target // v_field.f)
        v_t = tuple(table[x] for x in v)
    if w_ext.field != v_rep.field:
        raise ValueError("module field is not a standard extension tower; "
                         "extend via extend_scalars from the group field")
    return w_ext, v_rep, v_t


def assemble(w: Rep, k: int = 0,
             cap_dim: int = DEFAULT_DIM_CAP) -> Certificate:
    """Build and verify the span certifying that w occurs in the
    symmetric power of degree m + k|G|, whose dimension must not exceed
    cap_dim (CapExceeded)."""
    if k < 0:
        raise ValueError("shift must be nonnegative")
    group = w.group
    scalar_flag, t = restrict_scalar_character(w)
    if not scalar_flag:
        raise ValueError("center does not act by scalars on this module "
                         "over its field; extend scalars first")

    zn = group.center_order
    order = group.order
    central = zn == order
    j = zn - t
    # a central group has one coset, so m = t, or z when t = 0
    m = group.coset_count * zn - j or zn

    if central:
        v, v_field = (0,) * (group.dim - 1) + (1,), group.field
    else:
        if not (1 <= j <= zn and 1 <= m < order):
            raise TheoremViolation(f"degree bookkeeping out of range: "
                                   f"t={t} j={j} m={m} order={order}")
        v, v_field = find_generic_vector(group, defining_rep(group))
    total_degree = m + k * order
    check_sym_dim(group.dim, total_degree, cap_dim)
    w_ext, v_rep, v_t = _align_to_common_field(group, w, v, v_field)

    field = v_rep.field
    flags: dict = {}

    coset_products = build_coset_products(v_t, group, v_rep)
    _require(flags, "coset_powers_independent",
             check_independence(coset_products, j))

    # coset 0 is the identity coset, so F_0 lacks exactly the line of v
    transversal_product = poly_mul(coset_products[0],
                                   poly_from_vector(field, list(v_t)))
    orbit_product = reduce(poly_mul, (
        poly_from_vector(field, mat_vec(v_rep.images[g], list(v_t)))
        for g in range(order)))

    span_polys = []
    for f_c in coset_products:
        p = poly_pow(f_c, j)
        if t >= 1:
            p = poly_mul(p, poly_pow(transversal_product, t))
        elif central:
            p = poly_mul(p, orbit_product)
        if k >= 1:
            p = poly_mul(p, poly_pow(orbit_product, k))
        span_polys.append(p)
    _require(flags, "span_degree",
             all(p.basis.m == total_degree for p in span_polys))

    n_span = len(span_polys)
    span_matrix = Mat._new(field, [p.coeffs for p in span_polys])
    _require(flags, "span_dimension", rank(span_matrix) == n_span)

    # every check below runs on generator images: a subspace stable under
    # the generators is stable under the group, and a map intertwining the
    # generators is a module homomorphism
    sym_rep = sym_power(v_rep, total_degree)

    span_gens = []
    for g, sym_g in zip(group.generator_indices, sym_rep.gens):
        img_rows = [[0] * n_span for _ in range(n_span)]
        for c in range(n_span):
            y = mat_vec(sym_g, span_polys[c].coeffs)
            c2 = group.coset_of[group.prod(g, group.transversal[c])]
            ratio = _ratio(field, y, span_polys[c2].coeffs)
            if not ratio:
                _require(flags, "coset_permutation", False)
            img_rows[c2][c] = ratio
        span_gens.append(Mat._new(field, img_rows))
    _require(flags, "coset_permutation", True)
    span_rep = Rep(group, span_gens)
    span_images = span_rep.images

    lam_ext = field_embedding(group.field, field)[group.lam]
    z_img = span_images[group.z_generator_index]
    _require(flags, "center_character",
             scalar_of(z_img) == field.pow(lam_ext, t))

    induced = induced_from_center(group, t, field)
    phi = Mat._new(field, [[span_images[group.transversal[c]].rows[u][0]
                            for c in range(n_span)] for u in range(n_span)])
    iso_ok = rank(phi) == n_span and all(
        mat_mul(a, phi) == mat_mul(phi, b)
        for a, b in zip(span_rep.gens, induced.gens))
    _require(flags, "induced_isomorphism", iso_ok)

    hs_in = hom_space(w_ext, span_rep)
    hs_out = hom_space(span_rep, w_ext)
    _require(flags, "module_occurs_in_span", bool(hs_in and hs_out))

    span_cols = transpose(span_matrix)
    embedding = mat_mul(span_cols, hs_in[0])
    emb_ok = rank(embedding) == w_ext.dim and all(
        mat_mul(a, embedding) == mat_mul(embedding, b)
        for a, b in zip(sym_rep.gens, w_ext.gens))
    _require(flags, "embedding_witness", emb_ok)

    hs_quot = hom_space(sym_rep, w_ext)
    _require(flags, "quotient_exists", bool(hs_quot))
    quotient = hs_quot[0]
    quot_ok = rank(quotient) == w_ext.dim and all(
        mat_mul(b, quotient) == mat_mul(quotient, a)
        for a, b in zip(sym_rep.gens, w_ext.gens))
    _require(flags, "quotient_witness", quot_ok)

    return Certificate(
        field=field,
        extension_degree=field.f // group.field.f,
        generic_vector=tuple(v_t),
        char_exponent=t,
        complement_exponent=j,
        coset_count=n_span,
        center_order=zn,
        group_order=order,
        degree=m,
        shift=k,
        total_degree=total_degree,
        coset_products=coset_products,
        transversal_product=transversal_product,
        orbit_product=orbit_product,
        span_polys=span_polys,
        embedding_witness=embedding,
        quotient_witness=quotient,
        central=central,
        flags=flags,
    )


def verify_periodicity(w: Rep, cert: Certificate, k_max: int,
                       cap_dim: int = DEFAULT_DIM_CAP):
    """Rerun the assembly at shifts 1..k_max; every run must verify."""
    out = []
    for k in range(1, k_max + 1):
        shifted = assemble(w, k, cap_dim)
        if shifted.degree != cert.degree or shifted.char_exponent != cert.char_exponent:
            raise TheoremViolation("shifted certificate disagrees on degree data")
        out.append(all(shifted.flags.values()))
    return out
