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
  induced from that character.  G permutes the factors of C, so C is
  G-invariant and the shift-k span is the shift-0 span times C^k, with the
  same generator matrices: every shift reuses the shift-0 build and its
  proofs, and re-checks only what depends on the degree;
* hence W maps nontrivially both into and out of the span, and composing
  with the inclusion of the span into the full symmetric power yields
  explicit embedding and quotient witnesses.

Every one of those assertions is verified exactly, each degree on one
span matrix S (row c the c-th span polynomial): rank S = N, and the rows
of S Sym(g)^T give each generator's coset permutation.  Any failure
raises TheoremViolation, since each is a proved identity and a failure
can only mean an implementation bug or a violated precondition.

Central groups (G = Z) run the same steps with one coset: any nonzero v
works (no generic vector is needed), F_c = 1, the span is the single
polynomial B^t, or C when t = 0, and the degree rule gives m = t for
t >= 1 and m = z for t = 0 (the smallest positive degree with the right
central character).
"""

from __future__ import annotations

from functools import reduce
from math import lcm
from typing import NamedTuple

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


def find_generic_vector(group: GroupData):
    """First vector (coordinate-lex sweep) whose line no non-central
    element fixes, extending scalars until one exists.

    Returns (v, field).  Termination: once q^e exceeds |G| the union of
    the eigenspaces cannot cover the whole space.
    """
    if group.center_order == group.order:
        raise ValueError("group acts by scalars; every vector is fixed")
    n, v_rep = group.dim, defining_rep(group)
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
                    return tuple(v), ext
    raise AssertionError("no generic vector within the extension sweep")


def build_coset_products(v, v_rep: Rep):
    """Per coset c, the product F_c over all other cosets c' of the linear
    form of (transversal representative of c') applied to v, and the
    product B of all N forms.  F_c is the product of the forms before c
    times that of the forms after c: O(N) products for all N."""
    group, field = v_rep.group, v_rep.field
    lines = [poly_from_vector(field, mat_vec(v_rep.images[h], list(v)))
             for h in group.transversal]
    prefix = [poly_one(field, v_rep.dim)]
    for line in lines:
        prefix.append(poly_mul(prefix[-1], line))
    products, suffix = [], prefix[0]
    for c in reversed(range(len(lines))):
        products.append(poly_mul(prefix[c], suffix))
        suffix = poly_mul(lines[c], suffix)
    return products[::-1], prefix[-1]


def check_independence(polys) -> bool:
    """True when the coefficient vectors of polys are independent."""
    rows = [p.coeffs for p in polys]
    return rank(Mat._new(polys[0].field, rows)) == len(rows)


class Certificate(NamedTuple):
    """Full record of one verified occurrence in a symmetric power, in
    degree m, with all polynomial and witness data so an external tool can
    replay every check.  ``assemble`` verifies the shifts m + k|G| without
    recording them; ``cli.enc_certificate`` writes the report-schema keys
    shift and total_degree as 0 and m."""

    field: FieldSpec
    extension_degree: int
    generic_vector: tuple
    char_exponent: int            # power of the scalar character on W
    complement_exponent: int      # center_order - char_exponent
    coset_count: int
    center_order: int
    group_order: int
    degree: int
    coset_products: list
    transversal_product: PolyVec
    orbit_product: PolyVec
    span_polys: list
    embedding_witness: Mat
    quotient_witness: Mat
    central: bool
    flags: dict


def _require(flags: dict, name: str, ok: bool):
    flags[name] = bool(ok)
    if not ok:
        raise TheoremViolation(f"verified identity failed: {name}")


def _intertwines(a_gens, b_gens, x: Mat) -> bool:
    """True when a x = x b for every pair of generator images."""
    return all(mat_mul(a, x) == mat_mul(x, b) for a, b in zip(a_gens, b_gens))


def _align_to_common_field(group: GroupData, w: Rep, v, v_field: FieldSpec):
    """Push w, the defining action, and v into one common extension."""
    target = lcm(w.field.f, v_field.f)
    w_ext = extend_scalars(w, target // w.field.f)
    v_rep = extend_scalars(defining_rep(group), target // group.field.f)
    _, table = extend_field(v_field, target // v_field.f)
    v_t = tuple(table[x] for x in v)
    if w_ext.field != v_rep.field:
        raise ValueError("module field is not a standard extension tower; "
                         "extend via extend_scalars from the group field")
    return w_ext, v_rep, v_t


def _span_action(flags: dict, v_rep: Rep, span_polys, degree: int,
                 expected=None):
    """Check the span's degree and dimension; return Sym^degree of v_rep,
    the span matrix S and the generator images on the span, read off the
    coset permutation in the rows of S Sym(g)^T (they must equal expected
    when it is given).  Generators suffice: a span they stabilize is
    stable, and a map intertwining them is a homomorphism."""
    group, field = v_rep.group, v_rep.field
    n = len(span_polys)
    _require(flags, "span_degree",
             all(p.basis.m == degree for p in span_polys))
    span = Mat._new(field, [p.coeffs for p in span_polys])
    _require(flags, "span_dimension", rank(span) == n)
    sym_rep = sym_power(v_rep, degree)
    gens = []
    for g, sym_g in zip(group.generator_indices, sym_rep.gens):
        moved = mat_mul(span, transpose(sym_g)).rows
        rows = [[0] * n for _ in range(n)]
        for c in range(n):
            c2 = group.coset_of[group.prod(g, group.transversal[c])]
            rows[c2][c] = _ratio(field, moved[c], span.rows[c2])
            _require(flags, "coset_permutation", rows[c2][c])
        gens.append(Mat._new(field, rows))
    _require(flags, "coset_permutation", expected is None or gens == expected)
    return sym_rep, span, gens


def _witnesses(flags: dict, sym_rep: Rep, w_ext: Rep, span: Mat, hs_in):
    """Embedding of w through the span and quotient of sym_rep onto w."""
    embedding = mat_mul(transpose(span), hs_in[0])
    _require(flags, "embedding_witness", rank(embedding) == w_ext.dim
             and _intertwines(sym_rep.gens, w_ext.gens, embedding))
    hs_quot = hom_space(sym_rep, w_ext)
    _require(flags, "quotient_exists", bool(hs_quot))
    quotient = hs_quot[0]
    _require(flags, "quotient_witness", rank(quotient) == w_ext.dim
             and _intertwines(w_ext.gens, sym_rep.gens, quotient))
    return embedding, quotient


def assemble(w: Rep, k_max: int = 0,
             cap_dim: int = DEFAULT_DIM_CAP) -> Certificate:
    """Build and verify the span certifying that w occurs in Sym^m, and
    verify it again, times C^k, in Sym^(m + k|G|) for k = 1..k_max.
    Returns the degree-m certificate.  A power up to degree m + k_max|G|
    of dimension above cap_dim raises CapExceeded before any work."""
    if k_max < 0:
        raise ValueError("shift must be nonnegative")
    group = w.group
    scalar_flag, t = restrict_scalar_character(w)
    if not scalar_flag:
        raise ValueError("center does not act by scalars on this module "
                         "over its field; extend scalars first")

    zn, order = group.center_order, group.order
    central = zn == order
    j = zn - t
    # a central group has one coset, so m = t, or z when t = 0
    m = group.coset_count * zn - j or zn
    if not central and not (1 <= j <= zn and 1 <= m < order):
        raise TheoremViolation(f"degree bookkeeping out of range: "
                               f"t={t} j={j} m={m} order={order}")
    check_sym_dim(group.dim, m + k_max * order, cap_dim)

    v, v_field = (((0,) * (group.dim - 1) + (1,), group.field) if central
                  else find_generic_vector(group))
    w_ext, v_rep, v_t = _align_to_common_field(group, w, v, v_field)
    field, flags = v_rep.field, {}

    coset_products, transversal_product = build_coset_products(v_t, v_rep)
    powers = [poly_pow(f_c, j) for f_c in coset_products]
    _require(flags, "coset_powers_independent", check_independence(powers))
    orbit_product = reduce(poly_mul, (
        poly_from_vector(field, mat_vec(v_rep.images[g], list(v_t)))
        for g in range(order)))

    tail = (poly_pow(transversal_product, t) if t >= 1
            else orbit_product if central else None)
    span_polys = powers if tail is None else [poly_mul(p, tail)
                                              for p in powers]

    sym_rep, span, span_gens = _span_action(flags, v_rep, span_polys, m)
    span_rep = Rep(group, span_gens)
    n_span = len(span_polys)
    span_images = span_rep.images

    lam_ext = field_embedding(group.field, field)[group.lam]
    _require(flags, "center_character", scalar_of(
        span_images[group.z_generator_index]) == field.pow(lam_ext, t))

    induced = induced_from_center(group, t, field)
    phi = Mat._new(field, [[span_images[group.transversal[c]].rows[u][0]
                            for c in range(n_span)] for u in range(n_span)])
    _require(flags, "induced_isomorphism", rank(phi) == n_span
             and _intertwines(span_rep.gens, induced.gens, phi))

    hs_in = hom_space(w_ext, span_rep)
    _require(flags, "module_occurs_in_span",
             bool(hs_in and hom_space(span_rep, w_ext)))
    embedding, quotient = _witnesses(flags, sym_rep, w_ext, span, hs_in)

    # C is G-invariant, so the span times C^k is permuted exactly as the
    # span is; that checked, the center character, the induced
    # isomorphism and hs_in hold at every shift as proved at shift 0
    shifted = span_polys
    for k in range(1, k_max + 1):
        shifted = [poly_mul(p, orbit_product) for p in shifted]
        sym_k, span_k, _ = _span_action(flags, v_rep, shifted,
                                        m + k * order, span_gens)
        _witnesses(flags, sym_k, w_ext, span_k, hs_in)

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
        coset_products=coset_products,
        transversal_product=transversal_product,
        orbit_product=orbit_product,
        span_polys=span_polys,
        embedding_witness=embedding,
        quotient_witness=quotient,
        central=central,
        flags=flags,
    )
