"""Reference routes that tests compare the library against.

Each oracle recomputes something the library computes, by a separate and
deliberately plain route, and is too slow for anything but desk-scale
tests.
"""

from functools import reduce
from itertools import product
from math import lcm

from symmpow.errors import TheoremViolation
from symmpow.fields import _prime_factors
from symmpow.linalg import Mat, mat_mul, mat_vec, null_space, rank, rref
from symmpow.reps import (PolyVec, Rep, extend_scalars, monomial_basis,
                          poly_mul, poly_one)
from symmpow.scan import _cyclotomic, _poly_divmod


def apply_to_poly(g_index: int, p: PolyVec, v: Rep) -> PolyVec:
    """Substitute g's linear forms into p and re-expand.

    Column i of g's image is the linear form that replaces x_i.  Agrees
    with applying the sym_power image matrix of g to p's coefficient
    vector, which builds its columns monomial by monomial instead.
    """
    if p.basis.n != v.dim:
        raise ValueError("variable count does not match the representation")
    if p.field != v.field:
        raise ValueError("field mismatch")
    field = v.field
    n = v.dim
    image = v.images[g_index]
    basis1 = monomial_basis(n, 1)
    forms = [PolyVec(field, basis1, [image.rows[r][i] for r in range(n)])
             for i in range(n)]
    add, mul = field.add, field.mul
    out = [0] * len(p.basis)
    for c, alpha in zip(p.coeffs, p.basis.exponents):
        if not c:
            continue
        poly = poly_one(field, n)
        for form, a in zip(forms, alpha):
            for _ in range(a):
                poly = poly_mul(poly, form)
        for k, x in enumerate(poly.coeffs):
            if x:
                out[k] = add(out[k], mul(c, x))
    return PolyVec(field, p.basis, out)


def hom_defect_count(r: Rep) -> int:
    """Number of pairs (a, b) where images[a] @ images[b] != images[ab].

    Exhaustive over all pairs of group elements.
    """
    group = r.group
    bad = 0
    for a in range(len(group.elements)):
        for b in range(len(group.elements)):
            if mat_mul(r.images[a], r.images[b]) != r.images[group.prod(a, b)]:
                bad += 1
    return bad


def _int_mat_mul(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)]
            for row in a]


def hom_dim_by_enumeration(u: Rep, v: Rep) -> int:
    """dim Hom(U, V) over a prime field GF(p), by counting every
    v.dim x u.dim matrix X with X u(g) = v(g) X on the generators.

    The solutions form a subspace, so there are p^dim of them.
    """
    field = u.field
    if field.f != 1:
        raise ValueError("the enumeration runs over prime fields only")
    p = field.p
    nu, nv = u.dim, v.dim
    pairs = [(a.rows, b.rows) for a, b in zip(u.gens, v.gens)]
    count = 0
    for flat in product(range(p), repeat=nu * nv):
        x = [flat[i * nu:(i + 1) * nu] for i in range(nv)]
        if all(_int_mat_mul(x, a, p) == _int_mat_mul(b, x, p)
               for a, b in pairs):
            count += 1
    dim = 0
    while count > 1:
        assert count % p == 0, "solution count is not a power of p"
        count //= p
        dim += 1
    return dim


def spin_by_words(vec, gens) -> Mat:
    """Span of vec's images under every generator word of length < dim,
    as rref rows.

    The spans of the images under words of length <= l grow strictly
    until they are stable, so length dim - 1 already reaches the closure.
    """
    images = []
    for length in range(len(vec)):
        for word in product(gens, repeat=length):
            y = list(vec)
            for g in word:
                y = mat_vec(g, y)
            images.append(y)
    reduced, rank, _ = rref(Mat._new(gens[0].field, images))
    return Mat._new(gens[0].field, reduced.rows[:rank])


def hom_basis_by_kronecker(field, pairs, nu: int, nv: int):
    """Solve X a = b X for all (a, b) in pairs; X is nv x nu, row-major.

    The equations are linear in the nu * nv entries of X, so the
    solutions are the null space of one stacked coefficient matrix, in
    null_space's basis.  hom_space must return exactly this basis.
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


# Per-element references for the row kernels: each entry is built from
# field.add and field.mul alone, with no zero skipping and no deferred
# reduction.

def mat_mul_by_entries(a: Mat, b: Mat) -> list:
    add, mul = a.field.add, a.field.mul
    return [[reduce(add, map(mul, row, col), 0) for col in zip(*b.rows)]
            for row in a.rows]


def poly_mul_by_exponents(a: PolyVec, b: PolyVec) -> list:
    """Coefficients of a * b: each pair of terms finds its product's
    index by its exponent vector, for any number of variables."""
    field, n = a.field, a.basis.n
    out = monomial_basis(n, a.basis.m + b.basis.m)
    coeffs = [0] * len(out)
    for ea, ca in zip(a.basis.exponents, a.coeffs):
        for eb, cb in zip(b.basis.exponents, b.coeffs):
            k = out.index[tuple(x + y for x, y in zip(ea, eb))]
            coeffs[k] = field.add(coeffs[k], field.mul(ca, cb))
    return coeffs


def mat_vec_by_entries(a: Mat, v) -> list:
    add, mul = a.field.add, a.field.mul
    return [reduce(add, map(mul, row, v), 0) for row in a.rows]


def rref_by_entries(a: Mat):
    """(rows, rank, pivots) of the reduced row echelon form, by
    Gauss-Jordan elimination one entry at a time."""
    field = a.field
    add, mul, neg, inv = field.add, field.mul, field.neg, field.inv
    rows = [list(r) for r in a.rows]
    pivots = []
    for c in range(a.ncols):
        r = len(pivots)
        below = [i for i in range(r, a.nrows) if rows[i][c]]
        if not below:
            continue
        rows[r], rows[below[0]] = rows[below[0]], rows[r]
        s = inv(rows[r][c])
        rows[r] = [mul(s, x) for x in rows[r]]
        for i in range(a.nrows):
            if i != r:
                f = neg(rows[i][c])
                rows[i] = [add(x, mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, len(pivots), pivots


def null_space_by_entries(a: Mat) -> list:
    """One kernel vector per free column of rref_by_entries(a), with the
    free coordinate 1, as null_space orders them."""
    rows, _, pivots = rref_by_entries(a)
    basis = []
    for j in range(a.ncols):
        if j in pivots:
            continue
        vec = [0] * a.ncols
        vec[j] = 1
        for k, pc in enumerate(pivots):
            vec[pc] = a.field.neg(rows[k][j])
        basis.append(vec)
    return basis


def molien_by_elements(v: Rep, w: Rep, m_max: int):
    """Multiplicities of w in Sym^m(v) for m = 0..m_max, exact integers.

    The Molien pairing summed element by element, each element's image
    replayed over the root-of-unity extension; ``molien_table`` sums one
    term per conjugacy class instead.
    """
    if v.group is not w.group:
        raise ValueError("modules must share a group")
    if v.field != w.field:
        raise ValueError("modules must share a field")
    group = v.group
    base = v.field
    if group.order % base.p == 0:
        raise ValueError("characteristic divides the group order; "
                         "the character oracle does not apply")
    order = group.order
    orders = [group.element_order(i) for i in range(order)]
    L = lcm(*orders) if orders else 1
    e = 1
    while pow(base.q, e, L) != 1 % L:
        e += 1
    v_ext = extend_scalars(v, e)
    w_ext = extend_scalars(w, e)
    ext = v_ext.field
    # the first y^((q^e - 1)/L), y = 1, 2, ..., of order exactly L: it
    # has x^L = 1, so its order is L iff x^(L/r) != 1 for every prime r | L
    cofactors = [L // r for r in _prime_factors(L)]
    omega = next(x for x in (ext.pow(y, (ext.q - 1) // L)
                             for y in range(1, ext.q))
                 if all(ext.pow(x, d) != 1 for d in cofactors))

    def eigen_exponents(m: Mat, d: int):
        """Exponents t with eigenvalue omega^t, with multiplicity."""
        n = m.nrows
        exps = []
        for s in range(d):
            t = (L // d) * s
            xi = ext.pow(omega, t)
            shifted = Mat._new(ext, [[ext.sub(m.rows[a][b],
                                              xi if a == b else 0)
                                      for b in range(n)] for a in range(n)])
            exps.extend([t] * (n - rank(shifted)))
        if len(exps) != n:
            raise TheoremViolation("element not diagonalizable in the "
                                   "root-of-unity extension")
        return exps

    # an element of Z[x]/(x^L - 1) is its coefficient list, and the
    # product with the monomial x^t is the rotation a[-t:] + a[:-t]
    totals = [[0] * L for _ in range(m_max + 1)]
    for g in range(order):
        h = [[1] + [0] * (L - 1)] + [[0] * L for _ in range(m_max)]
        for t in eigen_exponents(v_ext.images[g], orders[g]):
            for m in range(1, m_max + 1):
                prev = h[m - 1]
                h[m] = [a + b for a, b in zip(h[m], prev[-t:] + prev[:-t])]
        gi = group.inverse[g]
        for t in eigen_exponents(w_ext.images[gi], orders[gi]):
            for m, hm in enumerate(h):
                totals[m] = [a + b for a, b in
                             zip(totals[m], hm[-t:] + hm[:-t])]
    phi = _cyclotomic(L)
    out = []
    for total in totals:
        _, rem = _poly_divmod(total, phi)
        if any(rem[1:]):
            raise TheoremViolation("character pairing is not rational")
        c = rem[0] if rem else 0
        if c % order:
            raise TheoremViolation("character pairing not divisible by |G|")
        mult = c // order
        if mult < 0:
            raise TheoremViolation("negative multiplicity from the oracle")
        out.append(mult)
    return out
