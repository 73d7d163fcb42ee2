"""Occurrence tables, the independent Molien oracle, and the full verifier.

occurrence_tables brute-forces dim Hom(W, Sym^m V) and dim Hom(Sym^m V, W)
for m = 1..m_max from generator images of Sym^m V alone, two spins of W
per degree (see homs).  When the scalar generator z acts on V as mu (lam
on the defining module), it acts on Sym^m V as mu^m, and a hom X from W
has X W(z) = mu^m X (one to W, W(z) X = mu^m X): a degree whose mu^m is no
eigenvalue of W(z) gets the row (m, 0, 0) with no solve.  The others are
solved in an eigenbasis of one h in G of order dividing q - 1, diagonal
on V and each W over F, which leaves hom dimensions alone: there every
monomial of Sym^m V is an eigenvector, and a seed of W opens only the
Sym^m coordinates of its eigenvalue.  One degree loop serves all modules:
sym_powers builds each Sym^m V once, from the one before, and keeps no
other; occurrence_scan is the one-module case.  verify_theorem scans a
document's irreducible modules in one scan_modules call, as the scan
command does; a certified degree beyond the scan is built by sym_power.

The Molien oracle recomputes the same multiplicities with no shared code
path beyond field arithmetic, valid when the characteristic does not
divide the group order.  Eigenvalues of each element are identified as
powers of one fixed root of unity omega of order L (the lcm of element
orders) in GF(q^e), and lifted formally to monomials x^t of the ring
Z[x]/(x^L - 1).  The complete homogeneous sums h_m of one element's
lifted eigenvalues are built one eigenvalue at a time: for each x^t,
h_m += x^t h_{m-1} for m = 1..m_max in increasing order, which multiplies
the series sum_m h_m T^m by 1 / (1 - x^t T).  Each product with a monomial
is a rotation of coefficients, so no ring multiplication or division
occurs.  Pairing with the lifted character of w at g^-1 adds one rotated
copy of h_m per eigenvalue of w(g^-1).  Both lifted exponent lists are
class functions, so each conjugacy class adds its representative's term
times its size, and only representatives are pushed into GF(q^e).  The
pairing sum must reduce, modulo the L-th cyclotomic polynomial, to a
constant divisible by |G|; the quotient is the exact integer multiplicity.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from typing import NamedTuple

from .construct import Certificate, assemble
from .errors import ParseError, TheoremViolation
from .fields import _prime_factors, extend_field, mult_order
from .groups import conjugacy_classes, scalar_of
from .homs import hom_space
from .linalg import Mat, mat_inv, mat_mul, null_space, rank, transpose
from .meataxe import is_irreducible, simple_quotient, splitting_extension
from .reps import (DEFAULT_DIM_CAP, Rep, check_sym_dim, extend_scalars,
                   sym_power, sym_powers)


class OccurrenceTable(NamedTuple):
    """Per-degree hom dimensions for one module against one action."""

    rows: list                 # (m, dim Hom(W, Sym^m), dim Hom(Sym^m, W))
    minimal_sub_m: int | None
    minimal_quot_m: int | None
    bound: int
    molien_multiplicities: list | None = None


def _scan_one(sym: Rep, w: Rep, m: int):
    return m, len(hom_space(w, sym)), len(hom_space(sym, w))


def _in_eigenbasis(r: Rep, h: int, omega, d: int) -> Rep:
    """r as P^-1 r(g) P, the columns of P eigenvectors of r(h) in order of
    their eigenvalues omega^t, t < d = ord(h), and labelled by them."""
    field, cols, lams = r.field, [], []
    for t in range(d):
        x = field.pow(omega, t)
        cols += (vecs := null_space(Mat._new(field, [
            [field.sub(a, x) if i == j else a for j, a in enumerate(row)]
            for i, row in enumerate(r.images[h].rows)])))
        lams += [x] * len(vecs)
    p_inv = mat_inv(p := transpose(Mat._new(field, cols)))
    return Rep(r.group, [mat_mul(mat_mul(p_inv, g), p) for g in r.gens],
               (h, lams))


def _eigen_element(v: Rep):
    """(h, omega, d), omega of order d = ord(h) | q - 1, for the least class
    representative h with the most eigenvalues on Sym^m V, the order of the
    group the ratios of V(h)'s generate; None when that is always 1."""
    group, field = v.group, v.field
    best, most = None, 1
    for h, _ in conjugacy_classes(group):
        d = group.element_order(h)
        if (field.q - 1) % d == 0:
            omega = next(x for x in (field.pow(y, (field.q - 1) // d)
                                     for y in range(1, field.q))
                         if mult_order(field, x) == d)
            lams = _in_eigenbasis(v, h, omega, d).eigen[1]
            count = lcm(*(mult_order(field, field.mul(x, field.inv(lams[0])))
                          for x in lams))
            if count > most:
                best, most = (h, omega, d), count
    return best


def occurrence_tables(v: Rep, ws, m_max: int | None = None,
                      cap_dim: int = DEFAULT_DIM_CAP) -> list:
    """Per module in ws, hom dimensions both ways up to m_max, on one
    Sym^m(v) per degree.  A degree whose mu^m (m mod |Z|) is no eigenvalue
    of W(z) gets zeros unsolved: X W(z) = mu^m X forces X = 0."""
    group, field = v.group, v.field
    z, n = group.z_generator_index, group.center_order
    mu = scalar_of(v.images[z])
    quiets = []
    for w in ws:
        if w.group is not group:
            raise ValueError("representations must share a group")
        if w.field != field:
            raise ValueError("representations must share a field")
        wz = w.images[z].rows
        quiets.append([mu is not None and w.dim == rank(Mat._new(field, [
            [field.sub(x, field.pow(mu, r)) if i == j else x
             for j, x in enumerate(row)] for i, row in enumerate(wz)]))
            for r in range(n)])
    m_max = group.order if m_max is None else m_max
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    check_sym_dim(v.dim, m_max, cap_dim)
    if eigen := _eigen_element(v):
        v, *ws = [_in_eigenbasis(r, *eigen) for r in (v, *ws)]
    rows = [[] for _ in ws]
    for m, sym in enumerate(sym_powers(v, m_max), 1):
        for w, quiet, out in zip(ws, quiets, rows):
            out.append((m, 0, 0) if quiet[m % n] else _scan_one(sym, w, m))
    return [OccurrenceTable(
        rows=r, minimal_sub_m=next((m for m, s, _ in r if s > 0), None),
        minimal_quot_m=next((m for m, _, qd in r if qd > 0), None),
        bound=group.order) for r in rows]


def occurrence_scan(v: Rep, w: Rep, m_max: int | None = None,
                    cap_dim: int = DEFAULT_DIM_CAP) -> OccurrenceTable:
    """The occurrence table of the one module w; see occurrence_tables."""
    return occurrence_tables(v, [w], m_max, cap_dim)[0]


# ---------------------------------------------------------------------------
# Molien oracle

@lru_cache(maxsize=None)
def _cyclotomic(L: int):
    """Integer coefficients of the L-th cyclotomic polynomial."""
    poly = [-1] + [0] * (L - 1) + [1]
    for d in range(1, L):
        if L % d == 0:
            poly, rem = _poly_divmod(poly, _cyclotomic(d))
            assert not any(rem), "non-exact polynomial division"
    return tuple(poly)


def _poly_divmod(num, den):
    """Quotient and remainder of num by the monic den, coefficient lists
    with the constant term first."""
    num = list(num)
    dn = len(den) - 1
    quot = [0] * max(len(num) - dn, 0)
    for k in reversed(range(len(quot))):
        c = quot[k] = num[k + dn]
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    return quot, num[:dn]


def molien_table(v: Rep, w: Rep, m_max: int):
    """Multiplicities of w in Sym^m(v) for m = 0..m_max, exact integers."""
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
    classes = conjugacy_classes(group)
    orders = [group.element_order(g) for g, _ in classes]
    L = lcm(*orders)
    e = 1
    while pow(base.q, e, L) != 1 % L:
        e += 1
    ext, table = extend_field(base, e)
    # the first y^((q^e - 1)/L), y = 1, 2, ..., of order exactly L: it
    # has x^L = 1, so its order is L iff x^(L/r) != 1 for every prime r | L
    cofactors = [L // r for r in _prime_factors(L)]
    omega = next(x for x in (ext.pow(y, (ext.q - 1) // L)
                             for y in range(1, ext.q))
                 if all(ext.pow(x, d) != 1 for d in cofactors))

    def eigen_exponents(m: Mat, d: int):
        """Exponents t with eigenvalue omega^t, with multiplicity."""
        n = m.nrows
        rows = [[table[x] for x in row] for row in m.rows]  # into ext
        exps = []
        for s in range(d):
            t = (L // d) * s
            xi = ext.pow(omega, t)
            shifted = Mat._new(ext, [[ext.sub(rows[a][b],
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
    for (g, size), d in zip(classes, orders):
        h = [[1] + [0] * (L - 1)] + [[0] * L for _ in range(m_max)]
        for t in eigen_exponents(v.images[g], d):
            for m in range(1, m_max + 1):
                prev = h[m - 1]
                h[m] = [a + b for a, b in zip(h[m], prev[-t:] + prev[:-t])]
        for t in eigen_exponents(w.images[group.inverse[g]], d):
            for m, hm in enumerate(h):
                totals[m] = [a + size * b for a, b in
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


# ---------------------------------------------------------------------------
# Full verification pipeline

class VerifyOptions(NamedTuple):
    k_max: int = 1
    seed: int = 0
    m_max: int | None = None   # None scans to |G|
    cap_dim: int = DEFAULT_DIM_CAP
    molien: str = "auto"       # auto | on | off

    def depth(self, group) -> int:
        """The scan depth: m_max, or |G| when it is unset."""
        return self.m_max if self.m_max is not None else group.order


def scan_modules(v: Rep, modules, opts: VerifyOptions) -> list:
    """Occurrence tables of every (label, w) in modules to opts.depth, from
    one degree loop, cross-checked in module order.

    The character oracle runs when opts.molien is "on", or "auto" and the
    characteristic does not divide |G|; "on" when it does is malformed
    input (ParseError) once there is a module.  A disagreement with the
    oracle, or a scan that reaches |G| without finding both occurrences
    by |G|, contradicts the theorem and raises TheoremViolation.
    """
    if not modules:
        return []
    group = v.group
    coprime = group.order % v.field.p != 0
    if opts.molien == "on" and not coprime:
        raise ParseError("character oracle requested but the characteristic "
                         "divides the group order")
    m_max = opts.depth(group)
    tables = occurrence_tables(v, [w for _, w in modules], m_max,
                               opts.cap_dim)
    for i, ((label, w), table) in enumerate(zip(modules, tables)):
        if opts.molien == "on" or (opts.molien == "auto" and coprime):
            mt = molien_table(v, w, m_max)
            table = tables[i] = table._replace(molien_multiplicities=mt[1:])
            if any(s != mt[m] or qd != mt[m] for m, s, qd in table.rows):
                raise TheoremViolation(
                    f"module {label}: scan and character oracle disagree")
        if m_max >= group.order and not all(
                d is not None and d <= group.order
                for d in (table.minimal_sub_m, table.minimal_quot_m)):
            raise TheoremViolation(
                f"module {label}: no occurrence up to the bound {group.order}")
    return tables


class TheoremReport(NamedTuple):
    irreducible_draws: int
    splitting_degree: int
    sub_claim: Certificate
    quot_claim: Certificate
    table: OccurrenceTable
    molien_ok: bool | None
    periodicity: list


def verify_theorem(v: Rep, modules, options: VerifyOptions | None = None
                   ) -> list:
    """Run the whole argument for every (label, w) in modules, checking
    every step; one TheoremReport per module, None for a reducible one.

    Certifies the irreducibility of every module first (a reducible module
    has no guaranteed occurrence), scans the irreducible ones together
    with ``scan_modules`` (one Sym^m per degree, and the character
    oracle), then certifies each module against its own table.  Every
    failed step raises, so a returned report is verified.
    """
    opts = options or VerifyOptions()
    verdicts = [is_irreducible(w, opts.seed) for _, w in modules]
    pairs = list(zip(modules, verdicts))
    tables = iter(scan_modules(v, [mod for mod, res in pairs
                                   if res.irreducible], opts))
    return [_certify(v, label, w, res.draws, next(tables), opts)
            if res.irreducible else None for (label, w), res in pairs]


def _certify(v: Rep, label: str, w: Rep, draws: int, table: OccurrenceTable,
             opts: VerifyOptions) -> TheoremReport:
    """The report of the irreducible w, whose scan is table: extends
    scalars to a splitting field, builds constructive certificates from a
    simple quotient (for the submodule claim) and a simple submodule (for
    the quotient claim), each verified at the shifts 1..k_max too, and
    descends both occurrences to the base field."""
    m_max = len(table.rows)

    # over GF(q^e) the submodule claim is built from a simple quotient
    # and the quotient claim from a simple submodule; for e = 1 both are w
    e, w0_quot = splitting_extension(w, opts.seed)
    w0_sub = (w0_quot if e == 1
              else simple_quotient(extend_scalars(w, e), opts.seed))

    cert_sub = assemble(w0_sub, opts.k_max, opts.cap_dim)
    cert_quot = (cert_sub if w0_quot is w0_sub
                 else assemble(w0_quot, opts.k_max, opts.cap_dim))

    # base-field occurrence at the certified degrees: read off the scan's
    # own row, which also checks the scan, and solved once more only when
    # the certificate lies beyond it
    def row_at(m):
        if m <= m_max:
            return table.rows[m - 1]
        check_sym_dim(v.dim, m, opts.cap_dim)
        return _scan_one(sym_power(v, m), w, m)

    row_sub = row_at(cert_sub.degree)
    row_quot = (row_sub if cert_quot.degree == cert_sub.degree
                else row_at(cert_quot.degree))
    for side, row, col in (("submodule", row_sub, 1),
                           ("quotient", row_quot, 2)):
        if not row[col]:
            raise TheoremViolation(
                f"module {label}: no base-field {side} at the certified "
                f"degree {row[0]}")

    return TheoremReport(
        irreducible_draws=draws,
        splitting_degree=e,
        sub_claim=cert_sub,
        quot_claim=cert_quot,
        table=table,
        molien_ok=True if table.molien_multiplicities is not None else None,
        # assemble verified every shift or raised
        periodicity=[True] * opts.k_max,
    )
