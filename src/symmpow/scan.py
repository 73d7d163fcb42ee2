"""Occurrence tables, the independent Molien oracle, and the full verifier.

occurrence_tables brute-forces dim Hom(W, Sym^m V) and dim Hom(Sym^m V, W)
for m = 1..m_max from generator images of Sym^m V alone, two spins of W
per degree, each read for its dimension only (see homs.hom_dim), by one
rule: V and each W are written in a joint eigenbasis of the scalar
generator z and one h in G of order dividing q - 1 (the identity when no
h helps), each coordinate labelled by its (h, z) eigenvalue pair.  Every
monomial of Sym^m V is then labelled too, and a hom keeps labels: a seed
of W opens only the Sym^m coordinates of its label, and a degree where no
label of W occurs in Sym^m V is (m, 0, 0) with no solve.  One degree loop
serves all modules: sym_powers builds each Sym^m V once, from the one
before; occurrence_scan is the one-module case.  verify_theorem scans a
document's irreducible modules in one scan_modules call, as the scan
command does, in Sym^m of their group's defining module V; a certified
degree beyond the scan is built by sym_power, once per document.

The Molien oracle recomputes the same multiplicities, valid when the
characteristic does not divide |G|.  Of the scan's code it shares field
arithmetic, monic division included, and _exponents, which there only
picks h, and h changes no hom dimension.  Eigenvalues are identified as
powers of one fixed root of unity omega of order L (the lcm of element
orders) in GF(q^e), and lifted formally to monomials x^t of the ring
Z[x]/(x^L - 1).  The complete homogeneous sums h_m of one element's lifted
eigenvalues are built one eigenvalue at a time: for each x^t,
h_m += x^t h_{m-1} for m = 1..m_max in increasing order, which multiplies
the series sum_m h_m T^m by 1 / (1 - x^t T).  Each product with a monomial
is a rotation of coefficients, so no ring multiplication or division occurs.
Pairing with the lifted character of w at g^-1 adds one rotated copy of h_m
per eigenvalue of w(g^-1).  Both lifted exponent lists are class functions,
so each conjugacy class adds its representative's term times its size, and
only representatives are pushed into GF(q^e).  The pairing sum must reduce,
modulo the L-th cyclotomic polynomial, to a constant divisible by |G|; the
quotient is the exact integer multiplicity.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import gcd, lcm
from typing import NamedTuple

from .construct import Certificate, assemble
from .errors import ParseError, TheoremViolation
from .fields import extend_field, poly_divmod, root_of_unity
from .groups import conjugacy_classes
from .homs import hom_dim
from .linalg import Mat, mat_inv, mat_mul, null_space, rank, transpose
from .meataxe import is_irreducible, simple_quotient, splitting_extension
from .reps import (DEFAULT_DIM_CAP, Rep, check_sym_dim, defining_rep,
                   extend_scalars, sym_power, sym_powers, word_images)


class OccurrenceTable(NamedTuple):
    """Per-degree hom dimensions for one module against one action."""

    rows: list                 # (m, dim Hom(W, Sym^m), dim Hom(Sym^m, W))
    minimal_sub_m: int | None
    minimal_quot_m: int | None
    bound: int
    molien_multiplicities: list | None = None


def _scan_one(sym: Rep, w: Rep, m: int):
    return m, hom_dim(w, sym), hom_dim(sym, w)


def _shifted(m: Mat, x) -> list:
    """The rows of m - x I."""
    return [[m.field.sub(a, x) if i == j else a for j, a in enumerate(row)]
            for i, row in enumerate(m.rows)]


def _exponents(m: Mat, omega, d: int) -> list:
    """The s < d with omega^s an eigenvalue of m, in increasing order,
    each as often as its eigenspace's dimension, n - rank(m - omega^s I),
    none sought once those found fill n: eigenspaces are independent."""
    out = []
    for s in range(d):
        if len(out) == m.nrows:
            break
        out += [s] * (m.nrows - rank(Mat._new(
            m.field, _shifted(m, m.field.pow(omega, s)))))
    return out


def _in_eigenbasis(r: Rep, h: int, omega, d: int) -> Rep:
    """r as P^-1 r(g) P, the columns of P joint eigenvectors of r(h) and
    r(z) in order of their eigenvalue pairs (omega^t, zeta^s), t < d =
    ord(h), zeta = root_of_unity(|Z|) and zeta^s an eigenvalue of r(z),
    and labelled by them."""
    field, group, cols, labels = r.field, r.group, [], []
    n, z = group.center_order, group.z_generator_index
    zeta = root_of_unity(field, n)
    images = word_images(r, [h, z])
    zetas = [x for x in (field.pow(zeta, s) for s in range(n))
             if null_space(Mat._new(field, _shifted(images[z], x)))]
    for x, y in product([field.pow(omega, t) for t in range(d)], zetas):
        cols += (vecs := null_space(Mat._new(field, _shifted(images[h], x)
                                             + _shifted(images[z], y))))
        labels += [(x, y)] * len(vecs)
    p_inv = mat_inv(p := transpose(Mat._new(field, cols)))
    return Rep(group, [mat_mul(mat_mul(p_inv, g), p) for g in r.gens],
               (h, labels))


def _eigen_element(v: Rep):
    """(h, omega, d), omega = root_of_unity(d), d = ord(h) | q - 1, for the
    least class representative h with the most eigenvalues on Sym^m V,
    the order of the group that the ratios omega^(t - t0), of order
    d / gcd(d, t - t0), of V(h)'s eigenvalues omega^t generate; the
    identity (0, 1, 1) when that is always 1."""
    group, field = v.group, v.field
    candidates = [(h, d) for h, _ in conjugacy_classes(group)
                  if (field.q - 1) % (d := group.element_order(h)) == 0]
    images = word_images(v, [h for h, _ in candidates])

    def ratios(eigen):
        h, omega, d = eigen
        t0, *ts = _exponents(images[h], omega, d)
        return lcm(*(d // gcd(d, t - t0) for t in ts))
    return max(((h, root_of_unity(field, d), d) for h, d in candidates),
               key=ratios)


def occurrence_tables(v: Rep, ws, m_max: int | None = None,
                      cap_dim: int = DEFAULT_DIM_CAP) -> list:
    """Per module in ws, hom dimensions both ways up to m_max, on one
    Sym^m(v) per degree, every solve in the joint (h, z) eigenbasis of
    _eigen_element(v): a degree where no label of W occurs in Sym^m gets
    zeros unsolved (see hom_dim)."""
    group = v.group
    if any(w.group is not group for w in ws):
        raise ValueError("representations must share a group")
    if any(w.field != v.field for w in ws):
        raise ValueError("representations must share a field")
    m_max = group.order if m_max is None else m_max
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    check_sym_dim(v.dim, m_max, cap_dim)
    eigen = _eigen_element(v)
    v, *ws = [_in_eigenbasis(r, *eigen) for r in (v, *ws)]
    rows = zip(*([_scan_one(sym, w, m) for w in ws]  # a row per module
                 for m, sym in enumerate(sym_powers(v, m_max), 1)))
    return [OccurrenceTable(
        rows=list(r), minimal_sub_m=next((m for m, s, _ in r if s > 0), None),
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
            poly, rem = poly_divmod(poly, _cyclotomic(d))
            assert not any(rem), "non-exact polynomial division"
    return tuple(poly)


def molien_table(v: Rep, w: Rep, m_max: int):
    """Multiplicities of w in Sym^m(v) for m = 0..m_max, exact integers."""
    if v.group is not w.group:
        raise ValueError("modules must share a group")
    if v.field != w.field:
        raise ValueError("modules must share a field")
    group, base, order = v.group, v.field, v.group.order
    if order % base.p == 0:
        raise ValueError("characteristic divides the group order; "
                         "the character oracle does not apply")
    classes = conjugacy_classes(group)
    orders = [group.element_order(g) for g, _ in classes]
    L = lcm(*orders)
    e = 1
    while pow(base.q, e, L) != 1 % L:
        e += 1
    ext, table = extend_field(base, e)
    omega = root_of_unity(ext, L)

    def eigen_exponents(m: Mat, d: int):
        """Exponents t with eigenvalue omega^t, with multiplicity."""
        rows = [[table[x] for x in row] for row in m.rows]  # into ext
        exps = _exponents(Mat._new(ext, rows), ext.pow(omega, L // d), d)
        if len(exps) != m.nrows:
            raise TheoremViolation("element not diagonalizable in the "
                                   "root-of-unity extension")
        return [(L // d) * s for s in exps]

    # an element of Z[x]/(x^L - 1) is its coefficient list, and the
    # product with the monomial x^t is the rotation a[-t:] + a[:-t]
    totals = [[0] * L for _ in range(m_max + 1)]
    v_images = word_images(v, [g for g, _ in classes])
    w_images = word_images(w, [group.inverse[g] for g, _ in classes])
    for (g, size), d in zip(classes, orders):
        h = [[1] + [0] * (L - 1)] + [[0] * L for _ in range(m_max)]
        for t in eigen_exponents(v_images[g], d):
            for m in range(1, m_max + 1):
                prev = h[m - 1]
                h[m] = [a + b for a, b in zip(h[m], prev[-t:] + prev[:-t])]
        for t in eigen_exponents(w_images[group.inverse[g]], d):
            for m, hm in enumerate(h):
                totals[m] = [a + size * b for a, b in
                             zip(totals[m], hm[-t:] + hm[:-t])]
    phi = _cyclotomic(L)
    out = []
    for total in totals:
        c, *rest = poly_divmod(total, phi)[1]  # deg phi >= 1 entries
        if any(rest):
            raise TheoremViolation("character pairing is not rational")
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


def scan_modules(modules, opts: VerifyOptions) -> list:
    """Occurrence tables of every (label, w) in modules to opts.depth, in
    Sym^m of their group's defining module, from one degree loop,
    cross-checked in module order.

    The character oracle runs when opts.molien is "on", or "auto" and the
    characteristic does not divide |G|; "on" when it does is malformed
    input (ParseError) once there is a module.  A disagreement with the
    oracle, or a scan that reaches |G| without finding both occurrences
    by |G|, contradicts the theorem and raises TheoremViolation.
    """
    if not modules:
        return []
    group = modules[0][1].group
    v = defining_rep(group)
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


def verify_theorem(modules, options: VerifyOptions | None = None) -> list:
    """Run the whole argument for every (label, w) in modules, checking
    every step; one TheoremReport per module, None for a reducible one.

    Certifies the irreducibility of every module first (a reducible module has
    no guaranteed occurrence), scans the irreducible ones together with
    ``scan_modules`` (one Sym^m V per degree, V their group's defining module,
    and the character oracle), then certifies each module against its own
    table.  Every failed step raises, so a returned report is verified.
    """
    opts = options or VerifyOptions()
    verdicts = [is_irreducible(w, opts.seed) for _, w in modules]
    pairs = list(zip(modules, verdicts))
    tables = iter(scan_modules([mod for mod, res in pairs
                                if res.irreducible], opts))
    syms = {}  # Sym^m(V) by degree, for the degrees beyond the scan
    return [_certify(label, w, res.draws, next(tables), opts, syms)
            if res.irreducible else None for (label, w), res in pairs]


def _certify(label: str, w: Rep, draws: int, table: OccurrenceTable,
             opts: VerifyOptions, syms: dict) -> TheoremReport:
    """The report of the irreducible w, whose scan is table: extends
    scalars to a splitting field, builds constructive certificates from a
    simple quotient (for the submodule claim) and a simple submodule (for
    the quotient claim), each verified at the shifts 1..k_max too, and
    descends both occurrences to the base field.  A degree beyond the scan
    is solved on syms[m], built once per document."""
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
        if m not in syms:
            check_sym_dim(w.group.dim, m, opts.cap_dim)
            syms[m] = sym_power(defining_rep(w.group), m)
        return _scan_one(syms[m], w, m)

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
