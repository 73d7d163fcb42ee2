"""Occurrence tables, the independent Molien oracle, and the full verifier.

occurrence_scan brute-forces dim Hom(W, Sym^m V) and dim Hom(Sym^m V, W)
for m = 1..m_max.  Only generator images of the symmetric power are ever
materialized, so the cost per m is two null-space computations.

The Molien oracle recomputes the same multiplicities with no shared code
path beyond field arithmetic, valid when the characteristic does not
divide the group order.  Eigenvalues of each element are identified as
powers of one fixed root of unity omega of order L (the lcm of element
orders) in GF(q^e), lifted formally to the ring Z[x]/(x^L - 1), and the
complete homogeneous sums h_m are accumulated by the division-free Newton
recurrence h_s = -sum_r c_r h_{s-r} on the coefficients of
prod_i (1 - x^{t_i} T).  The averaged pairing sum must reduce, modulo the
L-th cyclotomic polynomial, to a constant divisible by |G|; the quotient
is the exact integer multiplicity.  Division by m never happens, so
degrees divisible by the characteristic are handled exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, lcm

from .construct import Certificate, assemble, verify_periodicity
from .errors import CapExceeded, ParseError, TheoremViolation
from .fields import mult_order
from .homs import hom_space
from .linalg import Mat, rank
from .meataxe import is_irreducible, simple_quotient, splitting_extension
from .reps import Rep, extend_scalars, sym_power

DEFAULT_DIM_CAP = 5000


@dataclass
class OccurrenceTable:
    """Per-degree hom dimensions for one module against one action."""

    label: str
    rows: list                 # (m, dim Hom(W, Sym^m), dim Hom(Sym^m, W))
    minimal_sub_m: int | None
    minimal_quot_m: int | None
    bound: int
    molien_multiplicities: list | None = None


def _scan_one(v: Rep, w: Rep, m: int):
    sym = sym_power(v, m)
    return m, hom_space(w, sym).dim, hom_space(sym, w).dim


def occurrence_scan(v: Rep, w: Rep, m_max: int | None = None,
                    cap_dim: int = DEFAULT_DIM_CAP,
                    label: str = "") -> OccurrenceTable:
    """Hom dimensions in both directions for every degree up to m_max."""
    if v.group is not w.group:
        raise ValueError("modules must share a group")
    if v.field != w.field:
        raise ValueError("modules must share a field")
    group = v.group
    if m_max is None:
        m_max = group.order
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    top = comb(v.dim + m_max - 1, m_max)
    if top > cap_dim:
        raise CapExceeded(f"dim Sym^{m_max} = {top} exceeds the cap {cap_dim}")
    rows = [_scan_one(v, w, m) for m in range(1, m_max + 1)]
    minimal_sub = next((m for m, s, _ in rows if s > 0), None)
    minimal_quot = next((m for m, _, qd in rows if qd > 0), None)
    return OccurrenceTable(label=label, rows=rows,
                           minimal_sub_m=minimal_sub,
                           minimal_quot_m=minimal_quot,
                           bound=group.order)


# ---------------------------------------------------------------------------
# Molien oracle

def _ring_mul(a, b, L):
    out = [0] * L
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    k = i + j
                    if k >= L:
                        k -= L
                    out[k] += x * y
    return out


def _ring_shift(a, t, L):
    return [a[(i - t) % L] for i in range(L)]


@lru_cache(maxsize=None)
def _cyclotomic(L: int):
    """Integer coefficients of the L-th cyclotomic polynomial."""
    poly = [-1] + [0] * (L - 1) + [1]
    for d in range(1, L):
        if L % d == 0:
            poly = _poly_div_exact(poly, list(_cyclotomic(d)))
    return tuple(poly)


def _poly_div_exact(num, den):
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        assert c % den[-1] == 0
        q = c // den[-1]
        out[k] = q
        if q:
            for i, d in enumerate(den):
                num[k + i] -= q * d
    assert not any(num), "non-exact polynomial division"
    return out


def _poly_mod(num, den):
    num = list(num)
    dn = len(den) - 1
    for k in range(len(num) - 1 - dn, -1, -1):
        c = num[k + dn]
        if c:
            # den is monic
            for i, d in enumerate(den):
                num[k + i] -= c * d
    return num[:dn]


class _MolienContext:
    """Eigenvalue data of one action, shared across target modules."""

    def __init__(self, v: Rep):
        group = v.group
        base = v.field
        if group.order % base.p == 0:
            raise ValueError("characteristic divides the group order; "
                             "the character oracle does not apply")
        self.group = group
        orders = [group.element_order(i) for i in range(group.order)]
        self.L = lcm(*orders) if orders else 1
        e = 1
        while pow(base.q, e, self.L) != 1 % self.L:
            e += 1
        self.e = e
        v_ext = extend_scalars(v, e)
        self.ext = v_ext.field
        self.omega = next(x for x in range(1, self.ext.q)
                          if mult_order(self.ext, x) == self.L)
        self.orders = orders
        self.exps_v = [self._eigen_exponents(v_ext.images[g], orders[g])
                       for g in range(group.order)]

    def _eigen_exponents(self, m: Mat, d: int):
        """Exponents t with eigenvalue omega^t, with multiplicity."""
        ext = self.ext
        n = m.nrows
        exps = []
        for s in range(d):
            t = (self.L // d) * s
            xi = ext.pow(self.omega, t)
            shifted = Mat._new(ext, [[ext.sub(m.rows[a][b],
                                              xi if a == b else 0)
                                      for b in range(n)] for a in range(n)])
            mult = n - rank(shifted)
            exps.extend([t] * mult)
        if len(exps) != n:
            raise TheoremViolation("element not diagonalizable in the "
                                   "root-of-unity extension")
        return exps

    def _h_list(self, exps, m_max):
        L = self.L
        one = [1] + [0] * (L - 1)
        # coefficients of prod (1 - x^t T) as ring elements
        cs = [list(one)]
        for t in exps:
            new_cs = [list(c) for c in cs] + [[0] * L]
            for r in range(len(cs), 0, -1):
                shifted = _ring_shift(cs[r - 1], t, L)
                new_cs[r] = [a - b for a, b in zip(new_cs[r], shifted)]
            cs = new_cs
        hs = [list(one)]
        for s in range(1, m_max + 1):
            acc = [0] * L
            for r in range(1, min(s, len(cs) - 1) + 1):
                term = _ring_mul(cs[r], hs[s - r], L)
                acc = [a + b for a, b in zip(acc, term)]
            hs.append([-a for a in acc])
        return hs

    def h_rows(self, m_max: int):
        """Per element, complete homogeneous sums of its eigenvalue lifts."""
        return [self._h_list(exps, m_max) for exps in self.exps_v]

    def char_row(self, w: Rep):
        """Lifted trace of w at each inverse element."""
        group = self.group
        w_images = extend_scalars(w, self.e).images
        out = []
        for g in range(group.order):
            gi = group.inverse[g]
            exps = self._eigen_exponents(w_images[gi], self.orders[gi])
            row = [0] * self.L
            for t in exps:
                row[t] += 1
            out.append(row)
        return out


def molien_table(v: Rep, w: Rep, m_max: int):
    """Multiplicities of w in Sym^m(v) for m = 0..m_max, exact integers."""
    if v.group is not w.group:
        raise ValueError("modules must share a group")
    if v.field != w.field:
        raise ValueError("modules must share a field")
    ctx = _MolienContext(v)
    L = ctx.L
    order = v.group.order
    hs = ctx.h_rows(m_max)
    chi = ctx.char_row(w)
    phi = list(_cyclotomic(L))
    out = []
    for m in range(m_max + 1):
        total = [0] * L
        for g in range(order):
            term = _ring_mul(hs[g][m], chi[g], L)
            total = [a + b for a, b in zip(total, term)]
        rem = _poly_mod(total, phi)
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

@dataclass(frozen=True)
class VerifyOptions:
    k_max: int = 1
    seed: int = 0
    m_max: int | None = None   # None scans to |G|
    cap_dim: int = DEFAULT_DIM_CAP
    molien: str = "auto"       # auto | on | off

    def depth(self, group) -> int:
        """The scan depth: m_max, or |G| when it is unset."""
        return self.m_max if self.m_max is not None else group.order


def scan_module(v: Rep, w: Rep, opts: VerifyOptions,
                label: str = "") -> OccurrenceTable:
    """Occurrence table of w to opts.depth, cross-checked.

    The character oracle runs when opts.molien is "on", or "auto" and the
    characteristic does not divide |G|; "on" when it does is malformed
    input (ParseError).  A disagreement with the oracle, or a scan that
    reaches |G| without finding both occurrences by |G|, contradicts the
    theorem and raises TheoremViolation.
    """
    group = v.group
    coprime = group.order % v.field.p != 0
    if opts.molien == "on" and not coprime:
        raise ParseError("character oracle requested but the characteristic "
                         "divides the group order")
    m_max = opts.depth(group)
    table = occurrence_scan(v, w, m_max=m_max, cap_dim=opts.cap_dim,
                            label=label)
    if opts.molien == "on" or (opts.molien == "auto" and coprime):
        mt = molien_table(v, w, m_max)
        table.molien_multiplicities = mt[1:]
        if any(s != mt[m] or qd != mt[m] for m, s, qd in table.rows):
            raise TheoremViolation(
                f"module {label}: scan and character oracle disagree")
    if m_max >= group.order and not all(
            d is not None and d <= group.order
            for d in (table.minimal_sub_m, table.minimal_quot_m)):
        raise TheoremViolation(
            f"module {label}: no occurrence up to the bound {group.order}")
    return table


@dataclass
class TheoremReport:
    label: str
    dim: int
    irreducible_draws: int
    splitting_degree: int
    sub_claim: Certificate
    quot_claim: Certificate
    base_submodule_ok: bool
    base_quotient_ok: bool
    table: OccurrenceTable
    scan_consistent: bool
    molien_ok: bool | None
    periodicity: list
    ok: bool


def verify_theorem(v: Rep, w: Rep, options: VerifyOptions | None = None,
                   label: str = "") -> TheoremReport:
    """Run the whole argument for one module and check every step.

    Certifies irreducibility, scans with ``scan_module`` (which also runs
    the character oracle), extends scalars to a splitting field, builds
    constructive certificates from a simple quotient (for the submodule
    claim) and a simple submodule (for the quotient claim), descends both
    occurrences to the base field, cross-checks them against the scan,
    and reruns the construction at shifted degrees.
    """
    opts = options or VerifyOptions()
    res = is_irreducible(w, opts.seed)
    if not res.irreducible:
        raise ValueError("input module is reducible; only irreducible "
                         "modules have guaranteed occurrences")

    table = scan_module(v, w, opts, label)
    m_max = len(table.rows)

    e, piece = splitting_extension(w, opts.seed)
    if e == 1:
        w0_quot = piece
        w0_sub = piece
    else:
        big = extend_scalars(w, e)
        w0_quot = piece                      # simple submodule of big
        w0_sub = simple_quotient(big, opts.seed)

    cert_sub = assemble(w0_sub, 0)
    cert_quot = cert_sub if w0_quot is w0_sub else assemble(w0_quot, 0)

    # base-field occurrence at the certified degrees: read off the scan,
    # solved once more only when the certificate lies beyond it
    def row_at(m):
        return table.rows[m - 1] if m <= m_max else _scan_one(v, w, m)

    row_sub = row_at(cert_sub.degree)
    row_quot = (row_sub if cert_quot.degree == cert_sub.degree
                else row_at(cert_quot.degree))
    base_sub_ok = row_sub[1] > 0
    base_quot_ok = row_quot[2] > 0

    # the scan must see each occurrence at its certified degree whenever
    # it got that far, which also puts its minimal degree at or below the
    # certified one; degrees beyond the scan are not compared
    scan_ok = ((cert_sub.degree > m_max or base_sub_ok)
               and (cert_quot.degree > m_max or base_quot_ok))

    periodicity: list = []
    if opts.k_max >= 1:
        flags_sub = verify_periodicity(w0_sub, cert_sub, opts.k_max)
        if w0_quot is w0_sub:
            periodicity = flags_sub
        else:
            flags_quot = verify_periodicity(w0_quot, cert_quot, opts.k_max)
            periodicity = [a and b for a, b in zip(flags_sub, flags_quot)]

    ok = (all(cert_sub.flags.values()) and all(cert_quot.flags.values())
          and base_sub_ok and base_quot_ok and scan_ok and all(periodicity))
    return TheoremReport(
        label=label,
        dim=w.dim,
        irreducible_draws=res.draws,
        splitting_degree=e,
        sub_claim=cert_sub,
        quot_claim=cert_quot,
        base_submodule_ok=base_sub_ok,
        base_quotient_ok=base_quot_ok,
        table=table,
        scan_consistent=scan_ok,
        molien_ok=True if table.molien_multiplicities is not None else None,
        periodicity=periodicity,
        ok=ok,
    )
