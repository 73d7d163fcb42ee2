"""Exact arithmetic in GF(p) and GF(p^f).

Elements of GF(p^f) are plain Python ints in ``range(p**f)``: the int
``sum(c[k] * p**k)`` encodes the coefficient vector ``(c[0], ..., c[f-1])``
of the representative polynomial modulo the field's irreducible modulus,
lowest degree first.  For f = 1 an element is simply its residue mod p.
The encoding makes equality, hashing and serialization trivial and lets the
hot paths (Gaussian elimination, polynomial expansion) run on machine ints.

Extensions come in three regimes.  Up to q = 256 the row kernels index
full addition and multiplication tables, as the C MeatAxe does.  Up to
q = 2^16 every element operation is a lookup in three O(q) tables over the
least generator g of GF(q)*: exp, log, and the Zech logarithm Z with
1 + g^k = g^Z(k), so that a + b = a * (1 + b/a).  Larger fields decode
both operands to coefficient vectors on every call and invert as a^(q-2).
Every extension subtracts as a + (-b).

Two row kernels carry the row arithmetic that ``linalg`` does not pack
(see its docstring): ``row_sub(xs, f, ys)`` is the row xs - f*ys, and
``row_comb(coeffs, rows, n)`` the length-n row sum(c*row) over the nonzero
coefficients, each row given sparsely as (column, value) pairs.  Over a
prime field they run on plain ints with one ``% p`` per entry; over an
extension they index the full tables or call the element operations.
``row_sub`` serves the list rows of ``linalg``'s eliminations (extension
fields, primes too large to pack, narrow matrices); ``row_comb`` serves
``linalg.mat_vec``, ``reps``'s polynomial products and Sym^m images.

The modulus is always the lexicographically smallest monic irreducible
polynomial of degree f over Z_p, coefficients compared lowest degree first,
unless the caller supplies one explicitly.  For f = 1 the modulus is the
polynomial t.  Everything here is deterministic; FieldSpec instances are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import CapExceeded

# Largest q served by the exp/log/Zech tables; larger extensions, up to the
# 2^31 guard, take the decode path.
_EXP_LOG_LIMIT = 1 << 16

_ORDER_LIMIT = 1 << 31


def _prime_factors(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _digit_sums(p: int, n: int):
    """Rows of a + b, digit by digit mod p, for codes a, b < n = p^k."""
    rows = [list(range(n))]
    for a in range(1, n):
        rows.append([rows[a // p][b // p] * p + (a + b) % p for b in range(n)])
    return rows


def _square_multiply(mul, a, e: int):
    """a**e for e >= 0 under the multiplication mul."""
    result = 1
    while e:
        if e & 1:
            result = mul(result, a)
        a = mul(a, a)
        e >>= 1
    return result


def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_rem(a, b, p):
    """Remainder of a by b over Z_p; coefficient lists, lowest degree first."""
    a = list(a)
    inv_lead = pow(b[-1], p - 2, p)
    while True:
        _poly_trim(a)
        if len(a) < len(b):
            return a
        c = a[-1] * inv_lead % p
        off = len(a) - len(b)
        for i, bc in enumerate(b):
            a[off + i] = (a[off + i] - c * bc) % p


def _poly_is_irreducible(mod, p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg(mod)/2."""
    f = len(mod) - 1
    if f < 1:
        return False
    for d in range(1, f // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = list(tail) + [1]
            if not _poly_rem(mod, divisor, p):
                return False
    return True


def _lex_min_irreducible(p: int, f: int):
    # for f >= 2 a zero constant term means the factor t, so the sweep
    # starts at constant term 1, where the first irreducible lies
    for tail in itertools.product(range(1, p), *[range(p)] * (f - 1)):
        cand = list(tail) + [1]
        if _poly_is_irreducible(cand, p):
            return tuple(cand)
    raise ArithmeticError("no irreducible polynomial found")  # unreachable


class FieldSpec:
    """Arithmetic context for GF(p^f); elements are ints in range(q).

    Use :func:`make_field` to construct.  The bound callables ``add``,
    ``sub``, ``neg``, ``mul``, ``inv`` and ``pow`` are the element
    operations, ``row_sub`` and ``row_comb`` the row kernels;
    ``coeffs``/``element`` convert between int codes and coefficient
    vectors.  Up to 256 elements, ``add_table[a][b]`` is a + b and
    ``mul_table[a][b]`` a * b, one ``bytes`` row per a (None otherwise).
    """

    __slots__ = (
        "p", "f", "q", "modulus",
        "add", "sub", "neg", "mul", "inv", "pow", "row_sub", "row_comb",
        "add_table", "mul_table", "_exp", "_log",
    )

    def __init__(self, p: int, f: int, modulus):
        self.p = p
        self.f = f
        self.q = p ** f
        self.modulus = tuple(modulus)
        self._exp = self._log = self.add_table = self.mul_table = None
        if f == 1:
            self._setup_prime()
            return
        self._setup_extension()
        add, neg, mul = self.add, self.neg, self.mul

        def sub(a, b):
            return add(a, neg(b))

        self.sub = sub
        add_t, mul_t = self.add_table, self.mul_table
        if add_t:
            def row_sub(xs, f, ys):  # x - f*y is add_t[x][mul_t[-f][y]]
                zs = bytes(ys).translate(mul_t[neg(f)])
                return [add_t[x][z] for x, z in zip(xs, zs)]

            def row_comb(coeffs, rows, n):
                acc = [0] * n
                for c, row in zip(coeffs, rows):
                    if c:
                        mc = mul_t[c]
                        for j, y in row:
                            acc[j] = add_t[acc[j]][mc[y]]
                return acc
        else:
            def row_sub(xs, f, ys):
                nf = neg(f)
                return [add(x, mul(nf, y)) if y else x for x, y in zip(xs, ys)]

            def row_comb(coeffs, rows, n):
                acc = [0] * n
                for c, row in zip(coeffs, rows):
                    if c:
                        for j, y in row:
                            acc[j] = add(acc[j], mul(c, y))
                return acc

        self.row_sub, self.row_comb = row_sub, row_comb

    # construction helpers -------------------------------------------------

    def _setup_prime(self):
        p = self.p

        def add(a, b):
            return (a + b) % p

        def sub(a, b):
            return (a - b) % p

        def neg(a):
            return (-a) % p

        def mul(a, b):
            return (a * b) % p

        def inv(a):
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, p - 2, p)

        def pw(a, e):
            if e < 0:
                return pow(inv(a), -e, p)
            return pow(a, e, p)

        # int rows accumulate unreduced and take one % p per entry
        def row_sub(xs, f, ys):
            return [(x - f * y) % p for x, y in zip(xs, ys)]

        def row_comb(coeffs, rows, n):
            acc = [0] * n
            for c, row in zip(coeffs, rows):
                if c:
                    for j, y in row:
                        acc[j] += c * y
            return [s % p for s in acc]

        self.add, self.sub, self.neg, self.mul, self.inv, self.pow = (
            add, sub, neg, mul, inv, pw)
        self.row_sub, self.row_comb = row_sub, row_comb

    def _raw_coeffs(self, a):
        p, f = self.p, self.f
        out = []
        for _ in range(f):
            a, r = divmod(a, p)
            out.append(r)
        return out

    def _raw_encode(self, coeffs):
        p = self.p
        v = 0
        for c in reversed(coeffs):
            v = v * p + c
        return v

    def _raw_mul(self, a, b):
        p, f, mod = self.p, self.f, self.modulus
        ca = self._raw_coeffs(a)
        cb = self._raw_coeffs(b)
        prod = [0] * (2 * f - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % p
        # reduce t^d for d >= f using t^f = -mod[:f]
        for d in range(2 * f - 2, f - 1, -1):
            c = prod[d]
            if c:
                prod[d] = 0
                for i in range(f):
                    prod[d - f + i] = (prod[d - f + i] - c * mod[i]) % p
        return self._raw_encode(prod[:f])

    def _setup_extension(self):
        p, q = self.p, self.q
        if q > _EXP_LOG_LIMIT:
            mul, code, enc = self._raw_mul, self._raw_coeffs, self._raw_encode

            def add(a, b):
                return enc([(x + y) % p for x, y in zip(code(a), code(b))])

            def neg(a):
                return enc([(-c) % p for c in code(a)])

            def inv(a):  # a^(q-2), by Fermat in GF(q)*
                if a == 0:
                    raise ZeroDivisionError("inverse of zero")
                return _square_multiply(mul, a, q - 2)

            def pw(a, e):
                if e < 0:
                    a, e = inv(a), -e
                return _square_multiply(mul, a, e)

            self.add, self.neg, self.mul, self.inv, self.pow = (
                add, neg, mul, inv, pw)
            return

        # exp/log over the least code of order q - 1: the first c with
        # c^((q-1)/r) != 1 for every prime r dividing q - 1
        qm1 = q - 1
        cofactors = [qm1 // r for r in _prime_factors(qm1)]
        gen = next(c for c in range(2, q)
                   if all(_square_multiply(self._raw_mul, c, e) != 1
                          for e in cofactors))
        exp = self._exp = [1] * qm1
        log = self._log = [0] * q
        # x * gen is the digit sum of lo * gen and hi * P * gen, x = hi*P + lo
        P = p ** (self.f // 2)
        dsum = _digit_sums(p, q // P)
        lo_t = [divmod(self._raw_mul(x, gen), P) for x in range(P)]
        hi_t = [divmod(self._raw_mul(x * P, gen), P) for x in range(q // P)]
        x = 1
        for k in range(1, qm1):
            (a1, a0), (b1, b0) = lo_t[x % P], hi_t[x // P]
            x = dsum[a1][b1] * P + dsum[a0][b0]
            exp[k] = x
            log[x] = k
        # exponents are summed unreduced and looked up in the doubled tables;
        # a negative index wraps mod q - 1 by itself
        exp2 = exp + exp
        # Zech logarithms: 1 + g^k = g^zech[k], and -1 where 1 + g^k = 0;
        # adding 1 to a code only changes its constant coefficient
        zech = []
        for x in exp:
            y = x - x % p + (x + 1) % p
            zech.append(log[y] if y else -1)
        zech += zech
        half = log[p - 1]  # -1 = g^half; 0 for p = 2

        def add(a, b):
            # a + b = a * (1 + b/a)
            if a == 0:
                return b
            if b == 0:
                return a
            la = log[a]
            z = zech[log[b] - la]
            return exp2[la + z] if z >= 0 else 0

        def neg(a):
            return exp2[log[a] + half] if a else 0

        def mul(a, b):
            if a == 0 or b == 0:
                return 0
            return exp2[log[a] + log[b]]

        def inv(a):
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return exp[-log[a]]

        def pw(a, e):
            if a == 0:
                if e == 0:
                    return 1
                if e < 0:
                    raise ZeroDivisionError("inverse of zero")
                return 0
            return exp[(log[a] * e) % qm1]

        self.add, self.neg, self.mul, self.inv, self.pow = (
            add, neg, mul, inv, pw)
        if q <= 256:  # full tables: a code fits in a byte
            # row a of mul translates the log codes (0's read as q - 1) by
            # exp[log a + k]; 256 long, a row is a translate table itself
            logs = bytes([qm1] + log[1:] + [qm1] * (256 - q))
            self.mul_table = [bytes(256)] + [
                logs.translate(bytes(exp2[la:la + qm1]) + bytes(257 - q))
                for la in log[1:]]
            self.add_table = [bytes(row) for row in _digit_sums(p, q)]

    # element codecs -------------------------------------------------------

    def coeffs(self, a: int):
        """Coefficient vector (length f, lowest degree first) of element a."""
        if not 0 <= a < self.q:
            raise ValueError(f"element code {a} out of range for {self!r}")
        return self._raw_coeffs(a)

    def element(self, coeffs) -> int:
        """Int code of the element with the given coefficient vector."""
        coeffs = list(coeffs)
        if len(coeffs) != self.f:
            raise ValueError(
                f"expected {self.f} coefficients, got {len(coeffs)}")
        for c in coeffs:
            if (isinstance(c, bool) or not isinstance(c, int)
                    or not 0 <= c < self.p):
                raise ValueError(f"coefficient {c} not a residue mod {self.p}")
        return self._raw_encode(coeffs)

    def to_json(self, a: int):
        """Element a as reports write it: the int itself over a prime field,
        its coefficient vector over an extension."""
        return a if self.f == 1 else self._raw_coeffs(a)

    def from_json(self, obj) -> int:
        """The element that to_json writes as obj; ValueError otherwise."""
        if self.f > 1:
            if not isinstance(obj, list):
                raise ValueError(f"expected a list of {self.f} coefficients")
            return self.element(obj)
        if (isinstance(obj, bool) or not isinstance(obj, int)
                or not 0 <= obj < self.q):
            raise ValueError(f"{obj!r} is not an element of {self!r}")
        return obj

    # dunder ---------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and self.p == other.p and self.f == other.f
                and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.f, self.modulus))

    def __repr__(self):
        if self.f == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.f})"


def _guard_order(p: int, f: int, error):
    # f > 31 exceeds the guard for every p, without forming a huge power
    if f > 31 or p ** f > _ORDER_LIMIT:
        raise error(f"field order {p}^{f} exceeds the 2^31 guard")


def make_field(p: int, f: int = 1, modulus=None) -> FieldSpec:
    """Construct GF(p^f).

    The modulus may be supplied as a coefficient list (length f + 1, lowest
    degree first, monic); it is verified irreducible by exhaustive trial
    division.  Without one, the lexicographically smallest monic irreducible
    polynomial is selected, so the same (p, f) always yields the same field.
    Each field is built once per process and shared.
    """
    if not isinstance(p, int) or isinstance(p, bool) or p < 2:
        raise ValueError(f"p must be prime, got {p}")
    if not isinstance(f, int) or isinstance(f, bool) or f < 1:
        raise ValueError(f"f must be a positive integer, got {f}")
    # the guard comes before the trial division it bounds
    _guard_order(p, f, ValueError)
    if _prime_factors(p) != [p]:
        raise ValueError(f"p must be prime, got {p}")
    if modulus is not None:
        modulus = tuple(modulus)
        if any(not isinstance(c, int) or isinstance(c, bool)
               for c in modulus):
            raise ValueError("modulus coefficients must be integers")
        if len(modulus) != f + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree f")
        if any(not 0 <= c < p for c in modulus):
            raise ValueError("modulus coefficients must be residues mod p")
        if f == 1:
            if modulus != (0, 1):
                raise ValueError("prime-field modulus must be the polynomial t")
        elif not _poly_is_irreducible(list(modulus), p):
            raise ValueError("modulus is reducible")
    else:
        modulus = (0, 1) if f == 1 else _lex_min_irreducible(p, f)
    return _shared_field(p, f, modulus)  # checked: the cache takes True as 1


_shared_field = lru_cache(maxsize=None)(FieldSpec)


def mult_order(field: FieldSpec, a: int) -> int:
    """Order of a in the multiplicative group; a must be nonzero."""
    if a == 0:
        raise ValueError("zero has no multiplicative order")
    mul = field.mul
    x = a
    d = 1
    while x != 1:
        x = mul(x, a)
        d += 1
        if d > field.q:
            raise ArithmeticError("order search did not terminate")
    return d


def discrete_log(field: FieldSpec, base: int, target: int, order: int) -> int:
    """Least t >= 0 with base^t == target, scanning t < order."""
    x = 1
    for t in range(order):
        if x == target:
            return t
        x = field.mul(x, base)
    raise ValueError("target is not a power of the base")


def field_embedding(base: FieldSpec, ext: FieldSpec):
    """Codes in ext of the base field's elements, indexed by base code.

    The embedding sends the base field's generator t to the first root (in
    code order) of the base modulus inside ext, which forces a ring
    homomorphism fixing the prime field.  Over a prime base, and when ext
    is base, every code keeps its value, so the result is a range.
    """
    if ext.p != base.p or ext.f % base.f:
        raise ValueError(f"{ext!r} is not an extension of {base!r}")
    if ext == base or base.f == 1:
        # constants keep their codes in the base-p encoding
        return range(base.q)

    def image(coeffs, x):  # Horner; prime-field constants embed as themselves
        acc = 0
        for c in reversed(coeffs):
            acc = ext.add(ext.mul(acc, x), c)
        return acc

    # y^((|ext| - 1)/(q - 1)) runs through the copy of GF(q) in ext as y
    # runs through ext*, and the roots of the modulus are the conjugates
    # r^(p^i) of any one root r, so the first is found without a sweep of ext
    cofactor = (ext.q - 1) // (base.q - 1)
    root = next(x for x in (ext.pow(y, cofactor) for y in range(1, ext.q))
                if image(base.modulus, x) == 0)
    root = min(ext.pow(root, base.p ** i) for i in range(base.f))
    return tuple(image(base.coeffs(a), root) for a in range(base.q))


def extend_field(field: FieldSpec, e: int):
    """Build GF(q^e) over GF(q) with an explicit embedding.

    Returns (ext, table) where table[a] is the image in ext of the base
    element coded a; see :func:`field_embedding`.  e = 1 returns the field
    itself with the identity table; an order past the 2^31 guard raises
    CapExceeded.
    """
    if not isinstance(e, int) or e < 1:
        raise ValueError(f"extension degree must be a positive integer, got {e}")
    _guard_order(field.p, field.f * e, CapExceeded)
    ext = field if e == 1 else make_field(field.p, field.f * e)
    return ext, field_embedding(field, ext)
