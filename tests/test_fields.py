"""Field construction and arithmetic against hand and coefficient-list
oracles."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symmpow as sp
from symmpow.fields import field_embedding, poly_divmod, root_of_unity

from oracles import poly_rem_over_zp


def naive_lex_min_irreducible(p, f):
    """First monic degree-f polynomial with no proper monic divisor,
    enumerating coefficient tuples constant-term-first in lex order."""
    for tail in itertools.product(range(p), repeat=f):
        cand = list(tail) + [1]
        ok = True
        for d in range(1, f // 2 + 1):
            for div_tail in itertools.product(range(p), repeat=d):
                div = list(div_tail) + [1]
                if not poly_rem_over_zp(cand, div, p):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return tuple(cand)
    raise AssertionError("unreachable")


def test_prime_field_tables():
    F = sp.make_field(7)
    assert (F.p, F.f, F.q) == (7, 1, 7)
    assert F.add(3, 5) == 1
    assert F.sub(2, 5) == 4
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.neg(2) == 5
    assert F.pow(3, 6) == 1
    assert F.pow(3, 0) == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_extension_moduli_are_lex_min():
    assert sp.make_field(3, 2).modulus == (1, 0, 1)
    assert sp.make_field(2, 2).modulus == (1, 1, 1)
    for p, f in ((2, 2), (2, 3), (3, 2), (5, 2), (7, 2), (2, 4), (2, 8),
                 (3, 5)):
        assert sp.make_field(p, f).modulus == naive_lex_min_irreducible(p, f)
    # past the 7^10 candidates with constant term 0, all divisible by t
    assert sp.make_field(7, 11).modulus == (1,) + (0,) * 9 + (4, 1)


def test_gf9_arithmetic_by_hand():
    # modulus x^2 + 1, elements a + b x encoded a + 3 b
    F = sp.make_field(3, 2)
    x = F.element((0, 1))
    assert x == 3
    assert F.mul(x, x) == F.neg(1)  # x^2 = -1
    # (1 + x)(1 - x) = 1 - x^2 = 2
    assert F.mul(F.element((1, 1)), F.element((1, 2))) == 2
    for a in range(1, 9):
        assert F.mul(a, F.inv(a)) == 1
    assert tuple(F.coeffs(5)) == (2, 1)
    assert F.element((2, 1)) == 5


def test_mult_order_and_discrete_log():
    F = sp.make_field(7)
    assert sp.mult_order(F, 1) == 1
    assert sp.mult_order(F, 6) == 2
    assert sp.mult_order(F, 2) == 3
    assert sp.mult_order(F, 3) == 6
    # 3^x = 6 in GF(7) at x = 3
    assert sp.discrete_log(F, 3, 6, 6) == 3
    assert sp.discrete_log(F, 3, 1, 6) == 0
    F9 = sp.make_field(3, 2)
    g = next(a for a in range(2, 9) if sp.mult_order(F9, a) == 8)
    for t in range(8):
        assert sp.discrete_log(F9, g, F9.pow(g, t), 8) == t


def test_root_of_unity_is_the_first_power_of_exact_order():
    # the rule the scan's eigenbasis and the Molien oracle both rely on:
    # the first y^((q-1)/d) whose order, walked by mult_order, is d
    for p, f in ((2, 1), (7, 1), (13, 1), (2, 4), (3, 3), (5, 2)):
        F = sp.make_field(p, f)
        for d in (d for d in range(1, F.q) if (F.q - 1) % d == 0):
            first = next(x for x in (F.pow(y, (F.q - 1) // d)
                                     for y in range(1, F.q))
                         if sp.mult_order(F, x) == d)
            assert root_of_unity(F, d) == first, (p, f, d)


def test_extension_towers_are_canonical():
    # any route to GF(p^f) must agree with the direct construction
    F3 = sp.make_field(3)
    F9, emb = sp.extend_field(F3, 2)
    assert F9 == sp.make_field(3, 2)
    # embedding is a ring homomorphism fixing the prime field
    for a in range(3):
        for b in range(3):
            assert emb[F3.mul(a, b)] == F9.mul(emb[a], emb[b])
            assert emb[F3.add(a, b)] == F9.add(emb[a], emb[b])
    F81_direct = sp.make_field(3, 4)
    F81_tower, emb2 = sp.extend_field(F9, 2)
    assert F81_tower == F81_direct
    for a in range(9):
        for b in range(9):
            assert emb2[F9.mul(a, b)] == F81_tower.mul(emb2[a], emb2[b])


@pytest.mark.parametrize("p,f,e", [(2, 2, 2), (2, 2, 3), (2, 3, 2),
                                   (3, 2, 2), (5, 2, 2), (2, 4, 2)])
def test_field_embedding_sends_t_to_the_first_root(p, f, e):
    base = sp.make_field(p, f)
    ext = sp.make_field(p, f * e)

    def at(coeffs, x):
        acc = 0
        for c in reversed(coeffs):
            acc = ext.add(ext.mul(acc, x), c)
        return acc

    first = next(x for x in range(ext.q) if at(base.modulus, x) == 0)
    table = field_embedding(base, ext)
    assert table[p] == first  # the code p is the generator t
    assert list(table) == [at(base.coeffs(a), first) for a in range(base.q)]


def test_field_equality_and_bad_inputs():
    assert sp.make_field(5) == sp.make_field(5)
    assert sp.make_field(5) != sp.make_field(7)
    assert sp.make_field(2, 2) != sp.make_field(2, 3)
    with pytest.raises(ValueError):
        sp.make_field(6)
    with pytest.raises(ValueError):
        sp.make_field(4)
    with pytest.raises(ValueError):
        sp.make_field(7, 0)
    with pytest.raises(ValueError):
        sp.make_field(2, 2, (1, 0, 1))  # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(ValueError):
        field_embedding(sp.make_field(2, 2), sp.make_field(2, 3))


@pytest.mark.parametrize("p,f", [(2, 2), (3, 2), (2, 4), (5, 3), (2, 8),
                                 (3, 6), (31, 2), (3, 10), (7, 5), (2, 16)])
def test_exp_log_generator_is_least_primitive_code(p, f):
    F = sp.make_field(p, f)
    q = F.q
    gen = next(c for c in range(2, q) if sp.mult_order(F, c) == q - 1)
    # mul, inv and pow read exp/log tables, held only by their closures;
    # the powers of the least primitive code walk all of GF(q)*, each
    # step checked here against raw multiplication, so the table-backed
    # mul that mult_order uses is the field's own
    walk = [1]
    for _ in range(q - 2):
        walk.append(F.mul(walk[-1], gen))
    assert sorted(walk) == list(range(1, q))
    for k in range(0, q - 1, max(1, q // 97)):
        assert walk[(k + 1) % (q - 1)] == F._raw_mul(walk[k], gen)
        assert F.pow(gen, k) == walk[k]
        assert F.inv(walk[k]) == walk[-k]


@pytest.mark.parametrize("p,f", [(2, 2), (3, 3), (5, 3), (2, 8), (3, 6)])
def test_full_tables_agree_with_the_element_operations(p, f):
    # GF(4), GF(27), GF(125) and GF(256) get one bytes row per element;
    # GF(729) lies past the bound and has none
    F = sp.make_field(p, f)
    # reports write every element as its coefficient vector, from a
    # table at full-table sizes and decoded past them
    assert [F.to_json(a) for a in range(F.q)] == [
        oracle_coeffs(a, p, f) for a in range(F.q)]
    if F.q > 256:
        assert F.add_table is None and F.mul_table is None
        return
    assert len(F.add_table) == len(F.mul_table) == F.q
    for a in range(F.q):
        assert list(F.add_table[a][:F.q]) == [F.add(a, b) for b in range(F.q)]
        assert list(F.mul_table[a][:F.q]) == [F.mul(a, b) for b in range(F.q)]


def test_fields_are_built_once_per_value():
    F = sp.make_field(5, 2)
    assert sp.make_field(5, 2) is F
    # a list modulus is normalized to a tuple before the cache sees it
    G = sp.make_field(3, 2, [2, 1, 1])
    assert sp.make_field(3, 2, (2, 1, 1)) is G and G.modulus == (2, 1, 1)
    # True == 1 and hash(True) == hash(1), so validation runs before the
    # cache: a bool is rejected even where its int is cached
    sp.make_field(5, 1)
    sp.make_field(2, 2, (1, 1, 1))
    for args in [(5, True), (True, 1), (2, 2, (True, 1, 1)),
                 (2, 2, [1, 1, True])]:
        with pytest.raises(ValueError):
            sp.make_field(*args)
    with pytest.raises(ValueError):
        sp.make_field(2, 2, [[1], 1, 1])  # unhashable entries are rejected
    with pytest.raises(ValueError):
        sp.make_field(2, 2, (1, 0, 1))  # twice: a failure is not cached
    with pytest.raises(ValueError):
        sp.make_field(2, 2, (1, 0, 1))


def oracle_coeffs(a, p, f):
    return [a // p ** k % p for k in range(f)]


def oracle_code(coeffs, p):
    return sum(c * p ** k for k, c in enumerate(coeffs))


def oracle_mul(a, b, p, f, modulus):
    # schoolbook product of the coefficient lists, reduced by the modulus
    ca, cb = oracle_coeffs(a, p, f), oracle_coeffs(b, p, f)
    prod = [0] * (2 * f - 1)
    for i, x in enumerate(ca):
        for j, y in enumerate(cb):
            prod[i + j] = (prod[i + j] + x * y) % p
    return oracle_code(poly_rem_over_zp(prod, list(modulus), p), p)


def check_against_oracle(F, pairs, exponents):
    p, f, mod = F.p, F.f, F.modulus
    for a, b in pairs:
        ca, cb = oracle_coeffs(a, p, f), oracle_coeffs(b, p, f)
        assert F.add(a, b) == oracle_code(
            [(x + y) % p for x, y in zip(ca, cb)], p)
        assert F.sub(a, b) == oracle_code(
            [(x - y) % p for x, y in zip(ca, cb)], p)
        assert F.neg(b) == oracle_code([(-y) % p for y in cb], p)
        assert F.mul(a, b) == oracle_mul(a, b, p, f, mod)
        if a == 0:
            with pytest.raises(ZeroDivisionError):
                F.inv(a)
        else:
            assert oracle_mul(a, F.inv(a), p, f, mod) == 1
    top = max(abs(e) for e in exponents)
    for a in {a for a, _ in pairs}:
        powers = [1]
        for _ in range(top):
            powers.append(oracle_mul(powers[-1], a, p, f, mod))
        for e in exponents:
            if e >= 0:
                assert F.pow(a, e) == powers[e]
            elif a == 0:
                with pytest.raises(ZeroDivisionError):
                    F.pow(a, e)
            else:
                assert oracle_mul(F.pow(a, e), powers[-e], p, f, mod) == 1


@pytest.mark.parametrize("p,f", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3),
                                 (7, 2)])
def test_small_extensions_match_the_oracle_exhaustively(p, f):
    # every extension field a benchmark workload builds, up to GF(49)
    F = sp.make_field(p, f)
    q = F.q
    check_against_oracle(F, list(itertools.product(range(q), repeat=2)),
                         (-q - 1, -2, -1, 0, 1, 2, q - 1, q + 1))


@pytest.mark.parametrize("p,f", [(31, 2), (3, 6), (2, 10), (5, 7), (2, 17)])
def test_larger_extensions_match_the_oracle_on_samples(p, f):
    # GF(5^7) and GF(2^17) lie past the exp/log/Zech tables
    F = sp.make_field(p, f)
    rng = random.Random(f"{p}^{f}")
    pairs = [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(2000)]
    # zero operands, a - a = 0, and a + (-a) = 0
    a = F.q - 1
    minus_a = oracle_code([(-c) % p for c in oracle_coeffs(a, p, f)], p)
    pairs += [(0, 0), (0, a), (a, 0), (a, a), (a, minus_a)]
    check_against_oracle(F, pairs, (-3, -1, 0, 1, 2, 5))


@st.composite
def _monic_division(draw):
    """(p, num, den): den monic over Z, num at least deg den long."""
    p = draw(st.sampled_from([2, 3, 5, 7, 31, 8191]))
    coeff = st.integers(-10 ** 6, 10 ** 6)
    den = draw(st.lists(coeff, max_size=6)) + [1]
    num = draw(st.lists(coeff, min_size=len(den) - 1, max_size=16))
    return p, num, den


@settings(deadline=None, max_examples=300)
@given(_monic_division())
def test_monic_division_over_z_reduces_to_the_remainder_over_zp(case):
    p, num, den = case
    quot, rem = poly_divmod(num, den)
    assert len(rem) == len(den) - 1
    back = rem + [0] * (len(num) - len(rem))  # quot * den + rem
    for i, a in enumerate(quot):
        for j, b in enumerate(den):
            back[i + j] += a * b
    assert back == num
    trimmed = [r % p for r in rem]
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    assert trimmed == poly_rem_over_zp([c % p for c in num],
                                       [c % p for c in den], p)

