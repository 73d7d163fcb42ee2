"""The constructive pipeline: generic vectors, coset products, assembled
occurrence certificates."""

import pathlib

import pytest

import symmpow as sp
import symmpow.construct as construct
from symmpow.cli import enc_certificate
from symmpow.construct import (build_coset_products, check_independence,
                               find_generic_vector, is_generic_vector)

from oracles import shifted_span_action

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "problems"

ALL_FLAGS = (
    "coset_powers_independent",
    "span_degree",
    "span_dimension",
    "coset_permutation",
    "center_character",
    "induced_isomorphism",
    "module_occurs_in_span",
    "embedding_witness",
    "quotient_exists",
    "quotient_witness",
)


def test_generic_vector_for_s3_needs_quadratic_extension(s3):
    group, _, _ = s3
    vec, field = find_generic_vector(group)
    # over the base field every line is an eigenline of some element, so
    # the sweep lands in the degree-2 extension; first hit is (1, x)
    assert field.f == 2 and field.p == 7
    assert vec == (1, 7)


def test_generic_vector_over_base_field(c3_gf2):
    group, _ = c3_gf2
    vec, field = find_generic_vector(group)
    assert field.f == 1
    assert vec == (0, 1)


def test_is_generic_vector_rejects_eigenlines(s3):
    _, v, _ = s3
    # over GF(7), (1, 0) is fixed by the reflection [[1, 6], [0, 6]], and
    # (1, 3) is an eigenvector (eigenvalue 4) of the rotation
    # [[0, 6], [1, 6]]
    images = v.images
    assert not is_generic_vector(images, (1, 0))
    assert not is_generic_vector(images, (1, 3))


def test_central_group_has_no_generic_vector(c6):
    group, _, _ = c6
    with pytest.raises(ValueError):
        find_generic_vector(group)


def test_coset_products_and_independence(s3):
    group, v, _ = s3
    vec, field = find_generic_vector(group)
    ext = sp.extend_scalars(v, 2)
    prods, b = build_coset_products(vec, ext)
    assert len(prods) == group.coset_count == 6
    assert b.basis.m == group.coset_count
    for f, h in zip(prods, group.transversal):
        assert f.basis.m == group.coset_count - 1
        # F_c lacks exactly the line of its own coset's representative
        line = sp.poly_from_vector(ext.field, sp.mat_vec(ext.images[h],
                                                         list(vec)))
        assert sp.poly_mul(f, line) == b
    assert check_independence(prods)
    assert not check_independence(prods + prods[:1])


def test_assemble_s3_sign_certificate(s3):
    _, _, mods = s3
    cert = sp.assemble(mods["sign"])
    assert cert.degree == 5
    enc = enc_certificate(cert)
    assert enc["shift"] == 0 and enc["total_degree"] == 5
    assert cert.group_order == 6 and cert.center_order == 1
    assert cert.coset_count == 6
    assert cert.char_exponent == 0 and cert.complement_exponent == 1
    assert not cert.central
    assert cert.extension_degree == 2
    assert set(cert.flags) == set(ALL_FLAGS)
    assert all(cert.flags.values())
    # degree bookkeeping: coset count times center order, minus the
    # complement exponent, and always below the group order
    assert cert.degree == (cert.coset_count * cert.center_order
                           - cert.complement_exponent)
    assert cert.degree < cert.group_order


def _spy(monkeypatch, name):
    """Record the calls to a function that construct imported by name."""
    calls = []
    real = getattr(construct, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(construct, name, spy)
    return calls


def test_assemble_with_shift(s3, monkeypatch):
    _, _, mods = s3
    sym_calls = _spy(monkeypatch, "sym_power")
    cert = sp.assemble(mods["sign"], k_max=1)
    # the certificate is the degree-5 one; the shift is verified in
    # Sym^11 (5 + 1 * 6) and not recorded
    assert [args[1] for args in sym_calls] == [5, 11]
    assert cert.degree == 5
    enc = enc_certificate(cert)
    assert enc["shift"] == 0 and enc["total_degree"] == 5
    assert set(cert.flags) == set(ALL_FLAGS)
    assert all(cert.flags.values())
    assert len(cert.span_polys) == 6
    for f in cert.span_polys:
        assert f.basis.m == 5
    assert cert.span_polys == sp.assemble(mods["sign"]).span_polys


def test_assemble_all_s3_modules(s3):
    _, _, mods = s3
    for label, w in mods.items():
        cert = sp.assemble(w)
        assert all(cert.flags.values()), label
        assert cert.degree == 5
        assert cert.embedding_witness.ncols == w.dim
        assert cert.quotient_witness.nrows == w.dim


def test_assemble_q8_degrees(q8):
    _, _, mods = q8
    expected = {"trivial": 6, "chi_i": 6, "chi_j": 6, "chi_k": 6,
                "defining": 7}
    for label, w in mods.items():
        cert = sp.assemble(w)
        assert cert.degree == expected[label], label
        assert all(cert.flags.values())
        # the center has order 2; the defining module sees the scalar
        assert cert.center_order == 2
        t = 1 if label == "defining" else 0
        assert cert.char_exponent == t
        assert cert.complement_exponent == 2 - t
        assert cert.degree == 4 * 2 - cert.complement_exponent


def test_assemble_central_group(c6):
    _, _, mods = c6
    expected = {f"chi{t}": t if t else 6 for t in range(6)}
    for label, w in mods.items():
        cert = sp.assemble(w)
        assert cert.central
        assert cert.degree == expected[label], label
        assert all(cert.flags.values())


def test_assemble_embedding_witness_is_injective_intertwiner(q8):
    group, _, mods = q8
    w = mods["defining"]
    cert = sp.assemble(w)
    x = cert.embedding_witness
    assert sp.linalg.rank(x) == w.dim
    # columns of x give the module inside the degree-7 power; verify the
    # intertwining on the original group generators via the sym action
    sym = sp.sym_power(sp.extend_scalars(sp.defining_rep(group),
                                         cert.extension_degree),
                       cert.degree)
    wx = sp.extend_scalars(w, cert.extension_degree)
    for sym_g, w_g in zip(sym.gens, wx.gens):
        assert sp.linalg.mat_mul(sym_g, x) == sp.linalg.mat_mul(x, w_g)


def test_periodicity_schedule(s3, monkeypatch):
    _, v, mods = s3
    sym_calls = _spy(monkeypatch, "sym_power")
    hom_calls = _spy(monkeypatch, "hom_space")
    coset_calls = _spy(monkeypatch, "build_coset_products")
    sp.assemble(mods["sign"], k_max=2)
    # one shift-free build; each shift adds one symmetric power and one
    # quotient solve, and reuses the span's two hom spaces
    assert [args[1] for args in sym_calls] == [5, 11, 17]
    assert len(coset_calls) == 1
    assert len(hom_calls) == 3 + 2
    [rep] = sp.verify_theorem(v, [("sign", mods["sign"])],
                              sp.VerifyOptions(k_max=2))
    assert rep.periodicity == [True, True]


def test_shifted_span_is_permuted_as_at_shift_zero(load_doc):
    # assemble reads the span's coset permutation in degree m only, and
    # checks each shift by its witnesses; rebuilt in Sym^(m + |G|), the
    # span times C must be permuted exactly as the degree-m span is
    for path in sorted(PROBLEMS.glob("*.json")):
        group, v, modules = load_doc(path.stem)
        if group.order > 60:          # the corpus constructs
            continue
        for (label, _), rep in zip(modules, sp.verify_theorem(v, modules)):
            for cert in (rep.sub_claim, rep.quot_claim):
                v_rep = sp.extend_scalars(v, cert.extension_degree)
                _, _, span_rep = construct._span_action(
                    {}, v_rep, cert.span_polys, cert.degree)
                at_zero = shifted_span_action(cert, group, 0)
                assert at_zero == span_rep.gens, (path.stem, label)
                assert shifted_span_action(cert, group, 1) == at_zero, (
                    path.stem, label)


def _scale_first_generator(rep):
    field = rep.field
    first = sp.Mat(field, [[field.mul(2, x) for x in row]
                           for row in rep.gens[0].rows])
    return sp.Rep(rep.group, [first] + rep.gens[1:])


@pytest.mark.parametrize("fault, flag", [
    # the embedding times C no longer intertwines the faulty Sym^11
    ("sym_power", "embedding_witness"),
    # no quotient of Sym^11 onto the module is found
    ("hom_space", "quotient_exists"),
    # the embedding times C (degree 11) vanishes, so it has rank 0, not 1
    ("poly_mul", "embedding_witness"),
])
def test_fault_only_at_a_shift_is_caught(s3, monkeypatch, fault, flag):
    _, _, mods = s3
    real = getattr(construct, fault)
    if fault == "sym_power":
        def faulty(v_rep, m):
            out = real(v_rep, m)
            return out if m <= 5 else _scale_first_generator(out)
    elif fault == "hom_space":
        def faulty(a, b):
            return [] if a.dim > 6 else real(a, b)  # dim Sym^5 = 6
    else:
        def faulty(a, b):
            out = real(a, b)  # products up to degree |G| = 6 are kept
            return out if out.basis.m <= 6 else sp.PolyVec(
                out.field, out.basis, [0] * len(out.coeffs))
    monkeypatch.setattr(construct, fault, faulty)
    assert all(sp.assemble(mods["sign"]).flags.values())
    with pytest.raises(sp.TheoremViolation, match=flag):
        sp.assemble(mods["sign"], k_max=1)


def test_cap_for_the_largest_shift_is_checked_first(s3, monkeypatch):
    _, _, mods = s3

    def no_work(*args):
        raise AssertionError("the cap must be checked before any build")

    monkeypatch.setattr(construct, "build_coset_products", no_work)
    with pytest.raises(sp.CapExceeded, match="Sym\\^6000005 "):
        sp.assemble(mods["sign"], k_max=10 ** 6)


def test_assemble_is_deterministic(fresh_case):
    # two freshly built groups share no state, so equal results cannot
    # come from anything cached on the first
    a = sp.assemble(fresh_case("sl2_3_gf3")[2]["defining"])
    b = sp.assemble(fresh_case("sl2_3_gf3")[2]["defining"])
    assert a.generic_vector == b.generic_vector
    assert a.degree == b.degree == 23
    assert a.span_polys == b.span_polys
    assert a.embedding_witness == b.embedding_witness


def test_assemble_rejects_mislabelled_coset_products(s3, monkeypatch):
    _, _, mods = s3
    real = construct.build_coset_products

    def swapped(v, v_rep):
        prods, b = real(v, v_rep)
        prods[0], prods[1] = prods[1], prods[0]
        return prods, b

    monkeypatch.setattr(construct, "build_coset_products", swapped)
    with pytest.raises(sp.TheoremViolation, match="coset_permutation"):
        sp.assemble(mods["sign"])
