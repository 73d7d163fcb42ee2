"""Reports and summaries of the shipped documents, pinned byte for byte.

Each entry holds the sha256 of the ``--out`` report, the sha256 of the
stdout summary and the exit code of one corpus operation: ``check`` and
``scan`` on every document in ``problems/``, and ``construct`` on those
of group order at most 60.  Two operations of the benchmark, on documents
of ``bench/inputs.py`` in their shipped bases, are pinned the same way:
they reach the deepest extension fields (GF(27) certificates and the
GF(49) Molien oracle).  Two constructs with ``--k-max 2`` (over GF(25)
and GF(27)) run the shift loop twice: no report records a shift, but a
failed one changes the exit code.  Four small documents written out below
pin the construct paths that the corpus misses, where every splitting
degree is 1 over a prime field: a splitting degree of 2 (``c3_gf2``), and
a group field with no generic vector, so that the certificate lands over
a proper extension of a non-prime field (``s3_gf4``); and two orbit
products C = lam^(N z (z - 1)/2) B^z that the corpus does not reach, a
non-central group with N = 3 and z = 2, so a factor of -1 (``c6_nc``),
and a central group in dimension 2 (``z2_dim2``).  A fifth, C_19 in
GL(3, 7) (``c19_gf7``), has a module of splitting degree 3, so its
certificate lies over GF(343), the one field in the exp/log/Zech regime
(257 to 2^16 elements) that a pinned report reaches.  A refactor that is
meant to leave every answer alone must leave these digests alone.  After
a deliberate change of output, print the new table with

    PYTHONPATH=src python tests/test_report_digests.py
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import pathlib
import tempfile

import pytest

import symmpow.cli as cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
PROBLEMS = ROOT / "problems"
BENCH_INPUTS = ROOT / "bench" / "inputs.py"

# (command, document stem): (report sha256, stdout sha256, exit code)
DIGESTS = {
    ("check", "c3_gf7"): (
        "b5888603e47e22454298dfce2631e8fc5e4ec031078993a90352a13b28442584",
        "b3ce699278b9cea69cf7fa600db5e034cf04b7f8cdbc5f18c0daf27bc5c81262", 0),
    ("scan", "c3_gf7"): (
        "fa7bbfb4ea78c16f65ab6bdf08e3f5aa7a3e1917fcda1b42d39b34c23bd5617a",
        "fab008b944b46b1347b35949ac0ca2ed975e2c4e219803dfcd60005e77fc9fa0", 0),
    ("construct", "c3_gf7"): (
        "b67cfb18e97b55a432d944ee430c5b254fb341eea264f8660403aa455b894d03",
        "0997cafa5289860527dfabb39adfd80aa5e3483fcdc3c417162d268731f72e57", 0),
    ("check", "c4_gf5"): (
        "70befc6d1450821810bc2952640e0f751b216b8d28918fe91283241d674c6d1f",
        "dc40c7150863ba5109da0189d7cfe3dab12d2d65a26f097109e2e32dc5b25c22", 0),
    ("scan", "c4_gf5"): (
        "cd9fcbacdd96f1634956db5ac72535fe1fff5fdada99b42adfb919b7ad603678",
        "edc9a28dc1f841867471564b158c873ae895826751988fad19e50a51695af000", 0),
    ("construct", "c4_gf5"): (
        "d0fcdc65705236edb0252dea685fb8f23793f1929a8abbd8d8e8f1f14bc48f00",
        "88c2f4708bfdaea24f6bba8084002c1da1cf2bccf8780bdb1e64e433a7eb30ab", 0),
    ("check", "c6_gf7"): (
        "13b1b17a74c06a82f97474a175840aed78ece754a1930ec8224864c382002227",
        "c79b70700cf0a801572fec4f01a0c12eef27b3019f3530e646a3a922acf2f81f", 0),
    ("scan", "c6_gf7"): (
        "c5be17c35b455479e45b6f24a07fc031ea9ff9fa70a526411b9e1c6e67e35b01",
        "48eb7035c4e2ad1081553fcf29abcd9812780574dd9b227fbb8684eb7cd3dde0", 0),
    ("construct", "c6_gf7"): (
        "536fcfbf089edb3979eb8f4bf8b6e5bbd8bbbb3b251574889290c7e1da257abd",
        "f314e28a01084a059ff6422ffcdb8bf5a108e25be85b644daf4d30c5aa741eec", 0),
    ("check", "q8_gf5"): (
        "ddb03cf7ec800f15f0d16f0cfae56ee5784c0bab42bf101c3f79c1313b0913b0",
        "98415a42563d585f34dfb5bea793d3664b50835aca1f0e55e20c70edb42decc6", 0),
    ("scan", "q8_gf5"): (
        "937c0df89c8dada418de632b1d10755b016f05254c280ea14cf819756ec1f320",
        "613414525878225389d2b2dbfcc4e8a37c2479e8524aa6af3b854b36938f7005", 0),
    ("construct", "q8_gf5"): (
        "8c44145c90c9b09941c591c01f3ccff7c19596b52920f56a19bcbe02e0553a55",
        "78f02a3441159a283f8189546b058b01f88d1e0b5264e51ee782879bd8064a52", 0),
    ("check", "s3_gf7"): (
        "557f7f71f1dfb1e7b07b602dbd21d7fa6602a4a10c906844db2c49044439e2b6",
        "a5f4e740ab27d9e71f52f50f28d5b4a42da5d7a034ac80721229231f6692f298", 0),
    ("scan", "s3_gf7"): (
        "863dced454ce8f95994c1e92a8eaad187e311ff67faeaac326d7da20efea5512",
        "db062015fb7ec40ed163654148c9e8013f0c2f7921033b9bab21cb572078dd00", 0),
    ("construct", "s3_gf7"): (
        "b826d3684f175f1e81812fcfefb46596c819a440a2df879df172decc7e0f1209",
        "da05cbf7431ed07ebe441aa750857efe0b50400a7777c95424d5698b9adb8d02", 0),
    ("check", "sl2_2_gf2"): (
        "a14a6b8e97c4f9c380703c2ddf7893b8d845600af54ddca5be6beb93d5e813e6",
        "ed8462e0f9dd57fb87e0c1145bb0347402eb0a0d9b6a65b54a3e0e14c0ca7d66", 0),
    ("scan", "sl2_2_gf2"): (
        "34a0a09977591a7bd02eed5657c6d9c36966195d45e93b351d0aa1171b31f343",
        "5be0316984da024a4a6d890e47d9bb0f8eae729f21793fcdc6ed88b1c3100522", 0),
    ("construct", "sl2_2_gf2"): (
        "60e8d4039a22cbab2ce5f0fc7fbf265288026f9c93870860f90430909e8bf3ad",
        "48d5e733bc4308ed255e37ecf76f38f91e71f08b34c05e9011e4fc3c46470a58", 0),
    ("check", "sl2_3_gf3"): (
        "7a245a5b1cfbade104115f9d11e7d2e350b8ffd0143aff00f738c9de44c7d721",
        "961bbe611591c2aa2ac4354ee269c6252c7641a5e89cb541a1fdf10132230ac7", 0),
    ("scan", "sl2_3_gf3"): (
        "a4fc63db4cae60bd7acd6c4674dd597687f41ddcd0cb622be8af5d4c2a7a4672",
        "3a7085da15ac925a6bdb91a1c71f89e96e6a9086f8450748afc3d5f7bb427cef", 0),
    ("construct", "sl2_3_gf3"): (
        "107f089fed40a48d076a496656c731adf2ad2ed1f0b0ac782df12a9562a52d88",
        "bc27de091fc9acbccf7234a321ddab2a0f9efff9b512e2232b6d31b701f60568", 0),
    ("check", "sl2_5_gf5"): (
        "5cef49b2e0625c77c5bbbea166e36911e0e964956e4207f237668a0d8cb0303e",
        "bc812cbab58599e7a39d309f817e0d0ae44c8a0b0fa98d22fa3f8aaaccd93602", 0),
    ("scan", "sl2_5_gf5"): (
        "01c02d809d725e844cbe5d4e37737d8423840ef075386801d8e5fb25f72b8f3f",
        "1aa954969179ab45850e70b9654a10609552a71f944c963add64963057caec89", 0),
}


# (command, bench document, flags): (report sha256, stdout sha256, exit code)
BENCH_DIGESTS = {
    ("construct", "gl2_3_gf3_defining", ("--k-max", "0")): (
        "0f4293d4af4663a528ef6fb00a0a4415d8e2f049912cb9b2eb3efb95c9e6330c",
        "fc8e9988530e7719f1d0904956d0eab063b6bd105dc31aea13981060bd85f2df", 0),
    ("scan", "b3_gf7", ("--m-max", "8", "--molien", "on")): (
        "e8f2f3c5e4f6fe1181b9f483c5e0b17d7fe4f95e1e28e047679d5739826ce951",
        "55b1e0cb4389b2aade3dc71eb9e60add0f3c38c8be2ab3e0f006010596645860", 0),
}


# (command, document stem, flags): (report sha256, stdout sha256, exit code)
SHIFT_DIGESTS = {
    ("construct", "q8_gf5", ("--k-max", "2")): (
        "54663a4099181ea8fbc2ce21972ab8aba06b35466861fa88b68e806a124b5c15",
        "944317b574c985b2eb72507222e36fc0f4c25865e8dc032871e1368de4751944", 0),
    ("construct", "sl2_3_gf3", ("--k-max", "2")): (
        "f3b676d4d612770e688c5dbe8f1dce88e42d1cecf6913cc9fb5bfd1df2daa716",
        "19401fc43c0ed818bd26801847a5f49578f607bc5a3b3e995a826632d69e81ca", 0),
}


_ONE, _ZERO = [1, 0], [0, 0]    # GF(4) coefficient lists
_S3_GF4_GENS = [[[_ONE, _ONE], [_ZERO, _ONE]], [[_ZERO, _ONE], [_ONE, _ZERO]]]

# kept out of problems/, whose documents the corpus table must match
INLINE_DOCS = {
    "c3_gf2": {
        "schema": "symmpow-v1",
        "field": {"p": 2, "f": 1},
        "generators": [[[0, 1], [1, 1]]],
        "modules": [{"label": "defining", "images": [[[0, 1], [1, 1]]]}],
    },
    "s3_gf4": {
        "schema": "symmpow-v1",
        "field": {"p": 2, "f": 2},
        "generators": _S3_GF4_GENS,
        "modules": [{"label": "defining", "images": _S3_GF4_GENS},
                    {"label": "trivial", "images": [[[_ONE]], [[_ONE]]]}],
    },
    "c6_nc": {
        "schema": "symmpow-v1",
        "field": {"p": 7, "f": 1},
        "generators": [[[2, 0], [0, 4]], [[6, 0], [0, 6]]],
        "modules": [{"label": "trivial", "images": [[[1]], [[1]]]},
                    {"label": "odd", "images": [[[2]], [[6]]]},
                    {"label": "even", "images": [[[4]], [[1]]]}],
    },
    "z2_dim2": {
        "schema": "symmpow-v1",
        "field": {"p": 7, "f": 1},
        "generators": [[[3, 0], [0, 3]]],
        "modules": [{"label": "chi0", "images": [[[1]]]},
                    {"label": "chi1", "images": [[[3]]]},
                    {"label": "chi3", "images": [[[6]]]}],
    },
    "c19_gf7": {
        "schema": "symmpow-v1",
        "field": {"p": 7, "f": 1},
        "generators": [[[0, 0, 1], [1, 0, 0], [0, 1, 2]]],
        "modules": [
            {"label": "defining", "images": [[[0, 0, 1], [1, 0, 0],
                                              [0, 1, 2]]]},
            {"label": "trivial", "images": [[[1]]]}],
        "options": {"k_max": 0},
    },
}

# (command, inline document): (report sha256, stdout sha256, exit code)
INLINE_DIGESTS = {
    ("check", "c3_gf2"): (
        "704b2096146407afcabe79d54d66f73f83513c4bf906927dcab2b27d5fd18a59",
        "c67d185600f6182c047d01f5b12f3f64956306126197f5daee37c685b724df97", 0),
    ("scan", "c3_gf2"): (
        "4c1a4c538440501fbfa32bfdac789d8dc9801090b0f45cf29656a4c0c3a27a1a",
        "4cda10f53be7a698afcfaf8f245edc0e14f38bf156529dc438bb62d2f0f73004", 0),
    ("construct", "c3_gf2"): (
        "3d7c00306e3a7152bf3c02be65ee8fbe2101f8fdc06b6e17929ba75f6f6203e9",
        "242b6a1f6f94083d91d1ef3e6895f597d8dbdd6acdecd391a01ec53c3e90921f", 0),
    ("check", "s3_gf4"): (
        "3ac7ff41cefb63fd210d7be4812c1e653eb254f0e6a4da43a893f9907eba68e0",
        "5775c8dad361666db882d430f07610f56f18afd02d9cf09368c2918a17cb0d61", 0),
    ("scan", "s3_gf4"): (
        "8eded4d10dd7ab308bd580cc8b47ff309ab5cf6dd701b508a1b716a46b05d495",
        "f3d109869801e3b029e456e9fb75918ec3c69ac6bf42c19bcc2cc00d9ed6f180", 0),
    ("construct", "s3_gf4"): (
        "bc80d05bda4cd3ee9ea3520cc66ace8fa0265354c154796ceda520ad63bae57d",
        "f2aa0f2c667f95f0627acc15ce7778dcf7251250641f0b0a5162ae8ea4cc3e81", 0),
    ("check", "c6_nc"): (
        "2f04859a43f5be91c1655dd774c9781b22975f3020dd02d1939ea99f5be9fee2",
        "d67dd58705a21e947f23ea61a7c185de6323d3da95af66c5c9d4031abe1128a9", 0),
    ("scan", "c6_nc"): (
        "6bf6e4e48ec959c8071627a209acf3edb05b1ad59fc8fd3bb59db807235e9e47",
        "94baba0c36f9a2b580313328d0e8782b8943bb68af9dcb1d0da26b6ed7c98f31", 0),
    ("construct", "c6_nc"): (
        "e12bddd95b6ac18968eadc2f5b6678507953e7e1be559b11be0390d0a0734dd5",
        "70a34d710dcc8d15d1fc25e07dcdc811fdb8da175b2126b08e3a9a119baf2d51", 0),
    ("check", "z2_dim2"): (
        "5222e99aaca12dfbf8602ed899316284ffe82bdf920f2f73aa645af26be2e729",
        "5691224bbb09ded203aad7af8a4266d51171791fdabf9666a3b6083a081e5188", 0),
    ("scan", "z2_dim2"): (
        "b05015d7699eefd35c763ef73231c713e37b31386b105c0f66f800ea1bf2f7a5",
        "83b016c744dc59673db99c03eb63368e575c80688a71dd53a05e47e42567a84a", 0),
    ("construct", "z2_dim2"): (
        "80823717e04ca75fc3b282de78991af9e374bfb38cf7ef17725f57fe73742442",
        "5afbc01a507d6b7395907c231f4d58dcc1f4d1e5e0c7c8610bb54eed49cbb8df", 0),
    ("check", "c19_gf7"): (
        "c30f4e357997b0f0cae98c38eaf664607321988777a5a97bda2d9003b4036590",
        "44d5ce6b356ba41b8cfc024b0578b95ff50789240b62104cef85c40a1607fa77", 0),
    ("scan", "c19_gf7"): (
        "e9e688af60c3fb4137053e9326fd695aa473ee90dc6f2197e8d3aa0b1849f9ab",
        "dbe90bea8edca15fe00bcf964f7d614648cae12e0fafa53e3eda1c01b00b5529", 0),
    ("construct", "c19_gf7"): (
        "bd1a4b05458dcde788c1d1cb71625b9f78f27ce3b76a91b0e9bf3693c498eebd",
        "c993d66e8edcf3c0956293ef7588194373412d9011bbbeec1edea28b60a14c77", 0),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digest(command: str, stem: str, flags=()):
    """Digests of one operation on problems/<stem>.json, or on the inline
    or bench document of that name when no such file is shipped."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        doc = PROBLEMS / f"{stem}.json"
        if not doc.exists():
            obj = INLINE_DOCS.get(stem) or _bench_inputs().load_doc(stem)
            doc = tmp / f"{stem}.json"
            doc.write_text(json.dumps(obj) + "\n")
        out = tmp / "report.json"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([command, "--input", str(doc), "--out", str(out),
                             *flags])
        return _sha(out.read_bytes()), _sha(buf.getvalue().encode()), code


def _bench_inputs():
    spec = importlib.util.spec_from_file_location("bench_inputs", BENCH_INPUTS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def corpus_operations():
    ops = []
    for path in sorted(PROBLEMS.glob("*.json")):
        ops += [("check", path.stem), ("scan", path.stem)]
        if path.stem != "sl2_5_gf5":     # order 120
            ops.append(("construct", path.stem))
    return ops


def test_digest_table_covers_the_corpus():
    assert sorted(DIGESTS) == sorted(corpus_operations())
    assert len(DIGESTS) == 23


@pytest.mark.parametrize("command,stem", sorted(DIGESTS))
def test_report_bytes_are_pinned(command, stem):
    assert run_digest(command, stem) == DIGESTS[command, stem]


@pytest.mark.parametrize("command,stem", sorted(INLINE_DIGESTS))
def test_inline_report_bytes_are_pinned(command, stem):
    assert run_digest(command, stem) == INLINE_DIGESTS[command, stem]


@pytest.mark.parametrize("command,stem,flags", sorted(BENCH_DIGESTS))
def test_bench_report_bytes_are_pinned(command, stem, flags):
    assert run_digest(command, stem, flags) == BENCH_DIGESTS[command, stem, flags]


@pytest.mark.parametrize("command,stem,flags", sorted(SHIFT_DIGESTS))
def test_two_shift_report_bytes_are_pinned(command, stem, flags):
    assert run_digest(command, stem, flags) == SHIFT_DIGESTS[command, stem, flags]


if __name__ == "__main__":
    for op in corpus_operations():
        report, stdout, code = run_digest(*op)
        print(f'    ("{op[0]}", "{op[1]}"): (\n        "{report}",\n'
              f'        "{stdout}", {code}),')
    for stem in INLINE_DOCS:
        for command in ("check", "scan", "construct"):
            report, stdout, code = run_digest(command, stem)
            print(f'    ("{command}", "{stem}"): (\n        "{report}",\n'
                  f'        "{stdout}", {code}),')
    for op in (("construct", "gl2_3_gf3_defining", ("--k-max", "0")),
               ("scan", "b3_gf7", ("--m-max", "8", "--molien", "on")),
               ("construct", "q8_gf5", ("--k-max", "2")),
               ("construct", "sl2_3_gf3", ("--k-max", "2"))):
        report, stdout, code = run_digest(*op)
        print(f'    {op!r}: (\n        "{report}",\n'
              f'        "{stdout}", {code}),')
