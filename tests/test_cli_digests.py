"""Byte identity of CLI output: the exit code and the sha256 of stdout of
each command below, recorded from the program and pinned here.

The commands cover `reproduce`, the cohomology of h_1..h_3 with
representatives at every degree, and the class, extension, deformation,
specialization, invariants and isomorphism commands on catalog cochains of
h_2 and on the t = 1 members of their deformations, `catalog emit` of
every family and `catalog list`.  Inputs come from `catalog emit` where it can write them (a
deformation file wraps an emitted cochain as its order-1 term); the rest,
such as a table that breaks the Jacobi identity or coefficient keys out of
index order, are the literal documents in LITERALS.  A change that alters
one of these outputs on purpose records the new digest here and says why.

`PYTHONPATH=src python tests/test_cli_digests.py` prints the DIGESTS line of
every case as the program now computes it.
"""

import contextlib
import hashlib
import io
import json

import pytest

from liedeform.cli import main

# name: (catalog object, --params), for the cochains of h_2.
POINTS = {
    "phi3": ("phi3", None),
    "phi6_10": ("phi6", "1,0"),
    "phi8_010": ("phi8", "0,1,0"),
    "phi8_100": ("phi8", "1,0,0"),
    "phi6_00": ("phi6", "0,0"),
}
# name: (family, --params) of the member at t = 1.
MEMBERS = {
    "d4": ("phi4", "0,0"),
    "d5": ("phi5", "0,0"),
    "d6": ("phi6", "0,0"),
    "d7": ("phi7", "0,0,0"),
}
EXTENDED = ("phi3", "phi8_010")  # points whose first extension step succeeds
# Parameters for `catalog emit` of each family that takes them.
FAMILY_PARAMS = {"phi4": "1,2", "phi5": "1,2", "phi6": "1,2", "phi7": "1,-1,2", "phi8": "0,1,1"}
FAMILIES = ["phi1", "phi2", "phi3", *FAMILY_PARAMS, *(f"h1_phi{k}" for k in range(1, 6))]
# Documents that `catalog emit` cannot write.
LITERALS = {
    # [e1,e2] = e1 + 2*e3 and [e2,e3] = e1 - 1/2*e2 break the Jacobi identity.
    "broken3": {
        "dim": 3,
        "brackets": [
            {"i": 1, "j": 2, "coeffs": {"1": "1", "3": "2"}},
            {"i": 2, "j": 3, "coeffs": {"1": "1", "2": "-1/2"}},
        ],
    },
    "abelian3": {"dim": 3, "brackets": []},
    "keys_out_of_order": {"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1", "1": "2"}}]},
    "keys_2_10": {"dim": 11, "brackets": [{"i": 1, "j": 3, "coeffs": {"10": "1", "2": "-1"}}]},
    # e^4 wedge e^5 (x) e_5 on h_2, which is not a cocycle.
    "e45_5": {"q": 2, "dim": 5, "entries": [{"args": [4, 5], "coeffs": {"5": "1"}}]},
    # [e1,e2] = e3 inline, with no name, deformed by t*(e1 - e3): the member at
    # t = 1 has [e1,e2] = e1, its e3 coefficient cancelled.
    "def_inline": {
        "base": {"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1"}}]},
        "terms": [
            {
                "order": 1,
                "cochain": {
                    "q": 2,
                    "dim": 3,
                    "entries": [{"args": [1, 2], "coeffs": {"1": "1", "3": "-1"}}],
                },
            }
        ],
    },
    # [e1,e2] = e3 plus [e1,e3] = e1 on h_2: a sum of two representatives that
    # `deform` finds obstructed at order 2, with the obstruction (e1,e2,e3) -> e3.
    "x02": {
        "q": 2,
        "dim": 5,
        "entries": [
            {"args": [1, 2], "coeffs": {"3": "1"}},
            {"args": [1, 3], "coeffs": {"1": "1"}},
        ],
    },
    "identity5": {"rows": [["1" if i == j else "0" for j in range(5)] for i in range(5)]},
    # phi5(0:0) + phi8(0:1:1) on h_2: a cocycle whose order-2 defect has a nonzero class.
    "def_obstructed": {
        "base": "h2",
        "terms": [
            {
                "order": 1,
                "cochain": {
                    "q": 2,
                    "dim": 5,
                    "entries": [
                        {"args": [2, 3], "coeffs": {"1": "2", "2": "1", "4": "1"}},
                        {"args": [2, 4], "coeffs": {"1": "1", "2": "1"}},
                    ],
                },
            }
        ],
    },
}


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


def emit(path, argv):
    rc, text = run(["catalog", "emit", *argv])
    assert rc == 0
    path.write_text(text, encoding="utf-8")


def write_inputs(directory):
    """Write every input file into directory, through the CLI; {name: path}."""
    paths = {}

    def add(name, argv):
        paths[name] = str(directory / f"{name}.json")
        emit(directory / f"{name}.json", argv)

    for n in (1, 2, 3):
        add(f"h{n}", [f"h{n}"])
    for name, (obj, params) in POINTS.items():
        add(name, [obj] + (["--params", params] if params else []))
        term = {"order": 1, "cochain": json.loads((directory / f"{name}.json").read_text())}
        paths[f"def_{name}"] = str(directory / f"def_{name}.json")
        (directory / f"def_{name}.json").write_text(json.dumps({"base": "h2", "terms": [term]}))
    for name, (family, params) in MEMBERS.items():
        add(name, [family, "--params", params, "--deformed"])
    for name in ("phi4", "phi5", "phi6", "phi7", "phi8"):
        add(f"{name}_sym", [name, "--symbolic"])
    for name, doc in LITERALS.items():
        paths[name] = str(directory / f"{name}.json")
        (directory / f"{name}.json").write_text(json.dumps(doc))
    for name in EXTENDED:
        rc, text = run(["extend", paths[f"def_{name}"], "--json"])
        assert rc == 0
        paths[f"ext_{name}"] = str(directory / f"ext_{name}.json")
        (directory / f"ext_{name}.json").write_text(json.dumps(json.loads(text)["deformation"]))
    # The order-2 defect of phi8(0:1:0) is a coboundary, so its check finds a preimage.
    rc, text = run(["deform", paths["h2"], paths["phi8_010"], "--json"])
    assert rc == 1
    paths["defect_phi8_010"] = str(directory / "defect_phi8_010.json")
    defect = json.loads(text)["defects"]["orders"][1]["defect"]
    (directory / "defect_phi8_010.json").write_text(json.dumps(defect))
    return paths


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """{name: path} of every input file, written through the CLI."""
    return write_inputs(tmp_path_factory.mktemp("digest_inputs"))


def digest(argv, inputs):
    """(exit code, sha256 of stdout) of argv with its input names filled in."""
    rc, out = run([arg.format(**inputs) for arg in argv])
    return rc, hashlib.sha256(out.encode("utf-8")).hexdigest()


def cases():
    """(id, argv) with input names in braces."""
    yield "reproduce", ["reproduce"]
    yield "reproduce-json", ["reproduce", "--json"]
    for n, top in ((1, 3), (2, 5), (3, 7)):
        for q in range(top + 1):
            argv = ["cohomology", f"{{h{n}}}", str(q), "--representatives", "--json"]
            yield f"cohomology-h{n}-{q}", argv
    yield "cohomology-h2-2-text", ["cohomology", "{h2}", "2", "--representatives"]
    for point in ("phi3", "phi6_10", "phi8_010", "phi8_100"):
        for fmt in ((), ("--json",)):
            tag = point + ("-json" if fmt else "")
            yield f"check-coboundary-{tag}", ["check-coboundary", "{h2}", f"{{{point}}}", *fmt]
            yield f"deform-{tag}", ["deform", "{h2}", f"{{{point}}}", *fmt]
            yield f"extend-{tag}", ["extend", f"{{def_{point}}}", *fmt]
            yield f"specialize-{tag}", ["specialize", f"{{def_{point}}}", *fmt]
        yield f"specialize-{point}-half", ["specialize", f"{{def_{point}}}", "--t", "1/2", "--json"]
    yield "deform-x02-json", ["deform", "{h2}", "{x02}", "--json"]
    yield "check-coboundary-defect", ["check-coboundary", "{h2}", "{defect_phi8_010}"]
    yield "check-coboundary-defect-json", ["check-coboundary", "{h2}", "{defect_phi8_010}", "--json"]
    yield "extend-obstructed", ["extend", "{def_obstructed}"]
    yield "extend-inline-json", ["extend", "{def_inline}", "--json"]
    yield "specialize-inline", ["specialize", "{def_inline}"]
    yield "specialize-inline-half-json", ["specialize", "{def_inline}", "--t", "1/2", "--json"]
    yield "extend-obstructed-json", ["extend", "{def_obstructed}", "--json"]
    for point in EXTENDED:
        yield f"extend-again-{point}", ["extend", f"{{ext_{point}}}", "--json"]
        yield f"specialize-extended-{point}", ["specialize", f"{{ext_{point}}}", "--json"]
    pairs = [
        ("phi3", "phi6_10"),
        ("phi6_10", "phi8_010"),
        ("phi8_010", "phi8_100"),
        ("phi8_010", "phi6_00"),
        ("phi8_100", "phi8_100"),
    ]
    for a, b in pairs:
        yield f"class-eq-{a}-{b}", ["class-eq", "{h2}", f"{{{a}}}", f"{{{b}}}"]
    equal = ["class-eq", "{h2}", "{phi8_010}", "{phi6_00}", "--json"]
    yield "class-eq-phi8_010-phi6_00-json", equal
    yield "span-points", ["span", "{h2}", "{phi3}", "{phi6_10}", "{phi8_010}", "{phi8_100}"]
    yield "span-equal-classes", ["span", "{h2}", "{phi8_010}", "{phi6_00}", "--json"]
    for name in MEMBERS:
        yield f"invariants-{name}", ["invariants", f"{{{name}}}", "--json"]
    yield "invariants-d5-text", ["invariants", "{d5}"]
    yield "invariants-h3", ["invariants", "{h3}", "--json"]
    transvection = ["--class", "monomial_plus_one_transvection"]
    yield "iso-d5-d6", ["iso", "search", "{d5}", "{d6}", *transvection, "--json"]
    yield "iso-d4-d7", ["iso", "search", "{d4}", "{d7}", "--class", "diagonal_signs", "--json"]
    yield "iso-d5-d5", ["iso", "search", "{d5}", "{d5}", "--class", "monomial"]
    yield "iso-verify-d5-d5-json", ["iso", "verify", "{d5}", "{d5}", "--map", "{identity5}", "--json"]
    for algebra in ("h2", "broken3"):
        for fmt in ((), ("--json",)):
            tag = algebra + ("-json" if fmt else "")
            yield f"jacobi-{tag}", ["jacobi", f"{{{algebra}}}", *fmt]
    for cochain in ("phi4_sym", "phi5_sym", "phi6_sym", "phi7_sym", "phi8_sym", "e45_5"):
        for fmt in ((), ("--json",)):
            tag = cochain + ("-json" if fmt else "")
            yield f"check-cocycle-{tag}", ["check-cocycle", "{h2}", f"{{{cochain}}}", *fmt]
    for family in FAMILIES:
        params = ["--params", FAMILY_PARAMS[family]] if family in FAMILY_PARAMS else []
        yield f"catalog-{family}", ["catalog", "emit", family, *params]
        yield f"catalog-{family}-deformed", ["catalog", "emit", family, *params, "--deformed"]
        if family in FAMILY_PARAMS:
            yield f"catalog-{family}-symbolic", ["catalog", "emit", family, "--symbolic"]
    # phi8(0:1:0) has no Lie member: exit 1 with nothing on stdout, as `specialize`.
    yield "catalog-phi8_010-deformed", ["catalog", "emit", "phi8", "--params", "0,1,0", "--deformed"]
    yield "catalog-representatives", ["catalog", "emit", "representatives"]
    yield "catalog-list", ["catalog", "list"]
    for algebra in ("h3", "abelian3", "keys_out_of_order", "keys_2_10"):
        yield f"invariants-{algebra}-text", ["invariants", f"{{{algebra}}}"]


CASES = dict(cases())

# id: (exit code, sha256 of stdout)
DIGESTS = {
    'catalog-h1_phi1': (0, 'c0a0b25ed629b57a12083c252062098c39c613ec75b67b3773d073a82d87d3b2'),
    'catalog-h1_phi1-deformed': (0, 'cb149b8a2dfd46aea9baaed1d2c5a31e6c90f758bcfd9f48ef4e1ee6ebb9d9d5'),
    'catalog-h1_phi2': (0, 'cf26b38856c74b1f3b330d038777767378ad75146f3b95fb30f4a7d72772b031'),
    'catalog-h1_phi2-deformed': (0, '2abfbb602f512b4055a849315682dc0f165294c04602b9e7484a976163ae6006'),
    'catalog-h1_phi3': (0, 'ffe1ab167b69c46dd47357414d66d8480dd79a29e7fc56aff617d74a92c88ab2'),
    'catalog-h1_phi3-deformed': (0, '7f03ae72633e4af3115b412a53db63bb9476a09a9ea6f7a53631c3ed703cdef4'),
    'catalog-h1_phi4': (0, '31a14bfe13480e6565d367e5bed139024b4ed037e82e297d892b42aaa34f73b8'),
    'catalog-h1_phi4-deformed': (0, 'bef1360ca7edf5075a8b2dc26b4a7f5c3cfaec99aa2b9d8ed17238b58a959d7d'),
    'catalog-h1_phi5': (0, '2cb47c8c78c78df34c9e7f9da3829a24f1593051290cbdd132a894329a301da4'),
    'catalog-h1_phi5-deformed': (0, '8a36a36fb88314d0fffd14e9f9d64be1b9464c3d9ce739eacde07a4c0199bcdb'),
    'catalog-list': (0, '272828ad7891a1c57ae5aeb23dc85b0a1c714c35e7a15bbc804cfa50aaba98f7'),
    'catalog-phi1': (0, 'f6fc7d24af65134bbd2e8b47cea111e1f48c29486ee2d528cf247f71d523402b'),
    'catalog-phi1-deformed': (0, '02d33c3a19f3ed9f437a6e2d33ee27f3e5a75ee0a34b4cac4432c79ee20c6013'),
    'catalog-phi2': (0, '652cbdde63784d00cfea70e32f83ad2715999aeaca3626f2a28118f7d0858900'),
    'catalog-phi2-deformed': (0, '28ecafce0d19add4b8abc89be75c46cc5ed6759873015cb82dabc24a11abf01d'),
    'catalog-phi3': (0, '83cae93e6f9108b303f874582bfce81412378788e3c80c44b792dafa661332d4'),
    'catalog-phi3-deformed': (0, '4ea1163eaf352766feb864493634554237462e36ed4d17c1c17bcc8c6705ccc0'),
    'catalog-phi4': (0, '1b7ed86c75b68f364e41170952d06adcb71f28061c0571ae30601d845036e825'),
    'catalog-phi4-deformed': (0, '583c00d182455609636165d929eba7fe5d1c2d599bf98cbf8fcf1ef43d120af1'),
    'catalog-phi4-symbolic': (0, 'd6d53a14dc0127738d6dab36739b44a37b8f65b97e9aff16e604ff4de1f71625'),
    'catalog-phi5': (0, '80fe0a4f8401382a408c94ab6768f5b519159bdee032f0d37a9760d790acf526'),
    'catalog-phi5-deformed': (0, '25019c98fedcfb23bb46e6db1f48486128f1a44f3a2684a5927ac3b2b3a14a1d'),
    'catalog-phi5-symbolic': (0, '256ba557aa9ed359dfe9de8946341ad43a98187dbb3772fa3e7ec7d94005d304'),
    'catalog-phi6': (0, '7220084b1dc67022b7668243d64955715d457e1fe68d0db3c320ae959957de1d'),
    'catalog-phi6-deformed': (0, 'a80b412e9f3d649d294cfb96dd581c2a739dc7932aa94053f897a07051ca73b2'),
    'catalog-phi6-symbolic': (0, 'b3f7f516054ac2feca7ce5f9f7cdebf961714c9b236bf9a42ab2758850b53faa'),
    'catalog-phi7': (0, 'd4d6fa311c3acd9d597d4fb1719fc238b8f6410bbfa7af663946b8c2bdfe3b93'),
    'catalog-phi7-deformed': (0, 'ffd39d465a3b979db0890499d8521dd3a180e5424f57a73a0949a2ca2eb38684'),
    'catalog-phi7-symbolic': (0, '5997f1bf7180c44445b6f625a960e6a0c2e0a675177fa0cfcc74dd9e5aed9f9c'),
    'catalog-phi8': (0, '4cded7909b0147eb5a59bdcbc5312046dbb5344e24f78bbe0e653522e87c6955'),
    'catalog-phi8-deformed': (0, '51b85e45bfcd94188413d71331453b1cb60b036e16d7b57573adc1c1d3c959cf'),
    'catalog-phi8-symbolic': (0, '4681e92863c3d1ef81706dc46f6514af6db92fc41e8f9ad3815607c442495a63'),
    'catalog-phi8_010-deformed': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'catalog-representatives': (0, '51a7cd6db8c3a8dfe6a06153e5a2205398f3179986a0f34a0bbd79deb6174053'),
    'check-coboundary-defect': (0, '015fc03a11a8dad23d375258c8a94b03fc22e17e510eb4ab6d9126f9f8342883'),
    'check-coboundary-defect-json': (0, '29a6cdfab3b4a9d5ed7add23938ca75806ba5853876cc3ae072e0384f8b9a3ed'),
    'check-coboundary-phi3': (1, 'b791d36868283ab672e05467c94ff99d39cfcbcb68a5b556a37bc4abccf1dcd2'),
    'check-coboundary-phi3-json': (1, 'c5a82ef43a49b2d07af104e2ef442edec7acef30b61542b3d0142b0efa6dfdad'),
    'check-coboundary-phi6_10': (1, 'b791d36868283ab672e05467c94ff99d39cfcbcb68a5b556a37bc4abccf1dcd2'),
    'check-coboundary-phi6_10-json': (1, 'c5a82ef43a49b2d07af104e2ef442edec7acef30b61542b3d0142b0efa6dfdad'),
    'check-coboundary-phi8_010': (1, 'b791d36868283ab672e05467c94ff99d39cfcbcb68a5b556a37bc4abccf1dcd2'),
    'check-coboundary-phi8_010-json': (1, 'c5a82ef43a49b2d07af104e2ef442edec7acef30b61542b3d0142b0efa6dfdad'),
    'check-coboundary-phi8_100': (1, 'b791d36868283ab672e05467c94ff99d39cfcbcb68a5b556a37bc4abccf1dcd2'),
    'check-coboundary-phi8_100-json': (1, 'c5a82ef43a49b2d07af104e2ef442edec7acef30b61542b3d0142b0efa6dfdad'),
    'check-cocycle-e45_5': (1, '245a98d775cb97199cac07f1f44b9350104fa20b76024d67c958d1b21d1c1603'),
    'check-cocycle-e45_5-json': (1, 'c0a14cb46521a5668d8b0fbf7472c65330ff5b81e9fa48724303aeaa39c57edf'),
    'check-cocycle-phi4_sym': (0, '6b1f4fc252898114e2763bed1e37b0c5a8f30c26725d8815c73a31d198611f1b'),
    'check-cocycle-phi4_sym-json': (0, 'c9ca966e8d52ba8da6ea56ee78c881f482829b0785b7c4c5506d881c7a74a69f'),
    'check-cocycle-phi5_sym': (0, '6b1f4fc252898114e2763bed1e37b0c5a8f30c26725d8815c73a31d198611f1b'),
    'check-cocycle-phi5_sym-json': (0, 'c9ca966e8d52ba8da6ea56ee78c881f482829b0785b7c4c5506d881c7a74a69f'),
    'check-cocycle-phi6_sym': (0, '6b1f4fc252898114e2763bed1e37b0c5a8f30c26725d8815c73a31d198611f1b'),
    'check-cocycle-phi6_sym-json': (0, 'c9ca966e8d52ba8da6ea56ee78c881f482829b0785b7c4c5506d881c7a74a69f'),
    'check-cocycle-phi7_sym': (0, '6b1f4fc252898114e2763bed1e37b0c5a8f30c26725d8815c73a31d198611f1b'),
    'check-cocycle-phi7_sym-json': (0, 'c9ca966e8d52ba8da6ea56ee78c881f482829b0785b7c4c5506d881c7a74a69f'),
    'check-cocycle-phi8_sym': (1, 'a3201b39aac1a381db2426f9f401df5e71dfa0c233e7e2aa8c44d1d9d083f561'),
    'check-cocycle-phi8_sym-json': (1, '192ad9107d1d485d9231a106c319b630e483538b212f5cff21016cb509bb2f8f'),
    'class-eq-phi3-phi6_10': (1, '3abda4837ccf1f9ded2060be28ee3ffc9c07dfebabfee24e7c47c6abe3976dd3'),
    'class-eq-phi6_10-phi8_010': (1, '3abda4837ccf1f9ded2060be28ee3ffc9c07dfebabfee24e7c47c6abe3976dd3'),
    'class-eq-phi8_010-phi6_00': (0, '8346964e9cd01e2d56b3c26fb5e87f8777e5344c572e758f1cdd8bf4879e8aaa'),
    'class-eq-phi8_010-phi6_00-json': (0, 'b5fb9537fd35a9486b0e639cd76484219aeb1d719b84dd11a56ca1d428e6b91e'),
    'class-eq-phi8_010-phi8_100': (1, '3abda4837ccf1f9ded2060be28ee3ffc9c07dfebabfee24e7c47c6abe3976dd3'),
    'class-eq-phi8_100-phi8_100': (0, '8346964e9cd01e2d56b3c26fb5e87f8777e5344c572e758f1cdd8bf4879e8aaa'),
    'cohomology-h1-0': (0, 'a4920370eab748487de67c00531625fbd4f47de83d1bb913066cf3812effdb55'),
    'cohomology-h1-1': (0, 'f095cf1b90d60bc432bfd31593ac35392dd8dcf8bc644eccbe15bc72c984105d'),
    'cohomology-h1-2': (0, 'eca920df85b04d22d144a4cf06aa62a5493893182b542ab5b5dd188be80fdfef'),
    'cohomology-h1-3': (0, 'fb7460137aad79613af5fdc8bfa22d26efe4127a7b82b2c72268a915a0331ebd'),
    'cohomology-h2-0': (0, 'a6858118aadc6fe85d79ee13efdfdff20e8f513f29d3efa557f61766a06b4838'),
    'cohomology-h2-1': (0, 'f373df0f1bb3e6723fa0af384e407bfa41939db64a21e6f5cec01b3b0ad03745'),
    'cohomology-h2-2': (0, '9674293d1b525e3a2e9271700e08acf03fefe0e8fdf34d764dfaa213846fa519'),
    'cohomology-h2-2-text': (0, '4e3f1b97b252154fe089bd9e871b34847ac1b81dc12e10711c382b0df756417e'),
    'cohomology-h2-3': (0, 'da214a5363235c72be2f68c918703982bca73c6139800e2509e6ebc0d6c1de89'),
    'cohomology-h2-4': (0, '4077f92ac7c0f743c2b8d408cb92ca2d4686c67912b79e93ea9d14c7f212d48b'),
    'cohomology-h2-5': (0, 'd08d12915db0e654e1a013bc7d0785c45f89f426ed3e3eead64eff64810174d8'),
    'cohomology-h3-0': (0, 'cc065f99fe19de7f23385f40b0bc534e10ea500d63c52d461f40fbda888da094'),
    'cohomology-h3-1': (0, '6f3ffdeed2f53513291c97ad5d8b5e2b81c1d8fb22175078cae0a4ff6764cf96'),
    'cohomology-h3-2': (0, '71ba985955ad297d68eeb4d74a3d4536ffe8973e5fc903a66e3173d7a677b5ca'),
    'cohomology-h3-3': (0, 'aa53a81fe414469a5197f074105212e3b7fb4d425b5bf2c14da075ff18be5d6d'),
    'cohomology-h3-4': (0, '44520eb8dd897215f5d8bf4a3a13381dbde3d381c3a79d62fe9e2de784df3d95'),
    'cohomology-h3-5': (0, '2de4a17796366619573988185bd440e82ee84eb26080404e31f4b8713e90ec7e'),
    'cohomology-h3-6': (0, 'ee657522269586d7123c1123eabba422eb28a64d74bbc8fa5f49a3994eabe466'),
    'cohomology-h3-7': (0, '3126f16211f23be8b68753233da73f48721a7da3c53f7371fde98ddd514b1d1d'),
    'deform-phi3': (0, '193c977ace197f6ab231b255df7514ceea252b3d660d9e659c893307a62f3fbd'),
    'deform-phi3-json': (0, 'cc2fdee2a2569f5aa44a8876607a43ea4f499129caf5d8fb6490d52395571f7a'),
    'deform-phi6_10': (0, '5828d996f779ac6913fd72bcfa14c14b02f9e2aaeb82c9ff0dbb76305652b321'),
    'deform-phi6_10-json': (0, 'cc2fdee2a2569f5aa44a8876607a43ea4f499129caf5d8fb6490d52395571f7a'),
    'deform-phi8_010': (1, '6f941514ad6927d20e9d0cd85fc97d8beee0c6bd266eb05d4d927408a4eabf88'),
    'deform-phi8_010-json': (1, '26796b96a28766de4abb025dfeec51c20d85591f9223a783e50b27a54a185472'),
    'deform-phi8_100': (0, '5828d996f779ac6913fd72bcfa14c14b02f9e2aaeb82c9ff0dbb76305652b321'),
    'deform-phi8_100-json': (0, 'cc2fdee2a2569f5aa44a8876607a43ea4f499129caf5d8fb6490d52395571f7a'),
    'deform-x02-json': (1, 'acdc9d082cb9dc75905d739a34e0a42b165c441b0d8a3f9e072980c5430f2f3a'),
    'extend-again-phi3': (0, '3b5f5cd1f9e179d0f81a8fcafd334a63dea53be87949fcf4d89497912a05ab93'),
    'extend-again-phi8_010': (0, '51d8e3edc823fc29ca1c11f3ac5d82329f5f61786584409f9f5b0b14ee5e6022'),
    'extend-inline-json': (0, '38afe0d39cbee5da9fcf06f359063930b5a069d8acb0343f824d085f16ee7813'),
    'extend-obstructed': (1, '56134a8e11b32bf8df44b66c1a98ee863b8262a4db31966e5879b7986e21b899'),
    'extend-obstructed-json': (1, '6b40bf6c4993fe7adc7404d6fb48a3e3091e306452033ee95b33817fec6a32f4'),
    'extend-phi3': (0, 'a0c4fe4801ecec3ce36789aa00254404d3d4b51ca8879e351e607ad80bc598d0'),
    'extend-phi3-json': (0, '8ba08a0f0b8eff6a2938ba4ee333e8a27fbc5c2f8e6a09473665c9ad3f89d76d'),
    'extend-phi6_10': (0, 'a0c4fe4801ecec3ce36789aa00254404d3d4b51ca8879e351e607ad80bc598d0'),
    'extend-phi6_10-json': (0, 'c54945ea8f896499ff58ea85ee128799edda7001ba4325229b254561da0e674a'),
    'extend-phi8_010': (0, 'c9b9cd4f5b65a23712c4481913896b5cb5141eb6a89ead4c3e7de0207c6d4443'),
    'extend-phi8_010-json': (0, 'f11012052fb30c366ac82858c08bbb33b114d32b1b28bfed8eac15b89563769d'),
    'extend-phi8_100': (0, 'a0c4fe4801ecec3ce36789aa00254404d3d4b51ca8879e351e607ad80bc598d0'),
    'extend-phi8_100-json': (0, 'c54945ea8f896499ff58ea85ee128799edda7001ba4325229b254561da0e674a'),
    'invariants-abelian3-text': (0, '762e211a3beeb2e5cc53fba46e8d5937888624dc2862127cdbf89cc7341ed34c'),
    'invariants-d4': (0, '98fcdeb4e962592cb3ea947cadb1c0909bcdfccfe5e9d616ca7760999a45f5c4'),
    'invariants-d5': (0, '43802052685328a9996445e08d6df423520a558487b938e091cbf7d3fcd318df'),
    'invariants-d5-text': (0, '99ff961069d431579377af4028ed1af34a907a384ea73b67aecb7180ba1a23b0'),
    'invariants-d6': (0, '43802052685328a9996445e08d6df423520a558487b938e091cbf7d3fcd318df'),
    'invariants-d7': (0, '98fcdeb4e962592cb3ea947cadb1c0909bcdfccfe5e9d616ca7760999a45f5c4'),
    'invariants-h3': (0, 'f3ccc7d2de9b8f044eb8cb65dd6d96a56b772c7ab12d3a1a642116f37ad1140e'),
    'invariants-h3-text': (0, 'c378d4af7e64554c973f1f48c544cf0443449c357697bc33148651210f096ca4'),
    'invariants-keys_2_10-text': (0, '22039f48d8f09237c4a9616831abcf6f6febf5f315297ef504781f89733e0465'),
    'invariants-keys_out_of_order-text': (0, '85c7beb5601629814c7945560a726c2e4ae590f7aabdc5aa95e157a8b076e562'),
    'iso-d4-d7': (0, '97bb3f5466d968b4486c1c7af6c4c37894173557681b55b3875c4389e736e524'),
    'iso-d5-d5': (0, '415b6927862eab7f5c6d89138b57bd152ec803a03a5e7bb87952e562648006b9'),
    'iso-d5-d6': (1, 'a473231bb47f7b2ef5202851c1fe1697ded4db0e0f4e76b18a4cbda8fc11e02e'),
    'iso-verify-d5-d5-json': (0, '5e5a6bdb27b0187f1834e5b30f777334c6fb73a55a958ebc8984f4ad9060acbe'),
    'jacobi-broken3': (1, '32e2e366c89f0c6599c791fdac5cd64abd0855c44867b303061e74f06b1566e0'),
    'jacobi-broken3-json': (1, '8b51818788689e367520734aa51e501520932ff045d9ff09cf50e82bbdf7b70a'),
    'jacobi-h2': (0, '54daf2b94ebe99e77ae39d00aeb04a801efc7fbd932c2bf128417e85e1607e08'),
    'jacobi-h2-json': (0, '1bc74e199bcc58b41274850ff74d9609d82c2e26cb4a253d86acd73ceb545328'),
    'reproduce': (0, '7ec9abea1a2717d4e12aa10922cca915e605b40f77918a59b8bceb1e004efcf1'),
    'reproduce-json': (0, '8f65a96c47c05f5c3a4385d318f764dbb1603c90111eacaf825d91e682749bc9'),
    'span-equal-classes': (0, '9fc11784e4c0293966d8d3e26329eb0a17f1c108284af14f496f24f7fe5292ca'),
    'span-points': (0, '18d04fd54a7a8e8ff838b173c6ca577075466e09a4a2fe47470e986640fd22ab'),
    'specialize-extended-phi3': (0, '4ea1163eaf352766feb864493634554237462e36ed4d17c1c17bcc8c6705ccc0'),
    'specialize-extended-phi8_010': (0, 'a31fd109621c73da90c273a1a15fcb6bf7578bd028a74fc13cfa3980af85ab70'),
    'specialize-inline': (0, 'cfe0c9f8afd32b9b9a44fa3b280300bf25e4fcc267bda4490d344a589699bc46'),
    'specialize-inline-half-json': (0, '2857efecbedeca1ad6eddb5e675d96b8326308ad7ffb2822e1c39e37c974b588'),
    'specialize-phi3': (0, '0364ae092de6050c2600bdd11b3124c0cae83d8cbcf40fe302c9068cdaf22b7b'),
    'specialize-phi3-half': (0, '011c91da6e25c1c2eeb15c4393f9a36af70c447fb94c8c9a6caa43f8956a92e9'),
    'specialize-phi3-json': (0, '4ea1163eaf352766feb864493634554237462e36ed4d17c1c17bcc8c6705ccc0'),
    'specialize-phi6_10': (0, 'c3df6a5591a398f91ed7c693a80ef924af2b66cbe36fbbc2f5d8ba6a9310943a'),
    'specialize-phi6_10-half': (0, '2b1040bb8c8a15a067fe3fca9e63472127ee00a5210ec825709d9f65637d5c65'),
    'specialize-phi6_10-json': (0, 'be8459a6a46bc15c391d86ca368dd5aa0d73c61d4462038083f8e427c7ceb6b7'),
    'specialize-phi8_010': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'specialize-phi8_010-half': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'specialize-phi8_010-json': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'specialize-phi8_100': (0, 'c3df6a5591a398f91ed7c693a80ef924af2b66cbe36fbbc2f5d8ba6a9310943a'),
    'specialize-phi8_100-half': (0, '2b1040bb8c8a15a067fe3fca9e63472127ee00a5210ec825709d9f65637d5c65'),
    'specialize-phi8_100-json': (0, 'be8459a6a46bc15c391d86ca368dd5aa0d73c61d4462038083f8e427c7ceb6b7'),
}


def test_every_case_has_a_digest():
    assert sorted(CASES) == sorted(DIGESTS)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_is_byte_identical(case, inputs):
    assert digest(CASES[case], inputs) == DIGESTS[case]


if __name__ == "__main__":
    # Print the DIGESTS line of every case, recorded from the program as it is.
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(pathlib.Path(tmp))
        for case in sorted(CASES):
            print(f"    {case!r}: {digest(CASES[case], paths)!r},")
