"""CLI and file-format tests.

Most invocations call main() in process for speed; one subprocess test
covers the `python -m liedeform` entry point end to end.
"""

import argparse
import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liedeform
from liedeform import catalog
from liedeform.cli import COMMANDS, _read_argv, build_parser, main
from liedeform.cohomology import Cochain
from liedeform.deform import Deformation
from liedeform.exact import ExactMatrix
from liedeform.jsonio import (
    SchemaError,
    algebra_from_dict,
    algebra_to_dict,
    cochain_from_dict,
    cochain_to_dict,
    deformation_from_dict,
    deformation_to_dict,
    matrix_from_dict,
    matrix_to_dict,
)
from liedeform.liealg import LieAlgebra


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture()
def h2_file(tmp_path):
    return write(tmp_path, "h2.json", algebra_to_dict(catalog.heisenberg(2)))


@pytest.fixture()
def h1_file(tmp_path):
    return write(tmp_path, "h1.json", algebra_to_dict(catalog.heisenberg(1)))


def phi_file(tmp_path, name, params=None, symbolic=False, fname=None):
    c = catalog.phi(name, params, symbolic=symbolic)
    return write(tmp_path, fname or f"{name}.json", cochain_to_dict(c))


# -- round trips ---------------------------------------------------------------


def test_algebra_round_trip():
    for n in (1, 2, 3):
        A = catalog.heisenberg(n)
        assert algebra_from_dict(algebra_to_dict(A)) == A


def test_cochain_round_trip():
    for rep in catalog.paper_representatives():
        c = rep.cochain()
        assert cochain_from_dict(cochain_to_dict(c)) == c
    for c in catalog.h1_cocycles():
        assert cochain_from_dict(cochain_to_dict(c)) == c
    sym = catalog.phi("phi8", symbolic=True)
    assert cochain_from_dict(cochain_to_dict(sym)) == sym


def test_deformation_round_trip():
    D = Deformation(catalog.heisenberg(2), {1: catalog.phi("phi3")})
    doc = deformation_to_dict(D)
    back = deformation_from_dict(doc)
    assert back.base == D.base
    assert back.terms == D.terms
    assert doc["base"] == "h2"  # named base algebras serialize by reference


def test_matrix_round_trip():
    m = ExactMatrix([[Fraction(1, 2), 0], [3, -1]])
    assert matrix_from_dict(matrix_to_dict(m)) == m


def test_cochain_params_substitution():
    doc = cochain_to_dict(catalog.phi("phi4", symbolic=True))
    doc["params"] = {"p": "1", "q": "0"}
    assert cochain_from_dict(doc) == catalog.phi("phi4", (1, 0))


def test_schema_errors_have_locations():
    with pytest.raises(SchemaError) as err:
        algebra_from_dict({"dim": 3, "brackets": [{"i": 2, "j": 1, "coeffs": {}}]})
    assert "brackets[0].j" in str(err.value)
    with pytest.raises(SchemaError):
        cochain_from_dict({"q": 2, "dim": 3, "entries": [{"args": [1], "coeffs": {}}]})


# -- jacobi ----------------------------------------------------------------------


def test_cli_jacobi_valid(h2_file, capsys):
    assert main(["jacobi", h2_file]) == 0
    assert "valid" in capsys.readouterr().out


def test_cli_jacobi_violation(tmp_path, capsys):
    doc = {
        "dim": 3,
        "brackets": [
            {"i": 1, "j": 2, "coeffs": {"1": "1"}},
            {"i": 1, "j": 3, "coeffs": {"2": "1"}},
        ],
    }
    path = write(tmp_path, "broken.json", doc)
    assert main(["jacobi", path]) == 1
    assert "(1,2,3)" in capsys.readouterr().out


def test_cli_jacobi_schema_error(tmp_path, capsys):
    doc = {"dim": 3, "brackets": [{"i": 2, "j": 2, "coeffs": {"1": "1"}}]}
    path = write(tmp_path, "bad.json", doc)
    assert main(["jacobi", path]) == 2
    assert "brackets[0]" in capsys.readouterr().err


def test_cli_unreadable_file(capsys):
    assert main(["jacobi", "/nonexistent/nope.json"]) == 2


def test_cli_invalid_json(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["jacobi", str(path)]) == 2
    assert "line" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, message",
    [
        # json.load recurses once per bracket; too deep a file is refused, not a crash.
        (b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply"),
        ("{}".encode("utf-16"), "not UTF-8 text (invalid start byte)"),  # bytes ff fe {
    ],
    ids=["deeply-nested", "utf-16"],
)
def test_cli_unreadable_json_is_located_at_its_path(tmp_path, capsys, content, message):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    assert main(["jacobi", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {path}: {message}\n"


# -- invariants -------------------------------------------------------------------


def test_cli_invariants(h2_file, capsys):
    assert main(["invariants", h2_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["center_dim"] == 1
    assert doc["lower_central_series"] == [5, 1, 0]
    assert doc["solvable"] and doc["nilpotent"]


def test_cli_invariants_computes_each_series_once(h2_file, capsys, monkeypatch):
    calls = []
    series = LieAlgebra.series
    monkeypatch.setattr(
        LieAlgebra, "series", lambda A, kind: calls.append(kind) or series(A, kind)
    )
    assert main(["invariants", h2_file, "--json"]) == 0
    assert sorted(calls) == ["derived", "lower_central"]


PHI3_DEFORMATION = Deformation(catalog.heisenberg(2), {1: catalog.phi("phi3")})


def duplicated(doc, key, position):
    """doc with its list doc[key] extended by a copy of entry `position`."""
    return {**doc, key: [*doc[key], doc[key][position]]}


@pytest.mark.parametrize(
    "command, doc, location",
    [
        (
            "invariants",
            {
                "dim": 3,
                "brackets": [
                    {"i": 1, "j": 2, "coeffs": {"3": "1"}},
                    {"i": 1, "j": 2, "coeffs": {"3": "2"}},
                ],
            },
            "brackets[1]: duplicate bracket (1, 2)",
        ),
        (
            "check-cocycle",
            duplicated(cochain_to_dict(catalog.phi("phi3")), "entries", 0),
            "entries[4].args: duplicate args [1, 4]",
        ),
        (
            "specialize",
            duplicated(deformation_to_dict(PHI3_DEFORMATION), "terms", 0),
            "terms[1].order: duplicate order 1",
        ),
        (
            "jacobi",
            {"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1", "03": "5"}}]},
            "brackets[0].coeffs.03: duplicate index 3",
        ),
        (
            "invariants",
            {"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1", "03": "5"}}]},
            "brackets[0].coeffs.03: duplicate index 3",
        ),
    ],
    ids=["bracket", "cochain args", "deformation order", "coeff index jacobi", "coeff index invariants"],
)
def test_cli_duplicate_entries_are_input_errors(tmp_path, h2_file, capsys, command, doc, location):
    path = write(tmp_path, "dup.json", doc)
    argv = [command, h2_file, path] if command == "check-cocycle" else [command, path]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {location}\n"


@pytest.mark.parametrize(
    "command, text, key",
    [
        (
            "jacobi",
            '{"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"1": "1", "1": "5"}}]}',
            "1",
        ),
        ("invariants", '{"dim": 3, "dim": 4, "brackets": []}', "dim"),
        ("check-cocycle", '{"q": 2, "dim": 5, "entries": [], "entries": []}', "entries"),
    ],
    ids=["coeff key", "top-level key", "cochain key"],
)
def test_cli_repeated_json_keys_are_input_errors(tmp_path, h2_file, capsys, command, text, key):
    # json.load alone keeps the last of two equal keys.
    path = tmp_path / "repeated.json"
    path.write_text(text, encoding="utf-8")
    argv = [command, str(path)]
    if command == "check-cocycle":
        argv.insert(1, h2_file)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {path}: duplicate key {key!r}\n"


# -- cohomology -------------------------------------------------------------------


def test_cli_cohomology_h2(h2_file, capsys):
    assert main(["cohomology", h2_file, "2"]) == 0
    assert "dim H^2 = 20" in capsys.readouterr().out


def test_cli_cohomology_h1(h1_file, capsys):
    assert main(["cohomology", h1_file, "2"]) == 0
    assert "dim H^2 = 5" in capsys.readouterr().out


def test_cli_cohomology_h0(h2_file, capsys):
    assert main(["cohomology", h2_file, "0"]) == 0
    assert "dim H^0 = 1" in capsys.readouterr().out


def test_cli_cohomology_out_of_range(h2_file, capsys):
    assert main(["cohomology", h2_file, "9"]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cohomology", "{h2}", "9"], "degree 9 out of range 0..5"),
        (["span", "{h2}", "{c1}", "{c2}"], "all cochains must share one degree"),
        (["deform", "{h2}", "{c1}"], "the infinitesimal term must be a 2-cochain"),
    ],
)
def test_cli_input_errors_share_the_prefixed_message(tmp_path, h2_file, capsys, argv, message):
    files = {
        "h2": h2_file,
        "c1": write(tmp_path, "c1.json", cochain_to_dict(Cochain.zero(1, 5))),
        "c2": phi_file(tmp_path, "phi3"),
    }
    assert main([arg.format(**files) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


def test_cli_cohomology_representatives_json(h1_file, capsys):
    assert main(["cohomology", h1_file, "2", "--representatives", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim_H"] == 5
    assert len(doc["representatives"]) == 5
    for rep_doc in doc["representatives"]:
        cochain_from_dict(rep_doc)  # schema-valid cochain files


# -- cochain predicates -------------------------------------------------------------


def test_cli_check_cocycle(h2_file, tmp_path, capsys):
    good = phi_file(tmp_path, "phi3")
    assert main(["check-cocycle", h2_file, good]) == 0
    sym = phi_file(tmp_path, "phi8", symbolic=True)
    assert main(["check-cocycle", h2_file, sym]) == 1
    out = capsys.readouterr().out
    assert "p*q" in out and "p*r" in out  # the p(q-r) constraint
    # with q = r substituted the same file becomes a cocycle
    doc = cochain_to_dict(catalog.phi("phi8", symbolic=True))
    doc["params"] = {"p": "2", "q": "3", "r": "3"}
    subst = write(tmp_path, "phi8sub.json", doc)
    assert main(["check-cocycle", h2_file, subst]) == 0


def test_cli_check_cocycle_rejects_a_sign_that_begins_no_term(h1_file, tmp_path, capsys):
    # Read as p + q = 2, the entry would make a multiple of a cocycle of h_1.
    doc = {
        "q": 2,
        "dim": 3,
        "entries": [{"args": [2, 3], "coeffs": {"1": "p -+ q"}}],
        "params": {"p": "1", "q": "1"},
    }
    assert main(["check-cocycle", h1_file, write(tmp_path, "signs.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: entries[0].coeffs.1: bad scalar 'p -+ q'")


def test_cli_check_coboundary(h1_file, tmp_path, capsys):
    c = catalog.h1_cocycles()[0]
    path = write(tmp_path, "c.json", cochain_to_dict(c))
    assert main(["check-coboundary", h1_file, path]) == 1
    assert "not a coboundary" in capsys.readouterr().out
    zero = write(tmp_path, "zero.json", cochain_to_dict(Cochain.zero(2, 3)))
    assert main(["check-coboundary", h1_file, zero]) == 0


def test_cli_check_coboundary_of_another_dimension(h2_file, tmp_path, capsys):
    c = write(tmp_path, "c.json", cochain_to_dict(catalog.h1_cocycles()[0]))
    assert main(["check-coboundary", h2_file, c]) == 2
    assert "input error: cochain dimension does not match the algebra" in capsys.readouterr().err


def test_cli_class_eq(h2_file, h1_file, tmp_path, capsys):
    a = write(tmp_path, "a.json", cochain_to_dict(catalog.phi("phi8", (0, 0, 0))))
    b = write(tmp_path, "b.json", cochain_to_dict(catalog.phi("phi6", (0, 0))))
    assert main(["class-eq", h2_file, a, b]) == 0
    one = write(tmp_path, "h1a.json", cochain_to_dict(catalog.h1_cocycles()[0]))
    two = write(tmp_path, "h1b.json", cochain_to_dict(catalog.h1_cocycles()[1]))
    assert main(["class-eq", h1_file, one, two]) == 1
    # non-cocycle input is an input error, not a mathematical negative
    bad = write(
        tmp_path, "bad.json",
        cochain_to_dict(Cochain(2, 5, {(3, 4): {4: 1}})),
    )
    assert main(["class-eq", h2_file, a, bad]) == 2


def test_cli_span(h2_file, tmp_path, capsys):
    files = [
        phi_file(tmp_path, "phi4", (1, 0), fname="a.json"),
        phi_file(tmp_path, "phi4", (0, 1), fname="b.json"),
        phi_file(tmp_path, "phi4", (0, 0), fname="c.json"),
    ]
    assert main(["span", h2_file, *files, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["span_in_H"] == 3


# -- deformations ----------------------------------------------------------------


def test_cli_deform_real(h2_file, tmp_path, capsys):
    path = phi_file(tmp_path, "phi3")
    assert main(["deform", h2_file, path]) == 0
    assert "exact Lie bracket (real deformation)" in capsys.readouterr().out


def test_cli_deform_obstructed(h2_file, tmp_path, capsys):
    path = phi_file(tmp_path, "phi8", (0, 1, 0), fname="obstructed.json")
    assert main(["deform", h2_file, path]) == 1
    out = capsys.readouterr().out
    assert "obstructed at order 2" in out


def test_cli_deform_verdict_has_no_order_argument(h2_file, tmp_path, capsys):
    path = phi_file(tmp_path, "phi8", (0, 1, 0), fname="obstructed.json")
    assert main(["deform", h2_file, path, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["obstructed_at"] == 2
    assert [o["order"] for o in doc["defects"]["orders"]] == [1, 2]
    dpath = write(tmp_path, "def.json", deformation_to_dict(
        Deformation(catalog.heisenberg(2), {1: catalog.phi("phi3")})
    ))
    for argv in (
        ["deform", h2_file, path],
        ["extend", dpath],
        ["specialize", dpath],
        ["catalog", "emit", "phi3", "--deformed"],
        ["reproduce"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--max-order", "1"])
        assert exc.value.code == 2


def test_cli_deform_trivial(h2_file, tmp_path, capsys):
    path = write(tmp_path, "zero.json", cochain_to_dict(Cochain.zero(2, 5)))
    assert main(["deform", h2_file, path]) == 0


def test_cli_deform_non_cocycle(h2_file, tmp_path, capsys):
    path = write(
        tmp_path, "bad.json",
        cochain_to_dict(Cochain(2, 5, {(3, 4): {4: 1}})),
    )
    assert main(["deform", h2_file, path]) == 1
    assert "not a cocycle" in capsys.readouterr().out


def test_cli_extend_and_specialize(tmp_path, capsys):
    D = Deformation(catalog.heisenberg(2), {1: catalog.phi("phi3")})
    dpath = write(tmp_path, "def.json", deformation_to_dict(D))
    assert main(["extend", dpath, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["extended"] is True

    assert main(["specialize", dpath, "--t", "0", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert algebra_from_dict(doc).brackets == catalog.heisenberg(2).brackets

    assert main(["specialize", dpath, "--t", "1/2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    member = algebra_from_dict(doc)
    # phi3(e1, e4) = e1, so [e1, e4]_t = t e1 at t = 1/2
    assert member.bracket_basis(0, 3) == {0: Fraction(1, 2)}
    assert member.jacobi_violations() == []


def test_cli_old_truncation_order_key_is_ignored(tmp_path, capsys):
    D = Deformation(catalog.heisenberg(2), {1: catalog.phi("phi8", (0, 1, 0))})
    doc = deformation_to_dict(D)
    assert "truncation_order" not in doc
    doc["truncation_order"] = 1
    assert deformation_from_dict(doc).terms == D.terms
    dpath = write(tmp_path, "old.json", doc)
    assert main(["specialize", dpath]) == 1
    assert "defect is nonzero at order 2" in capsys.readouterr().err


def test_cli_specialize_refuses_obstructed(tmp_path, capsys):
    D = Deformation(catalog.heisenberg(2), {1: catalog.phi("phi8", (0, 1, 0))})
    dpath = write(tmp_path, "def8.json", deformation_to_dict(D))
    assert main(["specialize", dpath, "--t", "1"]) == 1


def test_cli_extend_with_a_nonzero_defect_is_a_negative(tmp_path, capsys):
    terms = {1: catalog.phi("phi8", (0, 1, 0)), 2: Cochain.zero(2, 5)}
    D = Deformation(catalog.heisenberg(2), terms)
    dpath = write(tmp_path, "def8.json", deformation_to_dict(D))
    assert main(["extend", dpath]) == 1
    assert "nonzero defect at order 2" in capsys.readouterr().err
    assert main(["specialize", dpath]) == 1
    doc = deformation_to_dict(D)
    doc["terms"][0]["order"] = 0
    assert main(["extend", write(tmp_path, "bad.json", doc)]) == 2


# -- isomorphisms -----------------------------------------------------------------


def deformed_file(tmp_path, name, family, params, fname):
    D = Deformation(catalog.heisenberg(2), {1: catalog.phi(family, params)})
    from liedeform.deform import specialize

    return write(tmp_path, fname, algebra_to_dict(specialize(D, 1)))


def test_cli_iso_verify(tmp_path, capsys):
    a = deformed_file(tmp_path, "d5", "phi5", (0, 0), "d5.json")
    b = deformed_file(tmp_path, "d6", "phi6", (0, 0), "d6.json")
    map_path = write(
        tmp_path, "map.json",
        matrix_to_dict(catalog.d5_d6_basis_change()),
    )
    assert main(["iso", "verify", a, b, "--map", map_path]) == 0
    assert "true" in capsys.readouterr().out
    ident = write(tmp_path, "id.json", matrix_to_dict(ExactMatrix.identity(5)))
    assert main(["iso", "verify", a, b, "--map", ident]) == 1
    zero = ExactMatrix.from_sparse_rows([{}] * 5, 5)
    singular = write(tmp_path, "sing.json", matrix_to_dict(zero))
    assert main(["iso", "verify", a, b, "--map", singular]) == 2


def test_cli_iso_search(tmp_path, capsys):
    a = deformed_file(tmp_path, "d4", "phi4", (0, 0), "d4.json")
    b = deformed_file(tmp_path, "d7", "phi7", (0, 0, 0), "d7.json")
    assert main(["iso", "search", a, b, "--class", "diagonal_signs", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["found"] is True
    found = matrix_from_dict(doc["matrix"])
    assert [str(found.entry(i, i)) for i in range(5)] == ["-1", "1", "1", "-1", "-1"]
    # d5/d6 has no isomorphism in the declared search classes
    a56 = deformed_file(tmp_path, "d5", "phi5", (0, 0), "d5b.json")
    b56 = deformed_file(tmp_path, "d6", "phi6", (0, 0), "d6b.json")
    assert main(
        ["iso", "search", a56, b56, "--class", "monomial_plus_one_transvection"]
    ) == 1
    assert "none" in capsys.readouterr().out


def test_cli_iso_search_rejects_an_empty_bound(tmp_path, capsys):
    # The identity maps d5(0:0) to itself, so "none" would be false.
    a = deformed_file(tmp_path, "d5", "phi5", (0, 0), "d5.json")
    for bound in ("", ","):
        assert main(["iso", "search", a, a, "--class", "monomial", "--bound", bound]) == 2
        captured = capsys.readouterr()
        assert "none" not in captured.out
        assert "bound needs at least one coefficient" in captured.err


@pytest.mark.parametrize(
    "bound, message",
    [
        ("", "bound needs at least one coefficient"),
        ("0,1", "bound coefficients must be nonzero"),
        ("1,1", "bound repeats the coefficient 1"),
        ("1,-1,2/2", "bound repeats the coefficient 1"),
    ],
)
def test_cli_iso_search_bound_errors_name_the_option(tmp_path, capsys, bound, message):
    a = deformed_file(tmp_path, "d5", "phi5", (0, 0), "d5.json")
    assert main(["iso", "search", a, a, "--class", "monomial", "--bound", bound]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: --bound: {message}\n"


def test_cli_iso_verify_with_a_singular_map_is_an_input_error(tmp_path, capsys):
    a = deformed_file(tmp_path, "d5", "phi5", (0, 0), "d5.json")
    zero = ExactMatrix.from_sparse_rows([{}] * 5, 5)
    singular = write(tmp_path, "sing.json", matrix_to_dict(zero))
    assert main(["iso", "verify", a, a, "--map", singular]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: basis change must be invertible\n"
    # A map of the wrong shape is refused by change_basis on the same path.
    for nrows, ncols in ((5, 4), (4, 4)):
        rows = [{i: 1} for i in range(ncols)] + [{}] * (nrows - ncols)
        T = ExactMatrix.from_sparse_rows(rows, ncols)
        shaped = write(tmp_path, "shaped.json", matrix_to_dict(T))
        assert main(["iso", "verify", a, a, "--map", shaped]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: basis-change matrix has wrong shape\n"


@pytest.mark.parametrize(
    "option, argv",
    [
        ("--bound", ["iso", "search", "{h2}", "{h2}", "--class", "monomial", "--bound", "1/0"]),
        ("--bound", ["iso", "search", "{h2}", "{h2}", "--class", "monomial", "--bound", "1,x"]),
        ("--params", ["catalog", "emit", "phi4", "--params", "1,x"]),
        ("--params", ["catalog", "emit", "phi4", "--params", "1/0,0"]),
        ("--t", ["catalog", "emit", "phi6", "--params", "0,0", "--deformed", "--t", "1/0"]),
        ("--t", ["specialize", "{deformation}", "--t", "x"]),
    ],
)
def test_cli_bad_option_rationals_name_the_option(tmp_path, h2_file, capsys, option, argv):
    D = Deformation(catalog.heisenberg(2), {1: catalog.phi("phi6", (0, 0))})
    files = {"h2": h2_file, "deformation": write(tmp_path, "d.json", deformation_to_dict(D))}
    assert main([arg.format(**files) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: {option}: not a rational number: ")


# -- catalog and reproduce -----------------------------------------------------------


def test_cli_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "phi8" in out and "h1_phi5" in out


def test_cli_catalog_emit_round_trip(capsys):
    assert main(["catalog", "emit", "h3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert algebra_from_dict(doc) == catalog.heisenberg(3)

    assert main(["catalog", "emit", "phi4", "--params", "1,0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert cochain_from_dict(doc) == catalog.phi("phi4", (1, 0))

    assert main(["catalog", "emit", "representatives"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["representatives"]) == 20


def test_cli_catalog_emit_deformed(capsys):
    assert main(
        ["catalog", "emit", "phi6", "--params", "0,0", "--deformed", "--t", "1"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    member = algebra_from_dict(doc)
    assert member.is_nilpotent()


@pytest.mark.parametrize(
    "argv",
    [
        ["catalog", "emit", "phi4", "--params", "1,0", "--t", "5"],
        ["catalog", "emit", "h2", "--t", "x"],
        ["catalog", "emit", "representatives", "--t", "1"],
        ["catalog", "emit", "phi3", "--t="],
    ],
)
def test_cli_catalog_emit_refuses_t_without_deformed(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: --t: applies only with --deformed\n"


def test_cli_catalog_emit_deformed_reads_t(capsys):
    emitted = {}
    for t in (None, "1", "1/2"):
        argv = ["catalog", "emit", "phi6", "--params", "1,0", "--deformed"]
        assert main(argv + ([] if t is None else ["--t", t])) == 0
        emitted[t] = capsys.readouterr().out
    assert emitted[None] == emitted["1"] != emitted["1/2"]
    # Only an absent --t means 1; an empty one is refused as a rational.
    assert main(["catalog", "emit", "phi6", "--params", "1,0", "--deformed", "--t="]) == 2
    assert capsys.readouterr().err == "input error: --t: not a rational number: ''\n"


def test_cli_catalog_emit_deformed_without_a_lie_member_is_negative(capsys):
    # phi8(0:1:0) has a nonzero order-2 defect, as `specialize` reports with exit 1.
    assert main(["catalog", "emit", "phi8", "--params", "0,1,0", "--deformed"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "defect is nonzero at order 2; refusing to emit a non-Lie table\n"


@pytest.mark.parametrize(
    "argv, option",
    [
        (["h2", "--deformed"], "--deformed"),
        (["h2", "--params", "1,2"], "--params"),
        (["h2", "--symbolic"], "--symbolic"),
        (["representatives", "--symbolic"], "--symbolic"),
        (["representatives", "--params", "1"], "--params"),
        (["representatives", "--deformed"], "--deformed"),
    ],
)
def test_cli_catalog_emit_refuses_family_options_for_other_names(capsys, argv, option):
    assert main(["catalog", "emit", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {option}: {argv[0]} is not a cochain family\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["phi4", "--symbolic", "--params", "1,2"],
         "--params: symbolic construction takes no parameter values"),
        (["h1_phi1", "--params", "1"], "--params: h1_phi1 takes 0 parameters, got 1"),
        (["phi4", "--params", "1"], "--params: phi4 takes 2 parameters, got 1"),
        (["phi1", "--symbolic"], "--symbolic: phi1 takes no parameters"),
        (["h1_phi3", "--symbolic", "--json"], "--symbolic: h1_phi3 takes no parameters"),
    ],
)
def test_cli_catalog_emit_locates_parameter_errors(capsys, argv, message):
    assert main(["catalog", "emit", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


def test_cli_catalog_unknown(capsys):
    assert main(["catalog", "emit", "phi99"]) == 2


def test_cli_reproduce_summary_line(capsys):
    assert main(["reproduce"]) == 0
    out = capsys.readouterr().out
    assert "20 classes / 18 real / 2 infinitesimal-only" in out


def test_cli_reproduce_json_deterministic(capsys):
    assert main(["reproduce", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["reproduce", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["version"]
    assert doc["summary"]["extendable"] == 18
    assert len(doc["rows"]) == 20
    by_label = {r["label"]: r for r in doc["rows"]}
    assert by_label["d3"]["strict_extendable"] is True
    assert by_label["d8(0:0:1)"]["strict_extendable"] is False


def test_cli_reproduce_json_isomorphisms_are_objects(capsys):
    assert main(["reproduce", "--json"]) == 0
    facts = json.loads(capsys.readouterr().out)["summary"]["isomorphisms"]
    assert facts
    for fact in facts:
        assert isinstance(fact, dict)
        assert sorted(fact) == ["a", "b", "columns", "method"]


EXPECTED_PATH = Path(__file__).resolve().parents[1] / "bench" / "expected.json"


def first_mismatch(expected, actual, where="$"):
    """Where actual first differs from expected: extra keys are allowed, changed values not."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return where
        for key, value in expected.items():
            if key not in actual:
                return f"{where}.{key}"
            found = first_mismatch(value, actual[key], f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return where
        for k, (e, a) in enumerate(zip(expected, actual)):
            found = first_mismatch(e, a, f"{where}[{k}]")
            if found:
                return found
        return None
    return None if expected == actual and type(expected) is type(actual) else where


def test_cli_reproduce_json_matches_the_recorded_values(capsys):
    expected = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))["reproduce"]
    assert main(["reproduce", "--json"]) == 0
    assert first_mismatch(expected, json.loads(capsys.readouterr().out)) is None


def test_first_mismatch_allows_extra_keys_only():
    assert first_mismatch({"a": [1, {"b": True}]}, {"a": [1, {"b": True, "c": 0}], "d": 2}) is None
    assert first_mismatch({"a": [1]}, {"a": [1, 2]}) == "$.a"
    assert first_mismatch({"a": {"b": True}}, {"a": {"b": 1}}) == "$.a.b"
    assert first_mismatch({"a": 1}, {}) == "$.a"


# The t = 1 members of d3 (trivial center) and d6(0:1) (center e5 - 2 e1).
MEMBER_INVARIANTS = {
    ("phi3", ()): {
        "center": [],
        "center_dim": 0,
        "derived_series": [5, 4, 1, 0],
        "dim": 5,
        "lower_central_series": [5, 4, 4],
        "nilpotent": False,
        "solvable": True,
    },
    ("phi6", (0, 1)): {
        "center": [{"1": "-2", "5": "1"}],
        "center_dim": 1,
        "derived_series": [5, 3, 1, 0],
        "dim": 5,
        "lower_central_series": [5, 3, 3],
        "nilpotent": False,
        "solvable": True,
    },
}


@pytest.mark.parametrize("family, params", list(MEMBER_INVARIANTS))
def test_cli_invariants_json_of_members(tmp_path, capsys, family, params):
    path = deformed_file(tmp_path, family, family, params, "member.json")
    assert main(["invariants", path, "--json"]) == 0
    expected = MEMBER_INVARIANTS[(family, params)]
    assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_cli_reproduce_json_schema(capsys):
    assert main(["reproduce", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"version", "rows", "summary"}
    for row in doc["rows"]:
        assert set(row) == {
            "label", "fp2_alias", "is_cocycle", "strict_extendable", "obstructed_at",
            "obstruction_class_zero", "nilpotent_at_t1", "solvable_at_t1",
        }
    summary = doc["summary"]
    assert set(summary) == {
        "classes", "extendable", "obstructed", "pairwise_class_distinct",
        "equal_class_pairs", "distinct_classes", "dim_H2", "representative_span_in_H2",
        "phi8_000_equals_phi6_00", "isomorphisms", "nonisomorphic_nilpotent_generic_members",
    }
    assert summary["isomorphisms"]
    for fact in summary["isomorphisms"]:
        assert set(fact) == {"a", "b", "method", "columns"}
        assert all(isinstance(x, str) for col in fact["columns"] for x in col)


def test_module_entry_point(tmp_path):
    doc = algebra_to_dict(catalog.heisenberg(2))
    path = write(tmp_path, "h2.json", doc)
    proc = subprocess.run(
        [sys.executable, "-m", "liedeform", "cohomology", str(path), "2"],
        cwd=Path(liedeform.__file__).resolve().parents[1],  # the package's own src/
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert "dim H^2 = 20" in proc.stdout


def test_import_loads_no_introspection_modules():
    # dataclasses would pull in inspect, ast, dis and copy, which every CLI
    # process pays for at startup.  Only the modules that the import adds
    # are checked, so whatever the interpreter preloads does not count.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import liedeform, liedeform.cli\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=Path(liedeform.__file__).resolve().parents[1],  # the package's own src/
        capture_output=True,
        text=True,
        check=True,
    )
    added = set(proc.stdout.split())
    assert "liedeform.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "copy", "argparse"}


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from liedeform import *", namespace)
    assert [name for name in liedeform.__all__ if name not in namespace] == []


# -- parser construction ---------------------------------------------------------


def _exit_of(run, argv, capsys):
    """(stdout, stderr, exit code) of a run that ends in SystemExit."""
    with pytest.raises(SystemExit) as exc:
        run(argv)
    out, err = capsys.readouterr()
    return out, err, exc.value.code


def test_main_builds_no_parser_for_the_benchmark_jobs(h1_file, monkeypatch, capsys):
    def refuse(self, *args, **kwargs):
        raise AssertionError("an ArgumentParser was built")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    assert main(["cohomology", h1_file, "0", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["dim_H"] == 1
    assert main(["cohomology", h1_file, "1", "--json", "--representatives"]) == 0
    assert len(json.loads(capsys.readouterr().out)["representatives"]) == 4
    iso = ["iso", "search", h1_file, h1_file, "--class", "diagonal_signs", "--json"]
    assert main(iso) == 0
    assert json.loads(capsys.readouterr().out)["found"]
    assert main(["reproduce", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["classes"] == 20


_PARSER_OUTPUT_ARGVS = [[name, "-h"] for name in COMMANDS] + [
    ["iso", "verify", "-h"],
    ["iso", "search", "-h"],
    ["catalog", "list", "-h"],
    ["catalog", "emit", "-h"],
    ["cohomology"],
    ["cohomology", "h.json", "0", "extra"],
    ["cohomology", "h.json", "x"],
    ["iso", "search", "a", "b", "--class", "bogus"],
    ["reproduce", "--max-order", "1"],
    [],
    ["-h"],
    ["--version"],
    ["bogus"],
]


@pytest.mark.parametrize(
    "argv", _PARSER_OUTPUT_ARGVS, ids=lambda argv: " ".join(argv) or "no-arguments"
)
def test_help_and_usage_errors_match_the_full_parser(argv, capsys):
    expected = _exit_of(build_parser().parse_args, argv, capsys)
    assert _exit_of(main, argv, capsys) == expected


def _parsed(argv):
    """vars() of the full parser's namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


def _reads_as_the_full_parser(argv) -> bool:
    """Whether _read_argv reads argv: when it does, its namespace is argparse's."""
    read = _read_argv(argv)
    if read is not None:
        assert vars(read) == _parsed(argv), argv
    return read is not None


def test_reader_reads_every_digest_command_as_the_full_parser():
    from test_cli_digests import CASES

    assert [argv for argv in CASES.values() if not _reads_as_the_full_parser(argv)] == []
    for argv in _PARSER_OUTPUT_ARGVS:
        _reads_as_the_full_parser(argv)


def _argument_tables():
    for _, _, arguments in COMMANDS.values():
        if isinstance(arguments, dict):
            yield from (sub_arguments for _, sub_arguments in arguments.values())
        else:
            yield arguments


_OPTIONS = sorted({name for table in _argument_tables() for name, _ in table if name[0] == "-"})
_VALUES = ["a.json", "0", "3", "x", "", "1,-1", "1/2", "phi4", "monomial", "bogus", "-1"]
_TOKENS = _OPTIONS + _VALUES + [
    "verify", "search", "list", "emit", "-h", "--help", "--version", "--", "-2/3", "-",
    "--rep", "--js", "--cl", "--par", "--sym", "--de", "--b", "--m", "--t=2", "--json=1",
]


@st.composite
def _argvs(draw):
    """An argv in the form a command's table allows, then with up to two stray tokens."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv, arguments = [command], COMMANDS[command][2]
    if isinstance(arguments, dict):
        sub = draw(st.sampled_from(sorted(arguments)))
        argv.append(sub)
        arguments = arguments[sub][1]
    positionals, options = [], []
    for name, kwargs in arguments:
        values = st.sampled_from([*kwargs.get("choices", ()), *_VALUES])
        if name[0] != "-":
            positionals += draw(st.lists(values, min_size=1, max_size=1 + 2 * ("nargs" in kwargs)))
        elif draw(st.booleans()):
            options.append([name] if "action" in kwargs else [name, draw(values)])
    pieces = draw(st.permutations(options))
    pieces.insert(draw(st.integers(0, len(pieces))), positionals)
    argv += [token for piece in pieces for token in piece]
    for _ in range(draw(st.integers(0, 2))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_TOKENS)))
    return argv


@settings(max_examples=400, deadline=None)
@given(argv=_argvs())
def test_reader_agrees_with_the_full_parser(argv):
    _reads_as_the_full_parser(argv)


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
def test_the_package_version_is_stated_once():
    from setuptools.config.pyprojecttoml import read_configuration

    # pyproject.toml reads the version from liedeform.__version__, offline.
    config = read_configuration(Path(__file__).parents[1] / "pyproject.toml")
    assert config["project"]["dynamic"] == ["version"]
    assert config["project"]["version"] == liedeform.__version__


def test_top_level_help_version_and_errors(capsys):
    usage = "usage: liedeform [-h] [--version] {" + ",".join(COMMANDS) + "} ..."

    out, err, code = _exit_of(main, ["-h"], capsys)
    assert (err, code) == ("", 0)
    text = " ".join(out.split())
    assert text.startswith(usage + " Exact workbench")
    for name, (help_text, _, _) in COMMANDS.items():
        assert f" {name} {help_text} " in text

    assert _exit_of(main, ["--version"], capsys) == (f"liedeform {liedeform.__version__}\n", "", 0)

    out, err, code = _exit_of(main, [], capsys)
    assert (out, code) == ("", 2)
    assert " ".join(err.split()).startswith(usage)
    assert err.endswith("liedeform: error: the following arguments are required: command\n")

    out, err, code = _exit_of(main, ["bogus"], capsys)
    assert (out, code) == ("", 2)
    assert " ".join(err.split()).startswith(usage)
    assert "liedeform: error: argument command: invalid choice: 'bogus'" in err


def test_console_script_entry_reads_sys_argv(h1_file, monkeypatch, capsys):
    # The [project.scripts] entry point calls main() without arguments.
    monkeypatch.setattr(sys, "argv", ["liedeform", "cohomology", h1_file, "0", "--json"])
    assert main() == 0
    from_sys_argv = capsys.readouterr().out
    assert main(["cohomology", h1_file, "0", "--json"]) == 0
    assert from_sys_argv == capsys.readouterr().out
    assert json.loads(from_sys_argv)["dim_H"] == 1
