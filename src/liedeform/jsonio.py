"""JSON file formats for algebras, cochains, deformations and reports.

All basis indices in files are 1-based (e_1..e_n); scalars are strings
("-3", "1/2", "p*q - r^2") so no floating point ever enters the pipeline.
Parsing failures raise SchemaError with a location string, which the CLI
maps to exit code 2.
"""

from __future__ import annotations

from typing import Any, Mapping

from .catalog import named_algebra, named_dim
from .cohomology import CohomologyReport
from .deform import DefectReport, Deformation
from .exact import ExactMatrix, PolyScalar, Scalar, _is_digits, parse_scalar
from .liealg import Cochain, LieAlgebra


class SchemaError(ValueError):
    """A file failed schema validation; carries the offending location and the message."""

    def __init__(self, location: str, message: str):
        self.location, self.message = location, message
        super().__init__(f"{location}: {message}")


def _expect_int(value, location: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(location, f"expected an integer, got {value!r}")
    return value


def _expect_list(value, location: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(location, f"expected a list, got {type(value).__name__}")
    return value


def _expect_dict(value, location: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(location, f"expected an object, got {type(value).__name__}")
    return value


def _parse_scalar_at(text, location: str) -> Scalar:
    if not isinstance(text, str):
        raise SchemaError(location, f"scalars must be strings, got {text!r}")
    try:
        return parse_scalar(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(location, f"bad scalar {text!r} ({exc})") from None


def _parse_coeff_vector(coeffs, dim: int, location: str) -> dict[int, Scalar]:
    """The {index: value} vector of a 1-based coefficient object."""
    coeffs = _expect_dict(coeffs, location)
    vec: dict[int, Scalar] = {}
    for key, text in coeffs.items():
        if not (isinstance(key, str) and _is_digits(key)):
            raise SchemaError(f"{location}.{key}", "keys must be basis indices")
        k = int(key)
        if not (1 <= k <= dim):
            raise SchemaError(f"{location}.{key}", f"index out of range 1..{dim}")
        if k - 1 in vec:
            raise SchemaError(f"{location}.{key}", f"duplicate index {k}")
        vec[k - 1] = _parse_scalar_at(text, f"{location}.{key}")
    return vec


def _format_coeff_vector(vec: Mapping[int, Scalar]) -> dict[str, str]:
    """The 1-based coefficient object of an {index: value} vector, by ascending index."""
    return {str(k + 1): str(x) for k, x in sorted(vec.items())}


# -- algebras ----------------------------------------------------------------


def algebra_to_dict(A: LieAlgebra) -> dict:
    doc: dict[str, Any] = {
        "dim": A.dim,
        "brackets": [
            {"i": i + 1, "j": j + 1, "coeffs": _format_coeff_vector(vec)}
            for (i, j), vec in sorted(A.brackets.items())
        ],
    }
    if A.name:
        doc["name"] = A.name
    return doc


def algebra_from_dict(doc, check: bool = True) -> LieAlgebra:
    doc = _expect_dict(doc, "algebra")
    dim = _expect_int(doc.get("dim"), "dim")
    if dim < 1:
        raise SchemaError("dim", "dimension must be at least 1")
    brackets = {}
    for idx, entry in enumerate(_expect_list(doc.get("brackets", []), "brackets")):
        loc = f"brackets[{idx}]"
        entry = _expect_dict(entry, loc)
        i = _expect_int(entry.get("i"), f"{loc}.i")
        j = _expect_int(entry.get("j"), f"{loc}.j")
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise SchemaError(loc, f"indices must lie in 1..{dim}")
        if j <= i:
            raise SchemaError(f"{loc}.j", f"need i < j, got i={i}, j={j}")
        if (i - 1, j - 1) in brackets:
            raise SchemaError(loc, f"duplicate bracket ({i}, {j})")
        vec = _parse_coeff_vector(entry.get("coeffs", {}), dim, f"{loc}.coeffs")
        if any(isinstance(x, PolyScalar) for x in vec.values()):
            raise SchemaError(f"{loc}.coeffs", "algebra tables must be rational")
        brackets[(i - 1, j - 1)] = vec
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise SchemaError("name", "name must be a string")
    return LieAlgebra(dim, brackets, check=check, name=name)


# -- cochains ----------------------------------------------------------------


def cochain_to_dict(c: Cochain) -> dict:
    return {
        "q": c.degree,
        "dim": c.dim,
        "entries": [
            {"args": [i + 1 for i in key], "coeffs": _format_coeff_vector(vec)}
            for key, vec in sorted(c.entries.items())
        ],
    }


def cochain_from_dict(doc) -> Cochain:
    """Parse a cochain file; a "params" block substitutes p, q, r values."""
    doc = _expect_dict(doc, "cochain")
    q = _expect_int(doc.get("q"), "q")
    dim = _expect_int(doc.get("dim"), "dim")
    if q < 0 or dim < 1:
        raise SchemaError("q", "need q >= 0 and dim >= 1")
    entries = {}
    for idx, entry in enumerate(_expect_list(doc.get("entries", []), "entries")):
        loc = f"entries[{idx}]"
        entry = _expect_dict(entry, loc)
        args = _expect_list(entry.get("args"), f"{loc}.args")
        key = tuple(_expect_int(a, f"{loc}.args") for a in args)
        if len(key) != q:
            raise SchemaError(f"{loc}.args", f"expected {q} indices, got {len(key)}")
        if any(not (1 <= a <= dim) for a in key):
            raise SchemaError(f"{loc}.args", f"indices must lie in 1..{dim}")
        if any(key[a] >= key[a + 1] for a in range(len(key) - 1)):
            raise SchemaError(f"{loc}.args", "indices must be strictly increasing")
        if key in entries:
            raise SchemaError(f"{loc}.args", f"duplicate args {list(key)}")
        entries[key] = _parse_coeff_vector(
            entry.get("coeffs", {}), dim, f"{loc}.coeffs"
        )
    # Every key and index is checked above, so Cochain refuses none of them.
    c = Cochain(q, dim, {tuple(a - 1 for a in key): vec for key, vec in entries.items()})
    params_doc = doc.get("params")
    if params_doc is not None:
        params_doc = _expect_dict(params_doc, "params")
        point = {}
        for var, text in params_doc.items():
            if var not in ("p", "q", "r"):
                raise SchemaError(f"params.{var}", "parameters are p, q, r")
            value = _parse_scalar_at(text, f"params.{var}")
            if isinstance(value, PolyScalar):
                raise SchemaError(f"params.{var}", "parameter values must be rational")
            point[var] = value
        c = c.substitute(point)
    return c


# -- deformations ------------------------------------------------------------


def deformation_to_dict(D: Deformation) -> dict:
    name = D.base.name
    try:  # the base goes by name only where named_algebra reads it back as D.base
        named = name is not None and named_dim(name) == D.base.dim  # builds nothing
        named = named and named_algebra(name) == D.base
    except ValueError:  # not a catalog name
        named = False
    return {
        "base": D.base.name if named else algebra_to_dict(D.base),
        "terms": [
            {"order": n, "cochain": cochain_to_dict(c)}
            for n, c in sorted(D.terms.items())
        ],
    }


def _nested(parse, doc, location: str):
    """parse(doc) for the name or object at location, its errors located at or below it."""
    try:
        return parse(doc)
    except SchemaError as exc:
        raise SchemaError(f"{location}.{exc.location}", exc.message) from None
    except ValueError as exc:  # a refusal of the whole: an unknown name, a Jacobi failure
        raise SchemaError(location, str(exc)) from None


def deformation_from_dict(doc) -> Deformation:
    """Parse a deformation file; the defect range is derived from its terms."""
    doc = _expect_dict(doc, "deformation")
    base_doc = doc.get("base")
    if isinstance(base_doc, str):
        base = _nested(named_algebra, base_doc, "base")
    else:
        base = _nested(algebra_from_dict, _expect_dict(base_doc, "base"), "base")
    # Older files carry a "truncation_order" key; it is accepted and ignored.
    terms = {}
    for idx, entry in enumerate(_expect_list(doc.get("terms", []), "terms")):
        loc = f"terms[{idx}]"
        entry = _expect_dict(entry, loc)
        order = _expect_int(entry.get("order"), f"{loc}.order")
        if order < 1:
            raise SchemaError(f"{loc}.order", "orders start at 1")
        if order in terms:
            raise SchemaError(f"{loc}.order", f"duplicate order {order}")
        where = f"{loc}.cochain"
        c = _nested(cochain_from_dict, _expect_dict(entry.get("cochain"), where), where)
        if c.is_symbolic():
            raise SchemaError(where, "deformation terms must be rational (use params)")
        terms[order] = c
    try:
        return Deformation(base, terms)
    except ValueError as exc:
        raise SchemaError("terms", str(exc)) from None


# -- basis-change matrices ---------------------------------------------------


def matrix_to_dict(m: ExactMatrix) -> dict:
    return {"rows": [[str(x) for x in m.row(i)] for i in range(m.nrows)]}


def matrix_from_dict(doc) -> ExactMatrix:
    doc = _expect_dict(doc, "matrix")
    rows_doc = _expect_list(doc.get("rows"), "rows")
    if not rows_doc:
        raise SchemaError("rows", "matrix must have at least one row")
    rows = []
    for i, row in enumerate(rows_doc):
        row = _expect_list(row, f"rows[{i}]")
        parsed = [_parse_scalar_at(x, f"rows[{i}][{j}]") for j, x in enumerate(row)]
        if any(isinstance(x, PolyScalar) for x in parsed):
            raise SchemaError(f"rows[{i}]", "matrices must be rational")
        rows.append(parsed)
    if any(len(r) != len(rows[0]) for r in rows):
        raise SchemaError("rows", "rows have differing lengths")
    return ExactMatrix(rows)


# -- reports -----------------------------------------------------------------


def cohomology_report_to_dict(report: CohomologyReport) -> dict:
    doc = {
        "degree": report.degree,
        "dim_cochain": report.dim_cochain,
        "rank_d": report.rank_d,
        "rank_d_prev": report.rank_d_prev,
        "dim_kernel": report.dim_kernel,
        "dim_image_prev": report.dim_image_prev,
        "dim_H": report.dim_H,
    }
    if report.representatives is not None:
        doc["representatives"] = [cochain_to_dict(c) for c in report.representatives]
    return doc


def defect_report_to_dict(report: DefectReport) -> dict:
    return {
        "orders": [
            {
                "order": st.order,
                "is_zero": st.is_zero,
                "is_coboundary": st.is_coboundary,
                "defect": None if st.is_zero else cochain_to_dict(st.defect),
                "obstruction": None
                if st.obstruction is None
                else cochain_to_dict(st.obstruction),
            }
            for st in report.orders
        ]
    }
