"""Command-line interface.

Exit codes are uniform across subcommands: 0 for success or a true verdict,
1 for a mathematical negative (Jacobi violation, non-cocycle, obstruction,
failed isomorphism), 2 for input errors (unreadable files, schema
violations, out-of-range arguments), 141 (128 + SIGPIPE, as a shell reports
it) when the reader of standard output closed it before the output ended.

Each command's arguments are stated once, in COMMANDS.  `main` reads a
well-formed argv straight from that table: each job is a fresh process, and
building even one argparse parser cost more than a small job's mathematics.
argparse is imported and the full parser built only when that reader
declines, which it does for help, --version, every error and the rarer
spellings argparse accepts (abbreviated options, --opt=value, "--"), so
their output is argparse's own.

--json output is byte for byte json.dumps(doc, indent=2, sort_keys=True), a Fraction
as its str, written by _emit_json: json.dumps indents with its slow pure-Python encoder.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Optional, Sequence

from . import __version__, catalog
from .cohomology import (
    class_eq,
    cocycle_constraints,
    cohomology_dim,
    is_coboundary,
    is_cocycle,
    span_in_cohomology,
)
from .deform import (
    SEARCH_CLASSES,
    Deformation,
    NonzeroDefectError,
    bound_scales,
    extend_step,
    search_isomorphism,
    specialize,
    strict_extendability,
    verify_isomorphism,
)
from .exact import _is_digits, parse_rational
from .jsonio import (
    SchemaError,
    _format_coeff_vector,
    algebra_from_dict,
    algebra_to_dict,
    cochain_from_dict,
    cochain_to_dict,
    defect_report_to_dict,
    deformation_from_dict,
    deformation_to_dict,
    cohomology_report_to_dict,
    matrix_from_dict,
    matrix_to_dict,
)
from .liealg import LieAlgebra

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_PIPE = 141


def _load_json(path: str):
    """The document in a JSON file; a key repeated in any object is an input
    error, since json.load would keep only the last of them."""

    def unique_keys(pairs):
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise SchemaError(path, f"duplicate key {key!r}")
            doc[key] = value
        return doc

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise SchemaError(path, f"cannot read file ({exc})") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(path, f"invalid JSON at line {exc.lineno}, column {exc.colno}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(path, f"not UTF-8 text ({exc.reason})") from None
    except SchemaError:  # a repeated key, raised by unique_keys
        raise
    except ValueError as exc:  # such as an integer of more digits than int() converts
        raise SchemaError(path, f"invalid JSON ({exc})") from None
    except RecursionError:
        raise SchemaError(path, "JSON nested too deeply") from None


def _option_rational(text: str, option: str) -> Fraction:
    """A rational given on the command line; a bad one is located at its option."""
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError):
        raise SchemaError(option, f"not a rational number: {text.strip()!r}") from None


def _emit_json(doc) -> None:
    """Print json.dumps(doc, indent=2, sort_keys=True), a Fraction as its str; a key not a
    str, or a value not a str, int, bool, None, Fraction, list, tuple or dict, is a TypeError."""
    out: list[str] = []
    emit = out.append

    def walk(x, indent: str) -> None:
        if isinstance(x, str):
            emit(encode_basestring_ascii(x))
        elif x is None or x is True or x is False:
            emit("null" if x is None else "true" if x else "false")
        elif isinstance(x, int):
            emit(int.__repr__(x))
        elif isinstance(x, dict):
            inner, sep = indent + "  ", "{"
            for key in sorted(x):  # encode_basestring_ascii refuses a key not a str
                emit(f"{sep}{inner}{encode_basestring_ascii(key)}: ")
                walk(x[key], inner)
                sep = ","
            emit(indent + "}" if x else "{}")
        elif isinstance(x, (list, tuple)):
            inner, sep = indent + "  ", "["
            for value in x:
                emit(sep + inner)
                walk(value, inner)
                sep = ","
            emit(indent + "]" if x else "[]")
        elif isinstance(x, Fraction):
            emit(encode_basestring_ascii(str(x)))
        else:
            raise TypeError(f"{type(x).__name__} is not JSON serializable")

    walk(doc, "\n")
    print("".join(out))


def _combo(vec) -> str:
    """Format an {index: rational} vector as a basis combination like 2*e2 - 2*e3."""
    parts = []
    for k, x in sorted(vec.items()):
        body = f"e{k + 1}"
        text = str(x)
        if text == "1":
            term = body
        elif text == "-1":
            term = f"-{body}"
        else:
            term = f"{text}*{body}"
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append(f"- {term[1:]}")
        else:
            parts.append(f"+ {term}")
    return " ".join(parts) if parts else "0"


def _print_algebra(A: LieAlgebra) -> None:
    if A.name:
        print(f"algebra {A.name} (dim {A.dim})")
    else:
        print(f"algebra of dim {A.dim}")
    for (i, j), vec in sorted(A.brackets.items()):
        print(f"  [e{i + 1},e{j + 1}] = {_combo(vec)}")
    if not A.brackets:
        print("  (abelian)")


def _print_cochain(c, label: str = "c") -> None:
    print(f"{label}: degree {c.degree} cochain on dim {c.dim}")
    for key, vec in sorted(c.entries.items()):
        args = ",".join(f"e{i + 1}" for i in key)
        print(f"  {label}({args}) = {_combo(vec)}")
    if not c.entries:
        print("  (zero)")


def _print_deformed_table(D: Deformation) -> None:
    """Paper-style display: [e1,e3]_t = e5 + t*(2*e2 - 2*e3)."""
    dim = D.base.dim
    for i in range(dim):
        for j in range(i + 1, dim):
            pieces = []
            base = D.base.bracket_basis(i, j)
            if base:
                pieces.append(_combo(base))
            for order, c in sorted(D.terms.items()):
                vec = c.value((i, j))
                if not vec:
                    continue
                tpow = "t" if order == 1 else f"t^{order}"
                pieces.append(f"{tpow}*({_combo(vec)})")
            if pieces:
                print(f"  [e{i + 1},e{j + 1}]_t = {' + '.join(pieces)}")


# -- subcommand handlers -------------------------------------------------------


def _cmd_jacobi(args) -> int:
    A = algebra_from_dict(_load_json(args.algebra), check=False)
    violations = A.jacobi_violations()
    if args.json:
        _emit_json(
            {
                "valid": not violations,
                "violations": [
                    {
                        "triple": [i + 1, j + 1, k + 1],
                        "defect": _format_coeff_vector(d),
                    }
                    for (i, j, k, d) in violations
                ],
            }
        )
    elif not violations:
        print("valid: the table satisfies the Jacobi identity")
    else:
        print(f"invalid: {len(violations)} violating triple(s)")
        for (i, j, k, d) in violations:
            print(f"  ({i + 1},{j + 1},{k + 1}): defect {_combo(d)}")
    return EXIT_OK if not violations else EXIT_NEGATIVE


def _cmd_invariants(args) -> int:
    A = algebra_from_dict(_load_json(args.algebra), check=False)
    violations = A.jacobi_violations()
    if violations:
        print("not a Lie algebra: Jacobi identity fails", file=sys.stderr)
        return EXIT_NEGATIVE
    center = A.center()
    derived, lower_central = A.series("derived"), A.series("lower_central")
    doc = {
        "dim": A.dim,
        "center_dim": len(center),
        "center": [_format_coeff_vector(v) for v in center],
        "derived_series": derived,
        "lower_central_series": lower_central,
        # is_solvable and is_nilpotent read the same last entries.
        "solvable": derived[-1] == 0,
        "nilpotent": lower_central[-1] == 0,
    }
    if args.json:
        _emit_json(doc)
    else:
        _print_algebra(A)
        print(f"  center dimension: {doc['center_dim']}")
        for v in center:
            print(f"    {_combo(v)}")
        print(f"  derived series dims: {doc['derived_series']}")
        print(f"  lower central series dims: {doc['lower_central_series']}")
        print(f"  solvable: {doc['solvable']}, nilpotent: {doc['nilpotent']}")
    return EXIT_OK


def _cmd_cohomology(args) -> int:
    A = algebra_from_dict(_load_json(args.algebra))
    report = cohomology_dim(A, args.degree, representatives=args.representatives)
    if args.json:
        _emit_json(cohomology_report_to_dict(report))
    else:
        q = args.degree
        print(f"dim C^{q} = {report.dim_cochain}")
        print(f"rank d_{q} = {report.rank_d}")
        print(f"rank d_{q - 1} = {report.rank_d_prev}")
        print(f"dim H^{q} = {report.dim_H}")
        if report.representatives is not None:
            for c in report.representatives:
                print(json.dumps(cochain_to_dict(c), sort_keys=True))
    return EXIT_OK


def _cmd_check_cocycle(args) -> int:
    A = algebra_from_dict(_load_json(args.algebra))
    c = cochain_from_dict(_load_json(args.cochain))
    constraints = cocycle_constraints(A, c)
    ok = not constraints
    if args.json:
        _emit_json(
            {
                "is_cocycle": ok,
                "symbolic": c.is_symbolic(),
                "constraints": [str(x) for x in constraints],
            }
        )
    elif ok:
        print("cocycle: d(c) = 0")
    else:
        kind = "constraint set" if c.is_symbolic() else "nonzero differential entries"
        print(f"not a cocycle; {kind}:")
        for x in constraints:
            print(f"  {x}")
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_check_coboundary(args) -> int:
    A = algebra_from_dict(_load_json(args.algebra))
    c = cochain_from_dict(_load_json(args.cochain))
    preimage = is_coboundary(A, c)
    if args.json:
        _emit_json(
            {
                "is_coboundary": preimage is not None,
                "preimage": None if preimage is None else cochain_to_dict(preimage),
            }
        )
    elif preimage is None:
        print("not a coboundary")
    else:
        print("coboundary; one preimage:")
        _print_cochain(preimage, "b")
    return EXIT_OK if preimage is not None else EXIT_NEGATIVE


def _cmd_class_eq(args) -> int:
    A = algebra_from_dict(_load_json(args.algebra))
    c1 = cochain_from_dict(_load_json(args.cochain1))
    c2 = cochain_from_dict(_load_json(args.cochain2))
    equal = class_eq(A, c1, c2)
    if args.json:
        _emit_json({"class_equal": equal})
    else:
        print("true: same cohomology class" if equal else "false: classes differ")
    return EXIT_OK if equal else EXIT_NEGATIVE


def _cmd_span(args) -> int:
    A = algebra_from_dict(_load_json(args.algebra))
    cochains = [cochain_from_dict(_load_json(p)) for p in args.cochains]
    degrees = {c.degree for c in cochains}
    if len(degrees) != 1:
        raise ValueError("all cochains must share one degree")
    q = degrees.pop()
    dim = span_in_cohomology(A, q, cochains)
    if args.json:
        _emit_json({"degree": q, "count": len(cochains), "span_in_H": dim})
    else:
        print(f"span of {len(cochains)} cocycle class(es) in H^{q}: {dim}")
    return EXIT_OK


def _cmd_deform(args) -> int:
    A = algebra_from_dict(_load_json(args.algebra))
    mu1 = cochain_from_dict(_load_json(args.cochain))
    if mu1.degree != 2:
        raise ValueError("the infinitesimal term must be a 2-cochain")
    # The report's order-1 defect, -d mu_1, is a rational mu_1's cocycle test.
    D = Deformation(A, {1: mu1}) if mu1.dim == A.dim and not mu1.is_symbolic() else None
    constraints = [] if D and D.defect(1).is_zero else cocycle_constraints(A, mu1)
    if constraints:
        if args.json:
            _emit_json({"is_cocycle": False, "constraints": [str(x) for x in constraints]})
        else:
            print("not a cocycle; failing constraints:")
            for x in constraints:
                print(f"  {x}")
        return EXIT_NEGATIVE
    D = D or Deformation(A, {1: mu1})  # refuses a symbolic cocycle
    report = strict_extendability(D)
    order = report.first_nonzero
    doc = {
        "verdict": "exact_Lie_bracket" if order is None else f"obstructed_at({order})",
        "exact_lie_bracket": order is None,
        "obstructed_at": order,
        "defects": defect_report_to_dict(report),
    }
    if order is not None:
        doc["obstruction_class_zero"] = report.status(order).is_coboundary
    if args.json:
        _emit_json(doc)
    else:
        _print_deformed_table(D)
        for st in report.orders:
            state = "zero" if st.is_zero else "nonzero"
            print(f"  order {st.order}: defect {state}")
        if order is None:
            print("exact Lie bracket (real deformation)")
        else:
            kind = "zero" if doc["obstruction_class_zero"] else "nonzero"
            print(f"obstructed at order {order}; obstruction class {kind} in H^3")
    return EXIT_OK if order is None else EXIT_NEGATIVE


def _cmd_extend(args) -> int:
    D = deformation_from_dict(_load_json(args.deformation))
    outcome = extend_step(D)
    if outcome.ok:
        if args.json:
            _emit_json({"extended": True, "deformation": deformation_to_dict(outcome.extended)})
        else:
            new_order = outcome.extended.top_order
            print(f"extended with a term at order {new_order}")
            _print_cochain(outcome.extended.term(new_order), f"mu{new_order}")
        return EXIT_OK
    if args.json:
        _emit_json({"extended": False, "obstruction": cochain_to_dict(outcome.obstruction)})
    else:
        print("obstructed; the partial defect has no preimage under d:")
        _print_cochain(outcome.obstruction, "obstruction")
    return EXIT_NEGATIVE


def _cmd_specialize(args) -> int:
    D = deformation_from_dict(_load_json(args.deformation))
    member = specialize(D, _option_rational(args.t, "--t"))
    if args.json:
        _emit_json(algebra_to_dict(member))
    else:
        _print_algebra(member)
    return EXIT_OK


def _cmd_iso(args) -> int:
    A = algebra_from_dict(_load_json(args.algebra_a))
    B = algebra_from_dict(_load_json(args.algebra_b))
    if args.iso_command == "verify":
        ok = verify_isomorphism(A, B, matrix_from_dict(_load_json(args.map)))
        if args.json:
            _emit_json({"isomorphic_via_map": ok})
        else:
            print("true" if ok else "false")
        return EXIT_OK if ok else EXIT_NEGATIVE
    bound = [_option_rational(x, "--bound") for x in args.bound.split(",") if x.strip()]
    try:
        bound_scales(bound)
    except ValueError as exc:
        raise SchemaError("--bound", str(exc)) from None
    T = search_isomorphism(A, B, args.search_class, bound)
    if T is None:
        if args.json:
            _emit_json({"found": False})
        else:
            print("none")
        return EXIT_NEGATIVE
    if args.json:
        _emit_json({"found": True, "matrix": matrix_to_dict(T)})
    else:
        print(json.dumps(matrix_to_dict(T), sort_keys=True))
    return EXIT_OK


def _catalog_object(args):
    name = args.name
    if args.t is not None and not args.deformed:
        raise SchemaError("--t", "applies only with --deformed")
    if name in catalog.FAMILIES:
        if args.symbolic and not catalog.family_arity(name):
            raise SchemaError("--symbolic", f"{name} takes no parameters")
        params = None
        if args.params:
            params = [_option_rational(x, "--params") for x in args.params.split(",") if x.strip()]
        try:
            c = catalog.phi(name, params, symbolic=args.symbolic)
        except ValueError as exc:  # the family and --params do not agree
            raise SchemaError("--params", str(exc)) from None
        if args.deformed:
            if c.is_symbolic():
                raise SchemaError(name, "cannot specialize a symbolic cochain")
            D = Deformation(catalog.heisenberg((c.dim - 1) // 2), {1: c})
            t = "1" if args.t is None else args.t
            return algebra_to_dict(specialize(D, _option_rational(t, "--t")))
        return cochain_to_dict(c)
    for option in ("params", "symbolic", "deformed"):
        if getattr(args, option):
            raise SchemaError(f"--{option}", f"{name} is not a cochain family")
    if name == "representatives":
        return {
            "representatives": [
                {
                    "label": rep.label,
                    "family": rep.family,
                    "params": [str(x) for x in rep.params],
                    "cochain": cochain_to_dict(rep.cochain()),
                }
                for rep in catalog.paper_representatives()
            ]
        }
    try:
        return algebra_to_dict(catalog.named_algebra(name))
    except ValueError as exc:
        raise SchemaError("name", str(exc)) from None


def _cmd_catalog(args) -> int:
    if args.catalog_command == "list":
        names = ["hN (any N >= 1: h1, h2, h3, ...)"]
        names += sorted(catalog.FAMILIES)
        names.append("representatives")
        for n in names:
            print(n)
        return EXIT_OK
    _emit_json(_catalog_object(args))
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    rows, summary = catalog.reproduce()
    if args.json:
        rows_doc = [r._asdict() for r in rows]
        summary_doc = summary._asdict()
        # _asdict is shallow; a nested record would otherwise serialize as a list.
        summary_doc["isomorphisms"] = [fact._asdict() for fact in summary.isomorphisms]
        _emit_json({"version": __version__, "rows": rows_doc, "summary": summary_doc})
        return EXIT_OK
    print(f"{'label':12s} {'cocycle':8s} {'extendable':11s} {'nilpotent':10s} {'solvable':9s}")
    for r in rows:
        ext = "yes" if r.strict_extendable else f"no (order {r.obstructed_at})"
        nilp = "-" if r.nilpotent_at_t1 is None else ("yes" if r.nilpotent_at_t1 else "no")
        solv = "-" if r.solvable_at_t1 is None else ("yes" if r.solvable_at_t1 else "no")
        print(f"{r.label:12s} {'yes' if r.is_cocycle else 'no':8s} {ext:11s} {nilp:10s} {solv:9s}")
    print(
        f"{summary.classes} classes / {summary.extendable} real / "
        f"{summary.obstructed} infinitesimal-only"
    )
    print(
        f"distinct cohomology classes among representatives: {summary.distinct_classes}"
        + (
            f" (coinciding pairs: {', '.join(f'{a}~{b}' for a, b in summary.equal_class_pairs)})"
            if summary.equal_class_pairs
            else ""
        )
    )
    print(f"span of representatives in H^2: {summary.representative_span_in_H2}")
    for f in summary.isomorphisms:
        print(f"isomorphism {f.a} ~ {f.b} via {f.method}")
    print(
        "non-isomorphic nilpotent generic members: "
        f"{summary.nonisomorphic_nilpotent_generic_members}"
    )
    return EXIT_OK


# -- argument table ------------------------------------------------------------
#
# An argument is (name, keyword arguments of ArgumentParser.add_argument).
# build_parser adds each as it stands; _read_argv reads the keys action,
# dest, default, choices, required, type and nargs of the same entries.


def _arg(name: str, **kwargs):
    return name, kwargs


def natural(text: str) -> int:
    """A degree: ASCII digits only, the grammar of a coefficient key."""
    if not _is_digits(text):
        raise ValueError(f"not ASCII digits: {text!r}")
    return int(text)


_JSON = _arg("--json", action="store_true", help="emit a JSON document")
_T = _arg("--t", default="1", metavar="VALUE",
          help="rational deformation parameter (default 1); a value that starts with - "
          "is written --t=VALUE")


def _arguments(*arguments) -> tuple:
    """An argument table: the given arguments, a bare name being a plain
    positional, then --json."""
    return tuple(_arg(a) if isinstance(a, str) else a for a in arguments) + (_JSON,)


# name: (help line, handler, arguments), in the order of the help.  The
# arguments of iso and catalog are {subcommand: (help line, arguments)}.
COMMANDS = {
    "jacobi": (
        "validate the Jacobi identity of an algebra file", _cmd_jacobi, _arguments("algebra")
    ),
    "invariants": (
        "center, series, solvability, nilpotency", _cmd_invariants, _arguments("algebra")
    ),
    "cohomology": ("dim H^q by exact rank computation", _cmd_cohomology, _arguments(
        "algebra",
        _arg("degree", type=natural),
        _arg("--representatives", action="store_true", help="emit representative cocycles"),
    )),
    "check-cocycle": (
        "is d(c) = 0 (symbolic aware)", _cmd_check_cocycle, _arguments("algebra", "cochain")
    ),
    "check-coboundary": (
        "find b with d(b) = c, if any", _cmd_check_coboundary, _arguments("algebra", "cochain")
    ),
    "class-eq": (
        "do two cocycles differ by a coboundary", _cmd_class_eq,
        _arguments("algebra", "cochain1", "cochain2"),
    ),
    "span": (
        "dimension of cocycle span inside H^q", _cmd_span,
        _arguments("algebra", _arg("cochains", nargs="+")),
    ),
    "deform": (
        "defects at orders 1..2 and the extendability verdict", _cmd_deform,
        _arguments("algebra", "cochain"),
    ),
    "extend": ("one order-by-order extension step", _cmd_extend, _arguments("deformation")),
    "specialize": (
        "member algebra at a rational t, if defects 1..2m vanish", _cmd_specialize,
        _arguments("deformation") + (_T,),
    ),
    "iso": ("verify or search basis-change isomorphisms", _cmd_iso, {
        "verify": ("check a supplied basis change", _arguments(
            "algebra_a",
            "algebra_b",
            _arg("--map", required=True, help="matrix file with the basis change"),
        )),
        "search": ("enumerate a finite class of basis changes", _arguments(
            "algebra_a",
            "algebra_b",
            _arg("--class", dest="search_class", required=True, choices=SEARCH_CLASSES),
            _arg("--bound", default="1,-1",
                 help="comma-separated nonzero scales and transvection coefficients "
                 "(default 1,-1); diagonal_signs always uses the signs 1,-1; a value "
                 "that starts with - is written --bound=VALUE"),
        )),
    }),
    "catalog": ("emit built-in objects as JSON", _cmd_catalog, {
        "list": ("list catalog object names", ()),
        "emit": ("emit one catalog object", _arguments(
            _arg("name", help="hN, phi1..phi8, h1_phi1..h1_phi5, representatives"),
            _arg("--params", help="comma-separated rational parameters; a value that "
                 "starts with - is written --params=VALUE"),
            _arg("--symbolic", action="store_true", help="keep p, q, r symbolic"),
            _arg("--deformed", action="store_true",
                 help="emit the deformed algebra at --t instead of the cochain"),
            _arg("--t", metavar="VALUE",
                 help="rational deformation parameter for --deformed (default 1); a "
                 "value that starts with - is written --t=VALUE"),
        )),
    }),
    "reproduce": ("recompute the full classification table", _cmd_reproduce, _arguments()),
}


def build_parser():
    """The full CLI parser, built from COMMANDS."""
    import argparse

    class Parser(argparse.ArgumentParser):  # its subparsers are Parsers too
        def error(self, message):
            option, _, problem = message.partition(": ")
            if problem == "expected one argument":  # as for --t -1/2: "-1/2" reads as an option
                message += f"; a value that starts with - is written {option.split()[-1]}=VALUE"
            super().error(message)

    def add_arguments(p, arguments) -> None:
        for name, kwargs in arguments:
            p.add_argument(name, **kwargs)

    parser = Parser(
        prog="liedeform",
        description="Exact workbench for Lie algebra cohomology and deformations.",
    )
    parser.add_argument("--version", action="version", version=f"liedeform {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if isinstance(arguments, dict):
            inner = p.add_subparsers(dest=f"{name}_command", required=True)
            for sub_name, (sub_help, sub_arguments) in arguments.items():
                add_arguments(inner.add_parser(sub_name, help=sub_help), sub_arguments)
        else:
            add_arguments(p, arguments)
        p.set_defaults(handler=handler)
    return parser


def _read_argv(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The arguments that build_parser().parse_args(argv) gives, read straight
    from COMMANDS, or None to leave argv to argparse.

    It reads only the plain form: exact option strings, each valued option
    followed by a value that does not start with "-", and the positionals in
    one run.  Help, --version, abbreviations, --opt=value, "--", a value or
    positional that starts with "-" and every error are argparse's.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    command, rest = argv[0], argv[1:]
    _, handler, arguments = COMMANDS[command]
    values = {"command": command, "handler": handler}
    if isinstance(arguments, dict):
        if not rest or rest[0] not in arguments:
            return None
        values[f"{command}_command"] = rest[0]
        arguments, rest = arguments[rest[0]][1], rest[1:]
    options, positionals = {}, []
    for name, kwargs in arguments:
        if not name.startswith("-"):
            positionals.append((name, kwargs))
            continue
        dest = kwargs.get("dest", name[2:])
        options[name] = dest, kwargs
        if not kwargs.get("required"):  # a required option has no value until given
            values[dest] = False if kwargs.get("action") == "store_true" else kwargs.get("default")
    given, closed = [], False  # closed: an option has followed a positional
    tokens = iter(rest)
    for token in tokens:
        if not token.startswith("-"):
            if closed:
                return None
            given.append(token)
            continue
        if token not in options:
            return None
        closed = bool(given)
        dest, kwargs = options[token]
        if kwargs.get("action") == "store_true":
            values[dest] = True
            continue
        value = next(tokens, "-")  # a missing value is refused as one that starts with "-"
        if value.startswith("-") or ("choices" in kwargs and value not in kwargs["choices"]):
            return None
        values[dest] = value
    if positionals and positionals[-1][1].get("nargs") == "+":
        last = len(positionals) - 1
        if len(given) <= last:
            return None
        given[last:] = [given[last:]]
    if len(given) != len(positionals) or any(dest not in values for dest, _ in options.values()):
        return None
    for (name, kwargs), value in zip(positionals, given):
        if "type" in kwargs:
            try:
                value = kwargs["type"](value)
            except ValueError:
                return None
        values[name] = value
    return SimpleNamespace(**values)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Point stdout at devnull, so the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    # A nonzero defect is a mathematical negative that the library raises.
    except NonzeroDefectError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NEGATIVE
    # SchemaError, NotACocycleError and SingularMatrixError are ValueErrors.
    except (ValueError, ZeroDivisionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
