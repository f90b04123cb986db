"""Built-in catalog: Heisenberg algebras, the known cocycle families on h_1
and h_2, the twenty designated deformation representatives, and the driver
that recomputes the full classification table.

Each cochain family is stated once, as a FAMILIES entry: its fp2 alias, the
dimension of its base algebra, and a table function whose parameters are the
family's parameters, so phi reads the arity from the function.  All tables
use 1-based basis indices e_1..e_n, converted once here to the library's
internal 0-based convention.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, Union

from .cohomology import Cochain, _image_echelon, cohomology_dim
from .deform import Deformation, specialize, strict_extendability, verify_isomorphism
from .exact import EchelonBasis, ExactMatrix, PolyScalar, Scalar, _coerce_rational
from .liealg import LieAlgebra

_P = PolyScalar.variable("p")
_Q = PolyScalar.variable("q")
_R = PolyScalar.variable("r")


def heisenberg(n: int) -> LieAlgebra:
    """The rank-n Heisenberg algebra: [e_i, e_{n+i}] = e_{2n+1}, 1 <= i <= n."""
    if n < 1:
        raise ValueError("heisenberg rank must be at least 1")
    dim = 2 * n + 1
    brackets = {(i, n + i): {dim - 1: 1} for i in range(n)}
    return LieAlgebra(dim, brackets, check=True, name=f"h{n}")


def named_algebra(name: str) -> LieAlgebra:
    """Resolve an algebra reference like "h2" used in deformation files."""
    if name.startswith("h") and name[1:].isdigit():
        return heisenberg(int(name[1:]))
    raise ValueError(f"unknown algebra name {name!r}")


def _cochain(dim: int, table: Mapping[tuple[int, int], Mapping[int, Scalar]]) -> Cochain:
    """Build a 2-cochain from a 1-based {(i, j): {k: coeff}} table."""
    entries = {
        (i - 1, j - 1): {k - 1: c for k, c in coeffs.items()} for (i, j), coeffs in table.items()
    }
    return Cochain(2, dim, entries)


# name: (fp2 alias, base dimension, table function of the family's parameters).
FAMILIES: dict[str, tuple[Optional[str], int, Callable[..., dict]]] = {
    "phi1": ("d7", 5, lambda: {
        (1, 3): {2: 2, 3: -2}, (1, 4): {3: 1}, (2, 4): {2: 1}, (3, 4): {3: 2, 2: -1},
    }),
    "phi2": ("d10", 5, lambda: {
        (1, 3): {1: 1},
        (1, 4): {2: -1},
        (2, 3): {2: 2},
        (3, 4): {4: -1},
        (3, 5): {5: -3},
    }),
    "phi3": ("d17", 5, lambda: {
        (1, 4): {1: 1}, (2, 4): {2: 1}, (3, 4): {3: 1}, (4, 5): {5: -2},
    }),
    "phi4": ("d9(p:q)", 5, lambda p, q: {
        (1, 4): {1: p + q},
        (2, 3): {1: -1},
        (2, 4): {2: q},
        (3, 4): {2: 1, 3: p},
        (4, 5): {5: -(2 * p + q)},
    }),
    "phi5": ("d14(p:q)", 5, lambda p, q: {
        (1, 3): {1: p},
        (2, 3): {1: 1, 2: q, 4: 1},
        (3, 4): {4: -p},
        (3, 5): {5: -(p + q)},
    }),
    "phi6": ("d15(p:q)", 5, lambda p, q: {
        (1, 3): {1: p},
        (2, 3): {1: 1, 2: q},
        (3, 4): {4: -q},
        (3, 5): {5: -2 * q},
    }),
    "phi7": ("d12(p:q:r)", 5, lambda p, q, r: {
        (1, 3): {1: p},
        (2, 3): {1: 1, 2: q},
        (3, 4): {2: -1, 4: -r},
        (3, 5): {5: -(q + r)},
    }),
    # The e_2 coefficient on (e_2, e_3) is r, matching the deformed bracket
    # display; with q there instead, the family would only be a cocycle for
    # q = r and the p = 0 branch would be lost.
    "phi8": ("d5(p:q:r)", 5, lambda p, q, r: {
        (1, 3): {1: p},
        (1, 4): {5: r - q},
        (2, 3): {1: 1, 2: r},
        (2, 4): {1: r, 2: -(r * (p - q))},
        (4, 5): {5: p * (r - q)},
    }),
    # The five cocycles spanning H^2(h_1, h_1); see h1_cocycles.
    "h1_phi1": (None, 3, lambda: {(1, 2): {2: 1}}),
    "h1_phi2": (None, 3, lambda: {(1, 3): {1: -1}, (2, 3): {2: 1}}),
    "h1_phi3": (None, 3, lambda: {(1, 3): {2: -1}}),
    "h1_phi4": (None, 3, lambda: {(2, 3): {3: -1}}),
    "h1_phi5": (None, 3, lambda: {(2, 3): {1: -1}}),
}


def h1_cocycles() -> list[Cochain]:
    """The five explicit 2-cocycles h1_phi1..h1_phi5 spanning H^2(h_1, h_1).

    Stated in the basis convention of this library's h_1, where the bracket
    is [e_1, e_2] = e_3.  (Sources quoting these cocycles for the basis with
    central element e_1 need the relabeling e_2 -> e_1, e_3 -> e_2,
    e_1 -> e_3, which is how their tables were produced.)
    """
    return [phi(f"h1_phi{k}") for k in range(1, 6)]


def family_arity(name: str) -> int:
    """The number of parameters of the family `name`, a key of FAMILIES."""
    return FAMILIES[name][2].__code__.co_argcount


def phi(
    name: str,
    params: Optional[Sequence[Union[Fraction, int]]] = None,
    symbolic: bool = False,
) -> Cochain:
    """A catalog cochain, with parameters substituted or left symbolic.

    h1_phiK live on h_1; phi1..phi8 live on h_2.  A family takes as many
    parameters as its table function; symbolic construction passes p, q, r
    for them.
    """
    family = FAMILIES.get(name)
    if family is None:
        raise ValueError(f"unknown family {name!r}")
    _, dim, table = family
    arity = family_arity(name)
    if symbolic:
        if params is not None:
            raise ValueError("symbolic construction takes no parameter values")
        params = (_P, _Q, _R)[:arity]
    else:
        params = tuple(_coerce_rational(x, "parameters") for x in (params or ()))
        if len(params) != arity:
            raise ValueError(f"{name} takes {arity} parameters, got {len(params)}")
    return _cochain(dim, table(*params))


class Representative(NamedTuple):
    """One designated infinitesimal deformation of h_2."""

    label: str
    family: str
    params: tuple[Fraction, ...]

    def cochain(self) -> Cochain:
        return phi(self.family, self.params)


def _rep(family: str, *params: int) -> Representative:
    d_name = f"d{family[-1]}"
    if params:
        label = f"{d_name}({':'.join(str(x) for x in params)})"
    else:
        label = d_name
    return Representative(label, family, tuple(Fraction(x) for x in params))


def paper_representatives() -> list[Representative]:
    """The twenty designated cocycles: 3 singles, 9 two-parameter points,
    4 points of the phi7 family and 4 of phi8.

    phi8(0:0:0) is excluded: it coincides entry-wise with phi6(0:0).
    """
    return [
        _rep("phi1"),
        _rep("phi2"),
        _rep("phi3"),
        _rep("phi4", 1, 0),
        _rep("phi4", 0, 1),
        _rep("phi4", 0, 0),
        _rep("phi5", 1, 0),
        _rep("phi5", 0, 1),
        _rep("phi5", 0, 0),
        _rep("phi6", 1, 0),
        _rep("phi6", 0, 1),
        _rep("phi6", 0, 0),
        _rep("phi7", 0, 0, 0),
        _rep("phi7", 1, 0, 0),
        _rep("phi7", 0, 1, 0),
        _rep("phi7", 0, 0, 1),
        _rep("phi8", 1, 0, 0),
        _rep("phi8", 0, 1, 1),
        _rep("phi8", 0, 1, 0),
        _rep("phi8", 0, 0, 1),
    ]


class PaperRow(NamedTuple):
    """Computed flags for one representative."""

    label: str
    fp2_alias: Optional[str]
    is_cocycle: bool
    strict_extendable: bool
    obstructed_at: Optional[int]
    obstruction_class_zero: bool
    nilpotent_at_t1: Optional[bool]  # None when the member is not a Lie algebra
    solvable_at_t1: Optional[bool]


class IsomorphismFact(NamedTuple):
    """A verified isomorphism between two specialized deformations at t=1."""

    a: str
    b: str
    method: str  # the search class that finds the map, or "explicit_basis_change"
    columns: tuple[tuple[Fraction, ...], ...]


class ReproduceSummary(NamedTuple):
    classes: int
    extendable: int
    obstructed: int
    pairwise_class_distinct: bool
    equal_class_pairs: tuple[tuple[str, str], ...]
    distinct_classes: int
    dim_H2: int
    representative_span_in_H2: int
    phi8_000_equals_phi6_00: bool
    isomorphisms: tuple[IsomorphismFact, ...]
    nonisomorphic_nilpotent_generic_members: int


def reproduce() -> tuple[list[PaperRow], ReproduceSummary]:
    """Recompute the full classification of infinitesimal deformations of h_2."""
    h2 = heisenberg(2)
    reps = paper_representatives()
    cochains = [rep.cochain() for rep in reps]
    rows: list[PaperRow] = []
    members: dict[str, LieAlgebra] = {}  # the t = 1 member of each extendable row
    for rep, c in zip(reps, cochains):
        D = Deformation(h2, {1: c})
        report = strict_extendability(D)
        order = report.first_nonzero
        nilp: Optional[bool] = None
        solv: Optional[bool] = None
        if order is None:
            member = members[rep.label] = specialize(D, 1)
            nilp, solv = member.is_nilpotent(), member.is_solvable()
        rows.append(
            PaperRow(
                label=rep.label,
                fp2_alias=FAMILIES[rep.family][0],
                # d mu_1 = -defect_1, the report's first order.
                is_cocycle=report.status(1).is_zero,
                strict_extendable=order is None,
                obstructed_at=order,
                obstruction_class_zero=order is None or report.status(order).is_coboundary,
                nilpotent_at_t1=nilp,
                solvable_at_t1=solv,
            )
        )

    # strict_extendability has refused every non-cocycle, so the classes are
    # read from one echelon of im d_1 without checking the cocycles again.
    echelon = _image_echelon(h2, 2)
    forms = [echelon.normal_form(c.coords()) for c in cochains]
    classes_of: dict[frozenset, list[int]] = {}
    for k, form in enumerate(forms):
        classes_of.setdefault(frozenset(form.items()), []).append(k)
    equal_pairs = [
        (reps[a].label, reps[b].label)
        for a, b in sorted(pair for ks in classes_of.values() for pair in combinations(ks, 2))
    ]

    iso_facts = [
        IsomorphismFact(a, b, method, tuple(T.column(j) for j in range(T.ncols)))
        for a, b, method, T in member_isomorphism_witnesses()
        if verify_isomorphism(members[a], members[b], T)
    ]
    nilpotent_members = [r.label for r in rows if r.nilpotent_at_t1]
    classes = _iso_classes(nilpotent_members, iso_facts)

    summary = ReproduceSummary(
        classes=len(rows),
        extendable=sum(1 for r in rows if r.strict_extendable),
        obstructed=sum(1 for r in rows if not r.strict_extendable),
        pairwise_class_distinct=not equal_pairs,
        equal_class_pairs=tuple(equal_pairs),
        distinct_classes=len(classes_of),
        dim_H2=cohomology_dim(h2, 2).dim_H,
        representative_span_in_H2=len(EchelonBasis(forms)),
        phi8_000_equals_phi6_00=phi("phi8", (0, 0, 0)) == phi("phi6", (0, 0)),
        isomorphisms=tuple(iso_facts),
        nonisomorphic_nilpotent_generic_members=classes,
    )
    return rows, summary


def d5_d6_basis_change() -> ExactMatrix:
    """The change of basis carrying mu_t(d5)(0:0) to mu_t(d6)(0:0) at t=1.

    It extends e1 -> e1 + e4 by the compensating column e2 -> e2 + e3; the
    second column is forced, because [e1+e4, e2] = -e5 in mu_t(d5)(0:0)
    while the target table needs that bracket to vanish.
    """
    return ExactMatrix.from_sparse_rows([{0: 1}, {1: 1}, {1: 1, 2: 1}, {0: 1, 3: 1}, {4: 1}], 5)


def member_isomorphism_witnesses() -> tuple[tuple[str, str, str, ExactMatrix], ...]:
    """The recorded maps (a, b, method, T) carrying the t=1 member of a to
    that of b, in the order reproduce verifies them.  T's columns are the
    new basis vectors, as change_basis reads them.

    method names the search class that finds T, or "explicit_basis_change"
    for a map no search class holds.  d5(0:0) ~ d6(0:0) needs a recorded
    map: the true map needs two transvections, and the
    monomial_plus_one_transvection class is exhausted over coefficients +-1.
    """
    d4_d7 = ExactMatrix.from_sparse_rows(({i: s} for i, s in enumerate((-1, 1, 1, -1, -1))), 5)
    return (
        ("d4(0:0)", "d7(0:0:0)", "diagonal_signs", d4_d7),
        ("d5(0:0)", "d6(0:0)", "explicit_basis_change", d5_d6_basis_change()),
    )


def _iso_classes(members: Sequence[str], facts: Sequence[IsomorphismFact]) -> int:
    """Count isomorphism classes among labels, merging along verified facts."""
    parent = {m: m for m in members}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for f in facts:
        if f.a in parent and f.b in parent:
            parent[find(f.a)] = find(f.b)
    return len({find(m) for m in members})
