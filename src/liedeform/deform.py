"""Formal one-parameter deformations of a Lie algebra.

A deformation is the base bracket plus finitely many order-tagged
2-cochains mu_n, representing [x,y]_t = [x,y] + sum t^n mu_n(x,y).  The
order-n defect is the coefficient of t^n in the deformed Jacobi expression,

    sum_{i+j=n} mu_i(x, mu_j(y,z)) + mu_i(y, mu_j(z,x)) + mu_i(z, mu_j(x,y))

with mu_0 the base bracket.  When the top order is m, every pair i+j=n
with n > 2m involves a missing term, so the defects above 2m vanish
identically, and the deformed bracket is a Lie bracket iff the defects
vanish for 1 <= n <= 2m.  Each defect is one call of liealg.jacobiator on
the (mu_i, mu_j) pairs.  liealg.signed_tables scales every mu of the
pairs to an integer table over one common denominator D, so every pair is
over D² and the defect is read over D² once.  The Jacobi identity of an
algebra is the same call with mu_0 in both slots.  A Deformation does not
change, so D.defect(n) computes each order once, for every check below.

The verdict on a deformation is its DefectReport: one OrderStatus per order
1..2m, holding the defect and whether its class in H^3 is zero.  The first
order with a nonzero defect is where the deformation is obstructed, and
there is none exactly when the bracket is a Lie bracket.  For a deformation
by mu_1 alone (strict_extendability) the order-1 defect is -d mu_1, which
must vanish, so order 2 decides.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Sequence, Union

from .cohomology import Cochain, NotACocycleError, differential, is_coboundary
from .exact import ExactMatrix, _coerce_rational
from .liealg import LieAlgebra, jacobiator, signed_tables

_ZERO = Fraction(0)
_ONE = Fraction(1)


class NonzeroDefectError(ValueError):
    """A deformation has a nonzero defect at an order where it must vanish."""


class Deformation:
    """Base algebra plus order-tagged 2-cochain terms (all rational)."""

    __slots__ = ("base", "terms", "_defects")

    def __init__(self, base: LieAlgebra, terms: Mapping[int, Cochain] = ()):
        self.base = base
        clean: dict[int, Cochain] = {}
        for order, c in dict(terms).items():
            order = int(order)
            if order < 1:
                raise ValueError("deformation orders start at 1; order 0 is the base")
            if c.degree != 2 or c.dim != base.dim:
                raise ValueError(f"term at order {order} must be a 2-cochain on the base")
            if c.is_symbolic():
                raise ValueError(
                    "deformation terms must be rational; substitute parameters first"
                )
            clean[order] = c
        self.terms = dict(sorted(clean.items()))
        self._defects: dict[int, Cochain] = {}

    def term(self, order: int) -> Cochain:
        c = self.terms.get(order)
        return c if c is not None else Cochain.zero(2, self.base.dim)

    @property
    def top_order(self) -> int:
        return max(self.terms, default=0)

    def defect(self, n: int) -> Cochain:
        """The module function defect(self, n), computed on first use and kept."""
        found = self._defects.get(n)
        if found is None:
            found = self._defects[n] = defect(self, n)
        return found

    def defect_orders(self) -> range:
        """1..2m for top order m: the only orders whose defect can be nonzero."""
        return range(1, 2 * self.top_order + 1)

    def with_term(self, order: int, c: Cochain) -> "Deformation":
        terms = dict(self.terms)
        terms[order] = c
        return Deformation(self.base, terms)

    def is_single_term(self) -> bool:
        return set(self.terms) <= {1}

    def __repr__(self):
        orders = sorted(self.terms) or [0]
        return f"Deformation(base dim {self.base.dim}, orders {orders})"


def defect(D: Deformation, n: int) -> Cochain:
    """The order-n defect as a 3-cochain (zero iff the t^n Jacobi terms cancel)."""
    if n < 1:
        raise ValueError("defect order must be >= 1")
    maps = {0: D.base.brackets, **{i: c.entries for i, c in D.terms.items()}}
    orders = sorted(i for i in maps if n - i in maps)
    tables, den = signed_tables([maps[i] for i in orders])
    table = dict(zip(orders, tables))
    found = jacobiator([(table[i], table[n - i]) for i in orders], D.base.dim)
    scale = den**2
    entries = {key: {k: Fraction(x, scale) for k, x in v.items()} for key, v in found.items()}
    return Cochain(3, D.base.dim, entries)


class OrderStatus(NamedTuple):
    """One defect order: the defect cochain and whether its class in H^3 is zero."""

    order: int
    defect: Cochain
    is_coboundary: bool

    @property
    def is_zero(self) -> bool:
        return self.defect.is_zero

    @property
    def obstruction(self) -> Optional[Cochain]:
        """The defect itself when its class is nonzero, else None."""
        return None if self.is_coboundary else self.defect


class DefectReport(NamedTuple):
    """The verdict on a deformation: its defects at orders 1..2m, in order."""

    orders: tuple[OrderStatus, ...]

    def status(self, n: int) -> OrderStatus:
        return self.orders[n - 1]

    @property
    def first_nonzero(self) -> Optional[int]:
        """The first order with a nonzero defect; None iff the bracket is a Lie bracket."""
        for st in self.orders:
            if not st.is_zero:
                return st.order
        return None


def defect_report(D: Deformation) -> DefectReport:
    """Per-order defect statuses for orders 1..2m (m the top order); the
    class of each nonzero defect is tested with is_coboundary."""
    statuses = []
    for n in D.defect_orders():
        d = D.defect(n)
        statuses.append(OrderStatus(n, d, d.is_zero or is_coboundary(D.base, d) is not None))
    return DefectReport(tuple(statuses))


def strict_extendability(D: Deformation) -> DefectReport:
    """The defect report of a deformation with only mu_1.

    d mu_1 = -defect_1, so a nonzero order 1 means mu_1 is not a cocycle and
    raises NotACocycleError before any class is tested.  The defect vanishes
    identically above order 2, so order 2 decides the verdict.
    """
    if not D.is_single_term():
        raise ValueError("strict extendability applies to single-term deformations")
    if not D.defect(1).is_zero:
        raise NotACocycleError("the infinitesimal term must be a 2-cocycle")
    return defect_report(D)


class ExtendOutcome(NamedTuple):
    """Result of one extension step: a new deformation or an obstruction class."""

    extended: Optional[Deformation]
    obstruction: Optional[Cochain]

    @property
    def ok(self) -> bool:
        return self.extended is not None


def extend_step(D: Deformation) -> ExtendOutcome:
    """Try to choose mu_n (n = top order + 1) killing the order-n defect.

    Solves d mu_n = partial defect, where the partial defect collects the
    i, j >= 1 terms; D has no order-n term, so that is exactly defect(D, n).
    When the system is inconsistent the partial defect is a nonzero class
    in H^3 and is returned as the obstruction.
    """
    n = D.top_order + 1
    for k in range(1, n):
        if not D.defect(k).is_zero:
            raise NonzeroDefectError(
                f"deformation already has a nonzero defect at order {k}"
            )
    dim = D.base.dim
    partial = D.defect(n)
    d2 = differential(D.base, 2)
    x = d2.solve(partial.coords())
    if x is None:
        return ExtendOutcome(extended=None, obstruction=partial)
    mu_n = Cochain.from_coords(2, dim, x)
    extended = D.with_term(n, mu_n)
    residual = extended.defect(n)
    if not residual.is_zero:
        raise RuntimeError(f"extension left a nonzero defect at order {n}")
    return ExtendOutcome(extended=extended, obstruction=None)


def specialize(D: Deformation, t_value: Union[Fraction, int]) -> LieAlgebra:
    """The member algebra at a rational t; refuses non-Lie tables."""
    t = _coerce_rational(t_value, "t")
    for n in D.defect_orders():
        if not D.defect(n).is_zero:
            raise NonzeroDefectError(
                f"defect is nonzero at order {n}; refusing to emit a non-Lie table"
            )
    dim = D.base.dim
    brackets = {key: dict(vec) for key, vec in D.base.brackets.items()}
    for order, c in D.terms.items():
        tn = t**order
        for key, v in c.entries.items():
            vec = brackets.setdefault(key, {})
            for k, vk in v.items():
                vec[k] = vec.get(k, _ZERO) + tn * vk
    name = f"{D.base.name} deformed at t={t}" if D.base.name else None
    return LieAlgebra(dim, brackets, check=True, name=name)


# ---------------------------------------------------------------------------
# Isomorphism verification and finite search.
# ---------------------------------------------------------------------------


def verify_isomorphism(A: LieAlgebra, B: LieAlgebra, transform: ExactMatrix) -> bool:
    """True iff A in the basis of transform's columns has B's table."""
    if A.dim != B.dim:
        raise ValueError("algebras must have equal dimension")
    return A.change_basis(transform).brackets == B.brackets


SEARCH_CLASSES = ("diagonal_signs", "monomial", "monomial_plus_one_transvection")


def search_isomorphism(
    A: LieAlgebra,
    B: LieAlgebra,
    search_class: str,
    bound: Sequence[Union[Fraction, int]] = (1, -1),
) -> Optional[ExactMatrix]:
    """First basis change T in the class with verify_isomorphism(A, B, T) true,
    as the matrix M U whose columns are the new basis vectors; None if none.

    Every map of a class is T = M U.  M is monomial, column i being s_i
    e_perm(i) with s_i in the bound (diagonal_signs: perm is the identity and
    s_i is +-1, whatever the bound).  U is the identity, or for
    monomial_plus_one_transvection also e_i0 -> e_i0 + c e_j0 with c in the
    bound.  A maps to B under M U iff A maps under M to B transported by
    U^-1, so U runs outside (identity first, then i0, j0 and c in order) and
    M is built column by column, rows increasing and scales in bound order,
    pruned at every structure constant whose indices are placed.  The
    identity is found first whenever it works and the bound starts with 1.
    """
    if A.dim != B.dim:
        raise ValueError("algebras must have equal dimension")
    if search_class not in SEARCH_CLASSES:
        raise ValueError(f"unknown search class {search_class!r}")
    n = A.dim
    scales = bound_scales(bound)
    rows: Sequence[Sequence[int]] = [range(n)] * n
    if search_class == "diagonal_signs":
        rows, scales = [(i,) for i in range(n)], (_ONE, -_ONE)
    shears = [(ExactMatrix.identity(n),) * 2]  # (U, U^-1)
    if search_class == "monomial_plus_one_transvection":
        shears += [
            (_shear(n, i0, j0, c), _shear(n, i0, j0, -c))
            for i0 in range(n)
            for j0 in range(n)
            if i0 != j0
            for c in scales
        ]
    source = _structure_constants(A)
    for U, U_inv in shears:
        target = _structure_constants(B.change_basis(U_inv))
        found = _monomial_map(source, target, rows, scales)
        if found is None:
            continue
        perm, scale = found
        M = ExactMatrix([[scale[j] if perm[j] == r else _ZERO for j in range(n)] for r in range(n)])
        T = M * U
        if not verify_isomorphism(A, B, T):
            raise RuntimeError("isomorphism search built a map that fails verification")
        return T
    return None


def _shear(n: int, i0: int, j0: int, c: Fraction) -> ExactMatrix:
    """e_i0 -> e_i0 + c e_j0: the identity with c at row j0, column i0."""
    rows = [{a: c.denominator} for a in range(n)]
    rows[j0][i0] = c.numerator
    return ExactMatrix._from_integer_rows(rows, c.denominator, n)


def bound_scales(bound: Sequence[Union[Fraction, int]]) -> tuple[Fraction, ...]:
    """The coefficients of a search bound; at least one, all nonzero and distinct."""
    scales = tuple(_coerce_rational(c, "bound coefficients") for c in bound)
    if not scales:
        raise ValueError("bound needs at least one coefficient")
    if any(not c for c in scales):
        raise ValueError("bound coefficients must be nonzero")
    for i, c in enumerate(scales):
        if c in scales[:i]:
            raise ValueError(f"bound repeats the coefficient {c}")
    return scales


Constants = tuple[list[list[list[int]]], int]


def _structure_constants(A: LieAlgebra) -> Constants:
    """(c, D): c[a][b][k] is the int D [e_a, e_b]_k for every ordered pair,
    read once from A's integer table over its denominator D."""
    n, zero = A.dim, {}
    cols = [[A._table.get((a, b), zero) for b in range(n)] for a in range(n)]
    return [[[col.get(k, 0) for k in range(n)] for col in row] for row in cols], A._den


def _monomial_map(
    source: Constants,
    target: Constants,
    rows: Sequence[Sequence[int]],
    scales: Sequence[Fraction],
) -> Optional[tuple[list[int], list[Fraction]]]:
    """First monomial map, as (perm, scale), carrying source to target.

    Column i is s_i e_perm(i), with perm(i) in rows[i].  Under such a map the
    constants match iff s_k t/D_t = s_a s_b c/D_c for t = target[a][b][k],
    c = source[pa][pb][pk] and all a < b and k, that is iff
    s_k t D_c = s_a s_b c D_t; each triple is checked when its largest index
    is placed.  Zeros are tested on the ints.
    """
    (source, den_c), (target, den_t) = source, target
    n = len(rows)
    checks = [
        [(a, b, k) for a in range(n) for b in range(a + 1, n) for k in range(n) if max(b, k) == i]
        for i in range(n)
    ]
    perm = [0] * n
    scale = [_ONE] * n
    used = [False] * n

    def consistent(i: int) -> bool:
        for a, b, k in checks[i]:
            t = target[a][b][k]
            c = source[perm[a]][perm[b]][perm[k]]
            if not t and not c:
                continue
            # The scales are nonzero, so a zero must meet a zero.
            if not (t and c) or scale[k] * t * den_c != scale[a] * scale[b] * c * den_t:
                return False
        return True

    def place(i: int) -> bool:
        if i == n:
            return True
        for r in rows[i]:
            if used[r]:
                continue
            used[r], perm[i] = True, r
            for s in scales:
                scale[i] = s
                if consistent(i) and place(i + 1):
                    return True
            used[r] = False
        return False

    return (perm, scale) if place(0) else None
