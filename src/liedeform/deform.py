"""Formal one-parameter deformations of a Lie algebra.

A deformation is the base bracket plus finitely many order-tagged
2-cochains mu_n, representing [x,y]_t = [x,y] + sum t^n mu_n(x,y).  The
order-n defect is the coefficient of t^n in the deformed Jacobi expression,

    sum_{i+j=n} mu_i(x, mu_j(y,z)) + mu_i(y, mu_j(z,x)) + mu_i(z, mu_j(x,y))

with mu_0 the base bracket, the 2-cochain base.mu.  When the top order is
m, every pair i+j=n with n > 2m involves a missing term, so the defects
above 2m vanish identically, and the deformed bracket is a Lie bracket iff
the defects vanish for 1 <= n <= 2m.  defect computes it by liealg's
identity for defects, one liealg.d_mu call per pair i <= n - i, on tables
that liealg.signed_tables scales to ints over one common denominator D, so
the sum is read over 2D² once.  A Deformation does not change, so D.defect(n)
computes each order once, for every check below.

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

from .cohomology import NotACocycleError, differential, is_coboundary
from .exact import ExactMatrix, _coerce_rational
from .liealg import Coeff, Cochain, LieAlgebra, d_mu, signed_tables, table_entries


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

    def __repr__(self):
        orders = sorted(self.terms) or [0]
        return f"Deformation(base dim {self.base.dim}, orders {orders})"


def defect(D: Deformation, n: int) -> Cochain:
    """The order-n defect as a 3-cochain (zero iff the t^n Jacobi terms cancel)."""
    if n < 1:
        raise ValueError("defect order must be >= 1")
    maps = {0: D.base.mu, **D.terms}
    orders = sorted(i for i in maps if n - i in maps)
    tables, den = signed_tables([maps[i] for i in orders])
    table = dict(zip(orders, tables))
    acc: dict[tuple[int, ...], dict[int, int]] = {}
    for i in orders[: (len(orders) + 1) // 2]:  # the pairs i <= n - i
        weight = 1 if 2 * i == n else 2
        for tau, vec in d_mu(table[i], table_entries(table[n - i])).items():
            sums = acc.setdefault(tau, {})
            for k, x in vec.items():
                sums[k] = sums.get(k, 0) + weight * x
    scale = -2 * den**2
    entries = {key: {k: Fraction(x, scale) for k, x in v.items()} for key, v in acc.items()}
    return Cochain._canonical(3, D.base.dim, entries)  # d_mu's keys are valid tuples


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
    if set(D.terms) - {1}:
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
    # solve gives zero for a zero right-hand side, so d_2 is not assembled then.
    x = {} if partial.is_zero else differential(D.base, 2).solve(partial.coords())
    if x is None:
        return ExtendOutcome(extended=None, obstruction=partial)
    mu_n = Cochain.from_coords(2, dim, x)
    extended = Deformation(D.base, {**D.terms, n: mu_n})
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
    mu = sum((c.scale(t**order) for order, c in D.terms.items()), D.base.mu)
    name = f"{D.base.name} deformed at t={t}" if D.base.name else None
    # The defects of orders 1..2m vanish, so mu is a Lie bracket at every t.
    return LieAlgebra(D.base.dim, mu.entries, check=False, name=name)


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

    Each U moves B's pairs a < b by U^-1 in closed form from B's signed
    table (_sheared), over B's denominator, and A's signed table is read as
    it stands, so a candidate builds no matrix, no algebra and no product;
    only the map found is built and confirmed by verify_isomorphism.  An
    integral scale is an int (bound_scales), so a candidate forms a Fraction
    only for a fractional scale.  The scales are nonzero, so under M the
    target constant at (a, b, k) is nonzero exactly when the source constant
    at (perm a, perm b, perm k) is.  Hence index i and perm(i) have the same
    zero-pattern signature (_signatures), and a U whose target signatures are
    not a reordering of the source's is skipped, and perm(i) only runs over
    the source indices with i's signature.  What this prunes can never match
    the constants, so the first hit in the order above is unchanged.
    """
    if A.dim != B.dim:
        raise ValueError("algebras must have equal dimension")
    if search_class not in SEARCH_CLASSES:
        raise ValueError(f"unknown search class {search_class!r}")
    n = A.dim
    scales = bound_scales(bound)
    rows: Sequence[Sequence[int]] = [range(n)] * n
    if search_class == "diagonal_signs":
        rows, scales = [(i,) for i in range(n)], (1, -1)
    shears: list[Optional[tuple[int, int, Coeff]]] = [None]
    if search_class == "monomial_plus_one_transvection":
        shears += [(i0, j0, c) for i0 in range(n) for j0 in range(n) if i0 != j0 for c in scales]
    source_sigs = _signatures(table_entries(A._table), n)
    checks = [
        [(a, b, k) for a in range(n) for b in range(a + 1, n) for k in range(n) if max(b, k) == i]
        for i in range(n)
    ]
    for shear in shears:
        moved = table_entries(B._table) if shear is None else _sheared(B, *shear)
        sigs = _signatures(moved, n)
        if sorted(sigs) != sorted(source_sigs):
            continue
        allowed = [[r for r in rows[i] if source_sigs[r] == sigs[i]] for i in range(n)]
        found = _monomial_map(A, moved, B._den, allowed, scales, checks)
        if found is None:
            continue
        perm, scale = found
        t_rows: list[dict[int, Coeff]] = [{} for _ in range(n)]
        for j in range(n):
            t_rows[perm[j]][j] = scale[j]
        if shear is not None:
            i0, j0, c = shear
            t_rows[perm[j0]][i0] = c * scale[j0]
        T = ExactMatrix.from_sparse_rows(t_rows, n)
        if not verify_isomorphism(A, B, T):
            raise RuntimeError("isomorphism search built a map that fails verification")
        return T
    return None


def bound_scales(bound: Sequence[Union[Fraction, int]]) -> tuple[Coeff, ...]:
    """The coefficients of a search bound; at least one, all nonzero and
    distinct, an integral one as an int."""
    scales = tuple(_coerce_rational(c, "bound coefficients") for c in bound)
    if not scales:
        raise ValueError("bound needs at least one coefficient")
    if any(not c for c in scales):
        raise ValueError("bound coefficients must be nonzero")
    for i, c in enumerate(scales):
        if c in scales[:i]:
            raise ValueError(f"bound repeats the coefficient {c}")
    return tuple(c.numerator if c.denominator == 1 else c for c in scales)


def _sheared(B: LieAlgebra, i0: int, j0: int, c: Coeff) -> dict:
    """B's pairs {(a, b): {k: value}}, a < b, over B._den (ints for an int c),
    in the basis f_i0 = e_i0 - c e_j0, f_m = e_m otherwise: B moved by the
    inverse of the shear e_i0 -> e_i0 + c e_j0.  From B's signed table, only
    the pairs with i0 change in e-coordinates, [f_i0, f_m] = [e_i0, e_m] -
    c [e_j0, e_m], and since e_i0 = f_i0 + c f_j0, f-coordinates add c times
    the e_i0 entry at j0."""
    table, zero = B._table, {}
    pairs = {key: v for key, v in table.items() if key[0] < key[1] and i0 not in key}
    for m in range(B.dim):
        key, other = ((i0, m), (j0, m)) if i0 < m else ((m, i0), (m, j0))
        if m != i0 and (key in table or other in table):
            v = pairs[key] = dict(table.get(key, zero))
            for k, x in table.get(other, zero).items():
                v[k] = v.get(k, 0) - c * x
    moved = {}
    for key, v in pairs.items():
        if i0 in v:
            v = {**v, j0: v.get(j0, 0) + c * v[i0]}
        if v := {k: x for k, x in v.items() if x}:
            moved[key] = v
    return moved


def _signatures(pairs: Mapping, n: int) -> list[tuple[int, int, int]]:
    """Per index i: how many nonzero constants (a, b, k) of the pairs (a, b),
    a < b, have i as an argument, as the output k, and as both."""
    sigs = [[0, 0, 0] for _ in range(n)]
    for (a, b), col in pairs.items():
        for k in col:
            sigs[a][0] += 1
            sigs[b][0] += 1
            sigs[k][1] += 1
            if k == a or k == b:
                sigs[k][2] += 1
    return [tuple(sig) for sig in sigs]


def _monomial_map(
    A: LieAlgebra,
    target: Mapping,
    den_t: int,
    rows: Sequence[Sequence[int]],
    scales: Sequence[Coeff],
    checks: Sequence[Sequence[tuple[int, int, int]]],
) -> Optional[tuple[list[int], list[Coeff]]]:
    """First monomial map, as (perm, scale), carrying A to the pairs target
    over den_t.

    Column i is s_i e_perm(i), with perm(i) in rows[i].  Under such a map the
    constants match iff s_k t/D_t = s_a s_b c/D_c for t the value of e_k at
    target's pair (a, b), c that of e_pk in A's signed table at (pa, pb) over
    D_c = A._den, and all a < b and k, that is iff s_k t D_c = s_a s_b c D_t;
    checks[i] holds the triples (a, b, k), a < b, whose largest index is i,
    checked when column i is placed.  A lookup miss is a zero constant.
    """
    source, den_c, zero = A._table, A._den, {}
    n = len(rows)
    perm = [0] * n
    scale = [1] * n
    used = [False] * n

    def consistent(i: int) -> bool:
        for a, b, k in checks[i]:
            t = target.get((a, b), zero).get(k, 0)
            c = source.get((perm[a], perm[b]), zero).get(perm[k], 0)
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
