"""Skew tables: cochains, Lie algebras by structure constants, the differential d_mu.

This module owns the one format of a skew table.  A degree-q Cochain stores
its values on strictly increasing index tuples only, each as {k: value}
holding the nonzero coefficients of e_k, the one vector format of the
package; permuted arguments apply the permutation sign and repeated ones
give zero.  Coordinates on C^q are ordered by tuple (lexicographic), then
target index.  Indices are 0-based here, 1-based (e_1..e_n) in files and
printed output.  A Lie bracket is its 2-cochain mu_0: LieAlgebra holds its
constants [e_i, e_j], i < j, as the Cochain mu, and validates the Jacobi
identity unless built with check=False (see LieAlgebra for when).

signed_tables scales 2-cochains (a bracket, deformation terms) by one
common denominator D to ints, each as the sparse {(a, b): {k: c}} table of
both orders; table_entries reads the 2-cochain back, over D.

The one bracket kernel is d_mu, the Chevalley-Eilenberg differential with
adjoint coefficients taken with respect to any skew table mu, Lie or not:

    d_mu c(g_1,...,g_{q+1}) = sum_{s<t} (-1)^(s+t-1) c(mu(g_s,g_t), ..^s..^t..)
                            + sum_s    (-1)^s       mu(g_s, c(..^s..))

with 1-based positions s, t; no other sign convention is supported.  With
the insertion (a o b)(x, y, z) = -(a(x, b(y, z)) + a(y, b(z, x)) +
a(z, b(x, y))) of 2-cochains (Nijenhuis-Richardson), the pair term is
c o mu and the action term (-1)^q mu o c, so d_mu(nu) = mu o nu + nu o mu
= d_nu(mu) for 2-cochains.  Hence d_mu is cohomology's d_q for the
algebra's bracket; the Jacobi sum of mu (a = b = mu above) is -d_mu(mu)/2;
the order-n defect of a deformation with terms mu_i is -(the sum of
d_mu_i(mu_j) over i < j, i + j = n, plus d_mu_h(mu_h)/2 when n = 2h); and
the order-1 defect of {1: c} is -d c.

_basis_images, the one function that composes tables, follows the nonzero
compositions; d_mu sums its images over a cochain's entries, times D, and
cohomology routes them into the columns of d_q.  bracket, series and center
read the table too: [x, y] is the sum of x_a y_b [e_a, e_b] over the
nonzero entries of x and y, over D.  LieAlgebra._transport, the general
code that moves a table to a new basis b, hands each D [b_i, b_j] to its
caller's reader of new coordinates: change_basis reads through T^-1,
adapted_to_derived at the leads of [g, g].  deform's search moves B's table
by one transvection per candidate in closed form (deform._sheared), since
only the pairs and the coordinate that the transvection touches change.

A LieAlgebra keeps one view of itself in a basis adapted to D = [g, g],
built on first use, for the Jacobi check and cohomology's plain H^q: its
brackets lie on the r = dim D leads of D's echelon, so it has at most
C(n, 2) r nonzeros.  It is sound for any skew table: D is the span of the
table's values, so every bracket lies in D, and T^-1 mu(T., T.) satisfies
the Jacobi identity exactly when mu does.  The Jacobi check builds it by
one rule, when the table has more than C(n, 2) nonzeros: at or below that,
as on sparse and monomial tables, the view costs more than the direct check.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence, Union

from .exact import (
    ExactMatrix,
    PolyScalar,
    Scalar,
    SingularMatrixError,
    _back_substitute,
    _check_indices,
    _coerce_entry,
    _echelon,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)
_SAME = object()  # the kept view of an algebra whose basis is already adapted

# {(a, b): {k: c}}: the nonzero constants c of e_k in the value at (e_a, e_b),
# as integers over the table's denominator.
Table = dict[tuple[int, int], dict[int, int]]
Coeff = Union[Fraction, int]  # a value of a sparse {index: value} vector


def _perm_sign(args: Sequence[int]) -> int:
    sign = 1
    for a in range(len(args)):
        for b in range(a + 1, len(args)):
            if args[a] > args[b]:
                sign = -sign
    return sign


class Cochain:
    """Alternating multilinear map g^q -> g, stored on increasing tuples.

    entries is {key: {k: value}}: the nonzero coefficients of e_k in the
    value on each increasing tuple key, by ascending key and k.  Zero values
    and tuples with no nonzero value are dropped, so equal cochains have
    equal entries.
    """

    __slots__ = ("degree", "dim", "entries")

    def __init__(
        self,
        degree: int,
        dim: int,
        entries: Mapping[tuple[int, ...], Mapping[int, Scalar]] = (),
    ):
        if degree < 0 or dim < 1:
            raise ValueError("degree must be >= 0 and dimension >= 1")
        checked: dict[tuple[int, ...], dict[int, Scalar]] = {}
        for key, vec in dict(entries).items():
            key = tuple(map(int, key))
            if len(key) != degree:
                raise ValueError(f"tuple {key} has length {len(key)}, expected {degree}")
            if key and not (0 <= min(key) and max(key) < dim):
                raise ValueError(f"tuple {key} out of range for dimension {dim}")
            if any(key[a] >= key[a + 1] for a in range(len(key) - 1)):
                raise ValueError(f"tuple {key} is not strictly increasing")
            _check_indices(vec, dim, f"tuple {key}: value index")
            checked[key] = {k: _coerce_entry(x, "cochain entries") for k, x in vec.items()}
        self._set(degree, dim, checked)

    @classmethod
    def _canonical(cls, degree: int, dim: int, entries) -> "Cochain":
        """The cochain of {key: {k: value}} entries, exact values on valid keys
        and indices, without __init__'s checks: for arithmetic of valid cochains."""
        c = cls.__new__(cls)
        c._set(degree, dim, entries)
        return c

    def _set(self, degree: int, dim: int, entries) -> None:
        """Hold the entries by ascending key and k, zero values and empty tuples dropped."""
        self.degree, self.dim, self.entries = degree, dim, {}
        for key in sorted(entries):
            vec = entries[key]
            if v := {k: vec[k] for k in sorted(vec) if vec[k]}:
                self.entries[key] = v

    @classmethod
    def zero(cls, degree: int, dim: int) -> "Cochain":
        return cls(degree, dim, {})

    def value(self, args: Sequence[int]) -> dict[int, Scalar]:
        """Evaluate on basis indices in any order (sign applied, repeats -> 0),
        as {k: value}."""
        if len(args) != self.degree:
            raise ValueError(f"expected {self.degree} arguments, got {len(args)}")
        _check_indices(args, self.dim, "basis index")
        vec = self.entries.get(tuple(sorted(args)), {})  # repeated args: no such key
        if _perm_sign(args) == 1:
            return dict(vec)
        return {k: -x for k, x in vec.items()}

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def is_symbolic(self) -> bool:
        return any(
            isinstance(x, PolyScalar) for vec in self.entries.values() for x in vec.values()
        )

    def _merge(self, other: "Cochain", op) -> "Cochain":
        if (self.degree, self.dim) != (other.degree, other.dim):
            raise ValueError("cochain degree/dimension mismatch")
        out = {}
        for key in self.entries.keys() | other.entries.keys():
            a, b = self.entries.get(key, {}), other.entries.get(key, {})
            out[key] = {k: op(a.get(k, _ZERO), b.get(k, _ZERO)) for k in a.keys() | b.keys()}
        return Cochain._canonical(self.degree, self.dim, out)

    def __add__(self, other: "Cochain") -> "Cochain":
        return self._merge(other, operator.add)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self._merge(other, operator.sub)

    def __neg__(self) -> "Cochain":
        return self.scale(-1)

    def scale(self, c: Scalar) -> "Cochain":
        c = _coerce_entry(c, "cochain entries")
        entries = {key: {k: c * x for k, x in v.items()} for key, v in self.entries.items()}
        return Cochain._canonical(self.degree, self.dim, entries)

    def substitute(self, point: Mapping[str, Union[Fraction, int]]) -> "Cochain":
        """Substitute rational values for p, q, r in all entries."""
        out = {}
        for key, vec in self.entries.items():
            out[key] = {
                k: x.evaluate(point) if isinstance(x, PolyScalar) else x for k, x in vec.items()
            }
        return Cochain._canonical(self.degree, self.dim, out)

    def coords(self) -> dict[int, Scalar]:
        """The nonzero coordinates on C^q as {index: value}, ascending."""
        first = _first_coords(self.dim, self.degree)
        return {first[key] + k: x for key, vec in self.entries.items() for k, x in vec.items()}

    @classmethod
    def from_coords(cls, degree: int, dim: int, coords: Mapping[int, Scalar]) -> "Cochain":
        """The cochain of {index: exact value} coordinates, others zero (values unchecked)."""
        tuples = _tuples(dim, degree)
        _check_indices(coords, len(tuples) * dim, "coordinate")
        entries: dict[tuple[int, ...], dict[int, Scalar]] = {}
        for i, x in coords.items():
            t, k = divmod(i, dim)
            entries.setdefault(tuples[t], {})[k] = x
        return cls._canonical(degree, dim, entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cochain):
            return NotImplemented
        return (
            self.degree == other.degree
            and self.dim == other.dim
            and self.entries == other.entries
        )

    def __hash__(self):
        values = tuple((key, frozenset(v.items())) for key, v in self.entries.items())
        return hash((self.degree, self.dim, values))

    def __repr__(self):
        return f"Cochain(degree={self.degree}, dim={self.dim}, {len(self.entries)} entries)"


@lru_cache(maxsize=None)
def _tuples(dim: int, degree: int) -> tuple[tuple[int, ...], ...]:
    return tuple(combinations(range(dim), degree))


@lru_cache(maxsize=None)
def _first_coords(dim: int, degree: int) -> dict[tuple[int, ...], int]:
    """The coordinate index of (key, 0) for each increasing tuple key (shared: read only)."""
    return {key: t * dim for t, key in enumerate(_tuples(dim, degree))}


class JacobiError(ValueError):
    """Raised when a structure-constant table violates the Jacobi identity."""

    def __init__(self, violations):
        self.violations = violations
        triples = ", ".join(str(tuple(i + 1 for i in v[:3])) for v in violations[:5])
        more = "" if len(violations) <= 5 else f" (+{len(violations) - 5} more)"
        super().__init__(f"Jacobi identity fails at triples {triples}{more}")


def signed_tables(maps: Sequence[Cochain]) -> tuple[list[Table], int]:
    """The integer tables of rational 2-cochains, and their denominator D.

    D is the lcm of every denominator in the maps, and each table holds D
    times its map in both orders, signed.  A lookup miss means zero (also
    for a = b).
    """
    den = lcm(1, *(x.denominator for mu in maps for v in mu.entries.values() for x in v.values()))
    tables = []
    for mu in maps:
        table: Table = {}
        for (i, j), vec in mu.entries.items():
            col = table[(i, j)] = {k: c.numerator * (den // c.denominator) for k, c in vec.items()}
            table[(j, i)] = {k: -c for k, c in col.items()}
        tables.append(table)
    return tables, den


def _basis_images(table: Table, targets: Mapping[tuple[int, ...], Iterable[int]]):
    """Per key of targets, (key, pairs, actions): d_mu(e^key (x) e_m) for the
    m in targets[key], from mu's signed table, indexed once per call by output
    index (k -> [(i, j, c_ij^k)], i < j) and by second slot (m -> [(i, [e_i, e_m])]).

    A pair (tau, c) adds c at (tau, m) for every m: for k in key, rest = key
    minus k and c_ij^k with i, j outside rest, tau = rest + {i, j} with sign
    (-1)^(s+t-1) for the 1-based positions s, t of i, j in tau, times (-1)^p
    for k at position p in key.  An action (m, tau, sign, mu(e_i, e_m)) is for
    i outside key: tau = key + {i}, sign (-1)^s for i at 1-based position s.
    """
    by_output: dict[int, list[tuple[int, int, int]]] = {}
    by_second: dict[int, list[tuple[int, dict[int, int]]]] = {}
    for (i, j), col in table.items():
        by_second.setdefault(j, []).append((i, col))
        if i < j:
            for k, c in col.items():
                by_output.setdefault(k, []).append((i, j, c))
    for key, ms in targets.items():
        pairs = []
        for p, k in enumerate(key):
            rest = key[:p] + key[p + 1 :]
            for i, j, c in by_output.get(k, ()):
                if i in rest or j in rest:
                    continue
                s = bisect_left(rest, i)  # 0-based positions of i and j in tau
                t = bisect_left(rest, j) + 1
                tau = rest[:s] + (i,) + rest[s : t - 1] + (j,) + rest[t - 1 :]
                pairs.append((tau, c if (s + t + 1 + p) % 2 == 0 else -c))
        actions = []
        for m in ms:
            for i, col in by_second.get(m, ()):
                if i not in key:
                    s = bisect_left(key, i)
                    actions.append((m, key[:s] + (i,) + key[s:], 1 if s % 2 else -1, col))
        yield key, pairs, actions


def d_mu(table: Table, entries: Mapping[tuple[int, ...], Mapping[int, Scalar]]):
    """D times d_mu(c), for mu's signed table over D and the entries of c, as
    {tau: {k: value}} nonzeros: the sum of x * d_mu(e^key (x) e_m) over the
    entries x of c, of any type (int, Fraction, PolyScalar).  For integer
    entries over D, as table_entries gives, the values are ints over D^2."""
    out: dict[tuple[int, ...], dict[int, Scalar]] = defaultdict(dict)
    for key, pairs, actions in _basis_images(table, entries):
        vec = entries[key]
        for tau, c in pairs:
            acc = out[tau]
            for m, x in vec.items():
                acc[m] = acc.get(m, 0) + c * x
        for m, tau, sign, col in actions:
            acc, f = out[tau], sign * vec[m]
            for k, c in col.items():
                acc[k] = acc.get(k, 0) + f * c
    return {tau: v for tau, acc in out.items() if (v := {k: x for k, x in acc.items() if x})}


def table_entries(table: Table) -> dict[tuple[int, int], dict[int, int]]:
    """The entries of a signed table's 2-cochain: its pairs (i, j), i < j."""
    return {key: col for key, col in table.items() if key[0] < key[1]}


class LieAlgebra:
    """A finite-dimensional Lie algebra over the rationals.

    mu is the bracket as a rational 2-cochain, and brackets its entries.
    _table is mu's signed integer table over the denominator _den, which the
    Jacobi check, d_q, bracket, the series, the center and basis changes read.
    _adapted keeps adapted_to_derived's view: None until built, _SAME when it
    is the algebra itself (no self-reference).  The Jacobi check builds it
    exactly when the table has more than C(n, 2) nonzeros, as a dense table
    does; a sparser one is checked faster directly.  check=False skips the
    Jacobi check, which is right only for a table proven Lie (h_n, a member
    whose defects vanish, a moved Lie table) or a negative test.
    """

    __slots__ = ("dim", "mu", "name", "_table", "_den", "_adapted")

    def __init__(
        self,
        dim: int,
        brackets: Mapping[tuple[int, int], Mapping[int, Coeff]],
        check: bool = True,
        name: Optional[str] = None,
    ):
        self.mu = Cochain(2, dim, brackets)
        if self.mu.is_symbolic():
            raise TypeError("structure constants must be rational, got PolyScalar")
        self.dim = dim
        self.name = name
        (self._table,), self._den = signed_tables([self.mu])
        self._adapted = None
        if check:
            violations = self.jacobi_violations()
            if violations:
                raise JacobiError(violations)

    @property
    def brackets(self) -> dict[tuple[int, int], dict[int, Fraction]]:
        return self.mu.entries

    # -- bracket evaluation ---------------------------------------------

    def bracket_basis(self, i: int, j: int) -> dict[int, Fraction]:
        """[e_i, e_j] as {k: value} (any order; i = j gives zero)."""
        return self.mu.value((i, j))

    def bracket(self, x: Mapping[int, Coeff], y: Mapping[int, Coeff]) -> dict[int, Fraction]:
        """[x, y] for {index: value} vectors, as {index: value} nonzeros."""
        _check_indices(x, self.dim, "basis index")
        _check_indices(y, self.dim, "basis index")
        return {k: Fraction(c, self._den) for k, c in self._product(x, y).items()}

    def _product(self, x: Mapping[int, Coeff], y: Mapping[int, Coeff]) -> dict[int, Coeff]:
        """_den times [x, y] for {index: value} vectors, as {k: c} nonzeros (ints for ints)."""
        acc: dict[int, Coeff] = {}
        for a, xa in x.items():
            for b, yb in y.items():
                col = self._table.get((a, b))
                if col:
                    f = xa * yb
                    for k, c in col.items():
                        acc[k] = acc.get(k, 0) + f * c
        return {k: c for k, c in acc.items() if c}

    # -- validation -------------------------------------------------------

    def jacobi_violations(self) -> list[tuple[int, int, int, dict[int, Fraction]]]:
        """All triples (i, j, k), i<j<k, where the Jacobi sum -d_mu(mu)/2 is
        nonzero, each with that sum as {index: value}.

        The check reads the adapted view exactly when the table has more than
        C(n, 2) nonzeros, one per basis pair: a dense table sits far above
        that, and at or below it the view costs more than the direct sums.
        When the view fails, the sums are taken in the given basis, so the
        triples are the table's own.
        """
        nnz = sum(map(len, self.mu.entries.values()))
        view = self.adapted_to_derived() if nnz > comb(self.dim, 2) else self
        if view is not self and not d_mu(view._table, table_entries(view._table)):
            return []
        found = d_mu(self._table, table_entries(self._table))
        scale = -2 * self._den**2
        return [
            (*t, {m: Fraction(x, scale) for m, x in sorted(d.items())})
            for t, d in sorted(found.items())
        ]

    # -- invariants ---------------------------------------------------------

    def center(self) -> list[dict[int, Fraction]]:
        """Basis of {x : [x, e_i] = 0 for all i}, as {index: value} vectors: the
        nullspace of rows (i, k) holding ([e_j, e_i])_k at column j, times _den
        (scaling rows keeps the nullspace)."""
        rows: dict[tuple[int, int], dict[int, int]] = {}
        for (j, i), col in self._table.items():
            for k, c in col.items():
                rows.setdefault((i, k), {})[j] = c
        return ExactMatrix._from_integer_rows(list(rows.values()), 1, self.dim).nullspace()

    def series(self, kind: str) -> list[int]:
        """Dimension sequence of the derived or lower central series.

        The list starts at dim(A) and stops at the first 0 or at the first
        repeated value (a nonzero repeat marks stabilization).  A term is spanned
        by [u, v] over integer basis rows: u in the algebra and v in the term
        (lower central), or u before v in the term (derived; [v, u] = -[u, v]).
        """
        if kind not in ("derived", "lower_central"):
            raise ValueError(f"unknown series kind {kind!r}")
        full = [{i: 1} for i in range(self.dim)]  # already in echelon form
        current = full
        dims = [len(current)]
        while True:
            pairs = product(full, current) if kind == "lower_central" else combinations(current, 2)
            nxt = list(_echelon(self._product(u, v) for u, v in pairs).values())  # int rows
            dims.append(len(nxt))
            if len(nxt) == 0 or len(nxt) == len(current):
                return dims
            current = nxt

    def is_solvable(self) -> bool:
        return self.series("derived")[-1] == 0

    def is_nilpotent(self) -> bool:
        return self.series("lower_central")[-1] == 0

    # -- basis change ---------------------------------------------------------

    def change_basis(self, T: ExactMatrix) -> "LieAlgebra":
        """The algebra in the basis whose vectors are the columns of T:
        new[x,y] = T^-1 [Tx, Ty].

        ValueError unless T is dim x dim; SingularMatrixError when T is not
        invertible.
        """
        if T.nrows != self.dim or T.ncols != self.dim:
            raise ValueError("basis-change matrix has wrong shape")
        try:
            Tinv = T.inverse()
        except SingularMatrixError:
            raise SingularMatrixError("basis change must be invertible") from None
        cols = [T.mul_vector({i: _ONE}) for i in range(self.dim)]  # T e_i
        brackets = self._transport(
            cols, lambda v: {k: x / self._den for k, x in Tinv.mul_vector(v).items()}
        )
        # T^-1 mu(T., T.) satisfies the Jacobi identity exactly when mu does.
        return LieAlgebra(self.dim, brackets, check=False, name=None)

    def _transport(self, basis: Sequence[Mapping[int, Coeff]], read) -> dict:
        """{(i, j): read(v)}, i < j, over the nonempty results, for new basis
        vectors b: v = _den [b_i, b_j] is a fresh {k: value} nonzero vector in
        the old coordinates, and read gives the new ones that its caller keeps,
        zeros dropped."""
        moved = {}
        for i, j in combinations(range(self.dim), 2):
            if (v := self._product(basis[i], basis[j])) and (new := read(v)):
                moved[(i, j)] = new
        return moved

    def adapted_to_derived(self) -> "LieAlgebra":
        """The algebra in a basis adapted to D = [g, g], built once and kept.

        D is spanned by the table's values; r_p, keyed by lead p, is its reduced
        echelon basis as primitive integer rows with r_p[p] > 0.  The new basis
        keeps e_i at every non-lead i and takes r_p at each lead p, and
        _transport moves the table.  A bracket lies in D and r_p is zero at the
        other leads, so the reader takes its new coordinate at p as its entry
        at p over r_p[p]: no inverse is formed.  When every r_p is a unit
        vector the basis is the given one, and self is returned.  The Jacobi
        check builds it past C(n, 2) nonzeros, where it beats the direct sums;
        plain H^q builds it for any table.
        """
        if self._adapted is None:
            values = table_entries(self._table).values()
            reduced = {}  # single-entry values: D's reduced rows are unit vectors
            if any(len(col) > 1 for col in values):
                reduced = _echelon(values)
                _back_substitute(reduced)
            if all(len(r) == 1 for r in reduced.values()):
                self._adapted = _SAME
            else:
                basis = [{i: 1} for i in range(self.dim)]
                for p, r in reduced.items():
                    g = gcd(*r.values()) if r[p] > 0 else -gcd(*r.values())
                    basis[p] = {k: x // g for k, x in r.items()}
                den = {p: self._den * basis[p][p] for p in reduced}
                brackets = self._transport(
                    basis, lambda v: {p: Fraction(v[p], den[p]) for p in den if p in v}
                )
                # Unchecked: T^-1 mu(T., T.) is Lie exactly when mu is; the check reads it.
                self._adapted = LieAlgebra(self.dim, brackets, check=False, name=None)
        return self if self._adapted is _SAME else self._adapted

    # -- structural equality ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return self.mu == other.mu

    def __hash__(self):
        return hash(self.mu)

    def __repr__(self):
        label = self.name or f"dim {self.dim}"
        return f"LieAlgebra({label}, {len(self.brackets)} nonzero brackets)"
