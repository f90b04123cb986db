"""Skew tables: cochains, Lie algebras by structure constants, the Jacobiator.

This module owns the one format of a skew table.  A degree-q Cochain stores
its values on strictly increasing index tuples only, each as {k: value}
holding the nonzero coefficients of e_k, the one vector format of the
package; permuted arguments apply the permutation sign and repeated ones
give zero.  Coordinates on C^q are ordered by tuple (lexicographic), then
target index.  Indices are 0-based here, 1-based (e_1..e_n) in files and
printed output.  A Lie bracket is its 2-cochain mu_0: LieAlgebra holds its
constants [e_i, e_j], i < j, as the Cochain mu, and validates the Jacobi
identity unless the caller asks for an unchecked instance, which exists
only so negative tests can build broken tables.

signed_tables scales a list of 2-cochains (a bracket, deformation terms) by
one common denominator D to Python ints and turns each into the sparse
{(a, b): {k: c}} table holding both orders.  jacobiator sums the cyclic
compositions outer(x, inner(y, z)) + outer(y, inner(z, x)) +
outer(z, inner(x, y)) over pairs of such tables with int arithmetic only;
every pair is scaled by D², so its values are read over D² once, at the end.
With the bracket in both slots this is the Jacobi identity; deform uses it
for the defects of a formal deformation, and cohomology builds d_q from the
same integer table.  bracket, series, center and change_basis read it too:
[x, y] is the sum of x_a y_b [e_a, e_b] over the nonzero entries of x and y,
over D.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import lcm
from typing import Mapping, Optional, Sequence, Union

from .exact import (
    EchelonBasis,
    ExactMatrix,
    PolyScalar,
    Scalar,
    SingularMatrixError,
    _check_indices,
    _coerce_entry,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)

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
        self.degree = degree
        self.dim = dim
        clean: dict[tuple[int, ...], dict[int, Scalar]] = {}
        for key, vec in dict(entries).items():
            key = tuple(map(int, key))
            if len(key) != degree:
                raise ValueError(f"tuple {key} has length {len(key)}, expected {degree}")
            if key and not (0 <= min(key) and max(key) < dim):
                raise ValueError(f"tuple {key} out of range for dimension {dim}")
            if any(key[a] >= key[a + 1] for a in range(len(key) - 1)):
                raise ValueError(f"tuple {key} is not strictly increasing")
            _check_indices(vec, dim, f"tuple {key}: value index")
            v = {k: _coerce_entry(x, "cochain entries") for k, x in vec.items()}
            v = {k: v[k] for k in sorted(v) if v[k]}
            if v:
                clean[key] = v
        self.entries = dict(sorted(clean.items()))

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
        return Cochain(self.degree, self.dim, out)

    def __add__(self, other: "Cochain") -> "Cochain":
        return self._merge(other, operator.add)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self._merge(other, operator.sub)

    def __neg__(self) -> "Cochain":
        return self.scale(-1)

    def scale(self, c: Scalar) -> "Cochain":
        entries = {key: {k: c * x for k, x in v.items()} for key, v in self.entries.items()}
        return Cochain(self.degree, self.dim, entries)

    def substitute(self, point: Mapping[str, Union[Fraction, int]]) -> "Cochain":
        """Substitute rational values for p, q, r in all entries."""
        out = {}
        for key, vec in self.entries.items():
            out[key] = {
                k: x.evaluate(point) if isinstance(x, PolyScalar) else x for k, x in vec.items()
            }
        return Cochain(self.degree, self.dim, out)

    def coords(self) -> dict[int, Scalar]:
        """The nonzero coordinates on C^q as {index: value}, ascending."""
        first = _first_coords(self.dim, self.degree)
        return {first[key] + k: x for key, vec in self.entries.items() for k, x in vec.items()}

    @classmethod
    def from_coords(cls, degree: int, dim: int, coords: Mapping[int, Scalar]) -> "Cochain":
        """The cochain with the given {index: value} coordinates, all others zero."""
        tuples = _tuples(dim, degree)
        _check_indices(coords, len(tuples) * dim, "coordinate")
        entries: dict[tuple[int, ...], dict[int, Scalar]] = {}
        for i, x in coords.items():
            t, k = divmod(i, dim)
            entries.setdefault(tuples[t], {})[k] = x
        return cls(degree, dim, entries)

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


def jacobiator(pairs: Sequence[tuple[Table, Table]]) -> dict[tuple[int, int, int], dict[int, int]]:
    """Sum over (outer, inner) of outer(x, inner(y, z)) + cyclic, per triple.

    The value at a < b < c takes outer(x, inner(y, z)) for the three
    rotations (x, y, z) of (a, b, c).  Each entry inner(y, z), y < z, feeds
    every x outside {y, z} once: x < y and x > z are rotations as they
    stand, and y < x < z is the rotation (x, z, y), which reads inner(z, y)
    = -inner(y, z).  outer is indexed once per pair by its second slot,
    m -> [(x, outer(x, m))], so inner(y, z) = sum w_m e_m visits only the x
    with outer(x, m) nonzero: the work follows the nonzero compositions,
    not the dimension.  The sums are ints over D² when every table is over
    D.  Each value is {k: sum} of the nonzero sums, and only triples with a
    nonzero sum are kept, in lexicographic triple order.
    """
    acc: dict[tuple[int, int, int], dict[int, int]] = {}
    for outer, inner in pairs:
        by_second: dict[int, list[tuple[int, dict[int, int]]]] = {}
        for (x, m), col in outer.items():
            by_second.setdefault(m, []).append((x, col))
        for (y, z), w in inner.items():
            if y > z:
                continue
            for m, wm in w.items():
                for x, col in by_second.get(m, ()):
                    if x < y:
                        key, f = (x, y, z), wm
                    elif x > z:
                        key, f = (y, z, x), wm
                    elif y < x < z:
                        key, f = (y, x, z), -wm
                    else:
                        continue
                    vec = acc.setdefault(key, {})
                    for k, c in col.items():
                        vec[k] = vec.get(k, 0) + f * c
    nonzero = ((key, {k: x for k, x in v.items() if x}) for key, v in sorted(acc.items()))
    return {key: v for key, v in nonzero if v}


class LieAlgebra:
    """A finite-dimensional Lie algebra over the rationals.

    mu is the bracket as a rational 2-cochain, and brackets its entries.
    _table is mu's signed integer table over the denominator _den, which the
    Jacobi check, d_q, bracket, the series, the center and basis changes read.
    """

    __slots__ = ("dim", "mu", "name", "_table", "_den")

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
        """All triples (i, j, k), i<j<k, where the Jacobi sum is nonzero,
        each with that sum as {index: value}."""
        found = jacobiator([(self._table, self._table)])
        scale = self._den**2
        return [(*t, {m: Fraction(x, scale) for m, x in d.items()}) for t, d in found.items()]

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
            products = (self._product(u, v) for u, v in pairs)
            nxt = EchelonBasis(products).integer_rows
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
        new_brackets = {}
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                acc = self._product(cols[i], cols[j])
                if acc:
                    new_brackets[(i, j)] = {
                        k: x / self._den for k, x in Tinv.mul_vector(acc).items()
                    }
        return LieAlgebra(self.dim, new_brackets, check=True, name=None)

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
