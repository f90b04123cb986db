"""Lie algebras presented by structure constants.

An algebra of dimension n stores the vectors [e_i, e_j] only for i < j
(0-based internally; all file formats and printed output are 1-based to
match the usual e_1..e_n notation).  Brackets for j > i follow by
skew-symmetry.  Construction validates the Jacobi identity unless the
caller explicitly asks for an unchecked instance, which exists only so
negative tests can build broken tables.

Any skew bilinear map given as {(i, j): vector} for i < j (a bracket table,
or the entries of a 2-cochain) is composed through one format:
signed_tables scales a list of such maps by one common denominator D to
Python ints and turns each into the sparse {(a, b): {k: c}} table holding
both orders.  jacobiator sums the cyclic compositions
outer(x, inner(y, z)) + outer(y, inner(z, x)) + outer(z, inner(x, y)) over
pairs of such tables with int arithmetic only; every pair is scaled by D²,
so its values are read over D² once, at the end.  With the bracket in both
slots this is the Jacobi identity; deform uses it for the defects of a
formal deformation, and cohomology builds d_q from the same integer table.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping, Optional, Sequence, Union

from .exact import EchelonBasis, ExactMatrix, SingularMatrixError, vec_is_zero, vec_zero

_ZERO = Fraction(0)
_ONE = Fraction(1)

# {(a, b): {k: c}}: the nonzero constants c of e_k in the value at (e_a, e_b),
# as integers over the table's denominator.
Table = dict[tuple[int, int], dict[int, int]]


class JacobiError(ValueError):
    """Raised when a structure-constant table violates the Jacobi identity."""

    def __init__(self, violations):
        self.violations = violations
        triples = ", ".join(str(tuple(i + 1 for i in v[:3])) for v in violations[:5])
        more = "" if len(violations) <= 5 else f" (+{len(violations) - 5} more)"
        super().__init__(f"Jacobi identity fails at triples {triples}{more}")


def signed_tables(
    maps: Sequence[Mapping[tuple[int, int], Sequence[Fraction]]]
) -> tuple[list[Table], int]:
    """The integer tables of skew maps given on pairs i < j, and their denominator D.

    D is the lcm of every denominator in the maps, and each table holds D
    times its map in both orders, signed.  A zero value is absent, so a
    lookup miss means zero (also for a = b).
    """
    den = lcm(1, *(x.denominator for pairs in maps for vec in pairs.values() for x in vec))
    tables = []
    for pairs in maps:
        table: Table = {}
        for (i, j), vec in pairs.items():
            col = {k: c.numerator * (den // c.denominator) for k, c in enumerate(vec) if c}
            if col:
                table[(i, j)] = col
                table[(j, i)] = {k: -c for k, c in col.items()}
        tables.append(table)
    return tables, den


def jacobiator(
    pairs: Sequence[tuple[Table, Table]], dim: int
) -> dict[tuple[int, int, int], tuple[int, ...]]:
    """Sum over (outer, inner) of outer(x, inner(y, z)) + cyclic, per triple.

    The value at a < b < c takes outer(x, inner(y, z)) for the three
    rotations (x, y, z) of (a, b, c); the signed inner table holds the
    reversed pair (c, a) too, so each entry of it feeds the one triple whose
    rotation it completes, with no sign.  The sums are ints over D² when
    every table is over D.  Only nonzero sums are kept, in lexicographic
    triple order.
    """
    acc: dict[tuple[int, int, int], list[int]] = {}
    for outer, inner in pairs:
        for (y, z), w in inner.items():
            for x in range(dim):
                if x < y < z:
                    key = (x, y, z)
                elif y < z < x:
                    key = (y, z, x)
                elif z < x < y:
                    key = (z, x, y)
                else:
                    continue
                for m, wm in w.items():
                    col = outer.get((x, m))
                    if col:
                        vec = acc.setdefault(key, [0] * dim)
                        for k, c in col.items():
                            vec[k] += wm * c
    return {key: tuple(v) for key, v in sorted(acc.items()) if any(v)}


def _coerce_vector(v, dim: int) -> tuple[Fraction, ...]:
    vec = tuple(Fraction(x) for x in v)
    if len(vec) != dim:
        raise ValueError(f"coefficient vector has length {len(vec)}, expected {dim}")
    return vec


class LieAlgebra:
    """A finite-dimensional Lie algebra over the rationals.

    _table is the signed integer table of the brackets over the denominator
    _den (see signed_tables); the Jacobi check and d_q read it.
    """

    __slots__ = ("dim", "brackets", "name", "_table", "_den")

    def __init__(
        self,
        dim: int,
        brackets: Mapping[tuple[int, int], Sequence[Union[Fraction, int]]],
        check: bool = True,
        name: Optional[str] = None,
    ):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        self.dim = dim
        table: dict[tuple[int, int], tuple[Fraction, ...]] = {}
        for (i, j), coeffs in brackets.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bracket key ({i}, {j}) must satisfy 0 <= i < j < dim")
            vec = _coerce_vector(coeffs, dim)
            if not vec_is_zero(vec):
                table[(i, j)] = vec
        self.brackets = dict(sorted(table.items()))
        self.name = name
        (self._table,), self._den = signed_tables([self.brackets])
        if check:
            violations = self.jacobi_violations()
            if violations:
                raise JacobiError(violations)

    # -- bracket evaluation ---------------------------------------------

    def bracket_basis(self, i: int, j: int) -> tuple[Fraction, ...]:
        """[e_i, e_j] as a coefficient vector (any order; i = j gives zero)."""
        if i < j:
            return self.brackets.get((i, j), vec_zero(self.dim))
        vec = self.brackets.get((j, i))
        return tuple(-x for x in vec) if vec else vec_zero(self.dim)

    def bracket(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Bilinear, skew-symmetric evaluation through the structure constants."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vectors must have length equal to the algebra dimension")
        acc = list(vec_zero(self.dim))
        for (i, j), vec in self.brackets.items():
            c = x[i] * y[j] - x[j] * y[i]
            if c:
                for k, v in enumerate(vec):
                    if v:
                        acc[k] += c * v
        return tuple(acc)

    # -- validation -------------------------------------------------------

    def jacobi_violations(self) -> list[tuple[int, int, int, tuple[Fraction, ...]]]:
        """All triples (i, j, k), i<j<k, where the Jacobi sum is nonzero."""
        found = jacobiator([(self._table, self._table)], self.dim)
        scale = self._den**2
        return [(i, j, k, tuple(Fraction(x, scale) for x in d)) for (i, j, k), d in found.items()]

    # -- invariants ---------------------------------------------------------

    def center(self) -> list[tuple[Fraction, ...]]:
        """Basis of {x : [x, e_i] = 0 for all i}, via one nullspace."""
        n = self.dim
        rows = []
        for i in range(n):
            # row block for the map x -> [x, e_i]; entry (k, j) is ([e_j, e_i])_k
            cols = [self.bracket_basis(j, i) for j in range(n)]
            for k in range(n):
                rows.append(tuple(cols[j][k] for j in range(n)))
        return ExactMatrix(rows, ncols=n).nullspace()

    def series(self, kind: str) -> list[int]:
        """Dimension sequence of the derived or lower central series.

        The list starts at dim(A) and stops at the first 0 or at the first
        repeated value (a nonzero repeat marks stabilization).
        """
        if kind not in ("derived", "lower_central"):
            raise ValueError(f"unknown series kind {kind!r}")
        full = [_unit(self.dim, i) for i in range(self.dim)]  # already in echelon form
        current = full
        dims = [len(current)]
        while True:
            left = full if kind == "lower_central" else current
            nxt = self._product_space(left, current)
            dims.append(len(nxt))
            if len(nxt) == 0 or len(nxt) == len(current):
                return dims
            current = nxt

    def is_solvable(self) -> bool:
        return self.series("derived")[-1] == 0

    def is_nilpotent(self) -> bool:
        return self.series("lower_central")[-1] == 0

    def _product_space(
        self,
        left: Sequence[tuple[Fraction, ...]],
        right: Sequence[tuple[Fraction, ...]],
    ) -> list[tuple[Fraction, ...]]:
        """Echelon basis of span{[u, v]} over basis pairs in lexicographic order."""
        return EchelonBasis(self.bracket(u, v) for u in left for v in right).basis

    # -- basis change ---------------------------------------------------------

    def change_basis(self, transform: Union["BasisChange", ExactMatrix]) -> "LieAlgebra":
        """Transport structure constants: new[x,y] = T^-1 [Tx, Ty]."""
        T = transform.matrix if isinstance(transform, BasisChange) else transform
        if T.nrows != self.dim or T.ncols != self.dim:
            raise ValueError("basis-change matrix has wrong shape")
        Tinv = T.inverse()  # raises SingularMatrixError when not invertible
        cols = [T.column(i) for i in range(self.dim)]
        new_brackets = {}
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                w = Tinv.mul_vector(self.bracket(cols[i], cols[j]))
                if not vec_is_zero(w):
                    new_brackets[(i, j)] = w
        return LieAlgebra(self.dim, new_brackets, check=True, name=None)

    # -- structural equality ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return self.dim == other.dim and self.brackets == other.brackets

    def __hash__(self):
        return hash((self.dim, tuple(self.brackets.items())))

    def __repr__(self):
        label = self.name or f"dim {self.dim}"
        return f"LieAlgebra({label}, {len(self.brackets)} nonzero brackets)"


class BasisChange:
    """An invertible rational matrix whose columns are the new basis vectors."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: ExactMatrix):
        if matrix.nrows != matrix.ncols:
            raise SingularMatrixError("basis change must be square")
        if matrix.rank() != matrix.nrows:
            raise SingularMatrixError("basis change must be invertible")
        self.matrix = matrix

    @classmethod
    def identity(cls, n: int) -> "BasisChange":
        return cls(ExactMatrix.identity(n))

    @classmethod
    def transvection(cls, n: int, i: int, j: int, c: Union[Fraction, int]) -> "BasisChange":
        """e_i -> e_i + c e_j, all other basis vectors fixed (0-based)."""
        if i == j:
            raise ValueError("transvection needs distinct indices")
        rows = [[_ONE if a == b else _ZERO for b in range(n)] for a in range(n)]
        rows[j][i] = Fraction(c)
        return cls(ExactMatrix(rows))

    def __repr__(self):
        return f"BasisChange({self.matrix.nrows}x{self.matrix.ncols})"


def _unit(n: int, i: int) -> tuple[Fraction, ...]:
    return tuple(_ONE if k == i else _ZERO for k in range(n))
