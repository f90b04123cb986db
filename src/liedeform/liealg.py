"""Lie algebras presented by structure constants.

An algebra of dimension n stores the vectors [e_i, e_j] only for i < j
(0-based internally; all file formats and printed output are 1-based to
match the usual e_1..e_n notation).  Brackets for j > i follow by
skew-symmetry.  Construction validates the Jacobi identity unless the
caller explicitly asks for an unchecked instance, which exists only so
negative tests can build broken tables.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from .exact import (
    EchelonBasis,
    ExactMatrix,
    SingularMatrixError,
    vec_add,
    vec_is_zero,
    vec_zero,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class JacobiError(ValueError):
    """Raised when a structure-constant table violates the Jacobi identity."""

    def __init__(self, violations):
        self.violations = violations
        triples = ", ".join(str(tuple(i + 1 for i in v[:3])) for v in violations[:5])
        more = "" if len(violations) <= 5 else f" (+{len(violations) - 5} more)"
        super().__init__(f"Jacobi identity fails at triples {triples}{more}")


def _coerce_vector(v, dim: int) -> tuple[Fraction, ...]:
    vec = tuple(Fraction(x) for x in v)
    if len(vec) != dim:
        raise ValueError(f"coefficient vector has length {len(vec)}, expected {dim}")
    return vec


class LieAlgebra:
    """A finite-dimensional Lie algebra over the rationals."""

    __slots__ = ("dim", "brackets", "name", "_table")

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
        # Signed lookup for both orders; zero pairs are simply absent.
        full: dict[tuple[int, int], tuple[Fraction, ...]] = {}
        for (i, j), vec in self.brackets.items():
            full[(i, j)] = vec
            full[(j, i)] = tuple(-x for x in vec)
        self._table = full
        if check:
            violations = self.jacobi_violations()
            if violations:
                raise JacobiError(violations)

    # -- bracket evaluation ---------------------------------------------

    def bracket_basis(self, i: int, j: int) -> tuple[Fraction, ...]:
        """[e_i, e_j] as a coefficient vector (any order; i = j gives zero)."""
        v = self._table.get((i, j))
        return v if v is not None else vec_zero(self.dim)

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

    def _bracket_basis_vector(self, i: int, w: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """[e_i, w] for a coefficient vector w."""
        acc = list(vec_zero(self.dim))
        for k, wk in enumerate(w):
            if not wk:
                continue
            v = self._table.get((i, k))
            if v is None:
                continue
            for m, vm in enumerate(v):
                if vm:
                    acc[m] += wk * vm
        return tuple(acc)

    # -- validation -------------------------------------------------------

    def jacobi_violations(self) -> list[tuple[int, int, int, tuple[Fraction, ...]]]:
        """All triples (i, j, k), i<j<k, where the Jacobi sum is nonzero."""
        out = []
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    d = vec_add(
                        vec_add(
                            self._bracket_basis_vector(i, self.bracket_basis(j, k)),
                            self._bracket_basis_vector(j, self.bracket_basis(k, i)),
                        ),
                        self._bracket_basis_vector(k, self.bracket_basis(i, j)),
                    )
                    if not vec_is_zero(d):
                        out.append((i, j, k, d))
        return out

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
    def diagonal(cls, entries: Sequence[Union[Fraction, int]]) -> "BasisChange":
        n = len(entries)
        return cls(
            ExactMatrix(
                [
                    tuple(Fraction(entries[i]) if i == j else _ZERO for j in range(n))
                    for i in range(n)
                ]
            )
        )

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
