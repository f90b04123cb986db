"""Lie algebras presented by structure constants.

An algebra of dimension n stores the vectors [e_i, e_j] only for i < j
(0-based internally; all file formats and printed output are 1-based to
match the usual e_1..e_n notation).  Brackets for j > i follow by
skew-symmetry.  Every vector of the algebra, in or out, is {index: value}
holding only the nonzeros: the brackets, bracket's arguments and value, the
Jacobi defects and the center's basis.  Construction validates the Jacobi
identity unless the caller explicitly asks for an unchecked instance, which
exists only so negative tests can build broken tables.

Any skew bilinear map given as {(i, j): {k: value}} for i < j (a bracket table,
or the entries of a 2-cochain) is composed through one format:
signed_tables scales a list of such maps by one common denominator D to
Python ints and turns each into the sparse {(a, b): {k: c}} table holding
both orders.  jacobiator sums the cyclic compositions
outer(x, inner(y, z)) + outer(y, inner(z, x)) + outer(z, inner(x, y)) over
pairs of such tables with int arithmetic only; every pair is scaled by D²,
so its values are read over D² once, at the end.  With the bracket in both
slots this is the Jacobi identity; deform uses it for the defects of a
formal deformation, and cohomology builds d_q from the same integer table.
bracket, series, center and change_basis read it too: [x, y] is the sum of
x_a y_b [e_a, e_b] over the nonzero entries of x and y, over D.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import lcm
from typing import Mapping, Optional, Sequence, Union

from .exact import EchelonBasis, ExactMatrix, SingularMatrixError, _check_indices, _coerce_rational

_ONE = Fraction(1)

# {(a, b): {k: c}}: the nonzero constants c of e_k in the value at (e_a, e_b),
# as integers over the table's denominator.
Table = dict[tuple[int, int], dict[int, int]]
Coeff = Union[Fraction, int]  # a value of a sparse {index: value} vector


class JacobiError(ValueError):
    """Raised when a structure-constant table violates the Jacobi identity."""

    def __init__(self, violations):
        self.violations = violations
        triples = ", ".join(str(tuple(i + 1 for i in v[:3])) for v in violations[:5])
        more = "" if len(violations) <= 5 else f" (+{len(violations) - 5} more)"
        super().__init__(f"Jacobi identity fails at triples {triples}{more}")


def signed_tables(
    maps: Sequence[Mapping[tuple[int, int], Mapping[int, Coeff]]]
) -> tuple[list[Table], int]:
    """The integer tables of skew maps given on pairs i < j, and their denominator D.

    The maps hold nonzero values only, as LieAlgebra.brackets and
    Cochain.entries do.  D is the lcm of every denominator in the maps, and
    each table holds D times its map in both orders, signed.  A lookup miss
    means zero (also for a = b).
    """
    den = lcm(1, *(x.denominator for pairs in maps for vec in pairs.values() for x in vec.values()))
    tables = []
    for pairs in maps:
        table: Table = {}
        for (i, j), vec in pairs.items():
            col = table[(i, j)] = {k: c.numerator * (den // c.denominator) for k, c in vec.items()}
            table[(j, i)] = {k: -c for k, c in col.items()}
        tables.append(table)
    return tables, den


def jacobiator(
    pairs: Sequence[tuple[Table, Table]], dim: int
) -> dict[tuple[int, int, int], dict[int, int]]:
    """Sum over (outer, inner) of outer(x, inner(y, z)) + cyclic, per triple.

    The value at a < b < c takes outer(x, inner(y, z)) for the three
    rotations (x, y, z) of (a, b, c); the signed inner table holds the
    reversed pair (c, a) too, so each entry of it feeds the one triple whose
    rotation it completes, with no sign.  The sums are ints over D² when
    every table is over D.  Each value is {k: sum} of the nonzero sums, and
    only triples with a nonzero sum are kept, in lexicographic triple order.
    """
    acc: dict[tuple[int, int, int], dict[int, int]] = {}
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
                        vec = acc.setdefault(key, {})
                        for k, c in col.items():
                            vec[k] = vec.get(k, 0) + wm * c
    nonzero = ((key, {k: x for k, x in v.items() if x}) for key, v in sorted(acc.items()))
    return {key: v for key, v in nonzero if v}


class LieAlgebra:
    """A finite-dimensional Lie algebra over the rationals.

    _table is the signed integer table of the brackets over the denominator
    _den (see signed_tables).  The Jacobi check, d_q, bracket, the series,
    the center and basis changes all read it; brackets is the public
    {(i, j): {k: value}} view of the same constants, nonzeros only, by
    ascending (i, j) and k.
    """

    __slots__ = ("dim", "brackets", "name", "_table", "_den")

    def __init__(
        self,
        dim: int,
        brackets: Mapping[tuple[int, int], Mapping[int, Coeff]],
        check: bool = True,
        name: Optional[str] = None,
    ):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        self.dim = dim
        table: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), coeffs in brackets.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bracket key ({i}, {j}) must satisfy 0 <= i < j < dim")
            _check_indices(coeffs, dim, "basis index")
            vec = {k: _coerce_rational(x, "structure constants") for k, x in coeffs.items()}
            vec = {k: vec[k] for k in sorted(vec) if vec[k]}
            if vec:
                table[(i, j)] = vec
        self.brackets = dict(sorted(table.items()))
        self.name = name
        (self._table,), self._den = signed_tables([self.brackets])
        if check:
            violations = self.jacobi_violations()
            if violations:
                raise JacobiError(violations)

    # -- bracket evaluation ---------------------------------------------

    def bracket_basis(self, i: int, j: int) -> dict[int, Fraction]:
        """[e_i, e_j] as {k: value} (any order; i = j gives zero)."""
        _check_indices((i, j), self.dim, "basis index")
        if i < j:
            return dict(self.brackets.get((i, j), {}))
        return {k: -x for k, x in self.brackets.get((j, i), {}).items()}

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
        found = jacobiator([(self._table, self._table)], self.dim)
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
        return self.dim == other.dim and self.brackets == other.brackets

    def __hash__(self):
        values = tuple((key, frozenset(v.items())) for key, v in self.brackets.items())
        return hash((self.dim, values))

    def __repr__(self):
        label = self.name or f"dim {self.dim}"
        return f"LieAlgebra({label}, {len(self.brackets)} nonzero brackets)"
