"""Chevalley-Eilenberg cochain complex with adjoint coefficients.

This module owns the differential d_q and the classes of H^q; the cochains
themselves, a Lie bracket included, are liealg's Cochain, and their skew
table is liealg's format.  The differential is liealg's d_mu for the
algebra's bracket (sign convention stated there) on the coordinates of
Cochain, by tuple, then target index.  Its basis images are ints over the
table's denominator D: d_q keeps them as integer rows over D,
apply_differential divides by D, and the image echelon of d_(q-1) takes
the integer columns as they are, since scaling does not change a span.

dim H^q and the ranks of d_q and d_(q-1) are basis invariants: a basis
change T of g induces invertible maps on C^q and C^(q+1), and d_q in the
new basis is d_q in the old one conjugated by them.  So the plain
cohomology_dim ranks d_q in the algebra's kept view adapted to [g, g],
which the Jacobi check reads too, where the brackets are sparse.  Its
representatives, and every class question, stay in the given basis: a
cochain's coordinates depend on the basis.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .exact import EchelonBasis, ExactMatrix, PolyScalar
from .liealg import Cochain, LieAlgebra, _basis_images, _first_coords, _tuples, d_mu


class NotACocycleError(ValueError):
    """An operation defined on cocycles received a non-cocycle."""


def apply_differential(algebra: LieAlgebra, c: Cochain) -> Cochain:
    """The Chevalley-Eilenberg differential of c, with adjoint coefficients:
    liealg.d_mu on the algebra's signed table, divided by its denominator.
    The basis images are rational, so this works for symbolic (PolyScalar)
    cochains.
    """
    if c.dim != algebra.dim:
        raise ValueError("cochain dimension does not match the algebra")
    q = c.degree
    n = algebra.dim
    if q > n:
        raise ValueError(f"degree {q} exceeds dimension {n}")
    dc = Cochain(q + 1, n, d_mu(algebra._table, c.entries))
    return dc if algebra._den == 1 else dc.scale(Fraction(1, algebra._den))


def _columns(algebra: LieAlgebra, q: int):
    """The columns of d_q in order, each as {row: int coefficient} over the
    algebra's denominator (cancelled terms read 0), from liealg's basis images.

    Column (key, m) is the image of e^key (x) e_m; row (tau, k) of C^(q+1)
    has index (position of tau) * n + k.
    """
    n = algebra.dim
    if not (0 <= q <= n):
        raise ValueError(f"degree {q} out of range 0..{n}")
    first_row, first_col = _first_coords(n, q + 1), _first_coords(n, q)
    cols: list[dict[int, int]] = [{} for _ in range(len(first_col) * n)]
    targets = dict.fromkeys(first_col, range(n))  # every key, every m
    for key, pairs, actions in _basis_images(algebra._table, targets):
        for tau, c in pairs:
            for m, r in enumerate(range(first_row[tau], first_row[tau] + n)):
                col = cols[first_col[key] + m]
                col[r] = col.get(r, 0) + c
        for m, tau, sign, images in actions:
            col, r = cols[first_col[key] + m], first_row[tau]
            for k, c in images.items():
                col[r + k] = col.get(r + k, 0) + sign * c
    return cols


def differential(algebra: LieAlgebra, q: int) -> ExactMatrix:
    """Sparse matrix of d_q : C^q -> C^(q+1) in the coordinates on C^q and C^(q+1).

    The nonzero integer basis images from _columns are added straight into
    the {column: int} rows of the matrix, over the algebra's denominator, so
    no zero entry and no Fraction is built; the same columns serve the image
    echelon of class questions.
    """
    n = algebra.dim
    rows: list[dict[int, int]] = [{} for _ in range(len(_tuples(n, q + 1)) * n)]
    for j, col in enumerate(_columns(algebra, q)):
        for r, x in col.items():
            if x:
                rows[r][j] = x
    return ExactMatrix._from_integer_rows(rows, algebra._den, len(_tuples(n, q)) * n)


def is_cocycle(algebra: LieAlgebra, c: Cochain) -> bool:
    """True iff dc = 0 (symbolic cochains: identically, as polynomials)."""
    return apply_differential(algebra, c).is_zero


def cocycle_constraints(algebra: LieAlgebra, c: Cochain) -> list[PolyScalar]:
    """The nonzero entries of dc as polynomials (empty = identically cocycle).

    Duplicate polynomials are removed; order follows coordinates of C^(q+1).
    """
    dc = apply_differential(algebra, c)
    seen = []
    for _, vec in sorted(dc.entries.items()):
        for _, x in sorted(vec.items()):
            p = x if isinstance(x, PolyScalar) else PolyScalar.const(x)
            if p not in seen:
                seen.append(p)
    return seen


def is_coboundary(algebra: LieAlgebra, c: Cochain) -> Optional[Cochain]:
    """A (q-1)-cochain b with db = c, or None when no preimage exists."""
    if c.degree < 1:
        raise ValueError("coboundary test needs degree >= 1")
    if c.is_symbolic():
        raise ValueError("coboundary test requires rational entries")
    if c.dim != algebra.dim:
        raise ValueError("cochain dimension does not match the algebra")
    d_prev = differential(algebra, c.degree - 1)
    x = d_prev.solve(c.coords())
    if x is None:
        return None
    return Cochain.from_coords(c.degree - 1, algebra.dim, x)


class CohomologyReport(NamedTuple):
    """Dimensions around degree q: dim H^q = dim ker d_q - rank d_(q-1)."""

    degree: int
    dim_cochain: int
    rank_d: int
    rank_d_prev: int
    representatives: Optional[tuple[Cochain, ...]] = None

    @property
    def dim_kernel(self) -> int:
        return self.dim_cochain - self.rank_d

    @property
    def dim_image_prev(self) -> int:
        return self.rank_d_prev

    @property
    def dim_H(self) -> int:
        return self.dim_kernel - self.dim_image_prev


def cohomology_dim(
    algebra: LieAlgebra, q: int, representatives: bool = False
) -> CohomologyReport:
    """Compute dim H^q(g; g) by exact rank computations.

    Without representatives, both ranks are taken in the algebra's kept
    view LieAlgebra.adapted_to_derived, where d_q is sparse however dense
    the given table is; they are basis invariants (see the module
    docstring).  With representatives, d_q's kernel is read in the given
    basis, since the printed cochains are coordinates in it.
    """
    n = algebra.dim
    if not (0 <= q <= n):
        raise ValueError(f"degree {q} out of range 0..{n}")
    if not representatives:
        algebra = algebra.adapted_to_derived()
    d_q = differential(algebra, q)
    size = len(_tuples(n, q)) * n
    reps: Optional[tuple[Cochain, ...]] = None
    if representatives:
        # d_q is eliminated once, for its kernel; the echelon of im d_(q-1)
        # gives its rank, so d_(q-1) is walked once.
        kernel = d_q.nullspace()
        rank_d = size - len(kernel)
        echelon = _image_echelon(algebra, q)
        rank_prev = len(echelon)
        # Kernel vectors independent modulo the previous image, in nullspace order.
        reps = tuple(
            Cochain.from_coords(q, n, v) for v in kernel if echelon.add(v)
        )
    else:
        rank_d = d_q.rank()
        rank_prev = differential(algebra, q - 1).rank() if q else 0
    return CohomologyReport(
        degree=q,
        dim_cochain=size,
        rank_d=rank_d,
        rank_d_prev=rank_prev,
        representatives=reps,
    )


def _image_echelon(algebra: LieAlgebra, q: int) -> EchelonBasis:
    """Echelon basis of the image of d_(q-1) inside C^q (empty for q = 0).

    Its vectors are the columns of d_(q-1), read sparse from _columns.
    """
    if not q:
        return EchelonBasis()
    return EchelonBasis(_columns(algebra, q - 1))


def class_normal_forms(
    algebra: LieAlgebra, q: int, cocycles: Sequence[Cochain]
) -> list[dict[int, Fraction]]:
    """Normal form of each cocycle's coordinates modulo the image of d_(q-1),
    as {index: value}.

    Two cocycles lie in the same class of H^q iff their normal forms are
    equal, and the span of their classes in H^q is the rank of the forms.
    """
    for c in cocycles:
        if c.degree != q:
            raise ValueError(f"cohomology classes in degree {q} need {q}-cochains")
        if c.is_symbolic():
            raise ValueError("cohomology classes require rational cochains")
        if not is_cocycle(algebra, c):
            raise NotACocycleError("cohomology classes are defined on cocycles only")
    echelon = _image_echelon(algebra, q)
    return [echelon.normal_form(c.coords()) for c in cocycles]


def class_eq(algebra: LieAlgebra, c1: Cochain, c2: Cochain) -> bool:
    """True iff the cocycles c1 and c2 differ by a coboundary."""
    a, b = class_normal_forms(algebra, c1.degree, [c1, c2])
    return a == b


def span_in_cohomology(algebra: LieAlgebra, q: int, cocycles: Sequence[Cochain]) -> int:
    """Dimension of the span of the given cocycle classes inside H^q."""
    return len(EchelonBasis(class_normal_forms(algebra, q, cocycles)))


def _comb(a: int, b: int) -> int:
    if b < 0 or b > a or a < 0:
        return 0
    return math.comb(a, b)


def heisenberg_hp_formula(n: int, p: int) -> int:
    """Closed-form dim H^p(h_n, h_n) for the rank-n Heisenberg algebra.

    Cases: p = 0; 1 <= p <= n; p = n+1; n+2 <= p <= 2n+1.  Binomials with
    out-of-range lower index are zero.
    """
    if n < 1:
        raise ValueError("heisenberg rank must be at least 1")
    if not (0 <= p <= 2 * n + 1):
        raise ValueError(f"degree {p} out of range 0..{2 * n + 1}")
    if p == 0:
        return 1
    if 1 <= p <= n:
        return (
            (2 * n + 1) * _comb(2 * n + 1, p)
            - _comb(2 * n + 1, p + 1)
            - 2 * n * _comb(2 * n + 1, p - 1)
        )
    if p == n + 1:
        return (
            (2 * n + 1) * (_comb(2 * n, n) - _comb(2 * n, n - 2))
            - _comb(2 * n, n - 1)
            + _comb(2 * n, n - 3)
        )
    return (
        2 * n * (_comb(2 * n, p - 1) - _comb(2 * n, p + 1))
        - _comb(2 * n, p)
        + _comb(2 * n, p + 2)
    )
