"""Exact scalar arithmetic and dense exact linear algebra.

Scalars are either rational numbers (``fractions.Fraction``, re-exported as
``Rational``) or small multivariate polynomials in the formal parameters
p, q, r with rational coefficients (``PolyScalar``).  All linear algebra
(rank, nullspace, solve, inverse) is performed over the rationals with
plain row reduction; exact arithmetic needs no pivoting heuristics, and the
first nonzero entry in each column is always taken as the pivot so results
are deterministic.
"""

from __future__ import annotations

import re
from bisect import insort
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

Rational = Fraction

POLY_VARS = ("p", "q", "r")

# Total-degree cap for PolyScalar results.  Deformation defects are at most
# quadratic in a degree-<=2 cochain family, so 8 leaves ample headroom;
# exceeding it raises instead of truncating silently.
DEGREE_CAP = 8

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DegreeCapExceeded(ValueError):
    """A polynomial operation produced a term above the degree cap."""


class SingularMatrixError(ValueError):
    """A matrix required to be invertible is singular."""


def parse_rational(text: str) -> Fraction:
    """Parse "a" or "a/b" (unicode minus tolerated) into a Fraction."""
    return Fraction(text.strip().replace("−", "-"))


def _exp_mul(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


class PolyScalar:
    """Polynomial in p, q, r over the rationals, kept in canonical form.

    Canonical form: no zero coefficients, monomials keyed by exponent
    triples over the fixed variable order (p, q, r) and sorted
    lexicographically when printed or hashed.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int, int], Union[Fraction, int]] = ()):
        clean: dict[tuple[int, int, int], Fraction] = {}
        for exps, coeff in dict(terms).items():
            exps = (int(exps[0]), int(exps[1]), int(exps[2]))
            if min(exps) < 0:
                raise ValueError(f"negative exponent in monomial {exps}")
            if sum(exps) > DEGREE_CAP:
                raise DegreeCapExceeded(
                    f"monomial {exps} exceeds total degree cap {DEGREE_CAP}"
                )
            coeff = Fraction(coeff)
            if coeff:
                clean[exps] = coeff
        self._terms = clean

    @classmethod
    def const(cls, value: Union[Fraction, int]) -> "PolyScalar":
        return cls({(0, 0, 0): Fraction(value)})

    @classmethod
    def variable(cls, name: str) -> "PolyScalar":
        if name not in POLY_VARS:
            raise ValueError(f"unknown variable {name!r}; expected one of {POLY_VARS}")
        exps = tuple(1 if v == name else 0 for v in POLY_VARS)
        return cls({exps: _ONE})

    @classmethod
    def zero(cls) -> "PolyScalar":
        return cls()

    @property
    def terms(self) -> tuple[tuple[tuple[int, int, int], Fraction], ...]:
        return tuple(sorted(self._terms.items()))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(e == (0, 0, 0) for e in self._terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (error if any variable occurs)."""
        if not self.is_constant():
            raise ValueError(f"polynomial {self} is not constant")
        return self._terms.get((0, 0, 0), _ZERO)

    def total_degree(self) -> int:
        return max((sum(e) for e in self._terms), default=0)

    @staticmethod
    def _coerce(other) -> Optional["PolyScalar"]:
        if isinstance(other, PolyScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return PolyScalar.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self._terms)
        for exps, coeff in other._terms.items():
            terms[exps] = terms.get(exps, _ZERO) + coeff
        return PolyScalar(terms)

    __radd__ = __add__

    def __neg__(self):
        return PolyScalar({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms: dict[tuple[int, int, int], Fraction] = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                e = _exp_mul(ea, eb)
                terms[e] = terms.get(e, _ZERO) + ca * cb
        return PolyScalar(terms)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, PolyScalar):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        # Constant polynomials hash like their rational value so that
        # equality with Fraction stays consistent.
        if self.is_constant():
            return hash(self.constant_value())
        return hash(self.terms)

    def evaluate(self, point: Mapping[str, Union[Fraction, int]]) -> Fraction:
        """Substitute rational values for p, q, r."""
        vals = tuple(Fraction(point.get(v, 0)) for v in POLY_VARS)
        total = _ZERO
        for exps, coeff in self._terms.items():
            term = coeff
            for v, e in zip(vals, exps):
                if e:
                    term *= v**e
            total += term
        return total

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for exps, coeff in self.terms:
            factors = []
            for var, e in zip(POLY_VARS, exps):
                if e == 1:
                    factors.append(var)
                elif e > 1:
                    factors.append(f"{var}^{e}")
            mag = -coeff if coeff < 0 else coeff
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(f"-{body}" if coeff < 0 else body)
            else:
                parts.append(f"- {body}" if coeff < 0 else f"+ {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"PolyScalar({self})"


Scalar = Union[Fraction, PolyScalar]

_FACTOR_RE = re.compile(r"^(?:(?P<num>\d+(?:/\d+)?)|(?P<var>[pqr])(?:\^(?P<exp>\d+))?)$")


def parse_scalar(text: str) -> Scalar:
    """Parse a scalar string: a rational, or a sum of monomials in p, q, r.

    Accepted monomial syntax: optional rational coefficient and variable
    powers joined by "*", e.g. "-1 + 2*p*q - r^2".  Parentheses are not
    supported; inputs must already be expanded.
    """
    text = text.strip().replace("−", "-")
    if not text:
        raise ValueError("empty scalar string")
    if not re.search(r"[pqr]", text):
        return Fraction(text)

    terms: dict[tuple[int, int, int], Fraction] = {}
    # Split into signed terms at top level (no parentheses in the grammar).
    for signed_term in re.finditer(r"([+-]?)\s*([^+-]+)", text):
        sign = -1 if signed_term.group(1) == "-" else 1
        body = signed_term.group(2).strip()
        if not body:
            raise ValueError(f"malformed scalar string {text!r}")
        coeff = Fraction(sign)
        exps = [0, 0, 0]
        for factor in body.split("*"):
            factor = factor.strip()
            m = _FACTOR_RE.match(factor)
            if m is None:
                raise ValueError(f"malformed factor {factor!r} in scalar {text!r}")
            if m.group("num") is not None:
                coeff *= Fraction(m.group("num"))
            else:
                i = POLY_VARS.index(m.group("var"))
                exps[i] += int(m.group("exp") or 1)
        e = (exps[0], exps[1], exps[2])
        terms[e] = terms.get(e, _ZERO) + coeff
    return PolyScalar(terms)


def format_scalar(x: Scalar) -> str:
    return str(x)


def is_rational_multiple(poly: PolyScalar, generator: PolyScalar) -> bool:
    """True iff poly = c * generator for some rational c (zero counts)."""
    if poly.is_zero:
        return True
    if generator.is_zero:
        return False
    pt = poly.terms
    gt = generator.terms
    if len(pt) != len(gt):
        return False
    ratio = pt[0][1] / gt[0][1] if pt[0][0] == gt[0][0] else None
    if ratio is None:
        return False
    return all(pe == ge and pc == ratio * gc for (pe, pc), (ge, gc) in zip(pt, gt))


# ---------------------------------------------------------------------------
# Vectors: plain tuples of scalars.
# ---------------------------------------------------------------------------


def vec_zero(n: int) -> tuple[Fraction, ...]:
    return (_ZERO,) * n


def vec_add(u: Sequence[Scalar], v: Sequence[Scalar]) -> tuple[Scalar, ...]:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Sequence[Scalar], v: Sequence[Scalar]) -> tuple[Scalar, ...]:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c: Scalar, u: Sequence[Scalar]) -> tuple[Scalar, ...]:
    return tuple(c * a for a in u)


def vec_is_zero(u: Sequence[Scalar]) -> bool:
    return all(not a for a in u)


# ---------------------------------------------------------------------------
# Dense exact matrices.
# ---------------------------------------------------------------------------


def _coerce_entry(x) -> Scalar:
    if isinstance(x, (Fraction, PolyScalar)):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"matrix entries must be exact scalars, got {type(x).__name__}")


class ExactMatrix:
    """Immutable dense matrix of exact scalars.

    Rational entries support the full linear-algebra surface; matrices with
    polynomial entries may be stored and printed but must be evaluated to
    rationals before rank/nullspace/solve.
    """

    __slots__ = ("nrows", "ncols", "_rows")

    def __init__(self, rows: Sequence[Sequence[Scalar]], ncols: Optional[int] = None):
        rows = [tuple(_coerce_entry(x) for x in row) for row in rows]
        if rows:
            ncols_found = len(rows[0])
            if any(len(r) != ncols_found for r in rows):
                raise ValueError("ragged rows in matrix")
            if ncols is not None and ncols != ncols_found:
                raise ValueError("ncols does not match row length")
            ncols = ncols_found
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        self._rows = tuple(rows)
        self.nrows = len(rows)
        self.ncols = ncols

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "ExactMatrix":
        return cls([vec_zero(ncols) for _ in range(nrows)], ncols=ncols)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(
            [tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)]
        )

    def row(self, i: int) -> tuple[Scalar, ...]:
        return self._rows[i]

    def rows(self) -> tuple[tuple[Scalar, ...], ...]:
        return self._rows

    def entry(self, i: int, j: int) -> Scalar:
        return self._rows[i][j]

    def column(self, j: int) -> tuple[Scalar, ...]:
        return tuple(r[j] for r in self._rows)

    def is_zero(self) -> bool:
        return all(vec_is_zero(r) for r in self._rows)

    def is_rational(self) -> bool:
        return all(isinstance(x, Fraction) for r in self._rows for x in r)

    def _require_rational(self, op: str) -> None:
        if not self.is_rational():
            raise ValueError(
                f"{op} requires rational entries; evaluate polynomial entries first"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, self._rows))

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.ncols != other.nrows:
                raise ValueError(
                    f"shape mismatch: {self.nrows}x{self.ncols} * "
                    f"{other.nrows}x{other.ncols}"
                )
            out = [[_ZERO] * other.ncols for _ in range(self.nrows)]
            for i, row in enumerate(self._rows):
                acc = out[i]
                for k, a in enumerate(row):
                    if not a:
                        continue
                    brow = other._rows[k]
                    for j, b in enumerate(brow):
                        if b:
                            acc[j] += a * b
            return ExactMatrix(out, ncols=other.ncols)
        return NotImplemented

    def mul_vector(self, v: Sequence[Scalar]) -> tuple[Scalar, ...]:
        if len(v) != self.ncols:
            raise ValueError(f"vector length {len(v)} != ncols {self.ncols}")
        out = []
        for row in self._rows:
            acc: Scalar = _ZERO
            for a, b in zip(row, v):
                if a and b:
                    acc = acc + a * b
            out.append(acc)
        return tuple(out)

    # -- row reduction ------------------------------------------------------

    def _mutable_rows(self, augment: Optional[Sequence[Sequence[Fraction]]] = None):
        if augment is None:
            return [list(r) for r in self._rows]
        return [list(r) + list(extra) for r, extra in zip(self._rows, augment)]

    def rank(self) -> int:
        self._require_rational("rank")
        rows = self._mutable_rows()
        return len(_forward_echelon(rows, self.ncols, self.ncols))

    def nullspace(self) -> list[tuple[Fraction, ...]]:
        """Basis of the right kernel, ordered by ascending free column."""
        self._require_rational("nullspace")
        rows = self._mutable_rows()
        pivots = _rref(rows, self.ncols, self.ncols)
        pivot_set = set(pivots)
        basis = []
        for free in range(self.ncols):
            if free in pivot_set:
                continue
            v = [_ZERO] * self.ncols
            v[free] = _ONE
            for r, pc in enumerate(pivots):
                v[pc] = -rows[r][free]
            basis.append(tuple(v))
        return basis

    def solve(self, b: Sequence[Fraction]) -> Optional[tuple[Fraction, ...]]:
        """A particular solution of m x = b, or None when inconsistent.

        Free variables are set to zero, so the result is deterministic.
        """
        self._require_rational("solve")
        if len(b) != self.nrows:
            raise ValueError(f"rhs length {len(b)} != nrows {self.nrows}")
        rows = self._mutable_rows(augment=[[Fraction(x)] for x in b])
        pivots = _rref(rows, self.ncols, self.ncols + 1)
        for r in range(len(pivots), self.nrows):
            if rows[r][self.ncols]:
                return None
        x = [_ZERO] * self.ncols
        for r, pc in enumerate(pivots):
            x[pc] = rows[r][self.ncols]
        return tuple(x)

    def inverse(self) -> "ExactMatrix":
        self._require_rational("inverse")
        if self.nrows != self.ncols:
            raise SingularMatrixError("only square matrices can be inverted")
        n = self.nrows
        rows = self._mutable_rows(
            augment=[[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]
        )
        pivots = _rref(rows, n, 2 * n)
        if len(pivots) < n:
            raise SingularMatrixError("matrix is singular")
        return ExactMatrix([tuple(r[n:]) for r in rows], ncols=n)

    def __str__(self) -> str:
        return "\n".join(
            "[" + "  ".join(format_scalar(x) for x in row) + "]" for row in self._rows
        )

    def __repr__(self) -> str:
        return f"ExactMatrix({self.nrows}x{self.ncols})"


def _forward_echelon(rows: list[list[Fraction]], pivot_cols: int, width: int) -> list[int]:
    """In-place forward elimination; returns the pivot column list.

    Pivot choice is the first row with a nonzero entry in the current
    column.  Row operations skip zero entries of the pivot row, which keeps
    elimination fast on the sparse differentials this library produces.
    """
    pivots: list[int] = []
    nrows = len(rows)
    r = 0
    for c in range(pivot_cols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        pv = prow[c]
        nz = [(j, prow[j]) for j in range(c + 1, width) if prow[j]]
        for i in range(r + 1, nrows):
            f = rows[i][c]
            if not f:
                continue
            row = rows[i]
            row[c] = _ZERO
            t = f / pv
            for j, v in nz:
                row[j] -= t * v
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _rref(rows: list[list[Fraction]], pivot_cols: int, width: int) -> list[int]:
    """Reduced row echelon form (pivots normalized to 1, cleared above)."""
    pivots = _forward_echelon(rows, pivot_cols, width)
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        prow = rows[r]
        pv = prow[c]
        if pv != 1:
            prow[c] = _ONE
            for j in range(c + 1, width):
                if prow[j]:
                    prow[j] /= pv
        nz = [(j, prow[j]) for j in range(c + 1, width) if prow[j]]
        for i in range(r):
            f = rows[i][c]
            if not f:
                continue
            row = rows[i]
            row[c] = _ZERO
            for j, v in nz:
                row[j] -= f * v
    return pivots


class EchelonBasis:
    """Incremental echelon basis of a span of rational vectors.

    add(v) reduces v against the rows kept so far; when a nonzero remainder
    is left, it is kept with its leading entry normalized to 1, and the rows
    stay sorted by leading index.  The result depends only on the order in
    which vectors are added.
    """

    __slots__ = ("_rows",)

    def __init__(self, vectors: Iterable[Sequence[Fraction]] = ()):
        self._rows: list[tuple[int, tuple[Fraction, ...]]] = []  # (lead, row)
        for v in vectors:
            self.add(v)

    def add(self, v: Sequence[Fraction]) -> bool:
        """Reduce v into the basis; True iff it extended the span."""
        w = list(v)
        for lead, row in self._rows:
            c = w[lead]
            if c:
                for k, x in enumerate(row):
                    if x:
                        w[k] -= c * x
        lead = next((k for k, x in enumerate(w) if x), None)
        if lead is None:
            return False
        inv = _ONE / w[lead]
        insort(self._rows, (lead, tuple(x * inv for x in w)))  # leads are distinct
        return True

    @property
    def basis(self) -> list[tuple[Fraction, ...]]:
        return [row for _, row in self._rows]

    def __len__(self) -> int:
        return len(self._rows)
