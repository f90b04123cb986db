"""Exact scalar arithmetic and exact linear algebra over the rationals.

Scalars are either rational numbers (``fractions.Fraction``, re-exported as
``Rational``) or small multivariate polynomials in the formal parameters
p, q, r with rational coefficients (``PolyScalar``).  Every vector the
arithmetic takes or returns, kernel vectors included, is {index: value},
holding only the nonzeros; dense tuples belong only to matrices as they are
read or displayed: the rows given to ExactMatrix, and row, rows, column and
entry.  All linear algebra (rank, nullspace, solve, inverse, EchelonBasis)
runs on one fraction-free engine over sparse integer rows.  An ExactMatrix
stores its rows so, over one denominator; a right-hand side and the vectors
of an EchelonBasis are scaled to integers as they come in.  A row operation
cancels an entry with integer multipliers (Bareiss, Math. Comp. 22, 1968),
so no fraction is formed until a result is read.  One forward-elimination
loop, _echelon, reduces every batch of rows.  The pivot of a column is the
shortest row leading there, and among those the one with the smallest
|entry|, so a unit pivot cancels without scaling the other rows.  rank,
nullspace, solve and inverse all eliminate the stored rows, whatever the
shape.  An EchelonBasis keeps the pivot rows of its batch and reduces each
vector added later, or asked for its normal form, at the kept leads.
Results do not depend on which row serves as a pivot: the rank, the reduced
row echelon form from which nullspace, solve (free variables zero) and
inverse are read, the set of leading indices of a span and the normal form
of a vector modulo it are all unique.

A rational in text has one grammar, read with string methods: an optional sign
("+", "-" or the Unicode minus), ASCII digits, optionally "/" and ASCII digits, with
whitespace around it allowed; no decimal point, exponent, separator or non-ASCII digit.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from itertools import count
from math import gcd, lcm
from typing import Collection, Iterable, Mapping, Optional, Sequence, Union

Rational = Fraction

POLY_VARS = ("p", "q", "r")

# Total-degree cap for PolyScalar results: parsed scalars, and products such
# as the degree-2 entries of the catalog's families (r*(p - q)).  Deformations
# refuse symbolic terms, so no defect is a polynomial.  Exceeding the cap
# raises instead of truncating silently.
DEGREE_CAP = 8

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DegreeCapExceeded(ValueError):
    """A polynomial operation produced a term above the degree cap."""


class SingularMatrixError(ValueError):
    """A matrix required to be invertible is singular."""


def _is_digits(text: str) -> bool:
    return text.isdigit() and text.isascii()


def _read_rational(text: str, signed: bool = True) -> Optional[Fraction]:
    """The Fraction text spells in the module's grammar (sign only if signed, no
    whitespace or Unicode minus), or None; "a/0" is a ZeroDivisionError."""
    num, slash, den = text.partition("/")
    digits = num[1:] if signed and num[:1] in ("+", "-") else num
    if not (_is_digits(digits) and (not slash or _is_digits(den))):
        return None
    return Fraction(int(num), int(den) if slash else 1)


def parse_rational(text: str) -> Fraction:
    """Parse "a" or "a/b", signed, into a Fraction (unicode minus tolerated)."""
    text = text.strip().replace("−", "-")
    if (x := _read_rational(text)) is None:
        raise ValueError(f"not a rational number: {text!r}")
    return x


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
            coeff = _coerce_rational(coeff, "polynomial coefficients")
            if coeff:
                clean[exps] = coeff
        self._terms = clean

    @classmethod
    def const(cls, value: Union[Fraction, int]) -> "PolyScalar":
        return cls({(0, 0, 0): value})

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
        vals = tuple(_coerce_rational(point.get(v, 0), "point values") for v in POLY_VARS)
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


def parse_scalar(text: str) -> Scalar:
    """Parse a scalar string: a rational, or a sum of monomials in p, q, r.

    Accepted monomial syntax: optional rational coefficient and variable
    powers joined by "*", e.g. "-1 + 2*p*q - r^2".  Parentheses are not
    supported; inputs must already be expanded.  Each sign must begin a
    term, so "p -+ q" and "--p" are errors.
    """
    text = text.strip().replace("−", "-")
    if not text:
        raise ValueError("empty scalar string")
    if "p" not in text and "q" not in text and "r" not in text:
        return parse_rational(text)

    # Signed terms, split at the signs (no parentheses in the grammar).
    chunks = text.replace("-", "+-").removeprefix("+").split("+")
    if "" in chunks or "-" in chunks:
        raise ValueError(f"malformed scalar string {text!r}")
    terms: dict[tuple[int, int, int], Fraction] = {}
    for chunk in chunks:
        body = chunk.removeprefix("-").strip()
        if not body:
            raise ValueError(f"malformed scalar string {text!r}")
        coeff = Fraction(-1 if chunk[0] == "-" else 1)
        exps = [0, 0, 0]
        for factor in body.split("*"):
            factor = factor.strip()
            var, caret, exp = factor.partition("^")
            if (x := _read_rational(factor, signed=False)) is not None:
                coeff *= x
            elif var in POLY_VARS and (not caret or _is_digits(exp)):
                exps[POLY_VARS.index(var)] += int(exp or 1)
            else:
                raise ValueError(f"malformed factor {factor!r} in scalar {text!r}")
        e = (exps[0], exps[1], exps[2])
        terms[e] = terms.get(e, _ZERO) + coeff
    return PolyScalar(terms)


# ---------------------------------------------------------------------------
# Sparse exact matrices: integer rows {column: x} over one denominator.
# ---------------------------------------------------------------------------


def _coerce_entry(x, what: str) -> Scalar:
    """x as an exact scalar: a Fraction or PolyScalar as given, an int as a
    Fraction.  Any other type is a TypeError, a float included: it holds a
    binary fraction, not the decimal it prints."""
    if isinstance(x, (Fraction, PolyScalar)):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"{what} must be exact scalars, got {type(x).__name__}")


def _coerce_rational(x, what: str) -> Fraction:
    """_coerce_entry for a value that must be rational."""
    if isinstance(x, PolyScalar):
        raise TypeError(f"{what} must be rational, got PolyScalar")
    return _coerce_entry(x, what)


def _check_indices(v: Collection[int], size: int, what: str) -> None:
    """ValueError unless each index in v (or key, for an {index: value} v) lies in 0..size-1."""
    if v and not (0 <= min(v) and max(v) < size):
        bad = next(j for j in v if not 0 <= j < size)
        raise ValueError(f"{what} {bad} out of range 0..{size - 1}")


class ExactMatrix:
    """Immutable sparse matrix of rationals (a PolyScalar entry is a TypeError).

    Row i is stored as the {column: x} dict of its nonzero integers x, the
    entries being x / _den for the least denominator _den, so equal matrices
    store equal rows; products, comparisons and elimination touch them only.
    from_sparse_rows takes {column: value} rows; mul_vector, solve and
    nullspace take and return {index: value} vectors.  Only the matrix
    itself has a dense side, for matrix files and display: ExactMatrix(rows)
    takes dense rows, and row, rows, column and entry read dense Fractions.
    """

    __slots__ = ("nrows", "ncols", "_rows", "_den")

    def __init__(self, rows: Sequence[Sequence[Fraction]], ncols: Optional[int] = None):
        rows = [tuple(row) for row in rows]
        if ncols is None:
            if not rows:
                raise ValueError("empty matrix needs an explicit column count")
            ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError(f"every row needs {ncols} entries")
        self._store((dict(enumerate(row)) for row in rows), ncols)

    @classmethod
    def from_sparse_rows(cls, rows: Iterable[Mapping[int, Fraction]], ncols: int) -> "ExactMatrix":
        """The matrix whose row i has the entries {column: value} of rows[i]."""
        m = cls.__new__(cls)
        m._store(rows, ncols)
        return m

    def _store(self, rows: Iterable[Mapping[int, Fraction]], ncols: int) -> None:
        given = []
        for row in rows:
            _check_indices(row, ncols, "column")
            given.append({j: _coerce_rational(x, "matrix entries") for j, x in row.items()})
        den = lcm(1, *(x.denominator for row in given for x in row.values()))
        ints = [{j: x.numerator * den // x.denominator for j, x in r.items() if x} for r in given]
        self._set(ints, den, ncols)

    @classmethod
    def _from_integer_rows(cls, rows: list[dict], den: int, ncols: int) -> "ExactMatrix":
        """The matrix of rows[i] / den, for {column: int} nonzeros in range and den > 0."""
        m = cls.__new__(cls)
        m._set(rows, den, ncols)
        return m

    def _set(self, rows: list[dict[int, int]], den: int, ncols: int) -> None:
        """Hold rows / den, with the common factor of den and the rows divided out."""
        if den > 1 and (g := gcd(den, *(x for row in rows for x in row.values()))) > 1:
            den //= g
            rows = [{j: x // g for j, x in row.items()} for row in rows]
        self._rows = tuple(rows)
        self._den = den
        self.nrows = len(self._rows)
        self.ncols = ncols

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls._from_integer_rows([{i: 1} for i in range(n)], 1, n)

    def row(self, i: int) -> tuple[Fraction, ...]:
        _check_indices((i,), self.nrows, "row")
        return tuple(Fraction(self._rows[i].get(j, 0), self._den) for j in range(self.ncols))

    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(self.row(i) for i in range(self.nrows))

    def entry(self, i: int, j: int) -> Fraction:
        _check_indices((i,), self.nrows, "row")
        _check_indices((j,), self.ncols, "column")
        return Fraction(self._rows[i].get(j, 0), self._den)

    def column(self, j: int) -> tuple[Fraction, ...]:
        _check_indices((j,), self.ncols, "column")
        return tuple(Fraction(r.get(j, 0), self._den) for r in self._rows)

    def is_zero(self) -> bool:
        return not any(self._rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.ncols, self._den, self._rows) == (other.ncols, other._den, other._rows)

    def __hash__(self):
        return hash((self.nrows, self.ncols, tuple(frozenset(r.items()) for r in self._rows)))

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.ncols != other.nrows:
                raise ValueError(
                    f"shape mismatch: {self.nrows}x{self.ncols} * "
                    f"{other.nrows}x{other.ncols}"
                )
            out = []
            for row in self._rows:
                acc: dict[int, int] = {}
                for k, a in row.items():
                    for j, b in other._rows[k].items():
                        acc[j] = acc.get(j, 0) + a * b
                out.append({j: x for j, x in acc.items() if x})
            return ExactMatrix._from_integer_rows(out, self._den * other._den, other.ncols)
        return NotImplemented

    def mul_vector(self, v: Mapping[int, Fraction]) -> dict[int, Fraction]:
        """m v for a rational {column: value} vector, as {row: value} nonzeros."""
        _check_indices(v, self.ncols, "column")
        out, den = {}, self._den
        for i, row in enumerate(self._rows):
            acc = _ZERO
            for j, a in row.items():
                b = v.get(j)
                if b:
                    acc = acc + a * b
            if acc:
                out[i] = acc / den if den > 1 else acc
        return out

    # -- row reduction ------------------------------------------------------

    def rank(self) -> int:
        """The rank: the number of pivots when the stored rows are eliminated."""
        return len(_echelon(self._rows))

    def nullspace(self) -> list[dict[int, Fraction]]:
        """Basis of the right kernel, ordered by ascending free column; each
        vector is {column: value}: its free column at 1 and the pivot columns
        of the reduced row echelon form, nonzeros only."""
        pivots = _echelon(self._rows)
        _back_substitute(pivots)
        basis = {free: {free: _ONE} for free in range(self.ncols) if free not in pivots}
        for c, row in pivots.items():
            for j, x in row.items():
                if j != c:
                    basis[j][c] = Fraction(-x, row[c])
        return list(basis.values())

    def solve(self, b: Mapping[int, Fraction]) -> Optional[dict[int, Fraction]]:
        """A solution x of m x = b, or None when the system is inconsistent.

        b is {row: value} and x is {column: value}, with the free variables
        zero, so x is unique.  The stored rows are _den m, so they solve _den b.
        """
        n, den = self.ncols, self._den
        _check_indices(b, self.nrows, "row")
        augmented = ({**row, n: den * b[i]} if i in b else row for i, row in enumerate(self._rows))
        pivots = _echelon(_integer_rows(augmented, "solve"))
        if n in pivots:
            return None
        _back_substitute(pivots)
        return {c: Fraction(row[n], row[c]) for c, row in pivots.items() if n in row}

    def inverse(self) -> "ExactMatrix":
        """m^-1: the stored rows are _den m, so [_den m | _den I] reduces to [I | m^-1]."""
        if self.nrows != self.ncols:
            raise SingularMatrixError("only square matrices can be inverted")
        n, den = self.nrows, self._den
        pivots = _echelon([{**row, n + i: den} for i, row in enumerate(self._rows)])
        if any(c >= n for c in pivots):
            raise SingularMatrixError("matrix is singular")
        _back_substitute(pivots)
        common = lcm(*(row[c] for c, row in pivots.items()))
        rows = [
            {j - n: x * (common // row[c]) for j, x in row.items() if j >= n}
            for c, row in pivots.items()
        ]
        return ExactMatrix._from_integer_rows(rows, common, n)

    def __repr__(self) -> str:
        return f"ExactMatrix({self.nrows}x{self.ncols})"


# ---------------------------------------------------------------------------
# The elimination engine: fraction-free, on sparse integer rows {column: x}.
# ---------------------------------------------------------------------------


def _integer_rows(rows: Iterable[Mapping[int, Scalar]], op: str) -> list[dict[int, int]]:
    """The nonzero entries of each {column: value} row, scaled by the lcm of its denominators."""
    out = []
    for row in rows:
        try:
            den = lcm(*(x.denominator for x in row.values()))
        except AttributeError:  # a PolyScalar has no denominator
            raise ValueError(
                f"{op} requires rational entries; evaluate polynomial entries first"
            ) from None
        out.append({j: x.numerator * den // x.denominator for j, x in row.items() if x})
    return out


def _combine(row: dict[int, int], prow: dict[int, int], c: int) -> dict[int, int]:
    """(pv/g) row - (f/g) prow for pv = prow[c] and f = row[c].

    g is gcd(pv, f) with the sign of pv, so pv/g > 0.  The result has no
    entry in column c.  When the row was scaled by pv/g > 1 it is divided
    by its content, which keeps the entries small.
    """
    pv, f = prow[c], row[c]
    g = gcd(pv, f) if pv > 0 else -gcd(pv, f)
    a, b = pv // g, f // g
    out = dict(row) if a == 1 else {j: a * x for j, x in row.items()}
    for j, x in prow.items():
        y = out.get(j, 0) - b * x
        if y:
            out[j] = y
        else:
            del out[j]
    if a > 1:
        content = gcd(*out.values())
        if content > 1:
            out = {j: x // content for j, x in out.items()}
    return out


def _echelon(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Forward elimination; the pivot rows keyed by pivot column, ascending.

    Rows are bucketed by leading column.  Once the columns before c are
    done, every row left with an entry in column c leads there, so the
    bucket of c holds all rows to eliminate and no column is scanned; the
    loop ends when no bucket is left.  The pivot is the shortest row of the
    bucket, and among those the one with the smallest |entry| in column c:
    a unit pivot gives each combined row the multiplier 1, so no row is
    scaled and no content is divided out.
    """
    leads: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        if row:
            leads.setdefault(min(row), []).append(row)
    pivots: dict[int, dict[int, int]] = {}
    for c in count():
        if not leads:
            break
        bucket = leads.pop(c, None)
        if bucket is None:
            continue
        prow = pivots[c] = min(bucket, key=lambda row: (len(row), abs(row[c])))
        for row in bucket:
            if row is not prow:
                row = _combine(row, prow, c)
                if row:
                    leads.setdefault(min(row), []).append(row)
    return pivots


def _back_substitute(pivots: dict[int, dict[int, int]]) -> None:
    """Clear each pivot column above its pivot: the RREF up to row scaling."""
    cols = list(pivots)
    for k in range(len(cols) - 1, 0, -1):
        c = cols[k]
        for above in cols[:k]:
            if c in pivots[above]:
                pivots[above] = _combine(pivots[above], pivots[c], c)


class EchelonBasis:
    """Echelon basis of a span of rational vectors; every vector, in or out,
    is an {index: value} dict of its nonzeros, so no width is needed.

    EchelonBasis(rows) keeps the pivot rows that _echelon finds for the
    whole batch, sorted by leading index, as integer rows each up to a
    scale.  add(row) grows the basis by one vector: it reduces the row at
    each kept lead, in increasing order, and keeps a nonzero remainder.
    normal_form(row) is that remainder, unscaled.  Which rows serve as
    pivots depends on how the basis was built, but the set of leads, the
    normal form and whether a vector lies in the span do not: u and v share
    a normal form iff u - v lies in the span.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Mapping[int, Fraction]] = ()):
        pivots = _echelon(_integer_rows(rows, "EchelonBasis"))
        self._rows: list[tuple[int, dict[int, int]]] = list(pivots.items())  # (lead, row)

    def _reduce(self, row: Mapping[int, Scalar], op: str) -> dict[int, int]:
        """The integer row of a sparse vector, reduced at every kept lead (up to scale)."""
        (w,) = _integer_rows([row], op)
        for lead, prow in self._rows:
            if lead in w:
                w = _combine(w, prow, lead)
        return w

    def add(self, row: Mapping[int, Fraction]) -> bool:
        """Reduce an {index: value} vector into the basis; True iff it extended the span."""
        w = self._reduce(row, "EchelonBasis.add")
        if not w:
            return False
        insort(self._rows, (min(w), w))  # leads are distinct
        return True

    def normal_form(self, row: Mapping[int, Fraction]) -> dict[int, Fraction]:
        """The nonzeros of row reduced at every kept lead, by ascending index;
        unique, as the kept rows are in echelon form."""
        # The row operations scale the row; a unit entry at -1, never a lead, tracks it.
        w = self._reduce({**row, -1: _ONE}, "EchelonBasis.normal_form")
        scale = w.pop(-1)
        return {j: Fraction(w[j], scale) for j in sorted(w)}

    def __len__(self) -> int:
        return len(self._rows)
