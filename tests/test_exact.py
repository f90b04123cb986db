"""Tests for exact scalars and sparse exact linear algebra."""

import random
import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from liedeform.catalog import named_dim
from liedeform.exact import (
    DegreeCapExceeded,
    EchelonBasis,
    ExactMatrix,
    PolyScalar,
    SingularMatrixError,
    parse_rational,
    parse_scalar,
)


# -- independent oracle: textbook fraction row reduction, no shortcuts --------


def naive_rank(rows):
    """Plain Gaussian elimination over Fraction, written independently of the
    library's echelon code so it can serve as a rank oracle."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, nrows):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(nrows):
            if r != rank and m[r][col] != 0:
                f = m[r][col] / m[rank][col]
                for c in range(ncols):
                    m[r][c] -= f * m[rank][c]
        rank += 1
    return rank


def random_matrix(rng, nrows, ncols, density=0.5):
    return [
        [
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < density else Fraction(0)
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]


# -- rationals -----------------------------------------------------------------


def test_rational_arithmetic_examples():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(2, 4) == Fraction(1, 2)  # stored reduced
    assert Fraction(-1) * Fraction(-1, 3) == Fraction(1, 3)
    assert Fraction(-3, 6).denominator == 2  # positive denominator, reduced


def test_rational_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / Fraction(0)


def test_rational_parse_and_format():
    assert parse_rational("-3") == Fraction(-3)
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("−3/4") == Fraction(-3, 4)  # unicode minus
    assert str(parse_rational("-3/4")) == "-3/4"
    assert str(parse_rational("7")) == "7"


def test_rational_field_axioms_randomized():
    rng = random.Random(20240811)
    for _ in range(200):
        a, b, c = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + (-a) == 0
        if a != 0:
            assert a * (1 / a) == 1


# -- polynomials ---------------------------------------------------------------


P = PolyScalar.variable("p")
Q = PolyScalar.variable("q")
R = PolyScalar.variable("r")


def test_poly_examples():
    assert P * (Q - R) == P * Q - P * R
    assert ((P + Q) - (P + Q)).is_zero
    assert (R * (P - Q)).evaluate({"p": 1, "q": 2, "r": 3}) == -3


def test_poly_canonical_form():
    x = P * Q * 2 - R * R + PolyScalar.const(-1)
    assert str(x) == "-1 - r^2 + 2*p*q"
    # no zero terms survive
    assert not any(c == 0 for _, c in x.terms)
    assert (P - P).terms == ()


def test_poly_parse_round_trip():
    for text in ("p", "r - q", "q*r - p*r", "-1 - r^2 + 2*p*q", "3/2*p^2*q"):
        x = parse_scalar(text)
        assert isinstance(x, PolyScalar)
        assert parse_scalar(str(x)) == x
    assert parse_scalar("5/3") == Fraction(5, 3)
    with pytest.raises(ValueError):
        parse_scalar("p + (q)")


@pytest.mark.parametrize(
    "text", ["1.5", "1e3", "1e-3000000", "1_000", "١/٢", " 1 / 2", "0x10", "inf", "", "-"]
)
def test_parse_rational_reads_ascii_digits_only(text):
    with pytest.raises(ValueError, match="^not a rational number: "):
        parse_rational(text)
    with pytest.raises(ValueError):
        parse_scalar(text)


@pytest.mark.parametrize("text", ["1.5*p", "١*p", "p^١", "1e3*q", "1_0*r"])
def test_polynomial_coefficients_read_ascii_digits_only(text):
    with pytest.raises(ValueError, match="^malformed factor "):
        parse_scalar(text)


@pytest.mark.parametrize("text", ["p -+ q", "p ++ q", "-+p", "--p", "p - - q", "p +", "- p -"])
def test_parse_scalar_rejects_a_sign_that_begins_no_term(text):
    with pytest.raises(ValueError, match="^malformed scalar string"):
        parse_scalar(text)


# -- oracle: the regular-expression grammar that the string-method one replaced --


_UNSIGNED = "[0-9]+(?:/[0-9]+)?"
_TERMS_RE = re.compile(r"[+-]?[^+-]+(?:[+-][^+-]+)*")
_FACTOR_RE = re.compile(rf"^(?:(?P<num>{_UNSIGNED})|(?P<var>[pqr])(?:\^(?P<exp>[0-9]+))?)$")


def regex_parse_rational(text):
    text = text.strip().replace("−", "-")
    if not re.fullmatch(f"[+-]?{_UNSIGNED}", text):
        raise ValueError(f"not a rational number: {text!r}")
    return Fraction(text)


def regex_parse_scalar(text):
    text = text.strip().replace("−", "-")
    if not text:
        raise ValueError("empty scalar string")
    if not re.search(r"[pqr]", text):
        return regex_parse_rational(text)
    if not _TERMS_RE.fullmatch(text):
        raise ValueError(f"malformed scalar string {text!r}")
    terms = {}
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
                exps["pqr".index(m.group("var"))] += int(m.group("exp") or 1)
        e = tuple(exps)
        terms[e] = terms.get(e, Fraction(0)) + coeff
    return PolyScalar(terms)


def regex_named_dim(name):
    if re.fullmatch("h[0-9]+", name):
        return 2 * int(name[1:]) + 1
    raise ValueError(f"unknown algebra name {name!r}")


def outcome(parse, text):
    """(type, value) of parse(text), or (exception type, message)."""
    try:
        x = parse(text)
    except Exception as exc:  # the two parsers must fail alike
        return type(exc), str(exc)
    return type(x), x


GRAMMAR_TEXT = st.text(alphabet=list("0123456789+-/−pqr^* .e_١²"), max_size=14)


@settings(max_examples=2000, deadline=None)
@given(GRAMMAR_TEXT)
def test_the_grammar_accepts_what_the_regular_expressions_accepted(text):
    for new, old in ((parse_rational, regex_parse_rational), (parse_scalar, regex_parse_scalar)):
        assert outcome(new, text) == outcome(old, text)
    name = "h" + text
    assert outcome(named_dim, name) == outcome(regex_named_dim, name)
    assert outcome(named_dim, text) == outcome(regex_named_dim, text)


@pytest.mark.parametrize(
    "text",
    ["1/0", "p - 1/0*q", "p^2 + -q", "p + + q", "x + ", "3/4*p^0*q^12", " -p^2*q + 7/3 - r "],
)
def test_the_grammar_matches_the_regular_expressions_on_edge_cases(text):
    assert outcome(parse_scalar, text) == outcome(regex_parse_scalar, text)


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * 3),
        st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
        max_size=5,
    )
)
def test_every_printed_polynomial_parses_back(terms):
    x = PolyScalar(terms)
    assert parse_scalar(str(x)) == x


def test_poly_constant_interop():
    assert PolyScalar.const(Fraction(1, 2)) == Fraction(1, 2)
    assert hash(PolyScalar.const(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert (P - P) == 0
    assert Fraction(2) * P == P + P


def test_poly_degree_cap():
    p4 = P * P * P * P
    capped = p4 * p4  # degree 8 is still allowed
    assert max(sum(exps) for exps, _ in capped.terms) == 8
    with pytest.raises(DegreeCapExceeded):
        capped * P


def random_poly(rng, max_terms=4, max_deg=1):
    # per-variable degree <= 1 keeps products of two factors under the cap
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(3))
        terms[e] = terms.get(e, 0) + Fraction(rng.randint(-3, 3))
    return PolyScalar(terms)


def test_poly_evaluation_homomorphism_randomized():
    rng = random.Random(7)
    for _ in range(200):
        a = random_poly(rng)
        b = random_poly(rng)
        point = {v: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for v in "pqr"}
        assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)
        assert (a - b).evaluate(point) == a.evaluate(point) - b.evaluate(point)
        assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)


def is_rational_multiple(poly, generator):
    """True iff poly = c * generator for some rational c (zero counts)."""
    if poly.is_zero:
        return True
    if generator.is_zero:
        return False
    pt, gt = poly.terms, generator.terms
    if len(pt) != len(gt) or pt[0][0] != gt[0][0]:
        return False
    ratio = pt[0][1] / gt[0][1]
    return all(pe == ge and pc == ratio * gc for (pe, pc), (ge, gc) in zip(pt, gt))


def test_is_rational_multiple():
    gen = P * (Q - R)
    assert is_rational_multiple(P * Q - P * R, gen)
    assert is_rational_multiple((P * R - P * Q) * Fraction(3, 7), gen)
    assert is_rational_multiple(PolyScalar.zero(), gen)
    assert not is_rational_multiple(Q - R, gen)
    assert not is_rational_multiple(P * Q, gen)


# -- matrices ------------------------------------------------------------------


def test_rank_examples():
    assert ExactMatrix.identity(3).rank() == 3
    assert ExactMatrix.from_sparse_rows([{}] * 4, 5).rank() == 0


def test_nullspace_examples():
    assert ExactMatrix.identity(3).nullspace() == []
    basis = ExactMatrix([[1, 1]]).nullspace()
    assert len(basis) == 1
    # one basis vector, proportional to (1, -1), with its free column at 1
    assert basis[0] == {0: Fraction(-1), 1: Fraction(1)}


def test_solve_examples():
    eye = ExactMatrix.identity(4)
    b = {0: Fraction(3), 1: Fraction(-1, 2), 3: Fraction(5)}
    assert eye.solve(b) == b
    zero = ExactMatrix.from_sparse_rows([{}] * 3, 3)
    assert zero.solve({0: Fraction(1)}) is None
    assert zero.solve({}) == {}


def test_solve_shape_mismatch():
    for index in (3, -1):
        with pytest.raises(ValueError, match=f"^row {index} out of range 0..2"):
            ExactMatrix.identity(3).solve({index: Fraction(1)})
        with pytest.raises(ValueError, match=f"^column {index} out of range 0..2"):
            ExactMatrix.identity(3).mul_vector({index: Fraction(1)})
        with pytest.raises(ValueError, match=f"^row {index} out of range 0..2"):
            ExactMatrix.identity(3).entry(index, 0)
        with pytest.raises(ValueError, match=f"^column {index} out of range 0..2"):
            ExactMatrix.identity(3).entry(0, index)
        with pytest.raises(ValueError, match=f"^column {index} out of range 0..2"):
            ExactMatrix.identity(3).column(index)


def test_row_checks_its_index():
    # -1 would otherwise read the last row, and 5 raise IndexError.
    for index in (-1, 3, 5):
        with pytest.raises(ValueError, match=f"^row {index} out of range 0..2$"):
            ExactMatrix.identity(3).row(index)
    assert ExactMatrix.identity(3).row(2) == (0, 0, 1)


def test_rank_matches_naive_oracle_randomized():
    rng = random.Random(99)
    for _ in range(60):
        rows = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        assert ExactMatrix(rows).rank() == naive_rank(rows)


def test_rank_nullity_randomized():
    rng = random.Random(123)
    for _ in range(60):
        m = ExactMatrix(random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8)))
        null = m.nullspace()
        assert m.rank() + len(null) == m.ncols
        for v in null:
            assert m.mul_vector(v) == {}


def test_solve_consistent_systems_randomized():
    rng = random.Random(4242)
    for _ in range(60):
        m = ExactMatrix(random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7)))
        x = {j: Fraction(rng.randint(-3, 3)) for j in range(m.ncols)}
        b = m.mul_vector(x)
        sol = m.solve(b)
        assert sol is not None
        assert m.mul_vector(sol) == b


def test_matmul_against_naive():
    rng = random.Random(5)
    for _ in range(20):
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        A = ExactMatrix(random_matrix(rng, n, k))
        B = ExactMatrix(random_matrix(rng, k, m))
        C = A * B
        for i in range(n):
            for j in range(m):
                expected = sum(A.entry(i, t) * B.entry(t, j) for t in range(k))
                assert C.entry(i, j) == expected


def test_inverse():
    m = ExactMatrix([[2, 1], [1, 1]])
    inv = m.inverse()
    assert m * inv == ExactMatrix.identity(2)
    with pytest.raises(SingularMatrixError):
        ExactMatrix([[1, 2], [2, 4]]).inverse()


def test_zero_row_matrix():
    m = ExactMatrix.from_sparse_rows([], 4)
    assert m.rank() == 0
    assert len(m.nullspace()) == 4
    assert m.solve({}) == {}


def test_polynomial_entries_require_evaluation():
    message = "^matrix entries must be rational, got PolyScalar$"
    with pytest.raises(TypeError, match=message):
        ExactMatrix([[P, Q]])
    with pytest.raises(TypeError, match=message):
        ExactMatrix.from_sparse_rows([{0: P}], 1)
    with pytest.raises(ValueError, match="^EchelonBasis requires rational entries"):
        EchelonBasis([{0: Fraction(1)}, {1: R}])
    with pytest.raises(ValueError, match="^EchelonBasis.add requires rational entries"):
        EchelonBasis([{0: Fraction(1)}]).add({1: R})
    with pytest.raises(ValueError, match="^EchelonBasis.normal_form requires rational entries"):
        EchelonBasis([{0: Fraction(1)}]).normal_form({1: R})


# -- sympy oracle for the elimination engine --------------------------------------

rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4, 6, 35])),
)


@st.composite
def rational_matrices(draw, square=False, tall=False):
    """Tall, wide and 0-row shapes with mixed denominators (tall: more rows than
    columns, up to 12x6).  Half are products through a narrow inner dimension
    (low rank); up to two rows and two columns are then zeroed."""
    if tall:
        ncols = draw(st.integers(1, 6))
        nrows = draw(st.integers(ncols + 1, 12))
    else:
        nrows = draw(st.integers(1 if square else 0, 7))
        ncols = nrows if square else draw(st.integers(1, 7))

    def block(r, c):
        return draw(st.lists(st.lists(rationals, min_size=c, max_size=c), min_size=r, max_size=r))

    if draw(st.booleans()):
        inner = draw(st.integers(0, min(nrows, ncols)))
        left, right = block(nrows, inner), block(inner, ncols)
        rows = [
            [sum((left[i][k] * right[k][j] for k in range(inner)), Fraction(0)) for j in range(ncols)]
            for i in range(nrows)
        ]
    else:
        rows = block(nrows, ncols)
    for i in draw(st.sets(st.integers(0, 6), max_size=2)):
        if i < nrows:
            rows[i] = [Fraction(0)] * ncols
    for j in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[j] = Fraction(0)
    return ExactMatrix(rows, ncols=ncols)


def to_sympy(rows, ncols):
    return sympy.Matrix(
        len(rows), ncols, [sympy.Rational(x.numerator, x.denominator) for row in rows for x in row]
    )


def from_sympy(entries):
    return tuple(Fraction(int(e.p), int(e.q)) for e in entries)


def sparse(row):
    """The {index: value} nonzeros of a dense row."""
    return {j: x for j, x in enumerate(row) if x}


def dense(v, n):
    """The dense row of length n of an {index: value} vector."""
    return [v.get(j, Fraction(0)) for j in range(n)]


def sparse_twin(m):
    """m rebuilt from its sparse rows, keys in reverse order; checked equal to m."""
    twin = ExactMatrix.from_sparse_rows(
        [{j: x for j, x in reversed(list(enumerate(row))) if x} for row in m.rows()], m.ncols
    )
    assert twin == m and hash(twin) == hash(m)
    assert ExactMatrix(twin.rows(), ncols=twin.ncols) == m
    transpose = ExactMatrix([twin.column(j) for j in range(twin.ncols)], ncols=twin.nrows)
    assert [transpose.column(i) for i in range(transpose.ncols)] == list(m.rows())
    return twin


@settings(max_examples=50, deadline=None)
@given(m=rational_matrices())
def test_rank_and_nullspace_match_sympy(m):
    oracle = to_sympy(m.rows(), m.ncols)
    twin = sparse_twin(m)
    assert m.rank() == twin.rank() == oracle.rank()
    expected = [sparse(from_sympy(v)) for v in oracle.nullspace()]
    assert m.nullspace() == twin.nullspace() == expected


@settings(max_examples=50, deadline=None)
@given(m=rational_matrices(tall=True))
def test_rank_of_tall_matrices_matches_sympy(m):
    # rank eliminates the stored rows, here more rows than columns; the
    # explicit transpose is wide, so its rank eliminates m's columns.
    assert m.nrows > m.ncols
    transpose = ExactMatrix([m.column(j) for j in range(m.ncols)], ncols=m.nrows)
    rank = to_sympy(m.rows(), m.ncols).rank()
    assert m.rank() == sparse_twin(m).rank() == transpose.rank() == rank


@st.composite
def matrices_with_kernels(draw):
    """An integer matrix m of rank at most 3, and a kernel matrix k whose
    columns are integer combinations of m's nullspace vectors: tall (more
    rows than columns) or wide, as drawn."""
    nrows, ncols, inner = draw(st.integers(0, 9)), draw(st.integers(1, 9)), draw(st.integers(0, 3))
    ints = lambda r, c: draw(  # noqa: E731
        st.lists(st.lists(st.integers(-3, 3), min_size=c, max_size=c), min_size=r, max_size=r)
    )
    left, right = ints(nrows, inner), ints(inner, ncols)
    m = ExactMatrix(
        [[Fraction(sum(a * b for a, b in zip(row, col))) for col in zip(*right)] for row in left]
        if inner else [[Fraction(0)] * ncols for _ in range(nrows)],
        ncols=ncols,
    )
    null = m.nullspace()
    width = draw(st.integers(0, ncols - 1) if draw(st.booleans()) else st.integers(ncols, ncols + 3))
    combos = ints(width, len(null))
    k = ExactMatrix(
        [[sum((c * v.get(i, 0) for c, v in zip(cs, null)), Fraction(0)) for cs in combos]
         for i in range(ncols)],
        ncols=width,
    )
    return m, k


@settings(max_examples=80, deadline=None)
@given(pair=matrices_with_kernels())
def test_rank_of_low_rank_tall_and_wide_matrices_matches_sympy(pair):
    # m has rank at most 3 and k's columns lie in its kernel; either may be
    # tall or wide.  rank eliminates the stored rows, so each is ranked by
    # its rows and, through its explicit transpose, by its columns.
    m, k = pair
    assert (m * k).is_zero()
    for a in (m, k):
        rank = to_sympy(a.rows(), a.ncols).rank() if a.ncols else 0
        transpose = ExactMatrix([a.column(j) for j in range(a.ncols)], ncols=a.nrows)
        assert a.rank() == sparse_twin(a).rank() == transpose.rank() == rank


@settings(max_examples=50, deadline=None)
@given(m=rational_matrices(), data=st.data())
def test_solve_matches_the_sympy_rref(m, data):
    n = m.ncols
    if data.draw(st.booleans()):  # consistent by construction
        b = m.mul_vector(sparse(data.draw(st.lists(rationals, min_size=n, max_size=n))))
    else:
        b = sparse(data.draw(st.lists(rationals, min_size=m.nrows, max_size=m.nrows)))
    rhs = dense(b, m.nrows)
    reduced, pivots = to_sympy([row + (x,) for row, x in zip(m.rows(), rhs)], n + 1).rref()
    twin = sparse_twin(m)
    if n in pivots:
        assert m.solve(b) is None
        assert twin.solve(b) is None
    else:
        x = [Fraction(0)] * n
        for r, c in enumerate(pivots):
            x[c] = from_sympy([reduced[r, n]])[0]
        assert m.solve(b) == twin.solve(b) == sparse(x)


@settings(max_examples=40, deadline=None)
@given(m=rational_matrices(square=True))
def test_inverse_matches_sympy(m):
    oracle = to_sympy(m.rows(), m.ncols)
    twin = sparse_twin(m)
    if oracle.det() == 0:
        with pytest.raises(SingularMatrixError):
            m.inverse()
        with pytest.raises(SingularMatrixError):
            twin.inverse()
    else:
        inv = oracle.inv()
        expected = ExactMatrix([from_sympy(inv.row(i)) for i in range(m.nrows)])
        assert m.inverse() == twin.inverse() == expected


@settings(max_examples=50, deadline=None)
@given(m=rational_matrices())
def test_echelon_basis_grows_exactly_with_the_sympy_rank(m):
    rows, echelon = m.rows(), EchelonBasis()
    for k, row in enumerate(rows):
        grew = to_sympy(rows[: k + 1], m.ncols).rank() > to_sympy(rows[:k], m.ncols).rank()
        assert echelon.add(sparse(row)) is grew
    rank = to_sympy(rows, m.ncols).rank()
    for built in (echelon, EchelonBasis(sparse(row) for row in rows)):
        kept = [row for _, row in built._rows]
        assert len(kept) == len(built) == rank
        leads = [min(row) for row in kept]
        assert leads == sorted(set(leads))
        assert all(type(x) is int and x for row in kept for x in row.values())


@settings(max_examples=50, deadline=None)
@given(m=rational_matrices(), data=st.data())
def test_normal_forms_are_equal_exactly_modulo_the_sympy_span(m, data):
    rows, n = m.rows(), m.ncols
    vector = st.lists(rationals, min_size=n, max_size=n)
    u = data.draw(vector)
    if data.draw(st.booleans()):  # v = u + an element of the span
        coeffs = data.draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
        v = [
            x + sum((c * row[j] for c, row in zip(coeffs, rows)), Fraction(0))
            for j, x in enumerate(u)
        ]
    else:
        v = data.draw(vector)
    echelon = EchelonBasis(sparse(row) for row in rows)
    rank = to_sympy(rows, n).rank()

    def in_span(w):
        return to_sympy([*rows, w], n).rank() == rank

    form = echelon.normal_form(sparse(u))
    assert list(form) == sorted(form) and all(form.values())
    assert (form == echelon.normal_form(sparse(v))) is in_span([a - b for a, b in zip(u, v)])
    assert in_span([a - b for a, b in zip(u, dense(form, n))])


@settings(max_examples=50, deadline=None)
@given(m=rational_matrices(), data=st.data())
def test_batch_and_row_by_row_echelon_bases_agree(m, data):
    # The batch takes _echelon's pivots, add keeps each row's remainder as it
    # arrives: the kept rows may differ, but not the leads, the length or the
    # normal forms.
    rows, n = m.rows(), m.ncols
    batch, grown = EchelonBasis(sparse(row) for row in rows), EchelonBasis()
    for row in rows:
        grown.add(sparse(row))
    assert len(batch) == len(grown)
    assert {min(row) for _, row in batch._rows} == {min(row) for _, row in grown._rows}
    vectors = data.draw(st.lists(st.lists(rationals, min_size=n, max_size=n), max_size=4))
    for v in [*rows, *vectors]:
        assert batch.normal_form(sparse(v)) == grown.normal_form(sparse(v))
