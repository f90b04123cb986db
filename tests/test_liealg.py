"""Tests for Lie algebras by structure constants and their invariants."""

import random
from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liedeform.catalog import heisenberg, paper_representatives, phi
from liedeform.deform import Deformation, specialize, strict_extendability
from liedeform.exact import ExactMatrix, SingularMatrixError
from liedeform.liealg import JacobiError, LieAlgebra

from test_exact import dense, naive_rank


def abelian(n):
    return LieAlgebra(n, {}, name=f"abelian{n}")


def unit(n, i):
    return tuple(Fraction(1 if k == i else 0) for k in range(n))


# -- bracket -------------------------------------------------------------------


def test_h2_bracket_table():
    h2 = heisenberg(2)
    assert h2.bracket_basis(0, 2) == {4: 1}  # [e1,e3] = e5
    assert h2.bracket_basis(1, 3) == {4: 1}  # [e2,e4] = e5
    assert h2.bracket_basis(2, 0) == {4: -1}
    assert h2.bracket_basis(0, 1) == {}


def test_bracket_skew_on_random_vectors():
    rng = random.Random(11)
    h2 = heisenberg(2)
    for _ in range(30):
        x = {k: Fraction(rng.randint(-3, 3)) for k in range(5)}
        assert h2.bracket(x, x) == {}


def test_bracket_bilinear_expansion():
    h2 = heisenberg(2)
    x = {0: Fraction(1), 1: Fraction(1)}
    y = {2: Fraction(1), 3: Fraction(1)}
    # [e1+e2, e3+e4] = [e1,e3] + [e2,e4] = 2 e5, cross terms vanish
    assert h2.bracket(x, y) == {4: Fraction(2)}


def test_bracket_rejects_an_index_out_of_range():
    h2 = heisenberg(2)
    for index in (5, -1):
        with pytest.raises(ValueError, match=f"^basis index {index} out of range 0..4"):
            h2.bracket({index: Fraction(1)}, {0: Fraction(1)})
        with pytest.raises(ValueError, match=f"^basis index {index} out of range 0..4"):
            h2.bracket({0: Fraction(1)}, {index: Fraction(1)})
        with pytest.raises(ValueError, match=f"^basis index {index} out of range 0..4"):
            h2.bracket_basis(0, index)
        with pytest.raises(ValueError, match=f"^basis index {index} out of range 0..4"):
            h2.bracket_basis(index, 0)


# -- jacobi --------------------------------------------------------------------


def test_jacobi_h2_and_abelian():
    assert heisenberg(2).jacobi_violations() == []
    assert abelian(4).jacobi_violations() == []


def test_jacobi_broken_table():
    # [e1,e2] = e1, [e1,e3] = e2: the Jacobi sum on (e1,e2,e3) is -e2
    A = LieAlgebra(3, {(0, 1): {0: 1}, (0, 2): {1: 1}}, check=False)
    violations = A.jacobi_violations()
    assert [(i, j, k) for i, j, k, _ in violations] == [(0, 1, 2)]
    assert violations[0][3] == {1: Fraction(-1)}


def test_checked_construction_raises():
    with pytest.raises(JacobiError):
        LieAlgebra(3, {(0, 1): {0: 1}, (0, 2): {1: 1}})


def test_invalid_bracket_keys():
    with pytest.raises(ValueError):
        LieAlgebra(3, {(1, 1): {0: 1}})
    with pytest.raises(ValueError):
        LieAlgebra(3, {(2, 1): {0: 1}})
    for index in (3, -1):
        with pytest.raises(ValueError, match=f"^basis index {index} out of range 0..2"):
            LieAlgebra(3, {(0, 1): {2: 1, index: 1}})


def test_zero_coefficients_are_dropped():
    A = LieAlgebra(3, {(0, 1): {0: 0, 2: Fraction(1)}, (0, 2): {1: 0}})
    assert A.brackets == {(0, 1): {2: Fraction(1)}}
    plain = LieAlgebra(3, {(0, 1): {2: 1}})
    assert A == plain and hash(A) == hash(plain)


# -- invariants ------------------------------------------------------------------


def test_center_h2():
    center = heisenberg(2).center()
    assert len(center) == 1
    assert center[0] == {4: Fraction(1)}


def test_center_abelian():
    assert len(abelian(4).center()) == 4


def test_center_of_deformed_d3_is_trivial():
    member = specialize(Deformation(heisenberg(2), {1: phi("phi3")}), 1)
    assert member.center() == []


def test_series_heisenberg():
    assert heisenberg(2).series("lower_central") == [5, 1, 0]
    assert heisenberg(2).series("derived") == [5, 1, 0]
    assert abelian(4).series("derived") == [4, 0]


def test_series_stabilizes_nonzero_for_solvable_non_nilpotent():
    member = specialize(Deformation(heisenberg(2), {1: phi("phi3")}), 1)
    derived = member.series("derived")
    lcs = member.series("lower_central")
    assert derived == [5, 4, 1, 0]
    assert lcs == [5, 4, 4]  # stabilizes at a nonzero dimension
    assert member.is_solvable() and not member.is_nilpotent()


def test_series_bounds():
    for n in (1, 2, 3):
        alg = heisenberg(n)
        for kind in ("derived", "lower_central"):
            dims = alg.series(kind)
            assert all(a >= b for a, b in zip(dims, dims[1:]))
            assert len(dims) <= alg.dim + 1


def test_heisenberg_invariants_low_rank():
    for n in (1, 2, 3):
        alg = heisenberg(n)
        assert len(alg.center()) == 1
        assert alg.series("lower_central") == [2 * n + 1, 1, 0]
        assert alg.is_solvable() and alg.is_nilpotent()


# -- basis change ----------------------------------------------------------------


def test_change_basis_identity():
    h2 = heisenberg(2)
    assert h2.change_basis(ExactMatrix.identity(5)).brackets == h2.brackets


def test_change_basis_swap_symmetry():
    # h2 is symmetric under the pair swap (e1,e3) <-> (e2,e4)
    h2 = heisenberg(2)
    perm = [[0] * 5 for _ in range(5)]
    for a, b in ((0, 1), (1, 0), (2, 3), (3, 2), (4, 4)):
        perm[b][a] = 1
    assert h2.change_basis(ExactMatrix(perm)).brackets == h2.brackets


def random_invertible(rng, n):
    while True:
        m = ExactMatrix(
            [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        )
        if m.rank() == n:
            return m


def test_change_basis_round_trip_and_jacobi():
    rng = random.Random(77)
    h2 = heisenberg(2)
    for _ in range(10):
        T = random_invertible(rng, 5)
        moved = h2.change_basis(T)  # constructor re-validates Jacobi
        back = moved.change_basis(T.inverse())
        assert back.brackets == h2.brackets


def test_change_basis_singular_rejected():
    with pytest.raises(SingularMatrixError, match="^basis change must be invertible$"):
        heisenberg(2).change_basis(ExactMatrix.from_sparse_rows([{}] * 5, 5))


# -- matrix representation --------------------------------------------------------


def heisenberg_matrix_rep(n):
    """The 2n+1 strictly upper-triangular (n+2)x(n+2) matrices for h_n.

    e_i (i <= n) has its single 1 at row 1, column i+1; e_{n+i} at row i+1,
    last column; e_{2n+1} in the top-right corner (1-based positions).
    """
    if n < 1:
        raise ValueError("heisenberg rank must be at least 1")
    size = n + 2

    def unit_matrix(r, c):
        return ExactMatrix.from_sparse_rows([{c: 1} if a == r else {} for a in range(size)], size)

    return (
        [unit_matrix(0, i) for i in range(1, n + 1)]
        + [unit_matrix(i, size - 1) for i in range(1, n + 1)]
        + [unit_matrix(0, size - 1)]
    )


def commutator(a, b):
    ab, ba = a * b, b * a
    return ExactMatrix(
        [[x - y for x, y in zip(ab.row(i), ba.row(i))] for i in range(ab.nrows)], ncols=ab.ncols
    )


def test_matrix_rep_h1_commutator():
    m1, m2, m3 = heisenberg_matrix_rep(1)
    assert commutator(m1, m2) == m3


def test_matrix_rep_rejects_rank_zero():
    with pytest.raises(ValueError):
        heisenberg_matrix_rep(0)


def test_matrix_rep_matches_structure_constants():
    for n in (1, 2, 3):
        alg = heisenberg(n)
        mats = heisenberg_matrix_rep(n)
        dim = 2 * n + 1
        for i in range(dim):
            for j in range(dim):
                comm = commutator(mats[i], mats[j])
                expected = alg.bracket_basis(i, j)
                acc = ExactMatrix.from_sparse_rows([{}] * (n + 2), n + 2)
                for k, c in expected.items():
                    acc = ExactMatrix(
                        [
                            [acc.entry(r, s) + c * mats[k].entry(r, s) for s in range(n + 2)]
                            for r in range(n + 2)
                        ]
                    )
                assert comm == acc


def test_matrix_rep_center_commutes():
    for n in (1, 2, 3):
        mats = heisenberg_matrix_rep(n)
        center = mats[-1]
        for m in mats:
            assert commutator(center, m).is_zero()


def test_matrix_rep_strictly_upper_triangular():
    for n in (1, 2, 3):
        for m in heisenberg_matrix_rep(n):
            for i in range(m.nrows):
                for j in range(0, i + 1):
                    assert m.entry(i, j) == 0


def test_matrix_rep_commutator_formula_random_pairs():
    # [a, b] = sum_i (a_i b_{n+i} - a_{n+i} b_i) e_{2n+1} on random vectors
    rng = random.Random(2024)
    for n in (1, 2, 3):
        alg = heisenberg(n)
        mats = heisenberg_matrix_rep(n)
        dim = 2 * n + 1
        size = n + 2
        for _ in range(10):
            a = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
            b = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]

            def rep(vec):
                rows = [[Fraction(0)] * size for _ in range(size)]
                for k, c in enumerate(vec):
                    if c:
                        for r in range(size):
                            for s in range(size):
                                rows[r][s] += c * mats[k].entry(r, s)
                return ExactMatrix(rows)

            scalar = sum(a[i] * b[n + i] - a[n + i] * b[i] for i in range(n))
            lhs = commutator(rep(a), rep(b))
            rhs = rep([Fraction(0)] * (dim - 1) + [scalar])
            assert lhs == rhs
            expected = {dim - 1: scalar} if scalar else {}
            assert alg.bracket(dict(enumerate(a)), dict(enumerate(b))) == expected


# -- the dense reference: every evaluation through the Fraction brackets -----------


def reference_bracket(A, x, y):
    """sum over i < j of (x_i y_j - x_j y_i) [e_i, e_j], one dense vector at a time."""
    acc = [Fraction(0)] * A.dim
    for (i, j), vec in A.brackets.items():
        c = x[i] * y[j] - x[j] * y[i]
        if c:
            for k, v in enumerate(dense(vec, A.dim)):
                if v:
                    acc[k] += c * v
    return tuple(acc)


def reference_series(A, kind):
    """Each term spanned by the dense brackets of all pairs, kept where they raise the rank."""
    full = [unit(A.dim, i) for i in range(A.dim)]
    current = full
    dims = [len(current)]
    while True:
        left = full if kind == "lower_central" else current
        nxt = []
        for u in left:
            for v in current:
                w = reference_bracket(A, u, v)
                if naive_rank(nxt + [w]) > len(nxt):
                    nxt.append(w)
        dims.append(len(nxt))
        if len(nxt) == 0 or len(nxt) == len(current):
            return dims
        current = nxt


def reference_center(A):
    """The nullspace of the stacked maps x -> [x, e_i], built from dense rows."""
    n = A.dim
    rows = []
    for i in range(n):
        cols = [dense(A.bracket_basis(j, i), n) for j in range(n)]
        for k in range(n):
            rows.append(tuple(cols[j][k] for j in range(n)))
    return ExactMatrix(rows, ncols=n).nullspace()


def reference_change_basis(A, T):
    Tinv = T.inverse()
    cols = [T.column(i) for i in range(A.dim)]
    new = {}
    for i, j in combinations(range(A.dim), 2):
        w = Tinv.mul_vector(dict(enumerate(reference_bracket(A, cols[i], cols[j]))))
        if w:
            new[(i, j)] = w
    return LieAlgebra(A.dim, new, check=True)


MIXED = (0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6))


@st.composite
def skew_tables(draw):
    """Unchecked tables of dim 1..5: no brackets, every constant nonzero, or a sparse mix."""
    dim = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(("zero", "dense", "mixed")))
    values = st.sampled_from(MIXED[1:] if shape == "dense" else MIXED)
    table = {
        pair: dict(enumerate(draw(st.lists(values, min_size=dim, max_size=dim))))
        for pair in combinations(range(dim), 2)
        if shape == "dense" or (shape == "mixed" and draw(st.booleans()))
    }
    return LieAlgebra(dim, table, check=False)


def vectors(dim):
    return st.lists(st.sampled_from(MIXED), min_size=dim, max_size=dim)


@settings(max_examples=80, deadline=None)
@given(A=skew_tables(), data=st.data())
def test_bracket_series_and_center_match_the_dense_reference(A, data):
    x, y = data.draw(vectors(A.dim)), data.draw(vectors(A.dim))
    value = A.bracket(dict(enumerate(x)), dict(enumerate(y)))
    assert tuple(dense(value, A.dim)) == reference_bracket(A, x, y)
    assert all(type(c) is Fraction and c for c in value.values())
    for kind in ("derived", "lower_central"):
        assert A.series(kind) == reference_series(A, kind)
    assert A.center() == reference_center(A)


def test_series_and_center_of_a_fractional_table_match_the_dense_reference():
    # Mixed denominators over _den; the lower central series stops above zero.
    table = {(0, 1): {0: Fraction(1, 2), 2: Fraction(-2, 3)}, (1, 2): {2: 1}}
    A = LieAlgebra(3, table, check=False)
    assert A.series("lower_central") == reference_series(A, "lower_central") == [3, 2, 2]
    assert A.center() == reference_center(A) == []
    assert abelian(3).center() == reference_center(abelian(3))


@cache
def catalog_algebras():
    """h_1..h_3 and the t = 1 member of every row with a Lie bracket at t = 1."""
    algebras = [heisenberg(n) for n in (1, 2, 3)]
    for rep in paper_representatives():
        D = Deformation(heisenberg(2), {1: rep.cochain()})
        if strict_extendability(D).first_nonzero is None:
            algebras.append(specialize(D, 1))
    return algebras


def test_catalog_algebras_cover_the_members():
    assert len(catalog_algebras()) == 3 + 18


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_change_basis_matches_the_dense_reference(data):
    A = data.draw(st.sampled_from(catalog_algebras()))
    n = A.dim
    entries = st.sampled_from((0, 0, 1, -1, 2, Fraction(1, 2)))
    row = st.lists(entries, min_size=n, max_size=n)
    T = ExactMatrix(data.draw(st.lists(row, min_size=n, max_size=n)))
    if T.rank() == n:
        assert A.change_basis(T).brackets == reference_change_basis(A, T).brackets
    else:
        with pytest.raises(SingularMatrixError):
            A.change_basis(T)
    # A repeated column makes any T singular.
    i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    rows = [list(T.row(r)) for r in range(n)]
    for row in rows:
        row[j] = row[i]
    for transport in (A.change_basis, lambda S: reference_change_basis(A, S)):
        with pytest.raises(SingularMatrixError):
            transport(ExactMatrix(rows))
