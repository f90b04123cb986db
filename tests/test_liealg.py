"""Tests for Lie algebras by structure constants and their invariants."""

import random
from fractions import Fraction

import pytest

from liedeform.catalog import heisenberg, phi
from liedeform.deform import Deformation, specialize
from liedeform.exact import ExactMatrix, SingularMatrixError
from liedeform.liealg import BasisChange, JacobiError, LieAlgebra


def abelian(n):
    return LieAlgebra(n, {}, name=f"abelian{n}")


def unit(n, i):
    return tuple(Fraction(1 if k == i else 0) for k in range(n))


# -- bracket -------------------------------------------------------------------


def test_h2_bracket_table():
    h2 = heisenberg(2)
    assert h2.bracket_basis(0, 2) == unit(5, 4)  # [e1,e3] = e5
    assert h2.bracket_basis(1, 3) == unit(5, 4)  # [e2,e4] = e5
    assert h2.bracket_basis(2, 0) == tuple(-x for x in unit(5, 4))
    assert h2.bracket_basis(0, 1) == (Fraction(0),) * 5


def test_bracket_skew_on_random_vectors():
    rng = random.Random(11)
    h2 = heisenberg(2)
    for _ in range(30):
        x = [Fraction(rng.randint(-3, 3)) for _ in range(5)]
        assert h2.bracket(x, x) == (Fraction(0),) * 5


def test_bracket_bilinear_expansion():
    h2 = heisenberg(2)
    x = [Fraction(1), Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    y = [Fraction(0), Fraction(0), Fraction(1), Fraction(1), Fraction(0)]
    # [e1+e2, e3+e4] = [e1,e3] + [e2,e4] = 2 e5, cross terms vanish
    assert h2.bracket(x, y) == (0, 0, 0, 0, Fraction(2))


def test_bracket_length_mismatch():
    with pytest.raises(ValueError):
        heisenberg(2).bracket([Fraction(1)] * 4, [Fraction(0)] * 5)


# -- jacobi --------------------------------------------------------------------


def test_jacobi_h2_and_abelian():
    assert heisenberg(2).jacobi_violations() == []
    assert abelian(4).jacobi_violations() == []


def test_jacobi_broken_table():
    # [e1,e2] = e1, [e1,e3] = e2: the Jacobi sum on (e1,e2,e3) is -e2
    A = LieAlgebra(3, {(0, 1): [1, 0, 0], (0, 2): [0, 1, 0]}, check=False)
    violations = A.jacobi_violations()
    assert [(i, j, k) for i, j, k, _ in violations] == [(0, 1, 2)]
    assert violations[0][3] == (Fraction(0), Fraction(-1), Fraction(0))


def test_checked_construction_raises():
    with pytest.raises(JacobiError):
        LieAlgebra(3, {(0, 1): [1, 0, 0], (0, 2): [0, 1, 0]})


def test_invalid_bracket_keys():
    with pytest.raises(ValueError):
        LieAlgebra(3, {(1, 1): [1, 0, 0]})
    with pytest.raises(ValueError):
        LieAlgebra(3, {(2, 1): [1, 0, 0]})


# -- invariants ------------------------------------------------------------------


def test_center_h2():
    center = heisenberg(2).center()
    assert len(center) == 1
    assert center[0] == unit(5, 4)


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
    assert h2.change_basis(BasisChange.identity(5)).brackets == h2.brackets


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
    with pytest.raises(SingularMatrixError):
        heisenberg(2).change_basis(ExactMatrix.from_sparse_rows([{}] * 5, 5))
    with pytest.raises(SingularMatrixError):
        BasisChange(ExactMatrix.from_sparse_rows([{}] * 5, 5))


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
                for k, c in enumerate(expected):
                    if c:
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
            assert alg.bracket(a, b) == tuple(
                [Fraction(0)] * (dim - 1) + [scalar]
            )
