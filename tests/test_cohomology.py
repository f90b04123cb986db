"""Tests for the Chevalley-Eilenberg complex with adjoint coefficients."""

import gc
import math
import random
import sys
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liedeform import cohomology, exact, liealg
from liedeform.catalog import h1_cocycles, heisenberg, phi
from liedeform.cohomology import (
    Cochain,
    NotACocycleError,
    apply_differential,
    class_eq,
    cocycle_constraints,
    cohomology_dim,
    differential,
    heisenberg_hp_formula,
    is_coboundary,
    is_cocycle,
    span_in_cohomology,
)
from liedeform.deform import Deformation, specialize
from liedeform.exact import ExactMatrix, PolyScalar
from liedeform.jsonio import algebra_from_dict
from liedeform.liealg import JacobiError, LieAlgebra

from test_exact import dense, is_rational_multiple, naive_rank, sparse
from test_liealg import assert_adapted_to_derived, lie, reference_jacobi

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402


def abelian(n):
    return LieAlgebra(n, {})


def random_cochain(rng, degree, dim, lo=-3, hi=3):
    coords = {i: Fraction(rng.randint(lo, hi)) for i in range(math.comb(dim, degree) * dim)}
    return Cochain.from_coords(degree, dim, coords)


def reference_differential(A, c):
    """dc evaluated from the defining formula, one increasing tuple at a time.

    dc(g_1..g_{q+1}) = sum_{s<t} (-1)^(s+t-1) c([g_s, g_t], ..^s..^t..)
                     + sum_s (-1)^s [g_s, c(..^s..)]   (1-based s, t),
    with c read through Cochain.value, which applies the permutation sign.
    This is independent of the sparse kernel behind differential(); vectors
    are dense here and converted only where they enter or leave the library.
    """
    n, q = A.dim, c.degree
    out = {}
    for tau in combinations(range(n), q + 1):
        acc = [Fraction(0)] * n
        for s in range(q + 1):
            for t in range(s + 1, q + 1):
                sign = -1 if (s + t + 1) % 2 else 1
                rest = tau[:s] + tau[s + 1 : t] + tau[t + 1 :]
                for k, wk in enumerate(dense(A.bracket_basis(tau[s], tau[t]), n)):
                    if wk:
                        for m, vm in enumerate(dense(c.value((k,) + rest), n)):
                            acc[m] = acc[m] + sign * wk * vm
        for s in range(q + 1):
            sign = -1 if (s + 1) % 2 else 1
            for k, vk in enumerate(dense(c.value(tau[:s] + tau[s + 1 :]), n)):
                if vk:
                    for m, wm in enumerate(dense(A.bracket_basis(tau[s], k), n)):
                        acc[m] = acc[m] + sign * vk * wm
        out[tau] = dict(enumerate(acc))
    return Cochain(q + 1, n, out)


def unit_cochain(n, q, j):
    """The basis cochain at coordinate j of C^q."""
    return Cochain.from_coords(q, n, {j: Fraction(1)})


def member(family, params):
    return lie(specialize(Deformation(heisenberg(2), {1: phi(family, params)}), 1))


# Non-Heisenberg tables: brackets land on several basis vectors, so the
# sign of moving the output index k into the remaining arguments varies.
SL2 = LieAlgebra(3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})
R2 = LieAlgebra(2, {(0, 1): {1: 1}})
TEST_ALGEBRAS = {
    "sl2": SL2,
    "r2": R2,
    "d5(0:0)": member("phi5", (0, 0)),
    "d6(0:0)": member("phi6", (0, 0)),
    "d4(1:0)": member("phi4", (1, 0)),  # with d5(0:0), not adapted to [g, g] as given
}


def invertible(entries):
    M = ExactMatrix([[Fraction(x) for x in entries[5 * i : 5 * i + 5]] for i in range(5)])
    return M if M.rank() == 5 else None


# Random invertible basis changes of h_2 (entries in -2..2).
h2_bases = (
    st.lists(st.integers(-2, 2), min_size=25, max_size=25)
    .map(invertible)
    .filter(lambda M: M is not None)
)


# -- cochain mechanics ---------------------------------------------------------


def test_cochain_alternating_evaluation():
    c = Cochain(2, 3, {(0, 2): {0: 1, 1: 2}})
    assert c.value((0, 2)) == {0: Fraction(1), 1: Fraction(2)}
    assert c.value((2, 0)) == {0: Fraction(-1), 1: Fraction(-2)}
    assert c.value((1, 1)) == {}
    assert c.value((0, 1)) == {}
    for index in (3, -1):
        with pytest.raises(ValueError, match=f"^basis index {index} out of range 0..2"):
            c.value((0, index))


def test_cochain_rejects_bad_entries():
    with pytest.raises(ValueError):
        Cochain(2, 3, {(2, 0): {0: 1}})  # not increasing
    with pytest.raises(ValueError):
        Cochain(2, 3, {(0, 3): {0: 1}})  # out of range
    for index in (3, -1):  # a value index outside 0..dim-1
        message = rf"^tuple \(0, 1\): value index {index} out of range 0..2"
        with pytest.raises(ValueError, match=message):
            Cochain(2, 3, {(0, 1): {0: 1, index: 1}})


def test_cochain_drops_zero_values():
    assert Cochain(2, 3, {(0, 1): {0: 0}}) == Cochain.zero(2, 3)
    c = Cochain(2, 3, {(0, 1): {2: Fraction(0), 1: 5}, (0, 2): {0: PolyScalar.zero()}})
    assert c.entries == {(0, 1): {1: Fraction(5)}}
    assert hash(c) == hash(Cochain(2, 3, {(0, 1): {1: 5}}))


def test_cochain_coords_round_trip():
    rng = random.Random(31)
    for degree in (0, 1, 2, 3):
        c = random_cochain(rng, degree, 4)
        coords = c.coords()
        assert list(coords) == sorted(coords) and all(coords.values())
        assert Cochain.from_coords(degree, 4, coords) == c


def test_cochain_from_coords_rejects_indices_out_of_range():
    size = math.comb(4, 2) * 4
    for index in (-1, size):
        with pytest.raises(ValueError, match=f"^coordinate {index} out of range 0..{size - 1}"):
            Cochain.from_coords(2, 4, {index: Fraction(1)})


def test_cochain_basis_size():
    for n in (3, 5, 7):
        for q in range(n + 1):
            assert cohomology_dim(abelian(n), q).dim_cochain == math.comb(n, q) * n


# -- the differential ------------------------------------------------------------


def test_differential_abelian_is_zero():
    A = abelian(4)
    for q in range(0, 5):
        assert differential(A, q).is_zero()


def test_differential_out_of_range():
    with pytest.raises(ValueError):
        differential(heisenberg(1), 4)
    with pytest.raises(ValueError):
        differential(heisenberg(1), -1)


def test_h1_cocycles_in_kernel_of_d2():
    h1 = heisenberg(1)
    d2 = differential(h1, 2)
    for c in h1_cocycles():
        assert d2.mul_vector(c.coords()) == {}


def test_h2_differential_ranks():
    h2 = heisenberg(2)
    assert differential(h2, 0).rank() == 4
    assert differential(h2, 1).rank() == 10


def test_h2_d2_rank_and_nullity_against_naive_oracle():
    d2 = differential(heisenberg(2), 2)
    assert (d2.nrows, d2.ncols) == (50, 50)
    assert naive_rank([list(d2.row(i)) for i in range(d2.nrows)]) == 20
    assert d2.rank() == 20
    assert len(d2.nullspace()) == 30  # = 50 - 20; dim H^2 + rank d_1 = 20 + 10


def test_d_compose_d_is_zero_h1_h2():
    for n in (1, 2):
        A = heisenberg(n)
        for q in range(A.dim):
            assert (differential(A, q + 1) * differential(A, q)).is_zero()


def test_apply_differential_matches_matrix():
    rng = random.Random(13)
    A = heisenberg(2)
    for q in (1, 2):
        c = random_cochain(rng, q, 5)
        dc = apply_differential(A, c)
        assert dc.coords() == differential(A, q).mul_vector(c.coords())
    # Over a denominator: h_2 in a basis with entries 1/2, and sparse cochains.
    half = Fraction(1, 2)
    basis = [[1, half, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, half], [half, 0, 0, 1, 0]]
    basis.append([0, 0, 0, 0, 1])
    A = lie(heisenberg(2).change_basis(ExactMatrix(basis)))
    assert A._den == 8
    for q in range(4):
        size = math.comb(5, q) * 5
        coords = {i: Fraction(rng.randint(-3, 3), 2) for i in rng.sample(range(size), 4)}
        c = Cochain.from_coords(q, 5, coords)
        assert apply_differential(A, c).coords() == differential(A, q).mul_vector(c.coords())


def assert_columns_match_reference(A, q):
    d = differential(A, q)
    assert (d.nrows, d.ncols) == (
        math.comb(A.dim, q + 1) * A.dim,
        math.comb(A.dim, q) * A.dim,
    )
    for j in range(d.ncols):
        expected = reference_differential(A, unit_cochain(A.dim, q, j)).coords()
        assert sparse(d.column(j)) == expected


@pytest.mark.parametrize("name", sorted(TEST_ALGEBRAS))
def test_differential_columns_match_the_defining_formula(name):
    A = TEST_ALGEBRAS[name]
    for q in range(A.dim + 1):
        assert_columns_match_reference(A, q)


def test_differential_columns_match_the_defining_formula_heisenberg():
    for n in (1, 2):
        A = heisenberg(n)
        for q in range(A.dim + 1):
            assert_columns_match_reference(A, q)


@pytest.mark.parametrize("name", sorted(TEST_ALGEBRAS))
def test_apply_differential_matches_the_defining_formula(name):
    rng = random.Random(37)
    A = TEST_ALGEBRAS[name]
    p, q_var = PolyScalar.variable("p"), PolyScalar.variable("q")
    symbols = [Fraction(0), Fraction(0), Fraction(-2), p, p * q_var - Fraction(1, 3)]
    for q in range(A.dim + 1):
        size = math.comb(A.dim, q) * A.dim
        rational = random_cochain(rng, q, A.dim)
        symbolic = Cochain.from_coords(q, A.dim, {i: rng.choice(symbols) for i in range(size)})
        for c in (rational, symbolic):
            assert apply_differential(A, c) == reference_differential(A, c)


def test_the_differential_of_a_linear_map_is_its_action_on_the_bracket():
    # (D.mu)(x, y) = D mu(x, y) - mu(Dx, y) - mu(x, Dy), evaluated here
    # through bracket_basis, for random D in C^1(h_2) = gl(5).
    A, rng = heisenberg(2), random.Random(3)
    n = A.dim
    for _ in range(20):
        D = random_cochain(rng, 1, n)

        def apply(x):  # D of a dense vector
            out = [Fraction(0)] * n
            for i, xi in enumerate(x):
                for k, v in D.value((i,)).items():
                    out[k] += xi * v
            return out

        def bracket(x, y):  # mu of two dense vectors
            out = [Fraction(0)] * n
            for (i, xi), (j, yj) in product(enumerate(x), enumerate(y)):
                for k, v in A.bracket_basis(i, j).items():
                    out[k] += xi * yj * v
            return out

        unit = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        expected = {
            (a, b): dict(enumerate(
                u - v - w
                for u, v, w in zip(
                    apply(bracket(unit[a], unit[b])),
                    bracket(apply(unit[a]), unit[b]),
                    bracket(unit[a], apply(unit[b])),
                )
            ))
            for a, b in combinations(range(n), 2)
        }
        assert apply_differential(A, D) == Cochain(2, n, expected)


@pytest.mark.parametrize("name", sorted(TEST_ALGEBRAS))
def test_d_compose_d_is_zero_non_heisenberg(name):
    A = TEST_ALGEBRAS[name]
    for q in range(A.dim):
        assert (differential(A, q + 1) * differential(A, q)).is_zero()


@settings(max_examples=10, deadline=None)
@given(M=h2_bases, q=st.integers(0, 5))
def test_differential_of_a_changed_h2_basis_matches_the_defining_formula(M, q):
    A = lie(heisenberg(2).change_basis(M))
    assert_columns_match_reference(A, q)
    if q < A.dim:
        assert (differential(A, q + 1) * differential(A, q)).is_zero()
    # Built from integer rows or from rationals, a matrix has one canonical form.
    Minv = M.inverse()
    assert Minv * M == ExactMatrix.identity(5)
    for m in (differential(A, q), Minv * M, Minv * Minv):
        twin = ExactMatrix.from_sparse_rows([dict(enumerate(row)) for row in m.rows()], m.ncols)
        assert twin == m and hash(twin) == hash(m)


# -- cocycles and coboundaries -----------------------------------------------------


def test_is_cocycle_examples():
    h2 = heisenberg(2)
    assert is_cocycle(h2, phi("phi3"))
    assert is_cocycle(h2, Cochain.zero(2, 5))
    assert not is_cocycle(h2, Cochain(2, 5, {(3, 4): {4: 1}}))


def test_symbolic_cocycle_constraints():
    h2 = heisenberg(2)
    for name in ("phi1", "phi2", "phi3", "phi4", "phi5", "phi6", "phi7"):
        assert cocycle_constraints(h2, phi(name, symbolic=True)) == []
    gen = PolyScalar.variable("p") * (
        PolyScalar.variable("q") - PolyScalar.variable("r")
    )
    constraints = cocycle_constraints(h2, phi("phi8", symbolic=True))
    assert constraints
    assert all(is_rational_multiple(x, gen) for x in constraints)


def test_coboundary_of_random_one_cochain():
    rng = random.Random(17)
    h2 = heisenberg(2)
    for _ in range(10):
        lam = random_cochain(rng, 1, 5)
        c = apply_differential(h2, lam)
        preimage = is_coboundary(h2, c)
        assert preimage is not None
        assert apply_differential(h2, preimage) == c


def test_h1_cocycles_are_not_coboundaries():
    h1 = heisenberg(1)
    for c in h1_cocycles():
        assert is_coboundary(h1, c) is None


def test_phi7_000_plus_phi4_00_is_the_zero_cochain():
    total = phi("phi7", (0, 0, 0)) + phi("phi4", (0, 0))
    assert total.is_zero
    preimage = is_coboundary(heisenberg(2), total)
    assert preimage is not None and preimage.is_zero


def test_is_coboundary_rejects_degree_zero_and_symbolic():
    h2 = heisenberg(2)
    with pytest.raises(ValueError):
        is_coboundary(h2, Cochain(0, 5, {(): {0: 1}}))
    with pytest.raises(ValueError):
        is_coboundary(h2, phi("phi8", symbolic=True))


# -- cohomology dimensions ---------------------------------------------------------


def test_dim_h2_of_h1_and_h2():
    assert cohomology_dim(heisenberg(1), 2).dim_H == 5
    assert cohomology_dim(heisenberg(2), 2).dim_H == 20


@pytest.mark.parametrize("A", [SL2, R2], ids=["sl2", "r2"])
def test_adjoint_cohomology_of_sl2_and_r2_vanishes(A):
    # sl2: Whitehead's theorem (the adjoint module is simple and nontrivial).
    for q in range(A.dim + 1):
        assert cohomology_dim(A, q).dim_H == 0


@settings(max_examples=10, deadline=None)
@given(M=h2_bases, q=st.integers(0, 5))
def test_h2_cohomology_is_invariant_under_basis_change(M, q):
    A = lie(heisenberg(2).change_basis(M))
    assert cohomology_dim(A, q).dim_H == heisenberg_hp_formula(2, q)


# A fixed dense basis of h_3 (entries in -1..2): all 147 structure constants
# of the transported table are nonzero, so no d_q is sparse.
DENSE_H3_BASIS = [
    [1, 2, -1, 2, 1, -1, 0],
    [1, 2, 0, 1, 2, 0, -1],
    [-1, -1, 1, 1, 1, -1, 0],
    [1, 1, 1, 1, 1, 2, 2],
    [1, 1, 1, 2, 1, 1, -1],
    [1, 2, 0, 0, 1, 2, 0],
    [1, 1, 1, -1, 0, 2, 0],
]


def test_dense_h3_cohomology_matches_the_closed_form():
    A = lie(heisenberg(3).change_basis(ExactMatrix(DENSE_H3_BASIS)))
    assert all(len(vec) == 7 for vec in A.brackets.values()) and len(A.brackets) == 21
    for q in range(4):
        assert cohomology_dim(A, q).dim_H == heisenberg_hp_formula(3, q)


def test_dense_h4_cohomology_matches_the_closed_form():
    # h_4 moved by the benchmark's seeded dense basis change: all 36 brackets
    # carry 9 nonzeros, and the table is loaded with its Jacobi check.
    table = workloads.change_basis(
        workloads.heisenberg(4), 9, workloads.dense_change(4, random.Random(1))
    )
    A = algebra_from_dict(workloads.algebra_doc(table, 9))
    assert sum(map(len, A.brackets.values())) == 324
    for q in range(4):
        assert cohomology_dim(A, q).dim_H == heisenberg_hp_formula(4, q)


# A fixed dense basis of h_2: all 50 transported structure constants are nonzero.
DENSE_H2_BASIS = [
    [1, -1, 1, 1, 1],
    [2, 1, 0, 2, 2],
    [0, -1, 1, -1, 1],
    [2, -1, 2, 1, 2],
    [-1, 2, -1, 0, 0],
]


def assert_both_paths_agree(A, q):
    """cohomology_dim gives the same ranks with and without representatives,
    each the rank of d_q or d_(q-1) eliminated in full, and dim H^q
    representatives; returns dim H^q.  The plain path ranks in the adapted
    view, the representatives path in the given basis."""
    plain, reps = cohomology_dim(A, q), cohomology_dim(A, q, representatives=True)
    assert (plain.rank_d, plain.rank_d_prev, plain.dim_H) == (
        reps.rank_d,
        reps.rank_d_prev,
        reps.dim_H,
    )
    assert plain.rank_d == differential(A, q).rank()
    assert plain.rank_d_prev == (differential(A, q - 1).rank() if q else 0)
    assert len(reps.representatives) == reps.dim_H
    return reps.dim_H


def test_representatives_path_agrees_on_a_dense_h2():
    A = lie(heisenberg(2).change_basis(ExactMatrix(DENSE_H2_BASIS)))
    assert all(len(vec) == 5 for vec in A.brackets.values()) and len(A.brackets) == 10
    for q in range(6):
        assert assert_both_paths_agree(A, q) == heisenberg_hp_formula(2, q)


@settings(max_examples=10, deadline=None)
@given(M=h2_bases, q=st.integers(0, 5))
def test_representatives_path_agrees_under_basis_change(M, q):
    A = lie(heisenberg(2).change_basis(M))
    assert assert_both_paths_agree(A, q) == heisenberg_hp_formula(2, q)


@pytest.mark.parametrize("name", sorted(TEST_ALGEBRAS))
def test_both_paths_agree_on_non_heisenberg_algebras(name):
    # sl2 and r2 are not nilpotent; d_(q-1) is tall at low q and wide at high q.
    A = TEST_ALGEBRAS[name]
    for q in range(A.dim + 1):
        assert_both_paths_agree(A, q)


def test_algebras_adapted_to_their_derived_algebra_come_back_unchanged():
    # [g, g] has a reduced basis of unit vectors, so sweep_sparse's standard
    # h_n build no new table; so has d1, though not every bracket of it is
    # a multiple of a basis vector.
    d1 = member("phi1", ())
    assert any(len(vec) > 1 for vec in d1.brackets.values())
    for A in [heisenberg(n) for n in range(1, 5)] + [SL2, R2, d1]:
        assert A.adapted_to_derived() is A


def test_the_dense_h3_is_moved_to_a_basis_with_one_lead():
    A = lie(heisenberg(3).change_basis(ExactMatrix(DENSE_H3_BASIS)))
    adapted = assert_adapted_to_derived(A)
    assert {k for vec in adapted.brackets.values() for k in vec} == {0}


def test_a_checked_dense_table_builds_its_adapted_view_once():
    # 147 nonzeros against C(7, 2) * 1 for the view: the check builds it, and
    # cohomology_dim reads the same object.
    dense_h3 = heisenberg(3).change_basis(ExactMatrix(DENSE_H3_BASIS))
    A = LieAlgebra(7, dense_h3.brackets)
    assert A._adapted is not None
    view = A.adapted_to_derived()
    assert view is not A and A.adapted_to_derived() is view
    assert view.adapted_to_derived() is view
    assert cohomology_dim(A, 1).dim_H == heisenberg_hp_formula(3, 1)
    assert A.adapted_to_derived() is view


def test_the_echelon_of_the_derived_algebra_runs_once_per_algebra(monkeypatch):
    # sl_2 moved to a dense basis has 9 nonzeros against C(3, 2) = 3, and
    # r = dim [g, g] = 3: the check builds the view, and H^2 reads it.
    calls, echelon = [], liealg._echelon
    monkeypatch.setattr(liealg, "_echelon", lambda rows: calls.append(1) or echelon(rows))
    moved = SL2.change_basis(ExactMatrix([[1, 1, 0], [0, 1, 1], [1, 0, 2]]))
    assert sum(map(len, moved.brackets.values())) == 9
    A = LieAlgebra(3, moved.brackets)
    assert len(calls) == 1
    assert cohomology_dim(A, 2).dim_H == 0
    assert len(calls) == 1


def test_iso_inputs_are_checked_without_an_adapted_view(monkeypatch):
    # d5(0:0) has 4 nonzeros, at most C(5, 2) r for any r >= 1: no echelon,
    # no view, though its basis is not adapted to [g, g].
    d5 = TEST_ALGEBRAS["d5(0:0)"]
    monkeypatch.setattr(liealg, "_echelon", None)  # an echelon would fail
    A = LieAlgebra(5, d5.brackets)
    assert A._adapted is None
    monkeypatch.undo()
    assert A.adapted_to_derived() is not A


def test_no_algebra_keeps_a_reference_to_itself():
    # h_2's view is h_2 itself; a sentinel stands for it, so no cycle is left
    # for the cyclic garbage collector.  A built view does not refer back.
    A = heisenberg(2)
    cohomology_dim(A, 2)
    assert A.adapted_to_derived() is A
    assert A not in gc.get_referents(A)
    B = LieAlgebra(7, heisenberg(3).change_basis(ExactMatrix(DENSE_H3_BASIS)).brackets)
    view = B.adapted_to_derived()
    assert [r is view for r in gc.get_referents(B)].count(True) == 1
    assert not any(r is B or r is view for r in gc.get_referents(view))


def test_a_perturbed_dense_table_reports_the_given_basis_triples():
    # The dense h_2's view fails the check, and the sums are taken again in
    # the given basis, so JacobiError names the table's own triples.
    dense_h2 = heisenberg(2).change_basis(ExactMatrix(DENSE_H2_BASIS))
    brackets = {key: dict(vec) for key, vec in dense_h2.brackets.items()}
    brackets[(0, 1)][0] += 1
    A = LieAlgebra(5, brackets, check=False)
    expected = reference_jacobi(A)
    assert expected and A.jacobi_violations() == expected
    assert A._adapted is not None and A.adapted_to_derived() is not A
    with pytest.raises(JacobiError) as err:
        LieAlgebra(5, brackets)
    assert err.value.violations == expected


def test_plain_rank_hands_the_eliminator_the_adapted_sparse_differentials(monkeypatch):
    # In the basis adapted to [g, g] every bracket of the dense h_3 lies on
    # one lead: d_2 (245x147, ranked by its 245 rows) and d_1 (147x49, by
    # its 147 rows) carry 870 and 285 nonzeros.
    A = lie(heisenberg(3).change_basis(ExactMatrix(DENSE_H3_BASIS)))
    batches, echelon = [], exact._echelon

    def recording(rows):
        rows = list(rows)
        batches.append((len(rows), sum(map(len, rows))))
        return echelon(rows)

    monkeypatch.setattr(exact, "_echelon", recording)
    report = cohomology_dim(A, 2)
    assert batches == [(245, 870), (147, 285)]
    assert (report.rank_d, report.rank_d_prev) == (56, 21)


@st.composite
def changed_heisenberg(draw):
    """h_n, n in 1..3, in a random invertible integer basis (entries in -2..2),
    and a degree q in 0..3."""
    n = draw(st.integers(1, 3))
    size = 2 * n + 1
    entries = draw(st.lists(st.integers(-2, 2), min_size=size * size, max_size=size * size))
    M = ExactMatrix([entries[size * i : size * (i + 1)] for i in range(size)])
    assume(M.rank() == size)
    return lie(heisenberg(n).change_basis(M)), draw(st.integers(0, 3))


@settings(max_examples=15, deadline=None)
@given(case=changed_heisenberg())
def test_plain_ranks_match_full_elimination_under_basis_change(case):
    # The plain path ranks in the basis adapted to [g, g]; full elimination
    # ranks d_q and d_(q-1) in A's own basis.  TEST_ALGEBRAS are checked so
    # by test_both_paths_agree_on_non_heisenberg_algebras.
    A, q = case
    report = cohomology_dim(A, q)
    assert report.rank_d == differential(A, q).rank()
    assert report.rank_d_prev == (differential(A, q - 1).rank() if q else 0)


def test_dim_h_abelian():
    A = abelian(3)
    for q in range(4):
        assert cohomology_dim(A, q).dim_H == 3 * math.comb(3, q)


def test_report_consistency():
    report = cohomology_dim(heisenberg(2), 2)
    assert report.dim_kernel == report.dim_cochain - report.rank_d == 30
    assert report.dim_image_prev == 10
    assert report.dim_H == report.dim_kernel - report.dim_image_prev


def test_cohomology_report_record():
    report = cohomology.CohomologyReport(degree=2, dim_cochain=100, rank_d=70, rank_d_prev=10)
    assert report.dim_kernel == 30
    assert report.dim_H == 20
    assert report.representatives is None
    with pytest.raises(AttributeError):
        report.rank_d = 0


def test_representatives_span_cohomology():
    h1 = heisenberg(1)
    report = cohomology_dim(h1, 2, representatives=True)
    reps = report.representatives
    assert len(reps) == report.dim_H == 5
    assert all(is_cocycle(h1, c) for c in reps)
    assert span_in_cohomology(h1, 2, list(reps)) == 5


@pytest.mark.parametrize("name", sorted(TEST_ALGEBRAS) + ["dense h3"])
def test_image_echelon_spans_the_columns_of_the_previous_differential(name):
    # Terms of a basis image can cancel (sl2, r2 and the dense h_3 have such
    # columns); the echelon, read from the basis images, must match d_(q-1).
    if name == "dense h3":
        A = lie(heisenberg(3).change_basis(ExactMatrix(DENSE_H3_BASIS)))
    else:
        A = TEST_ALGEBRAS[name]
    for q in range(1, min(A.dim, 2) + 1):
        d_prev = differential(A, q - 1)
        echelon = cohomology._image_echelon(A, q)
        assert len(echelon) == d_prev.rank()
        assert all(echelon.normal_form(sparse(d_prev.column(j))) == {} for j in range(d_prev.ncols))


def test_representatives_build_each_differential_once(monkeypatch):
    # d_q is built once; d_(q-1) is only walked, once, for the image echelon
    # that also gives its rank.
    plain = cohomology_dim(heisenberg(3), 2)
    calls, walks = [], []
    columns = cohomology._columns

    def counting(algebra, q):
        calls.append(q)
        return differential(algebra, q)

    def counting_columns(algebra, q):
        walks.append(q)
        return columns(algebra, q)

    monkeypatch.setattr(cohomology, "differential", counting)
    monkeypatch.setattr(cohomology, "_columns", counting_columns)
    report = cohomology_dim(heisenberg(3), 2, representatives=True)
    assert len(report.representatives) == heisenberg_hp_formula(3, 2)
    assert report.rank_d_prev == plain.rank_d_prev
    assert calls == [2]
    assert sorted(walks) == [1, 2]


@pytest.mark.parametrize("q", [0, 2, 3, 7])
def test_representatives_make_no_rank_call(monkeypatch, q):
    # rank d_q is dim C^q minus the kernel's length, and rank d_(q-1) is the
    # image echelon's length, so representatives mode computes no rank.
    plain = cohomology_dim(heisenberg(3), q)
    ranks = []
    monkeypatch.setattr(ExactMatrix, "rank", lambda m: ranks.append(m) or 0)
    report = cohomology_dim(heisenberg(3), q, representatives=True)
    assert ranks == []
    assert (report.rank_d, report.rank_d_prev) == (plain.rank_d, plain.rank_d_prev)
    assert len(report.representatives) == report.dim_H == heisenberg_hp_formula(3, q)


def test_formula_examples_and_errors():
    assert heisenberg_hp_formula(1, 2) == 5
    assert heisenberg_hp_formula(2, 2) == 20
    for n in (1, 2, 3, 4):
        assert heisenberg_hp_formula(n, 0) == 1
    with pytest.raises(ValueError):
        heisenberg_hp_formula(0, 0)
    with pytest.raises(ValueError):
        heisenberg_hp_formula(1, 4)
    with pytest.raises(ValueError):
        heisenberg_hp_formula(2, -1)


def test_formula_matches_direct_computation_small():
    # Every degree of h_1..h_5: 40 cases in about 0.5 s.  With dense storage
    # of d_q, H^3(h_5) alone takes about 3 s, so this also guards the sparse path.
    for n in range(1, 6):
        A = heisenberg(n)
        for p in range(2 * n + 2):
            assert heisenberg_hp_formula(n, p) == cohomology_dim(A, p).dim_H


def test_euler_characteristic_consistency():
    for n in (1, 2):
        dim = 2 * n + 1
        chi_cochain = sum(
            (-1) ** q * math.comb(dim, q) * dim for q in range(dim + 1)
        )
        chi_h = sum(
            (-1) ** p * heisenberg_hp_formula(n, p) for p in range(dim + 1)
        )
        assert chi_cochain == chi_h == 0


# -- class comparison and spans ------------------------------------------------------


def test_class_eq_examples():
    h2 = heisenberg(2)
    c = phi("phi3")
    assert class_eq(h2, c, c)
    assert class_eq(h2, phi("phi8", (0, 0, 0)), phi("phi6", (0, 0)))
    h1 = heisenberg(1)
    five = h1_cocycles()
    assert not class_eq(h1, five[0], five[1])


def test_class_eq_rejects_non_cocycles():
    h2 = heisenberg(2)
    not_cocycle = Cochain(2, 5, {(3, 4): {4: 1}})
    with pytest.raises(NotACocycleError):
        class_eq(h2, not_cocycle, phi("phi3"))


def test_class_eq_is_an_equivalence_relation():
    rng = random.Random(23)
    h2 = heisenberg(2)
    base = [phi("phi3"), phi("phi4", (1, 0)), phi("phi6", (0, 1))]
    cocycles = list(base)
    for c in base:  # the same classes shifted by random coboundaries
        lam = random_cochain(rng, 1, 5)
        cocycles.append(c + apply_differential(h2, lam))
    for a in cocycles:
        assert class_eq(h2, a, a)
    for a in cocycles:
        for b in cocycles:
            assert class_eq(h2, a, b) == class_eq(h2, b, a)
    for i, a in enumerate(base):
        shifted = cocycles[len(base) + i]
        assert class_eq(h2, a, shifted)
    # transitivity across the coboundary shifts
    for i, a in enumerate(base):
        for j, b in enumerate(base):
            lhs = class_eq(h2, a, b)
            rhs = class_eq(h2, cocycles[len(base) + i], cocycles[len(base) + j])
            assert lhs == rhs


def test_coboundary_perturbation_invariance():
    rng = random.Random(29)
    h2 = heisenberg(2)
    a = phi("phi4", (1, 0))
    b = phi("phi5", (0, 1))
    for _ in range(5):
        lam = random_cochain(rng, 1, 5)
        shift = apply_differential(h2, lam)
        assert class_eq(h2, a, a + shift)
        assert class_eq(h2, a, b) == class_eq(h2, a + shift, b)
        assert span_in_cohomology(h2, 2, [a, b]) == span_in_cohomology(
            h2, 2, [a + shift, b]
        )


def test_span_examples():
    h2 = heisenberg(2)
    assert span_in_cohomology(
        h2, 2, [phi("phi4", (1, 0)), phi("phi4", (0, 1)), phi("phi4", (0, 0))]
    ) == 3
    assert span_in_cohomology(
        h2,
        2,
        [
            phi("phi7", (0, 0, 0)),
            phi("phi7", (1, 0, 0)),
            phi("phi7", (0, 1, 0)),
            phi("phi7", (0, 0, 1)),
        ],
    ) == 4
    h1 = heisenberg(1)
    assert span_in_cohomology(h1, 2, h1_cocycles()) == 5


def test_span_rejects_non_cocycles():
    h2 = heisenberg(2)
    with pytest.raises(NotACocycleError):
        span_in_cohomology(h2, 2, [Cochain(2, 5, {(3, 4): {4: 1}})])
