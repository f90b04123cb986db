"""Tests for the built-in catalog and the classification driver."""

import itertools
import random
import sys
from fractions import Fraction

import pytest

from liedeform.catalog import (
    FAMILIES,
    d5_d6_basis_change,
    h1_cocycles,
    heisenberg,
    named_algebra,
    paper_representatives,
    phi,
    reproduce,
)
from liedeform.cohomology import (
    class_eq,
    differential,
    heisenberg_hp_formula,
    is_coboundary,
    is_cocycle,
    span_in_cohomology,
)
from liedeform import catalog, deform
from liedeform.deform import Deformation, specialize, strict_extendability, verify_isomorphism
from liedeform.liealg import LieAlgebra, d_mu

from test_liealg import lie


def test_heisenberg_tables():
    h1 = heisenberg(1)
    assert h1.dim == 3
    assert h1.brackets == {(0, 1): {2: Fraction(1)}}
    h2 = heisenberg(2)
    assert set(h2.brackets) == {(0, 2), (1, 3)}
    h3 = heisenberg(3)
    assert set(h3.brackets) == {(0, 3), (1, 4), (2, 5)}
    for alg in (h1, h2, h3):
        assert alg.jacobi_violations() == []
        assert len(alg.center()) == 1


def test_heisenberg_rejects_rank_zero():
    with pytest.raises(ValueError):
        heisenberg(0)


def test_named_algebra():
    assert named_algebra("h2") == heisenberg(2)
    with pytest.raises(ValueError):
        named_algebra("so3")


def test_h1_cocycle_list_shape():
    five = h1_cocycles()
    assert len(five) == 5
    # the second one has two nonzero entries, all others exactly one
    assert [len(c.entries) for c in five] == [1, 2, 1, 1, 1]
    h1 = heisenberg(1)
    assert all(is_cocycle(h1, c) for c in five)
    assert all(is_coboundary(h1, c) is None for c in five)


def test_phi1_table_entries():
    c = phi("phi1")
    assert c.entries == {
        (0, 2): {1: Fraction(2), 2: Fraction(-2)},
        (0, 3): {2: Fraction(1)},
        (1, 3): {1: Fraction(1)},
        (2, 3): {1: Fraction(-1), 2: Fraction(2)},
    }


def test_phi4_at_zero_parameters():
    c = phi("phi4", (0, 0))
    assert c.entries == {
        (1, 2): {0: Fraction(-1)},
        (2, 3): {1: Fraction(1)},
    }


# The parameter count of each family that takes parameters; the others take none.
ARITY = {"phi4": 2, "phi5": 2, "phi6": 2, "phi7": 3, "phi8": 3}


def test_phi_arity_enforced():
    assert set(FAMILIES) == {f"phi{k}" for k in range(1, 9)} | {f"h1_phi{k}" for k in range(1, 6)}
    for name in FAMILIES:
        n = ARITY.get(name, 0)
        phi(name, (1,) * n)
        wrong = n + 1 if n == 0 else n - 1
        with pytest.raises(ValueError, match=f"^{name} takes {n} parameters, got {wrong}$"):
            phi(name, (1,) * wrong)
    with pytest.raises(ValueError):
        phi("phi9")
    with pytest.raises(ValueError):
        phi("phi8", (1, 0, 0), symbolic=True)


def test_phi_symbolic_substitution_consistency():
    rng = random.Random(8)
    for name in FAMILIES:
        if name not in ARITY:
            continue
        sym = phi(name, symbolic=True)
        points = [(1, 0, 0), (0, 1, 1), (0, 2, 3)]
        points += [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in "pqr")
                   for _ in range(3)]
        for params in points:
            params = params[: ARITY[name]]
            point = dict(zip("pqr", (Fraction(x) for x in params)))
            assert sym.substitute(point) == phi(name, params)


def test_phi7_000_is_minus_phi4_00_but_not_same_class():
    h2 = heisenberg(2)
    a = phi("phi7", (0, 0, 0))
    b = phi("phi4", (0, 0))
    assert a == b.scale(Fraction(-1))
    assert not class_eq(h2, a, b)
    # their difference is -2 phi4(0:0), which is not a coboundary
    assert is_coboundary(h2, a - b) is None


def test_phi8_000_equals_phi6_00():
    assert phi("phi8", (0, 0, 0)) == phi("phi6", (0, 0))


def test_phi8_is_a_cocycle_exactly_where_p_times_q_minus_r_vanishes():
    h2 = heisenberg(2)
    for p, q, r in itertools.product((-1, 0, 2), repeat=3):
        assert is_cocycle(h2, phi("phi8", (p, q, r))) == (p * (q - r) == 0)
    assert is_cocycle(h2, phi("phi4", (2, -1)))


def test_linear_combination_identities_at_random_points():
    rng = random.Random(61)
    for _ in range(5):
        p = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        q = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        r = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        for name in ("phi4", "phi5", "phi6"):
            assert phi(name, (p, q)) == (
                phi(name, (p, 0)) + phi(name, (0, q)) - phi(name, (0, 0))
            )
        assert phi("phi7", (p, q, r)) == (
            phi("phi7", (p, 0, 0))
            + phi("phi7", (0, q, 0))
            + phi("phi7", (0, 0, r))
            - phi("phi7", (0, 0, 0)).scale(Fraction(2))
        )


def test_representative_labels():
    reps = paper_representatives()
    assert [r.label for r in reps] == [
        "d1", "d2", "d3",
        "d4(1:0)", "d4(0:1)", "d4(0:0)",
        "d5(1:0)", "d5(0:1)", "d5(0:0)",
        "d6(1:0)", "d6(0:1)", "d6(0:0)",
        "d7(0:0:0)", "d7(1:0:0)", "d7(0:1:0)", "d7(0:0:1)",
        "d8(1:0:0)", "d8(0:1:1)", "d8(0:1:0)", "d8(0:0:1)",
    ]
    assert all(is_cocycle(heisenberg(2), r.cochain()) for r in reps)


@pytest.fixture(scope="module")
def reproduced():
    """One reproduce() run shared by the tests that read its rows or summary."""
    return reproduce()


def test_reproduce_summary(reproduced):
    rows, summary = reproduced
    assert summary.classes == 20
    assert summary.extendable == 18
    assert summary.obstructed == 2
    obstructed = [r.label for r in rows if not r.strict_extendable]
    assert obstructed == ["d8(0:1:0)", "d8(0:0:1)"]
    assert all(r.obstructed_at == 2 for r in rows if not r.strict_extendable)
    assert all(r.is_cocycle for r in rows)
    # every strictly extendable row has a zero obstruction class
    assert all(r.obstruction_class_zero for r in rows if r.strict_extendable)


def test_reproduce_h2_dim_is_the_closed_form(reproduced):
    _, summary = reproduced
    assert summary.dim_H2 == heisenberg_hp_formula(2, 2) == 20


def test_reproduce_class_collisions_are_the_known_ones(reproduced):
    # Two of the designated d8 points collapse onto d6 points: the family
    # table collapses to phi6(p:0) at q = r = 0, and the remaining
    # difference on (e1, e4) is a coboundary.
    _, summary = reproduced
    assert summary.equal_class_pairs == (
        ("d6(1:0)", "d8(1:0:0)"),
        ("d6(0:0)", "d8(0:1:0)"),
    )
    assert summary.distinct_classes == 18
    assert not summary.pairwise_class_distinct
    assert summary.representative_span_in_H2 == 11
    assert summary.phi8_000_equals_phi6_00


def test_reproduce_builds_each_differential_a_few_times(monkeypatch):
    # One image echelon of d_1 decides all 190 class questions; the other
    # builds are the two obstruction checks and dim H^2.
    builds = []

    def counting(algebra, q):
        builds.append(q)
        return differential(algebra, q)

    for name, module in list(sys.modules.items()):
        if name.startswith("liedeform") and getattr(module, "differential", None) is differential:
            monkeypatch.setattr(module, "differential", counting)
    reproduce()
    assert len(builds) <= 5


def test_reproduce_checks_each_representative_once_for_the_cocycle_condition(monkeypatch):
    # d mu_1 = -defect_1: each row's flag is the order-1 defect that
    # strict_extendability computes, so no is_cocycle call is made, and the
    # class normal forms trust the rows.
    checks = []

    def counting(algebra, c):
        checks.append(c)
        return is_cocycle(algebra, c)

    for name, module in list(sys.modules.items()):
        if name.startswith("liedeform") and getattr(module, "is_cocycle", None) is is_cocycle:
            monkeypatch.setattr(module, "is_cocycle", counting)
    rows, _ = reproduce()
    assert checks == []
    monkeypatch.undo()
    h2 = heisenberg(2)
    flags = [is_cocycle(h2, rep.cochain()) for rep in paper_representatives()]
    assert [row.is_cocycle for row in rows] == flags == [True] * 20


def test_reproduce_computes_each_defect_once(monkeypatch):
    # 20 rows x orders 1..2, all computed by strict_extendability; specialize
    # and the obstruction check read the defects the deformation keeps.
    # One d_mu call per pair i <= n - i: (0, 1) at order 1, (1, 1) at order 2.
    calls = []

    def counting(table, entries):
        calls.append(entries)
        return d_mu(table, entries)

    monkeypatch.setattr(deform, "d_mu", counting)
    reproduce()
    assert len(calls) == 40


def test_reproduce_checks_no_jacobi_identity(monkeypatch):
    # Each member is built once its defects of orders 1..2m vanish, which
    # proves the Jacobi identity, and h_2 and a basis change of a Lie table
    # are Lie; so reproduce checks no table.
    calls = []
    jacobi_violations = LieAlgebra.jacobi_violations

    def counting(A):
        calls.append(A)
        return jacobi_violations(A)

    monkeypatch.setattr(LieAlgebra, "jacobi_violations", counting)
    reproduce()
    assert calls == []


def test_reproduce_specializes_each_extendable_row_once(monkeypatch):
    # The isomorphism facts reuse the row loop's t = 1 members of d4(0:0),
    # d7(0:0:0), d5(0:0) and d6(0:0) instead of building them again.
    members = []

    def counting(D, t):
        members.append(D.term(1))
        return lie(specialize(D, t))

    for name, module in list(sys.modules.items()):
        if name.startswith("liedeform") and getattr(module, "specialize", None) is specialize:
            monkeypatch.setattr(module, "specialize", counting)
    rows, _ = reproduce()
    assert len(members) == 18
    extendable = {r.label for r in rows if r.strict_extendable}
    assert members == [rep.cochain() for rep in paper_representatives() if rep.label in extendable]


def test_reproduce_structure_flags(reproduced):
    rows, _ = reproduced
    by_label = {r.label: r for r in rows}
    for label in ("d4(0:0)", "d5(0:0)", "d6(0:0)", "d7(0:0:0)"):
        assert by_label[label].nilpotent_at_t1 is True
    for r in rows:
        if r.strict_extendable:
            assert r.solvable_at_t1 is True
        else:
            assert r.nilpotent_at_t1 is None and r.solvable_at_t1 is None


def test_reproduce_isomorphism_facts(reproduced):
    _, summary = reproduced
    assert summary.nonisomorphic_nilpotent_generic_members == 2
    methods = {(f.a, f.b): f.method for f in summary.isomorphisms}
    assert methods == {
        ("d4(0:0)", "d7(0:0:0)"): "diagonal_signs",
        ("d5(0:0)", "d6(0:0)"): "explicit_basis_change",
    }


def test_reproduce_verifies_recorded_maps_and_runs_no_search(monkeypatch):
    search = deform.search_isomorphism
    searches = []
    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("liedeform"):
            for name, value in list(vars(module).items()):
                if value is search:
                    monkeypatch.setattr(module, name, lambda *a, **k: searches.append(a))
    _, summary = reproduce()
    assert searches == []
    witnesses = catalog.member_isomorphism_witnesses()
    assert [(f.a, f.b, f.method) for f in summary.isomorphisms] == [w[:3] for w in witnesses]
    for fact, (_, _, _, T) in zip(summary.isomorphisms, witnesses):
        assert fact.columns == tuple(T.column(j) for j in range(5))

    # A fact is reported only for a map verify_isomorphism accepts in the run.
    monkeypatch.setattr(catalog, "verify_isomorphism", lambda A, B, T: False)
    _, summary = reproduce()
    assert summary.isomorphisms == ()
    assert summary.nonisomorphic_nilpotent_generic_members == 4


def test_d6_and_d7_generic_members_are_not_isomorphic():
    # Their lower central series differ, so no basis change can identify them.
    h2 = heisenberg(2)
    B6 = lie(specialize(Deformation(h2, {1: phi("phi6", (0, 0))}), 1))
    B7 = lie(specialize(Deformation(h2, {1: phi("phi7", (0, 0, 0))}), 1))
    assert B6.series("lower_central") == [5, 2, 1, 0]
    assert B7.series("lower_central") == [5, 3, 2, 1, 0]


def test_d5_d6_explicit_change_verifies():
    h2 = heisenberg(2)
    A = lie(specialize(Deformation(h2, {1: phi("phi5", (0, 0))}), 1))
    B = lie(specialize(Deformation(h2, {1: phi("phi6", (0, 0))}), 1))
    assert verify_isomorphism(A, B, d5_d6_basis_change())


def test_phi8_family_spans_four_dimensions():
    h2 = heisenberg(2)
    cocycles = [phi("phi8", p) for p in ((1, 0, 0), (0, 1, 1), (0, 1, 0), (0, 0, 1))]
    assert span_in_cohomology(h2, 2, cocycles) == 4


@pytest.mark.parametrize(
    "params, top", [((0, 1, 0), 2), ((0, 0, 1), 4)], ids=["d8(0:1:0)", "d8(0:0:1)"]
)
def test_the_rows_counted_infinitesimal_only_extend_to_polynomial_deformations(
    reproduced, params, top
):
    # reproduce reports d8(0:1:0) and d8(0:0:1) as not extendable at order 2:
    # mu_0 + t mu_1 is not a Lie bracket.  Yet repeated extend_step closes
    # both, so "2 infinitesimal-only" counts non-linear rows, not rows with a
    # proved obstruction.
    rows, summary = reproduced
    label = f"d8({':'.join(map(str, params))})"
    row = next(r for r in rows if r.label == label)
    assert (row.strict_extendable, row.obstructed_at) == (False, 2)
    assert summary.obstructed == 2
    D = Deformation(heisenberg(2), {1: phi("phi8", params)})
    while deform.defect_report(D).first_nonzero is not None:
        D = deform.extend_step(D).extended
    assert D.top_order == top
    assert all(D.defect(n).is_zero for n in D.defect_orders())
    assert D.defect_orders() == range(1, 2 * top + 1)
    for t in (1, 2, Fraction(-1, 3)):
        member = specialize(D, t)
        assert member.dim == 5
        assert member.jacobi_violations() == []
