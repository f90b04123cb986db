"""Tests for formal deformations, defects, extension and isomorphism search."""

import random
import time
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liedeform import cli, deform
from liedeform.catalog import (
    d5_d6_basis_change,
    h1_cocycles,
    heisenberg,
    member_isomorphism_witnesses,
    named_algebra,
    paper_representatives,
    phi,
)
from liedeform.cohomology import (
    Cochain,
    NotACocycleError,
    apply_differential,
    class_eq,
    cohomology_dim,
    is_coboundary,
    is_cocycle,
)
from liedeform.deform import (
    Deformation,
    bound_scales,
    defect,
    defect_report,
    extend_step,
    search_isomorphism,
    specialize,
    strict_extendability,
    verify_isomorphism,
)
from liedeform.exact import ExactMatrix, PolyScalar, SingularMatrixError
from liedeform.liealg import LieAlgebra

from test_cohomology import SL2, random_cochain
from test_exact import dense
from test_liealg import lie


def single(c, base=None):
    return Deformation(base or heisenberg(2), {1: c})


# -- defects ---------------------------------------------------------------------


def test_defect_of_phi3_vanishes_at_all_orders():
    D = single(phi("phi3"))
    for n in (1, 2, 3, 4):
        assert defect(D, n).is_zero


def test_defect_of_obstructed_phi8_point():
    D = single(phi("phi8", (0, 1, 0)))
    assert defect(D, 1).is_zero
    assert not defect(D, 2).is_zero


def test_defect_order1_iff_cocycle_randomized():
    # The order-1 defect is -d(mu_1), which strict_extendability relies on.
    rng = random.Random(41)
    for A in (heisenberg(2), SL2):
        seen_noncocycle = False
        for _ in range(20):
            c = random_cochain(rng, 2, A.dim)
            D = single(c, base=A)
            assert defect(D, 1) == -apply_differential(A, c)
            assert defect(D, 1).is_zero == is_cocycle(A, c)
            seen_noncocycle = seen_noncocycle or not is_cocycle(A, c)
        assert seen_noncocycle  # the sample actually exercised both branches
        # coboundaries are cocycles, so their order-1 defect vanishes
        lam = random_cochain(rng, 1, A.dim)
        assert defect(single(apply_differential(A, lam), base=A), 1).is_zero


def test_single_term_defect_vanishes_for_orders_three_and_four():
    rng = random.Random(43)
    for _ in range(10):
        c = random_cochain(rng, 2, 5)
        D = single(c)
        assert defect(D, 3).is_zero
        assert defect(D, 4).is_zero


def test_defect_range_is_derived_from_the_top_order():
    # A lone order-3 cocycle term: its only self-pairing lands at order 6.
    D = Deformation(heisenberg(2), {3: phi("phi8", (0, 1, 0))})
    assert D.defect_orders() == range(1, 7)
    for n in range(1, 6):
        assert defect(D, n).is_zero
    assert not defect(D, 6).is_zero
    assert [s.order for s in defect_report(D).orders] == [1, 2, 3, 4, 5, 6]
    assert defect_report(D).first_nonzero == 6
    with pytest.raises(ValueError, match="defect is nonzero at order 6"):
        specialize(D, 1)


# Entries with mixed denominators; kernels that scale to integers over a
# common denominator D must read their sums back over the right power of D.
MIXED = (0, 0, 1, -2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6))


def _cochains(dim, entries):
    keys = list(combinations(range(dim), 2))
    vector = st.lists(entries, min_size=dim, max_size=dim)
    return st.lists(vector, min_size=len(keys), max_size=len(keys)).map(
        lambda vecs: Cochain(2, dim, {key: dict(enumerate(v)) for key, v in zip(keys, vecs)})
    )


def _random_deformation(top, data):
    """Random terms at order top and at a random set of lower orders.

    The entries of order k are drawn from MIXED divided by k, so different
    orders have different denominators.
    """
    lower = data.draw(st.sets(st.integers(1, top - 1))) if top > 1 else set()
    terms = {}
    for order in sorted(lower | {top}):
        entries = st.sampled_from(MIXED).map(lambda x, k=order: Fraction(x, k))
        terms[order] = data.draw(_cochains(5, entries))
    return Deformation(heisenberg(2), terms)


@settings(max_examples=40, deadline=None)
@given(top=st.integers(1, 2), data=st.data())
def test_defects_vanish_above_twice_the_top_order(top, data):
    D = _random_deformation(top, data)
    assert defect(D, 2 * top + 1).is_zero
    assert defect(D, 2 * top + 2).is_zero


# -- the reference Jacobiator: the defining sum, one triple at a time ---------------


def _pair_value(D, i, a, b):
    """mu_i(e_a, e_b) as a dense vector; order 0 is the base bracket, read as a 2-cochain."""
    c = Cochain(2, D.base.dim, D.base.brackets) if i == 0 else D.term(i)
    return dense(c.value((a, b)), D.base.dim)


def _pair_on_vector(D, i, a, w):
    """mu_i(e_a, w) for a coefficient vector w."""
    acc = [Fraction(0)] * D.base.dim
    for k, wk in enumerate(w):
        for m, vm in enumerate(_pair_value(D, i, a, k)):
            acc[m] += wk * vm
    return acc


def reference_defect(D, n):
    """Sum over i + j = n of mu_i(x, mu_j(y, z)) + cyclic on every a < b < c.

    Order 0 pairs the base bracket with itself: the Jacobi sum of the base.
    """
    present = {0, *D.terms}
    pairs = [(i, n - i) for i in sorted(present) if n - i in present]
    entries = {}
    for tau in combinations(range(D.base.dim), 3):
        a, b, c = tau
        acc = [Fraction(0)] * D.base.dim
        for i, j in pairs:
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                for m, vm in enumerate(_pair_on_vector(D, i, x, _pair_value(D, j, y, z))):
                    acc[m] += vm
        entries[tau] = dict(enumerate(acc))
    return Cochain(3, D.base.dim, entries)


def test_a_deformation_computes_each_defect_once(monkeypatch):
    D = single(phi("phi8", (0, 1, 0)))
    first = [D.defect(n) for n in D.defect_orders()]
    monkeypatch.setattr(deform, "defect", None)  # a second computation would fail
    assert [D.defect(n) for n in D.defect_orders()] == first
    assert strict_extendability(D).first_nonzero == 2
    with pytest.raises(deform.NonzeroDefectError):
        specialize(D, 1)
    monkeypatch.undo()
    assert first == [defect(D, n) for n in D.defect_orders()]
    assert not first[1].is_zero


@settings(max_examples=40, deadline=None)
@given(top=st.integers(1, 2), data=st.data())
def test_defects_match_the_reference_jacobiator(top, data):
    D = _random_deformation(top, data)
    for n in D.defect_orders():
        assert defect(D, n) == reference_defect(D, n)


def test_defects_of_extended_d8_match_the_reference_jacobiator():
    # d8(0:0:1) extends through mu_4; every step's partial defect is checked too.
    D = single(phi("phi8", (0, 0, 1)))
    nonzero = 0
    while True:
        for n in D.defect_orders():
            d = defect(D, n)
            assert d == reference_defect(D, n)
            nonzero += not d.is_zero
        if D.top_order == 4:
            break
        D = extend_step(D).extended
    assert D.defect_orders() == range(1, 9)
    assert nonzero  # the kernel met nonzero defects, not only zeros


# Every bracket of h_n lands in the center; the phi2 member at t = 1 is
# solvable but not nilpotent, so d_mu meets non-central outputs too.
KERNEL_BASES = {
    "h1": heisenberg(1),
    "h2": heisenberg(2),
    "h3": heisenberg(3),
    "phi2 member": lie(specialize(single(phi("phi2")), 1)),
}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(KERNEL_BASES)), data=st.data())
def test_the_order_one_defect_is_minus_the_differential(name, data):
    # One kernel: the order-1 defect is -d_mu0(c), and d_mu0 is the algebra's d.
    A = KERNEL_BASES[name]
    c = data.draw(_cochains(A.dim, st.sampled_from(MIXED)))
    assert defect(Deformation(A, {1: c}), 1) == -apply_differential(A, c)


@pytest.mark.parametrize("dim", [4, 5])
def test_jacobi_violations_match_the_reference_jacobiator(dim):
    rng = random.Random(dim)
    keys = list(combinations(range(dim), 2))
    violations = fractional = 0
    for _ in range(20):
        table = {
            k: dict(enumerate(rng.choice(MIXED) for _ in range(dim)))
            for k in keys
            if rng.random() < 0.4
        }
        A = LieAlgebra(dim, table, check=False)
        found = A.jacobi_violations()
        expected = reference_defect(Deformation(A), 0)
        assert [((i, j, k), d) for i, j, k, d in found] == list(expected.entries.items())
        violations += len(found)
        fractional += any(x.denominator > 1 for *_, d in found for x in d.values())
    assert violations  # the sample holds broken tables
    assert fractional  # and non-integer Jacobi sums


def test_defect_report_statuses():
    report = defect_report(single(phi("phi8", (0, 0, 1))))
    assert [s.order for s in report.orders] == [1, 2]
    assert report.first_nonzero == 2
    st = report.status(2)
    assert not st.is_zero
    assert st.is_coboundary  # exact-defect family; class in H^3 is zero
    assert st.obstruction is None
    assert report.status(1).is_zero


def test_defect_report_record():
    zero, nonzero = Cochain.zero(3, 5), Cochain(3, 5, {(1, 2, 3): {4: 1}})
    report = deform.DefectReport((
        deform.OrderStatus(1, zero, True),
        deform.OrderStatus(2, zero, True),
        deform.OrderStatus(3, nonzero, False),
    ))
    assert [st.is_zero for st in report.orders] == [True, True, False]
    assert report.status(2).obstruction is None
    assert report.status(3).obstruction == nonzero
    assert deform.OrderStatus(3, nonzero, True).obstruction is None
    assert report.first_nonzero == 3
    assert deform.DefectReport(report.orders[:2]).first_nonzero is None
    with pytest.raises(AttributeError):
        report.orders = ()
    with pytest.raises(AttributeError):
        report.status(1).is_zero = False


def test_extend_outcome_and_verdict_records():
    c = phi("phi3")
    assert deform.ExtendOutcome(single(c), None).ok
    assert not deform.ExtendOutcome(None, c).ok
    # The strict verdict is the defect report itself; there is no second record.
    assert not hasattr(deform, "ExtendabilityVerdict")
    verdict = strict_extendability(single(phi("phi8", (0, 1, 0))))
    assert isinstance(verdict, deform.DefectReport)
    assert verdict == defect_report(single(phi("phi8", (0, 1, 0))))
    with pytest.raises(AttributeError):
        verdict.orders = ()


# -- strict extendability -----------------------------------------------------------


def test_strict_extendability_of_singles():
    for name in ("phi1", "phi2", "phi3"):
        verdict = strict_extendability(single(phi(name)))
        assert verdict.first_nonzero is None
        assert [st.order for st in verdict.orders] == [1, 2]


def test_strict_extendability_of_obstructed_points():
    for params in ((0, 1, 0), (0, 0, 1)):
        verdict = strict_extendability(single(phi("phi8", params)))
        assert verdict.first_nonzero == 2


def test_h1_deformations_are_real():
    h1 = heisenberg(1)
    for c in h1_cocycles():
        verdict = strict_extendability(single(c, base=h1))
        assert verdict.first_nonzero is None


def test_strict_extendability_rejects_non_cocycle():
    bad = Cochain(2, 5, {(3, 4): {4: 1}})
    with pytest.raises(NotACocycleError):
        strict_extendability(single(bad))


def test_strict_extendability_rejects_multi_term():
    c = phi("phi3")
    D = Deformation(heisenberg(2), {1: c, 2: c})
    with pytest.raises(ValueError):
        strict_extendability(D)


def test_strict_extendability_tests_no_class_of_a_non_cocycle(monkeypatch):
    monkeypatch.setattr(deform, "is_coboundary", None)  # a class test would fail
    with pytest.raises(NotACocycleError):
        strict_extendability(single(Cochain(2, 5, {(3, 4): {4: 1}})))


H2 = heisenberg(2)
H2_CLASSES = cohomology_dim(H2, 2, representatives=True).representatives


def _bracket_at(mu1, t):
    """The table of mu_0 + t mu_1 on h_2, summed here and left unchecked."""
    table = {key: dict(vec) for key, vec in H2.brackets.items()}
    for key, vec in mu1.entries.items():
        row = table.setdefault(key, {})
        for k, x in vec.items():
            row[k] = row.get(k, 0) + t * x
    return LieAlgebra(H2.dim, table, check=False)


@settings(max_examples=60, deadline=None)
@given(
    combination=st.lists(
        st.tuples(st.integers(0, len(H2_CLASSES) - 1), st.integers(-2, 2)), max_size=3
    ),
    boundary=st.dictionaries(st.integers(0, H2.dim**2 - 1), st.integers(-1, 1), max_size=3),
)
def test_verdict_matches_the_jacobi_identity_of_the_deformed_bracket(combination, boundary):
    """mu_1 is a combination of H^2 representatives plus the coboundary of a
    sparse 1-cochain: sparse draws give both Lie and obstructed brackets."""
    mu1 = apply_differential(H2, Cochain.from_coords(1, H2.dim, boundary))
    for k, a in combination:
        mu1 = mu1 + H2_CLASSES[k].scale(a)
    D = single(mu1)
    report = strict_extendability(D)
    # The Jacobi expression of mu_0 + t mu_1 is t defect_1 + t^2 defect_2 (the base
    # is Lie): no constant term and degree 2, so two nonzero values of t decide it.
    lie = all(not _bracket_at(mu1, t).jacobi_violations() for t in (1, 2))
    assert (report.first_nonzero is None) == lie
    if not lie:
        assert report.first_nonzero == 2
        assert report.status(2).is_coboundary == (is_coboundary(H2, D.defect(2)) is not None)


# -- extension steps -----------------------------------------------------------------


def test_extend_step_trivial_deformation():
    D = Deformation(heisenberg(2), {})
    out = extend_step(D)
    assert out.ok
    assert out.extended.term(1).is_zero
    out2 = extend_step(out.extended)
    assert out2.ok and out2.extended.term(2).is_zero


def test_extend_step_extendable_family_adds_zero():
    out = extend_step(single(phi("phi4", (1, 0))))
    assert out.ok
    assert out.extended.term(2).is_zero


def test_extend_step_on_exact_defect_finds_correction():
    # The order-2 defect of this cocycle is a coboundary, so a second-order
    # correction exists even though the strict (mu_2 = 0) check fails.
    D = single(phi("phi8", (0, 1, 0)))
    out = extend_step(D)
    assert out.ok
    mu2 = out.extended.term(2)
    assert not mu2.is_zero
    assert defect(out.extended, 2).is_zero


def test_extend_step_reports_an_obstruction_class():
    # phi5(0:0) + phi8(0:1:1) is a cocycle whose order-2 defect has a nonzero class.
    mu1 = phi("phi5", (0, 0)) + phi("phi8", (0, 1, 1))
    assert is_cocycle(heisenberg(2), mu1)
    D = single(mu1)
    out = extend_step(D)
    assert not out.ok and out.extended is None
    assert out.obstruction == D.defect(2) == Cochain(3, 5, {(1, 2, 3): {0: 1, 3: 1}})
    assert is_coboundary(heisenberg(2), out.obstruction) is None


def test_extend_step_requires_clean_lower_orders():
    h2 = heisenberg(2)
    D = Deformation(h2, {1: phi("phi8", (0, 1, 0)), 2: Cochain.zero(2, 5)})
    with pytest.raises(ValueError):
        extend_step(D)  # order-2 defect is nonzero with mu_2 = 0 pinned


def test_infinitesimal_class_combination_identities():
    # phi4(p:q) ~ phi4(p:0) + phi4(0:q) - phi4(0:0), and the phi7 analogue
    # with coefficient -2, hold entry-wise, hence also as classes.
    h2 = heisenberg(2)
    rng = random.Random(47)
    for _ in range(5):
        p = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        q = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        combo4 = phi("phi4", (p, 0)) + phi("phi4", (0, q)) - phi("phi4", (0, 0))
        assert phi("phi4", (p, q)) == combo4
        assert class_eq(h2, phi("phi4", (p, q)), combo4)
        r = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        combo7 = (
            phi("phi7", (p, 0, 0))
            + phi("phi7", (0, q, 0))
            + phi("phi7", (0, 0, r))
            - phi("phi7", (0, 0, 0)).scale(Fraction(2))
        )
        assert phi("phi7", (p, q, r)) == combo7


def test_class_unchanged_by_coboundary_perturbation_of_mu1():
    rng = random.Random(53)
    h2 = heisenberg(2)
    c = phi("phi6", (1, 0))
    for _ in range(5):
        lam = random_cochain(rng, 1, 5)
        shifted = c + apply_differential(h2, lam)
        assert class_eq(h2, c, shifted)


# -- specialization -------------------------------------------------------------------


def test_specialize_at_zero_gives_base():
    h2 = heisenberg(2)
    member = lie(specialize(single(phi("phi1")), 0))
    assert member.brackets == h2.brackets


def test_specialize_structure_flags():
    d3 = lie(specialize(single(phi("phi3")), 1))
    assert d3.is_solvable() and not d3.is_nilpotent()
    d4_00 = lie(specialize(single(phi("phi4", (0, 0))), 1))
    assert d4_00.is_nilpotent()
    d4_10 = lie(specialize(single(phi("phi4", (1, 0))), 1))
    assert d4_10.is_solvable() and not d4_10.is_nilpotent()


def test_specialize_validates_the_member_table_once(monkeypatch):
    # The defects and the sum mu_0 + t mu_1 are arithmetic of valid cochains,
    # built unchecked; only LieAlgebra checks the member's table.
    D, init, built = single(phi("phi3")), Cochain.__init__, []

    def counting(self, degree, dim, entries=()):
        built.append(degree)
        init(self, degree, dim, entries)

    monkeypatch.setattr(Cochain, "__init__", counting)
    member = specialize(D, Fraction(1, 2))
    assert built == [2]
    monkeypatch.undo()
    expected = Cochain(2, 5, D.base.brackets) + phi("phi3").scale(Fraction(1, 2))
    assert member.mu == expected


EXACT_SCALAR_INPUTS = {
    "ExactMatrix": lambda x: ExactMatrix([[x]]),
    "Cochain": lambda x: Cochain(2, 3, {(0, 1): {2: x}}),
    "LieAlgebra": lambda x: LieAlgebra(3, {(0, 1): {2: x}}),
    "specialize": lambda x: specialize(single(phi("phi1")), x),
    "PolyScalar.const": lambda x: PolyScalar.const(x),
    "PolyScalar": lambda x: PolyScalar({(1, 0, 0): x}),
    "PolyScalar.evaluate": lambda x: PolyScalar.variable("p").evaluate({"p": x}),
    "phi": lambda x: phi("phi4", (x, 0)),
    "bound_scales": lambda x: bound_scales([x]),
}


@pytest.mark.parametrize("build", EXACT_SCALAR_INPUTS.values(), ids=EXACT_SCALAR_INPUTS.keys())
def test_a_float_is_refused_not_read_as_a_binary_fraction(build):
    with pytest.raises(TypeError, match="got float$"):
        build(0.1)


@pytest.mark.parametrize("build", EXACT_SCALAR_INPUTS.values(), ids=EXACT_SCALAR_INPUTS.keys())
def test_a_string_is_refused_not_parsed(build):
    with pytest.raises(TypeError, match="got str$"):
        build("1/10")


def test_specialize_refuses_nonzero_defect():
    with pytest.raises(ValueError):
        specialize(single(phi("phi8", (0, 1, 0))), 1)


def test_specialize_many_t_values():
    D = single(phi("phi2"))
    for t in (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(3), Fraction(-2, 7)):
        member = specialize(D, t)
        assert member.dim == 5
        assert member.jacobi_violations() == []


def test_extending_an_empty_deformation_of_a_large_base_assembles_no_differential(
    tmp_path, capsys, monkeypatch
):
    # The order-1 defect of {"base": "h30", "terms": []} is zero, so the step
    # adds the zero term without assembling d_2 (61 * 1830 columns).
    monkeypatch.setattr(deform, "differential", None)
    path = tmp_path / "h30.json"
    path.write_text('{"base": "h30", "terms": []}')
    start = time.perf_counter()
    assert cli.main(["extend", str(path)]) == 0
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out == (
        "extended with a term at order 1\nmu1: degree 2 cochain on dim 61\n  (zero)\n"
    )
    outcome = extend_step(Deformation(named_algebra("h30")))
    assert outcome.extended.terms == {1: Cochain.zero(2, 61)}


def test_a_large_named_base_specializes_within_seconds():
    # A deformation file may name its base "h2000" in 28 bytes.  h_n and a
    # member whose defects vanish are built without a Jacobi check, and the
    # explicit check here is linear for h_n, whose brackets are all central,
    # so no step may grow with the square of the dimension.
    start = time.perf_counter()
    assert lie(specialize(Deformation(named_algebra("h2000"), {}), 1)) == named_algebra("h2000")
    assert time.perf_counter() - start < 2


# -- isomorphism verification and search ----------------------------------------------


def transvection(n, i, j, c):
    """e_i -> e_i + c e_j, all other basis vectors fixed (0-based)."""
    return ExactMatrix.from_sparse_rows([{a: 1, i: c} if a == j else {a: 1} for a in range(n)], n)


def test_verify_isomorphism_identity():
    h2 = heisenberg(2)
    assert verify_isomorphism(h2, h2, ExactMatrix.identity(5))


def test_verify_isomorphism_d4_d7_sign_diagonal():
    A = lie(specialize(single(phi("phi4", (0, 0))), 1))
    B = lie(specialize(single(phi("phi7", (0, 0, 0))), 1))
    signs = [-1, 1, 1, -1, -1]
    T = ExactMatrix([[s if i == j else 0 for j in range(5)] for i, s in enumerate(signs)])
    assert verify_isomorphism(A, B, T)


def test_verify_isomorphism_false_for_distinct_tables():
    A = lie(specialize(single(phi("phi4", (0, 0))), 1))
    B = lie(specialize(single(phi("phi7", (0, 0, 0))), 1))
    assert not verify_isomorphism(A, B, ExactMatrix.identity(5))


def test_verify_isomorphism_singular_map_rejected():
    h2 = heisenberg(2)
    with pytest.raises(SingularMatrixError):
        verify_isomorphism(h2, h2, ExactMatrix.from_sparse_rows([{}] * 5, 5))


def test_single_transvection_does_not_carry_d5_to_d6():
    # The bare column change e1 -> e1 + e4 maps [e1+e4, e2] to -e5 inside
    # mu_t(d5)(0:0), while the target table needs zero there; the compensating
    # column e2 -> e2 + e3 is required.
    A = lie(specialize(single(phi("phi5", (0, 0))), 1))
    B = lie(specialize(single(phi("phi6", (0, 0))), 1))
    for c in (1, -1):
        T = transvection(5, 0, 3, c)
        assert not verify_isomorphism(A, B, T)
        assert not verify_isomorphism(B, A, T)
    assert verify_isomorphism(A, B, d5_d6_basis_change())


def test_search_identity_found_first():
    h2 = heisenberg(2)
    for klass in ("diagonal_signs", "monomial", "monomial_plus_one_transvection"):
        T = search_isomorphism(h2, h2, klass)
        assert T is not None
        assert T == ExactMatrix.identity(5)


def test_search_d4_d7_diagonal_signs():
    A = lie(specialize(single(phi("phi4", (0, 0))), 1))
    B = lie(specialize(single(phi("phi7", (0, 0, 0))), 1))
    T = search_isomorphism(A, B, "diagonal_signs")
    assert T is not None
    diag = [T.entry(i, i) for i in range(5)]
    assert diag == [Fraction(-1), Fraction(1), Fraction(1), Fraction(-1), Fraction(-1)]
    # The search finds again the map that reproduce verifies as recorded.
    recorded = {(a, b): (method, W) for a, b, method, W in member_isomorphism_witnesses()}
    method, W = recorded[("d4(0:0)", "d7(0:0:0)")]
    assert method == "diagonal_signs"
    assert T == W


def test_search_d5_d6_finds_nothing_in_declared_classes():
    # Exhausted over coefficients +-1: the true isomorphism needs two
    # transvections, which no monomial-plus-one-transvection map provides.
    A = lie(specialize(single(phi("phi5", (0, 0))), 1))
    B = lie(specialize(single(phi("phi6", (0, 0))), 1))
    assert search_isomorphism(A, B, "monomial_plus_one_transvection") is None


def test_search_raises_when_a_built_map_fails_verification(monkeypatch):
    # A map that passes the bracket checks but not the confirmation is a
    # program fault, not a miss.
    monkeypatch.setattr(deform, "verify_isomorphism", lambda A, B, T: False)
    h2 = heisenberg(2)
    with pytest.raises(RuntimeError, match="fails verification"):
        search_isomorphism(h2, h2, "monomial")


# -- brute-force oracle over each search class ---------------------------------------


def brute_force_class(n, search_class, bound):
    """Every map of the class as sparse columns ((row, value), ...), one by one."""
    if search_class == "diagonal_signs":
        for signs in product((Fraction(1), Fraction(-1)), repeat=n):
            yield tuple(((i, s),) for i, s in enumerate(signs))
        return
    scales = [Fraction(c) for c in bound]
    for perm in permutations(range(n)):
        for scale in product(scales, repeat=n):
            mono = tuple(((perm[i], scale[i]),) for i in range(n))
            yield mono
            if search_class == "monomial":
                continue
            for i0, j0 in permutations(range(n), 2):
                for c in scales:
                    cols = list(mono)
                    cols[i0] = mono[i0] + ((perm[j0], c * scale[j0]),)
                    yield tuple(cols)


def carries(A, B, cols):
    """[T e_i, T e_j]_A = T [e_i, e_j]_B for all i < j, T given by sparse columns."""
    n = A.dim
    for i, j in combinations(range(n), 2):
        lhs = [Fraction(0)] * n
        for a, va in cols[i]:
            for b, vb in cols[j]:
                for m, w in enumerate(dense(A.bracket_basis(a, b), n)):
                    if w:
                        lhs[m] += va * vb * w
        rhs = [Fraction(0)] * n
        for k, ck in enumerate(dense(B.bracket_basis(i, j), n)):
            for m, vm in cols[k] if ck else ():
                rhs[m] += ck * vm
        if lhs != rhs:
            return False
    return True


def oracle_finds(A, B, search_class, bound):
    return any(carries(A, B, cols) for cols in brute_force_class(A.dim, search_class, bound))


def placements(n, scales, placed):
    """(perm, scale) completing placed = ((perm[0], s_0), ...) column by column,
    rows increasing and scales in order."""
    if len(placed) == n:
        yield tuple(r for r, _ in placed), tuple(s for _, s in placed)
        return
    used = {r for r, _ in placed}
    for r in range(n):
        if r not in used:
            for s in scales:
                yield from placements(n, scales, placed + ((r, s),))


def oracle_first(A, B, search_class, bound):
    """The first map of the class carrying A to B in the documented order, or None.

    U runs outermost (the identity, then (i0, j0, c) with c in bound order),
    and M inside it, lexicographic in (perm[0], s_0, perm[1], s_1, ...) with
    the scales in bound order (diagonal_signs: perm is the identity, s_i in
    (1, -1)).  T = M U has columns s_i e_perm(i), plus c s_j0 e_perm(j0) in
    column i0.
    """
    n = A.dim
    scales = [Fraction(c) for c in bound]
    if search_class == "diagonal_signs":
        signs = (Fraction(1), Fraction(-1))
        monomials = [(tuple(range(n)), s) for s in product(signs, repeat=n)]
    else:
        monomials = list(placements(n, scales, ()))
    shears = [None]
    if search_class == "monomial_plus_one_transvection":
        shears += [(i0, j0, c) for i0, j0 in permutations(range(n), 2) for c in scales]
    for shear in shears:
        for perm, scale in monomials:
            cols = [((perm[i], scale[i]),) for i in range(n)]
            if shear is not None:
                i0, j0, c = shear
                cols[i0] += ((perm[j0], c * scale[j0]),)
            if carries(A, B, cols):
                dense_rows = [[dict(col).get(r, 0) for col in cols] for r in range(n)]
                return ExactMatrix(dense_rows)
    return None


H1_MEMBERS = {
    name: lie(specialize(single(phi(name), base=heisenberg(1)), 1))
    for name in ("h1_phi1", "h1_phi2", "h1_phi3", "h1_phi4", "h1_phi5")
}

# Each h_1 member and its image under one shear e_i0 -> e_i0 + e_j0/2: under
# the bound (1, -1, 1/2) the oracle's first map goes through that shear, c = 1/2.
H1_HALF_SHEARED = [
    (A, lie(A.change_basis(transvection(3, i0, j0, Fraction(1, 2)))))
    for A, (i0, j0) in zip(H1_MEMBERS.values(), ((1, 2), (0, 1), (2, 1), (0, 2), (2, 0)))
]


@pytest.mark.parametrize(
    "klass, bound",
    [
        # Under (1, -1, 1/2) every shear candidate moves B's table to Fractions.
        pytest.param(klass, bound, id=klass + suffix)
        for bound, suffix in (((1, -1, 2), ""), ((1, -1, Fraction(1, 2)), "-half"))
        for klass in ("diagonal_signs", "monomial", "monomial_plus_one_transvection")
    ],
)
def test_search_agrees_with_the_brute_force_oracle_on_h1_members(klass, bound):
    for A, B in [*product(H1_MEMBERS.values(), repeat=2), *H1_HALF_SHEARED]:
        T = search_isomorphism(A, B, klass, bound)
        assert (T is not None) == oracle_finds(A, B, klass, bound)
        assert T is None or verify_isomorphism(A, B, T)
        assert T is None or T == oracle_first(A, B, klass, bound)


def test_search_agrees_with_the_brute_force_oracle_on_nilpotent_h2_members():
    # d4(0:0), d5(0:0), d6(0:0) and d7(0:0:0): 3,840 oracle candidates per pair.
    points = (("phi4", (0, 0)), ("phi5", (0, 0)), ("phi6", (0, 0)), ("phi7", (0, 0, 0)))
    members = [lie(specialize(single(phi(name, params)), 1)) for name, params in points]
    for A, B in product(members, repeat=2):
        T = search_isomorphism(A, B, "monomial")
        assert (T is not None) == oracle_finds(A, B, "monomial", (1, -1))
        assert T is None or T == oracle_first(A, B, "monomial", (1, -1))


@settings(max_examples=25, deadline=None)
@given(
    perm=st.permutations(range(5)),
    signs=st.lists(st.sampled_from((1, -1)), min_size=5, max_size=5),
    shear=st.sampled_from(list(permutations(range(5), 2))),
    c=st.sampled_from((1, -1)),
)
def test_search_finds_a_map_to_a_sheared_signed_permutation_of_d5(perm, signs, shear, c):
    A = lie(specialize(single(phi("phi5", (0, 0))), 1))
    B = lie(A.change_basis(signed_permutation(perm, signs) * transvection(5, *shear, c)))
    T = search_isomorphism(A, B, "monomial_plus_one_transvection")
    assert T is not None and verify_isomorphism(A, B, T)


def signed_permutation(perm, signs):
    """The matrix whose column i is signs[i] e_perm(i)."""
    n = len(perm)
    return ExactMatrix.from_sparse_rows(
        [{i: Fraction(signs[i]) for i in range(n) if perm[i] == r} for r in range(n)], n
    )


# The t = 1 members of the 18 representatives whose deformation is a Lie bracket.
H2_MEMBERS = [
    lie(specialize(D, 1))
    for D in (single(rep.cochain()) for rep in paper_representatives())
    if all(D.defect(n).is_zero for n in D.defect_orders())
]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_shear_moves_the_signed_table_as_its_basis_change_does(data):
    A = data.draw(st.sampled_from(H2_MEMBERS + list(H1_MEMBERS.values())))
    n = A.dim
    perm = data.draw(st.permutations(range(n)))
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    i0, j0 = data.draw(st.sampled_from(list(permutations(range(n), 2))))
    c = data.draw(st.sampled_from(bound_scales((1, -1, 2, Fraction(1, 2), Fraction(-2, 3)))))
    B = lie(A.change_basis(signed_permutation(perm, signs)))
    pairs = deform._sheared(B, i0, j0, c)
    expected = B.change_basis(transvection(n, i0, j0, -c)).brackets
    assert all(a < b for a, b in pairs)
    # An integral scale is an int, so its shear forms no Fraction.
    assert c.denominator > 1 or all(type(x) is int for v in pairs.values() for x in v.values())
    for a, b in combinations(range(n), 2):
        moved = {k: Fraction(x) / B._den for k, x in pairs.get((a, b), {}).items()}
        assert moved == expected.get((a, b), {})


def test_search_changes_basis_only_to_verify_a_hit(monkeypatch):
    # Candidates shear B's signed table in closed form (deform._sheared); only
    # the map found goes through change_basis (and its inverse), in
    # verify_isomorphism.
    calls = {"inverse": 0, "change_basis": 0}

    def counted(cls, name):
        method = getattr(cls, name)

        def wrapper(*args):
            calls[name] += 1
            return method(*args)

        monkeypatch.setattr(cls, name, wrapper)

    A = lie(specialize(single(phi("phi5", (0, 0))), 1))
    half = Fraction(1, 2)
    B = lie(A.change_basis(transvection(5, 0, 3, half)))
    counted(ExactMatrix, "inverse")
    counted(LieAlgebra, "change_basis")
    T = search_isomorphism(A, B, "monomial_plus_one_transvection", (1, -1, half))
    assert T == transvection(5, 0, 3, half)
    assert calls == {"inverse": 1, "change_basis": 1}

    calls.update(inverse=0, change_basis=0)
    D6 = lie(specialize(single(phi("phi6", (0, 0))), 1))
    assert search_isomorphism(A, D6, "monomial_plus_one_transvection") is None
    assert calls == {"inverse": 0, "change_basis": 0}


def test_search_tries_the_same_candidates_however_cheap_they_are(monkeypatch):
    # One _sheared call per shear U tried and one _monomial_map call per U whose
    # signatures pass: the counts pin the order and the pruning, whatever a call costs.
    calls = {"_sheared": 0, "_monomial_map": 0}
    for name in calls:
        method = getattr(deform, name)

        def counted(*args, method=method, name=name):
            calls[name] += 1
            return method(*args)

        monkeypatch.setattr(deform, name, counted)

    A = lie(specialize(single(phi("phi5", (0, 0))), 1))
    D6 = lie(specialize(single(phi("phi6", (0, 0))), 1))
    assert search_isomorphism(A, D6, "monomial_plus_one_transvection") is None
    assert calls == {"_sheared": 40, "_monomial_map": 0}

    calls.update(_sheared=0, _monomial_map=0)
    change = signed_permutation((2, 0, 1, 4, 3), (-1, 1, 1, -1, 1)) * transvection(5, 4, 1, -1)
    B = lie(A.change_basis(change))
    T = search_isomorphism(A, B, "monomial_plus_one_transvection")
    assert T is not None and verify_isomorphism(A, B, T)
    assert calls == {"_sheared": 36, "_monomial_map": 2}


def test_search_validates_inputs():
    h2 = heisenberg(2)
    with pytest.raises(ValueError):
        search_isomorphism(h2, h2, "full_gl")
    with pytest.raises(ValueError):
        search_isomorphism(h2, h2, "monomial", bound=(0, 1))
    with pytest.raises(ValueError):
        search_isomorphism(h2, heisenberg(1), "monomial")


def test_search_rejects_an_empty_bound():
    # With no scales there are no candidates, and "none" would be a false negative.
    A = lie(specialize(single(phi("phi5", (0, 0))), 1))
    with pytest.raises(ValueError, match="bound needs at least one coefficient"):
        search_isomorphism(A, A, "monomial", bound=())


def test_search_rejects_a_repeated_scale():
    # A repeated scale would only try the same candidates twice.
    A = lie(specialize(single(phi("phi5", (0, 0))), 1))
    with pytest.raises(ValueError, match="bound repeats the coefficient 1"):
        search_isomorphism(A, A, "monomial", bound=(1, -1, Fraction(2, 2)))


def test_successful_search_implies_matching_invariants():
    A = lie(specialize(single(phi("phi4", (0, 0))), 1))
    B = lie(specialize(single(phi("phi7", (0, 0, 0))), 1))
    T = search_isomorphism(A, B, "diagonal_signs")
    assert T is not None
    assert len(A.center()) == len(B.center())
    assert A.series("derived") == B.series("derived")
    assert A.series("lower_central") == B.series("lower_central")


def test_deformation_validation():
    h2 = heisenberg(2)
    with pytest.raises(ValueError):
        Deformation(h2, {0: phi("phi3")})
    with pytest.raises(ValueError):
        Deformation(h2, {1: Cochain.zero(3, 5)})
    with pytest.raises(ValueError):
        Deformation(h2, {1: phi("phi8", symbolic=True)})
