"""Tests of the benchmark itself: tracing, output checks and the generator."""

import inspect
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_calls():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        traced_inner()
        traced_inner()
        clock.now += 0.5

    traced_inner = tracer.wrap("inner", inner)
    tracer.wrap("outer", outer)()
    assert tracer.self_times() == {"inner": (2, 4.0), "outer": (1, 1.5)}
    outer_index = next(i for i, s in enumerate(tracer.spans) if s[0] == "outer")
    assert [s[1] for s in tracer.spans if s[0] == "inner"] == [outer_index, outer_index]


def test_counter_time_is_not_charged_to_the_caller():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def slow_counter(*_):
        clock.now += 3.0

    leaf = tracer.wrap("leaf", lambda: None, slow_counter)
    tracer.wrap("root", leaf)()
    times = tracer.self_times()
    assert times["root"] == (1, 0.0)
    assert times[spans.COUNTER_SPAN] == (1, 3.0)


def test_install_rebinds_imported_names_and_reports_missing_ones(monkeypatch):
    import liedeform.cli
    from liedeform.exact import ExactMatrix
    from liedeform.liealg import LieAlgebra

    # monkeypatch restores every binding that install() replaces.
    for modname, module in list(sys.modules.items()):
        if modname == "liedeform" or modname.startswith("liedeform."):
            for name, value in list(vars(module).items()):
                monkeypatch.setattr(module, name, value)
    for cls in (ExactMatrix, LieAlgebra):
        for name, value in list(vars(cls).items()):
            if inspect.isfunction(value):
                monkeypatch.setattr(cls, name, value)
    monkeypatch.setitem(spans.FUNCTIONS, "cohomology", spans.FUNCTIONS["cohomology"] + ("gone",))

    tracer = spans.Tracer()
    absent = spans.install(tracer)
    assert absent == ["cohomology.gone"]
    assert liedeform.deform.differential is liedeform.cohomology.differential
    assert liedeform.deform.differential.__wrapped__ is not None

    h2 = liedeform.catalog.heisenberg(2)
    liedeform.cohomology.cohomology_dim(h2, 1)
    calls = {name: n for name, (n, _) in tracer.self_times().items()}
    assert calls["cohomology.cohomology_dim"] == 1
    assert calls["cohomology.differential"] == 2
    assert calls["exact.rank"] == 2
    assert tracer.counts["exact.elim.cells"] > 0


def test_generator_is_deterministic(tmp_path):
    for workload in workloads.WORKLOADS:
        a, b = tmp_path / f"{workload}-a", tmp_path / f"{workload}-b"
        assert workloads.generate(workload, 11, a) == workloads.generate(workload, 11, b)
        for name in workloads.generate(workload, 11, a):
            assert (a / name).read_bytes() == (b / name).read_bytes()
    c = tmp_path / "dense-c"
    workloads.generate("sweep_dense", 12, c)
    other = tmp_path / "sweep_dense-a" / "h3_dense.json"
    assert (c / "h3_dense.json").read_bytes() != other.read_bytes()


def test_generated_algebras_match_the_catalog(tmp_path):
    from liedeform import catalog
    from liedeform.deform import Deformation, specialize
    from liedeform.jsonio import algebra_from_dict

    def member(family):
        return specialize(Deformation(catalog.heisenberg(2), {1: catalog.phi(family, (0, 0))}), 1)

    workloads.generate("iso", 3, tmp_path)
    load = lambda name: algebra_from_dict(json.loads((tmp_path / name).read_text()))  # noqa: E731
    assert load("d5.json") == member("phi5")
    assert load("d6.json") == member("phi6")
    workloads.generate("sweep_dense", 3, tmp_path)
    for n in (2, 3):
        dense = load(f"h{n}_dense.json")  # loading checks the Jacobi identity
        assert len(dense.brackets) == dense.dim * (dense.dim - 1) // 2


def test_closed_form_matches_the_program():
    from liedeform.cohomology import heisenberg_hp_formula

    for n in range(1, 5):
        for p in range(2 * n + 2):
            assert workloads.hp_formula(n, p) == heisenberg_hp_formula(n, p)


def test_a_corrupted_expectation_is_a_failure(tmp_path):
    workloads.generate("sweep_sparse", 0, tmp_path)
    argv = ("cohomology", "h1.json", "1", "--json")
    good = workloads.Job(argv, workloads.check_cohomology(1, 1))
    bad = workloads.Job(argv, lambda rc, out: workloads.mismatch({"dim_H": 5}, json.loads(out)))
    result = run.run_pass([good, good], tmp_path, False, deadline=float("inf"))
    assert result["failures"] == []
    result = run.run_pass([good, bad], tmp_path, False, deadline=float("inf"))
    assert len(result["failures"]) / result["attempted"] == 0.5
    assert result["failures"][0][1] == "$.dim_H: expected 5, got 4"


def test_reproduce_check_allows_extra_keys_but_not_changed_values():
    expected = workloads.load_expected()["reproduce"]
    check = workloads.check_reproduce(expected)
    doc = json.loads(json.dumps(expected))
    doc["rows"][0]["witness"] = {"kind": "extra"}
    assert check(0, json.dumps(doc)) is None
    doc["summary"]["distinct_classes"] += 1
    assert "distinct_classes" in check(0, json.dumps(doc))
    assert check(2, json.dumps(expected)) == "ValueError: exit code 2, expected 0"


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
