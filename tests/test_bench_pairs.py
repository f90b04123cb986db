"""Tests of the paired-benchmark summary in tools/bench_pairs.py."""

import importlib.util
from pathlib import Path

PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def pair(seed, parent, change):
    side = lambda x: dict.fromkeys(bench_pairs.END_TO_END, x) | {"failed": 0}  # noqa: E731
    return {"seed": seed, "parent": side(parent), "change": side(change)}


def test_summary_gives_medians_inclusive_quartiles_and_lower_pairs():
    pairs = [pair(k, 1.0 + k, 0.5 + k) for k in range(1, 10)] + [pair(10, 2.0, 2.0)]
    summary = bench_pairs.summarize(pairs)
    assert set(summary) == set(bench_pairs.END_TO_END)
    s = summary["pass_s"]
    # parent 2, 3, ..., 10, 2: a tie reads lower for neither side.
    assert s["parent_median"] == 5.5 and s["parent_quartiles"] == [3.25, 7.75]
    assert s["change_median"] == 5.0 and s["change_quartiles"] == [2.75, 7.25]
    assert (s["change_lower_pairs"], s["pairs"]) == (9, 10)
    note = bench_pairs.note({"sweep_dense": {"pairs": pairs, "summary": summary}})
    assert note == (
        "Median pass_s parent -> change (change lower in): "
        "sweep_dense 5.50000 -> 5.00000 (-9.1%, 9/10). Failed jobs: 0."
    )
