"""Tests of the paired-benchmark summary in tools/bench_pairs.py."""

import importlib.util
from pathlib import Path

import pytest

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


def test_summary_reads_gain_and_bound_and_the_note_names_what_is_outside_it():
    # pass_s: parent 10.0..10.9, change 1.0 lower in every pair, against a
    # parent interquartile range of 0.45: a gain.  setup_s: the change reads
    # 30% higher, outside BENCHMARK.json's bound of 25%.  The rest: equal, no
    # gain, in bound.
    pairs = []
    for k in range(10):
        base = 10.0 + k / 10
        change = {"pass_s": base - 1, "setup_s": base * 1.3}
        pairs.append({
            "seed": k + 1,
            "parent": dict.fromkeys(bench_pairs.END_TO_END, base) | {"failed": 0},
            "change": dict.fromkeys(bench_pairs.END_TO_END, base) | change | {"failed": 0},
        })
    assert bench_pairs.end_to_end_bounds() == {
        "pass_s": 0.25, "cpu_s": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.1
    }
    summary = bench_pairs.summarize(pairs)
    assert (summary["pass_s"]["gain"], summary["pass_s"]["within_bound"]) == (True, True)
    assert (summary["setup_s"]["gain"], summary["setup_s"]["within_bound"]) == (False, False)
    assert (summary["cpu_s"]["gain"], summary["cpu_s"]["within_bound"]) == (False, True)
    # Nine lower pairs of ten still count, eight do not.
    for k, expected in ((9, True), (8, False)):
        for pair in pairs[k:]:
            pair["change"]["pass_s"] = pair["parent"]["pass_s"]
        assert bench_pairs.summarize(pairs)["pass_s"]["gain"] is expected
    note = bench_pairs.note({"iso": {"pairs": pairs, "summary": summary}})
    assert note.endswith(" Failed jobs: 0. Outside its bound: iso setup_s +30.0%.")


def test_a_failed_run_reports_the_tail_of_its_stderr(tmp_path):
    (tmp_path / "bench").mkdir()
    lines = [f"line {k}" for k in range(40)]
    script = f"import sys\nsys.stderr.write({chr(10).join(lines)!r} + '\\n')\nsys.exit(3)\n"
    (tmp_path / "bench" / "run.py").write_text(script)
    with pytest.raises(RuntimeError) as exc:
        bench_pairs.run(tmp_path, "reproduce", 1, 1, 0)
    message = str(exc.value)
    assert "exited 3:" in message
    tail = lines[-bench_pairs.STDERR_LINES:]
    assert message.endswith("\n" + "\n".join(tail))
    assert "line 0\n" not in message
