"""Paired benchmark of a parent revision against the working tree.

Usage, from anywhere inside the repository:

    python3 tools/bench_pairs.py PARENT OUTPUT

PARENT is a git revision and OUTPUT the JSON file to write, such as
BENCH_<n>.json.  The parent is unpacked with ``git archive``; the change is
a copy of the working tree's tracked and untracked, not ignored, files.
Both go to a fresh temporary directory (TMPDIR chooses where).

For each workload of ``bench/workloads.py``, in order, pair K (seeds 1-10)
runs ``bench/run.py --seed K --seconds 25`` on the parent and on the
change, one after the other: odd pairs run the parent first, even pairs
the change first.  Then one traced run per side (``--trace 1 --seed 1
--seconds 10``).  Every run has PYTHONDONTWRITEBYTECODE=1 in its
environment, so neither copy gains a ``__pycache__``.  The file is
rewritten after each workload, so an interrupted session keeps the
workloads that finished.

OUTPUT has the layout of the earlier BENCH_<n>.json files: the pairs, and
per workload and end-to-end metric the median and quartiles of each side
and in how many pairs the change read lower; the traced per-layer metrics;
a note with the pass_s medians.  "what" and "claim" are prose and are
kept from an existing OUTPUT, or left empty to be written by hand.

Each metric's summary also says whether the change shows a gain (lower in
at least nine tenths of the pairs, and the medians differ by more than the
parent's interquartile range) and whether it is within its bound (the
change's median at most the parent's times 1 + the bound that
BENCHMARK.json fixes in "end_to_end").  The note names every workload and
metric outside its bound.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PAIRS = 10
SECONDS = 25
TRACED_SECONDS = 10
RUN_TIMEOUT_S = 300
STDERR_LINES = 20  # the tail of a failed run's stderr that its error carries
END_TO_END = ("pass_s", "cpu_s", "setup_s", "peak_rss_mb")
SIDES = ("parent", "change")

PROCEDURE = (
    "Pair K runs the parent checkout and this change, each from its own directory "
    "(the parent made with git archive, the change a copy of the working tree's tracked "
    "and new files), one after the other with seed K; odd pairs run the parent first, "
    "even pairs the change first. All ten pairs of a workload run before the next "
    "workload. Times are bench/run.py's scaled seconds (medians over the passes of a "
    "run). Per workload, 'summary' gives the median and quartiles (statistics.quantiles, "
    "n=4, inclusive) over the pairs of each side, and in how many pairs the change read "
    "lower; 'gain' is true when that is at least 9/10 of the pairs and the medians differ "
    "by more than the parent's interquartile range, and 'within_bound' when the change's "
    "median is at most the parent's times 1 + the metric's bound in BENCHMARK.json. "
    "'traced' holds one traced run per side and workload (--trace 1, seed 1, "
    f"--seconds {TRACED_SECONDS}): the per-layer metrics of its traced passes. Written "
    "by tools/bench_pairs.py."
)


def git(root: Path, *args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True).stdout


def checkouts(root: Path, parent: str, into: Path) -> dict[str, Path]:
    """The parent, unpacked by git archive, and a copy of the working tree."""
    out = {side: into / side for side in SIDES}
    out["parent"].mkdir()
    archive = git(root, "archive", "--format=tar", parent)
    subprocess.run(["tar", "-x", "-C", str(out["parent"])], input=archive, check=True)
    listed = git(root, "ls-files", "--cached", "--others", "--exclude-standard", "-z")
    for name in filter(None, listed.decode().split("\0")):
        source = root / name
        if source.is_file():  # a tracked file deleted in the working tree is left out
            target = out["change"] / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)
    return out


def end_to_end_bounds() -> dict[str, float]:
    """The bound of each end-to-end metric in the repository's BENCHMARK.json;
    every one reads better lower."""
    path = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
    metrics = json.loads(path.read_text())["end_to_end"]
    if any(m["better"] != "lower" for m in metrics):
        raise ValueError("an end-to-end metric that reads better higher has no rule here")
    return {m["name"]: m["bound"] for m in metrics}


def run(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The last line of one bench/run.py run: its result record."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        argv, cwd=checkout, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.splitlines()[-STDERR_LINES:])
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.splitlines()[-1])


def side_record(result: dict) -> dict:
    metrics = {name: result["metrics"][name]["value"] for name in END_TO_END}
    return metrics | {"failed": result["failed"], "correct": result["correct"]}


def summarize(pairs: list[dict]) -> dict:
    """Per end-to-end metric: each side's median and quartiles, the pairs in
    which the change read lower, and whether that is a gain and within the
    metric's bound in BENCHMARK.json."""
    bounds = end_to_end_bounds()
    out = {}
    for name in END_TO_END:
        values = {side: [pair[side][name] for pair in pairs] for side in SIDES}
        entry: dict = {}
        for side in SIDES:
            q1, q2, q3 = statistics.quantiles(values[side], n=4, method="inclusive")
            entry[f"{side}_median"] = q2
            entry[f"{side}_quartiles"] = [q1, q3]
        lower = sum(c < p for p, c in zip(values["parent"], values["change"]))
        entry["change_lower_pairs"] = lower
        entry["pairs"] = len(pairs)
        q1, q3 = entry["parent_quartiles"]
        gap = entry["parent_median"] - entry["change_median"]
        entry["gain"] = 10 * lower >= 9 * len(pairs) and gap > q3 - q1
        limit = (1 + bounds[name]) * entry["parent_median"]
        entry["within_bound"] = entry["change_median"] <= limit
        out[name] = entry
    return out


def note(workloads: dict) -> str:
    parts = []
    for name, data in workloads.items():
        s = data["summary"]["pass_s"]
        before, after = s["parent_median"], s["change_median"]
        parts.append(
            f"{name} {before:.5f} -> {after:.5f} ({100 * (after / before - 1):+.1f}%, "
            f"{s['change_lower_pairs']}/{s['pairs']})"
        )
    pairs = [pair for data in workloads.values() for pair in data["pairs"]]
    failed = sum(pair[side]["failed"] for pair in pairs for side in SIDES)
    joined = ", ".join(parts)
    text = f"Median pass_s parent -> change (change lower in): {joined}. Failed jobs: {failed}."
    outside = [
        f"{name} {metric} {100 * (s['change_median'] / s['parent_median'] - 1):+.1f}%"
        for name, data in workloads.items()
        for metric, s in data["summary"].items()
        if not s["within_bound"]
    ]
    return text + (f" Outside its bound: {', '.join(outside)}." if outside else "")


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, output = argv[0], Path(argv[1]).resolve()
    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel").decode().strip())
    sys.path.insert(0, str(root / "bench"))
    from workloads import WORKLOADS

    previous = json.loads(output.read_text()) if output.is_file() else {}
    doc = {
        "what": previous.get("what", ""),
        "parent": git(root, "rev-parse", "--short", parent).decode().strip(),
        "command": f"python3 bench/run.py --workload W --seed K --seconds {SECONDS}",
        "procedure": PROCEDURE,
        "host": f"{os.cpu_count()} vCPUs, shared with other tenants; "
        "PYTHONDONTWRITEBYTECODE=1 in the environment of every run; "
        "no __pycache__ in either checkout",
        "claim": previous.get("claim", ""),
        "note": "",
        "workloads": {},
        "traced": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        dirs = checkouts(root, parent, Path(tmp))
        for workload in WORKLOADS:
            pairs = []
            for seed in range(1, PAIRS + 1):
                order = SIDES if seed % 2 else SIDES[::-1]
                pair: dict = {"seed": seed, "order": list(order)}
                for side in order:
                    pair[side] = side_record(run(dirs[side], workload, seed, SECONDS, 0))
                    print(workload, seed, side, pair[side]["pass_s"], file=sys.stderr, flush=True)
                pairs.append(pair)
            doc["workloads"][workload] = {"pairs": pairs, "summary": summarize(pairs)}
            traced = {
                "command": f"python3 bench/run.py --workload {workload} --seed 1 "
                f"--seconds {TRACED_SECONDS} --trace 1"
            }
            for side in SIDES:
                metrics = run(dirs[side], workload, 1, TRACED_SECONDS, 1)["metrics"]
                traced[side] = {name: metric["value"] for name, metric in metrics.items()}
            doc["traced"][workload] = traced
            doc["note"] = note(doc["workloads"])
            output.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
