"""Benchmark of the liedeform CLI: end-to-end costs and a traced per-layer run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run writes the workload's inputs for the seed under ``bench/.work``,
then repeats passes over the workload's job list until S seconds have
passed: a closed loop with one client.  Each job is a fresh interpreter
(``child.py``) that imports ``liedeform`` from this checkout's ``src`` and
runs one command through ``liedeform.cli.main``; only one child runs at a
time.  Every output is checked (see ``workloads.py``).

With ``--trace 0`` the last line reports the end-to-end metrics, medians
over the passes.  With ``--trace 1`` untraced and traced passes alternate,
and the last line reports the per-layer metrics of the traced passes.  The
line before it holds the details: the seed, every pass, every failure and
the names absent at this commit.

All times are scaled to a reference speed.  Each child times a fixed
reference computation before, during and after its job (see
``child.py``), and its times are multiplied by REF_SECONDS over the
trimmed mean of those samples: a reported time estimates the time on a
host where the reference computation takes REF_SECONDS.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
CHILD = BENCH / "child.py"

# Median wall time of the reference computation in child.py on the host
# where the baseline in DESIGN.md was measured (2 vCPUs, shared).
REF_SECONDS = 0.0017

JOB_TIMEOUT_S = 60.0
# Every run ends within 180 s; jobs still pending after this budget fail.
RUN_BUDGET_S = 165.0

END_TO_END = {
    "pass_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

_TRACED_CALLS = (
    "exact.rank",
    "exact.nullspace",
    "exact.solve",
    "exact.inverse",
    "cohomology.differential",
    "cohomology.apply_differential",
    "cohomology.cohomology_dim",
    "cohomology.is_coboundary",
    "cohomology.class_eq",
    "cohomology.span_in_cohomology",
    "cohomology.is_cocycle",
    "deform.defect",
    "deform.strict_extendability",
    "deform.specialize",
    "deform.search_isomorphism",
    "deform.verify_isomorphism",
    "liealg.LieAlgebra.jacobi_violations",
    "liealg.LieAlgebra.series",
    "liealg.LieAlgebra.center",
    "liealg.LieAlgebra.change_basis",
)
_SELF_ONLY = ("catalog.reproduce", "jsonio.from_dict", "jsonio.to_dict", "cli.main")

PER_LAYER: dict[str, str] = {}
for _name in _TRACED_CALLS:
    PER_LAYER[f"{_name}.calls"] = "count"
    PER_LAYER[f"{_name}.self_s"] = "s"
PER_LAYER.update(
    {
        "exact.elim.cells": "count",
        "exact.elim.nnz": "count",
        "exact.elim.maxbits": "bits",
        "cohomology.differential.cells": "count",
        "cohomology.differential.nnz": "count",
        "cohomology.differential.distinct": "count",
        "cohomology.differential.useful_ratio": "ratio",
        "deform.search_isomorphism.hits": "count",
        "deform.search_isomorphism.space": "candidates",
    }
)
for _name in _SELF_ONLY:
    PER_LAYER[f"{_name}.self_s"] = "s"
PER_LAYER["trace.overhead_s"] = "s"


# -- one job, one pass -----------------------------------------------------------


def spawn(argv, trace: bool, workdir: Path, timeout: float):
    """Run one job in a child; return (record, None) or (None, reason)."""
    spec = json.dumps({"argv": list(argv), "trace": trace})
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), str(SRC), spec],
        cwd=workdir,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timeout after {timeout:.0f} s"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        tail = err.decode("utf-8", "replace").strip().splitlines()[-1:] or [""]
        return None, f"crash: exit {proc.returncode}: {tail[0]}"
    try:
        record = json.loads(out.decode("utf-8").splitlines()[-1])
    except (IndexError, ValueError):
        return None, "the child printed no result record"
    record["setup"] = record["ready"] - spawned
    return record, None


def _trimmed_mean(values) -> float:
    """Mean of the values without the lowest and the highest tenth."""
    values = sorted(values)
    cut = len(values) // 10
    return statistics.fmean(values[cut : len(values) - cut])


def speed_factors(record: dict) -> tuple[float, float]:
    """Factors that scale one child's wall and CPU times to the reference speed.

    A job's time adds up the host's speed over the whole job, so the mean
    reference time is the matching estimate.  Trimming drops the samples
    that a burst or a garbage collection inflated; with it, the spread of
    pass times within a run fell to about half of that with the median.
    """
    wall = _trimmed_mean(w for w, _ in record["ref"])
    cpu = _trimmed_mean(c for _, c in record["ref"])
    return REF_SECONDS / wall, REF_SECONDS / cpu


def _merge_trace(total: dict, part: dict, factor: float) -> None:
    for name, (calls, self_s) in part["self"].items():
        entry = total["self"].setdefault(name, [0, 0.0])
        entry[0] += calls
        entry[1] += self_s * factor
    for key, value in part["counts"].items():
        total["counts"][key] = total["counts"].get(key, 0) + value
    for key, value in part["maxima"].items():
        total["maxima"][key] = max(total["maxima"].get(key, 0), value)
    for key, value in part["distinct"].items():
        total["distinct"][key] = total["distinct"].get(key, 0) + value


def run_pass(jobs, workdir: Path, trace: bool, deadline: float) -> dict:
    """One pass over the job list; times are scaled to the reference speed."""
    result = {
        "trace": trace,
        "pass_s": 0.0,
        "cpu_s": 0.0,
        "setups": [],
        "peak_rss_mb": 0.0,
        "attempted": len(jobs),
        "failures": [],
        "jobs": [],
        "absent": [],
        "spans": {"self": {}, "counts": {}, "maxima": {}, "distinct": {}},
    }
    for job in jobs:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            result["failures"].append([list(job.argv), "run budget exhausted"])
            continue
        record, reason = spawn(job.argv, trace, workdir, min(JOB_TIMEOUT_S, remaining))
        if record is not None:
            wall_f, cpu_f = speed_factors(record)
            result["jobs"].append(
                {key: record[key] for key in ("wall", "cpu", "setup", "ref")} | {"factor": wall_f}
            )
            result["pass_s"] += record["wall"] * wall_f
            result["cpu_s"] += record["cpu"] * cpu_f
            result["setups"].append(record["setup"] * wall_f)
            result["peak_rss_mb"] = max(result["peak_rss_mb"], record["maxrss_kb"] / 1024)
            if trace:
                _merge_trace(result["spans"], record["trace"], wall_f)
                result["absent"] = record["absent"]
            reason = job.check(record["rc"], record["stdout"])
        if reason is not None:
            result["failures"].append([list(job.argv), reason])
    return result


# -- metrics ----------------------------------------------------------------------


def per_layer(spans: dict) -> dict:
    """The per-layer metrics of one traced pass (trace.overhead_s excluded)."""
    out = {}
    for name in _TRACED_CALLS:
        calls, self_s = spans["self"].get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    for name in _SELF_ONLY:
        out[f"{name}.self_s"] = spans["self"].get(name, (0, 0.0))[1]
    counts = spans["counts"]
    for key in (
        "exact.elim.cells",
        "exact.elim.nnz",
        "cohomology.differential.cells",
        "cohomology.differential.nnz",
        "deform.search_isomorphism.hits",
        "deform.search_isomorphism.space",
    ):
        out[key] = counts.get(key, 0)
    out["exact.elim.maxbits"] = spans["maxima"].get("exact.elim.maxbits", 0)
    distinct = spans["distinct"].get("cohomology.differential.distinct", 0)
    calls = out["cohomology.differential.calls"]
    out["cohomology.differential.distinct"] = distinct
    out["cohomology.differential.useful_ratio"] = distinct / calls if calls else 0.0
    return out


def layer_self_times(spans: dict) -> dict:
    """Self seconds summed per module; the counters' own spans sum under "trace"."""
    out: dict[str, float] = {}
    for name, (_, self_s) in spans["self"].items():
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + self_s
    return out


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def report(plain: list, traced: list) -> dict:
    if not traced:
        values = {
            "pass_s": _median(p["pass_s"] for p in plain),
            "cpu_s": _median(p["cpu_s"] for p in plain),
            "setup_s": _median(s for p in plain for s in p["setups"]),
            "peak_rss_mb": _median(p["peak_rss_mb"] for p in plain),
        }
        units = END_TO_END
    else:
        layers = [per_layer(p["spans"]) for p in traced]
        values = {name: _median(m[name] for m in layers) for name in layers[0]}
        values["trace.overhead_s"] = _median(p["pass_s"] for p in traced) - _median(
            p["pass_s"] for p in plain
        )
        units = PER_LAYER
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


# -- the run -----------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, list]:
    workdir = WORK / f"{workload}-{seed}"
    files = workloads.generate(workload, seed, workdir)
    jobs = workloads.jobs(workload, workdir, workloads.load_expected())
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    # An untimed child first, so that every timed one finds the bytecode
    # cache of the checkout filled, on every commit alike.
    spawn(["--version"], False, workdir, JOB_TIMEOUT_S)
    plain: list = []
    traced: list = []
    while True:
        began = time.monotonic()
        plain.append(run_pass(jobs, workdir, False, deadline))
        if trace:
            traced.append(run_pass(jobs, workdir, True, deadline))
        now = time.monotonic()
        # Start another round only if it is likely to end within the run.
        if 2 * now - began - start > seconds or now >= deadline:
            break
    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    details = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "inputs": files,
        "ref_seconds": REF_SECONDS,
        "median_speed_factor": _median(j["factor"] for p in passes for j in p["jobs"]),
        "fail_ratio": failed / attempted,
        "failures": [f for p in passes for f in p["failures"]][:20],
        "passes": [
            {key: p[key] for key in ("trace", "pass_s", "cpu_s", "peak_rss_mb")}
            | {"setup_s": statistics.median(p["setups"]) if p["setups"] else None}
            for p in passes
        ],
    }
    if trace:
        details["absent"] = traced[-1]["absent"]
        details["layer_self_s"] = layer_self_times(traced[-1]["spans"])
        details["counter_errors"] = traced[-1]["spans"]["counts"].get("trace.counter_errors", 0)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report(plain, traced),
    }
    return details, result, [p["jobs"] for p in passes]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "liedeform" / "__init__.py").is_file():
        print(f"error: no liedeform package under {SRC}", file=sys.stderr)
        return 2
    details, result, jobs = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    WORK.mkdir(parents=True, exist_ok=True)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    (WORK / name).write_text(json.dumps({"details": details, "result": result, "jobs": jobs}))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
