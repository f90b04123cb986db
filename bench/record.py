"""Record the outputs that the benchmark's checks compare against.

Usage, from the root of a checkout whose outputs are known to be right:

    python3 bench/record.py

Writes ``bench/expected.json``: the rows and summary of ``reproduce --json``
and the sha256 of the representative cochains of every sweep_sparse job
that requests them.
"""

import json
import sys

import run
import workloads


def output(argv, workdir) -> dict:
    record, reason = run.spawn(argv, False, workdir, run.JOB_TIMEOUT_S)
    if reason is not None or record["rc"] != 0:
        sys.exit(f"{' '.join(argv)} failed: {reason or record['stderr']}")
    return json.loads(record["stdout"])


def main() -> None:
    workdir = run.WORK / "record"
    workloads.generate("sweep_sparse", 0, workdir)
    doc = output(["reproduce", "--json"], workdir)
    expected = {
        "reproduce": {"rows": doc["rows"], "summary": doc["summary"]},
        "representatives_sha256": {},
    }
    for n, degrees in workloads.SPARSE_DEGREES.items():
        for q in degrees:
            if workloads.wants_representatives(n, q):
                argv = ["cohomology", f"h{n}.json", str(q), "--json", "--representatives"]
                reps = output(argv, workdir)["representatives"]
                expected["representatives_sha256"][f"h{n}/{q}"] = workloads.digest(reps)
    text = json.dumps(expected, indent=1, sort_keys=True) + "\n"
    workloads.EXPECTED_PATH.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
