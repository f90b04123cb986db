"""Run one liedeform CLI job in a fresh interpreter and report what it cost.

Usage: python3 child.py SRC_DIR SPEC_JSON

SPEC_JSON holds ``argv`` (the CLI arguments) and ``trace`` (whether to wrap
the package's layers).  The job runs through ``liedeform.cli.main(argv)``
with its standard output and error captured; the child then prints one
JSON record on its own standard output.  Times are CLOCK_MONOTONIC
readings, comparable with the parent's, so the parent can measure the
interval from spawning this process until ``liedeform`` is imported.

The child also times a fixed reference computation in plain Python
(``_reference``): three times before the job, three times after it, and
every PROBE_INTERVAL_S during it from a timer signal.  The probes' time is
removed from the job's.  The parent divides the job's times by the
reference time measured alongside: on a shared host the speed of one job
varied by up to 70% between 5-second windows, while the ratio of a job's
time to the reference time varied by a few percent.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import liedeform  # noqa: E402
import liedeform.cli  # noqa: E402

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
from fractions import Fraction  # noqa: E402

PROBE_INTERVAL_S = 0.05
PROBES_AROUND = 3


def _reference() -> None:
    """Exact elimination of a constant 8x8 integer matrix, then an integer loop.

    Of the kernels tried, these two together slowed down under contention in
    the same proportion as the jobs; the elimination alone slowed down more.
    """
    rng = random.Random(12)
    n = 8
    rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c]), None)
        if p is None:
            continue
        rows[c], rows[p] = rows[p], rows[c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    total = 0
    for i in range(12000):
        total += i * i % 7


class Probes:
    """Times of the reference computation: [wall, cpu] seconds per sample.

    While ``during`` is active, a timer signal takes one sample every
    PROBE_INTERVAL_S, so the samples follow the host's speed while the job
    runs.
    """

    def __init__(self):
        self.samples = []
        self._busy = False

    def sample(self, *_):
        if self._busy:
            return
        self._busy = True
        w, c = time.perf_counter(), time.process_time()
        _reference()
        self.samples.append([time.perf_counter() - w, time.process_time() - c])
        self._busy = False

    @contextlib.contextmanager
    def during(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def spent(self, since: int) -> tuple:
        later = self.samples[since:]
        return sum(w for w, _ in later), sum(c for _, c in later)


def run(spec: dict) -> dict:
    record = {"ready": READY}
    probes = Probes()
    for _ in range(PROBES_AROUND):
        probes.sample()
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        record["absent"] = spans.install(tracer)
        # A probe gets a span of its own, so no layer's self time holds it.
        probes.sample = tracer.wrap(spans.PROBE_SPAN, probes.sample)
    out, err = io.StringIO(), io.StringIO()
    first = len(probes.samples)
    wall, cpu = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), probes.during():
        try:
            rc = liedeform.cli.main(spec["argv"])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    probe_wall, probe_cpu = probes.spent(first)
    record["wall"] = wall - probe_wall
    record["cpu"] = cpu - probe_cpu
    for _ in range(PROBES_AROUND):
        probes.sample()
    record["ref"] = probes.samples
    record["rc"] = rc
    record["stdout"] = out.getvalue()
    record["stderr"] = err.getvalue()[-2000:]
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        record["trace"] = spans.summary(tracer)
    return record


if __name__ == "__main__":
    result = run(json.loads(sys.argv[2]))
    sys.stdout.write(json.dumps(result) + "\n")
