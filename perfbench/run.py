"""Benchmark of the satmdp package: four closed-loop workloads, one
single-threaded process per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. See README.md.
"""
import os
import time

# one BLAS thread: the process is single-threaded and the box has two CPUs
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

# Times are scaled to a nominal host speed. On the 2-CPU box this benchmark
# was built on, the same code takes anywhere from 0.7x to 1.5x its median
# time, from one second to the next and for minutes at a stretch, which moved
# raw medians by 10-25% between runs of identical code. A yardstick is timed
# before and after every timed part, and the part is multiplied by
# NOMINAL_S / (mean of the two yardstick times). Interpreter-bound workloads
# use the interpreter yardstick; baselines, whose time is as much numpy
# streaming through memory, uses one with a numpy half as well. Swapping the
# two choices widened the run-to-run spread of baselines from 4% to 10%, and
# that of tree_sweep's median latency from 5% to 12%.
NOMINAL_S = {"interpreter": 0.0087, "mixed": 0.0119}  # medians on that box under load
_STREAM = (np.ones(1_000_000), np.empty(1_000_000))


def _interpreter_work(n: int):
    table = {}
    for i in range(n):
        key = i % 97 * 13 + i * 7 % 13
        table[key] = table.get(key, 0) + 1


def _stream_work():
    src, dst = _STREAM
    for _ in range(3):
        np.multiply(src, 2.0, out=dst)
        float(dst.sum())


def yardstick(kind: str = "interpreter") -> float:
    """Seconds taken now by fixed work: interpreter work on ints and a small
    dict (nothing the cyclic collector tracks), and for "mixed" half as much
    of it plus numpy streaming through preallocated 8 MB arrays."""
    start = time.perf_counter()
    if kind == "interpreter":
        _interpreter_work(40_000)
    else:
        _interpreter_work(20_000)
        _stream_work()
    return time.perf_counter() - start


_START_YARD = yardstick()
_START = time.perf_counter()  # set-up counts from here, the package's imports included

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120


def scaled(seconds: float, yard_before: float, yard_after: float,
           kind: str = "interpreter") -> float:
    return seconds * NOMINAL_S[kind] / ((yard_before + yard_after) / 2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and print the set-up time")
    return parser.parse_args(argv)


def setup_done() -> tuple:
    """(raw, scaled) seconds since the process started."""
    raw = time.perf_counter() - _START
    return raw, scaled(raw, _START_YARD, yardstick())


def setup_in_child(args) -> tuple:
    """One more set-up sample in a fresh process, so every sample is cold."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


class Loop:
    """Operations of one run: each pool item's raw and scaled latencies,
    counts, and the problems the checks found."""

    def __init__(self, workload, around=contextlib.nullcontext):
        self.workload = workload
        self.around = around  # entered around each operation, checks left out
        self.raw: dict = {}
        self.scaled: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def op(self, k: int):
        """Scaled latency of pool item k, or None when the operation raised.
        The workload calls ``tick`` between the parts of a long operation;
        each part is timed and scaled on its own, yardstick time left out."""
        item = self.workload.pool[k]
        kind = self.workload.YARDSTICK
        self.attempted += 1
        raw = norm = 0.0

        def tick():
            nonlocal raw, norm, yard, start
            part = time.perf_counter() - start
            after = yardstick(kind)
            raw += part
            norm += scaled(part, yard, after, kind)
            yard = after
            start = time.perf_counter()

        try:
            with self.around():
                yard = yardstick(kind)
                start = time.perf_counter()
                out = self.workload.operate(item, tick)
                tick()
        except Exception as exc:  # a failing operation is counted; the run goes on
            self.failed += 1
            print(f"operation failed: {exc!r}", file=sys.stderr)
            return None
        self.raw.setdefault(k, []).append(raw)
        self.scaled.setdefault(k, []).append(norm)
        self.problems += self.workload.check(item, out)
        return norm

    @staticmethod
    def item_medians(by_item: dict) -> list:
        return [statistics.median(v) for v in by_item.values()]


def passes_for(seconds: float, workload) -> int:
    """Whole passes over the pool, so every run has the same mix; the count
    depends only on --seconds, so both sides of a comparison do the same work."""
    return max(1, round(seconds / workload.PASS_S))


def tail(latencies):
    """(percentile, value): the highest percentile with at least ten samples
    beyond it, or None below forty samples."""
    n = len(latencies)
    if n < 40:
        return None
    pct = int(100 * (n - 10) / n)
    return pct, sorted(latencies)[min(n - 1, n * pct // 100)]


def report_problems(problems):
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "satmdp" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    wl = cls(args.seed, work_dir)
    try:
        if args.setup_only:
            wl.setup()
            print(json.dumps({"setup_s": setup_done()}))
            return 0
        if args.trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                wl.setup()
            tracer.phase = tracing.OPS
            result = traced_run(args, wl, tracer)
        else:
            wl.setup()
            setup = [setup_done()]
            setup += [setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
            result = untraced_run(args, wl, setup)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    OUT.mkdir(exist_ok=True)
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


def untraced_run(args, wl, setup):
    loop = Loop(wl)
    passes = passes_for(args.seconds, wl)
    for _ in range(passes):
        for k in range(len(wl.pool)):
            loop.op(k)
    problems = loop.problems + wl.finish()
    report_problems(problems)
    best = loop.item_medians(loop.scaled)
    raw = loop.item_medians(loop.raw)
    summary = (f"{args.workload}: {passes} pass(es) over {len(wl.pool)} items, "
               f"{sum(map(len, loop.raw.values()))} of {loop.attempted} operations "
               f"completed; raw: set-up {[round(r, 3) for r, _ in setup]} s")
    if raw:
        summary += (f", throughput {len(raw) / sum(raw):.4f}/s, "
                    f"p50 {1e3 * statistics.median(raw):.2f} ms")
    t = tail([x for v in loop.scaled.values() for x in v])
    if t is not None:
        summary += f"; scaled p{t[0]} of all operations {t[1] * 1e3:.2f} ms"
    print(summary, file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup), "s"),
        "throughput": (len(best) / sum(best) if best else 0.0, "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(best) if best else 0.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {"correct": not problems, "attempted": loop.attempted, "failed": loop.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def traced_run(args, wl, tracer):
    """Every operation runs twice, untraced and then traced; the per-layer
    metrics come from the traced runs, and the median ratio of the two
    scaled latencies is the tracing overhead."""
    plain, traced = Loop(wl), Loop(wl, around=tracer.installed)
    ratios = []
    for _ in range(passes_for(args.seconds / 2, wl)):
        for k in range(len(wl.pool)):
            base = plain.op(k)
            with_spans = traced.op(k)
            if base and with_spans:
                ratios.append(with_spans / base)
    problems = plain.problems + traced.problems + wl.finish()
    report_problems(problems)
    metrics = tracer.metrics(traced.attempted - traced.failed)
    metrics["trace.overhead_ratio"] = {
        "value": statistics.median(ratios) if ratios else 0.0, "unit": "ratio"}
    per_step = getattr(wl, "bytes_per_step", None)
    metrics["cli.run.trajectory_bytes_per_step"] = {
        "value": statistics.mean(per_step) if per_step else 0.0, "unit": "B"}
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
    return {"correct": not problems, "attempted": plain.attempted + traced.attempted,
            "failed": plain.failed + traced.failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
