"""traplab benchmark: one workload, one process, one closed-loop client.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; traplab is imported from ``src/``.
Workloads: acceptance-sweep, mots-spectrum, point-queries (see workloads.py).

``--trace 0`` measures the end-to-end metrics: set-up time (median over fresh
interpreters), the time of a pass, the latency percentiles of its requests,
and peak resident memory.  Timings are in reference seconds: each request's
wall time is scaled by the host speed measured around it by the workload's
reference kernel (calibration.py),
and each request contributes the median of its scaled latencies over the
passes.  Passes repeat while the next one is expected to end within S seconds
of the start, and at least two run.
``--trace 1`` runs untraced passes up to a third of S, then traced passes up
to S, and reports the per-layer metrics of the traced passes (medians over
passes) with the tracing overhead.  Every output is checked; a request fails
when it raises, when its check fails or when its replay bytes differ from the
first pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the same metrics with units, the environment, and with ``--trace 1`` the
layer-share table.  Results and spans are also written under
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread, set before numpy loads: load comes from this one process,
# and timings stay steady.  Set-up probes inherit it.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import calibration  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("acceptance-sweep", "mots-spectrum", "point-queries")
SETUP_SAMPLES = 9
MIN_PASSES = 2
# Requests shorter than this share the calibration measured around the group.
CALIBRATE_EVERY_S = 0.2


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def measure_setup() -> tuple[float, list[tuple[float, float]]]:
    """Median reference seconds to import traplab and build every scenario,
    over fresh interpreters; also the (wall seconds, kernel seconds) of each."""
    probe = Path(__file__).with_name("setup_probe.py")
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(probe), str(SRC)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        setup_s, kernel_s = map(float, done.stdout.strip().splitlines()[-1].split())
        samples.append((setup_s, kernel_s))
    reference_s = calibration.SMALL.reference_s
    return statistics.median(s * reference_s / k for s, k in samples), samples


def git_commit() -> str | None:
    """HEAD commit, read from the checkout's own .git directory if there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "traplab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "load": "one process, one closed-loop client",
    }


def run_pass(requests, tracer=None, first_id: int = 0, kernel=None):
    """Send every request in order, waiting for each.

    Returns (latencies, scaled, outputs): wall seconds per request and, given a
    reference ``kernel``, the same in reference seconds.  The kernel runs
    before the first request, and after a request once ``CALIBRATE_EVERY_S``
    have passed since it last ran and after the last request; the requests in
    between are scaled by the mean of the two kernel times around them.
    """
    latencies, scaled, outputs, pending = [], [], [], []
    calibrate = kernel is not None
    before = kernel.seconds() if calibrate else None
    since = time.perf_counter()
    for i, request in enumerate(requests):
        if tracer is not None:
            tracer.request = first_id + i + 1
        sent = time.perf_counter()
        try:
            output = request.run()
        except Exception as exc:  # a failed request is counted, the loop goes on
            output = exc
        done = time.perf_counter()
        latencies.append(done - sent)
        outputs.append(output)
        pending.append(done - sent)
        if calibrate and (done - since >= CALIBRATE_EVERY_S or i == len(requests) - 1):
            after = kernel.seconds()
            scale = 2 * kernel.reference_s / (before + after)
            scaled += [latency * scale for latency in pending]
            pending, before, since = [], after, time.perf_counter()
    return latencies, scaled if calibrate else None, outputs


def check_pass(requests, outputs, reference: list) -> list[str]:
    """Problems of one pass; ``reference`` holds the first replay bytes of each request."""
    problems = []
    for i, (request, output) in enumerate(zip(requests, outputs)):
        if isinstance(output, Exception):
            problem = f"raised {output!r}"
        else:
            try:
                problem = request.check(output)
            except Exception as exc:  # a malformed output fails its request
                problem = f"check raised {exc!r}"
            if problem is None:
                key = request.replay(output)
                if reference[i] is None:
                    reference[i] = key
                elif key != reference[i]:
                    problem = "replay bytes differ from the first pass"
        if problem:
            problems.append(f"{request.label}: {problem}")
    return problems


class Session:
    """Passes over one request list, with their timings and check results."""

    def __init__(self, requests, kernel):
        self.requests = requests
        self.kernel = kernel
        self.reference = [None] * len(requests)
        self.attempted = 0
        self.problems: list[str] = []

    def run(self, tracer=None) -> tuple[list[float], list[float] | None]:
        latencies, scaled, outputs = run_pass(
            self.requests, tracer, self.attempted, self.kernel)
        self.attempted += len(self.requests)
        self.problems += check_pass(self.requests, outputs, self.reference)
        return latencies, scaled


def quantile_ms(values: list[float], q: int) -> float:
    """q-th percentile (q in 10..90, step 10), inclusive interpolation, in ms."""
    if len(values) == 1:
        return 1e3 * values[0]
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return 1e3 * cuts[q // 10 - 1]


def timed_passes(session: Session, deadline: float, min_passes: int, tracer=None, marks=None):
    """Passes until the next one would likely end after ``deadline``, at least ``min_passes``.

    Returns the (latencies, scaled) of each pass.  With a tracer, ``marks``
    receives the (first, end) span indices of each pass.
    """
    passes, took = [], []
    while len(passes) < min_passes or time.perf_counter() + statistics.median(took) <= deadline:
        first = len(tracer.spans) if tracer is not None else 0
        start = time.perf_counter()
        passes.append(session.run(tracer))
        took.append(time.perf_counter() - start)
        if tracer is not None:
            marks.append((first, len(tracer.spans)))
    return passes


def end_to_end(session: Session, seconds: int) -> tuple[dict, dict]:
    setup_s, setup_samples = measure_setup()
    passes = timed_passes(session, time.perf_counter() + seconds, MIN_PASSES)
    # One latency per request, the median over passes, in reference seconds.
    latencies = [statistics.median(column) for column in zip(*(p[1] for p in passes))]
    metrics = {
        "setup_s": (setup_s, "s"),
        "run_s": (sum(latencies), "s"),
        "latency_p50_ms": (quantile_ms(latencies, 50), "ms"),
        "latency_p90_ms": (quantile_ms(latencies, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "setup_samples_wall_and_kernel_s": setup_samples,
        "wall_pass_s": [sum(p[0]) for p in passes],
        "reference_pass_s": [sum(p[1]) for p in passes],
        "wall_latencies_s": [p[0] for p in passes],
        "reference_latencies_s": [p[1] for p in passes],
    }
    return metrics, detail


def traced(session: Session, seconds: int, spans_path: Path) -> tuple[dict, dict]:
    import spans

    started = time.perf_counter()
    plain = [sum(p[0]) for p in timed_passes(session, started + seconds / 3, 1)]
    tracer = spans.Tracer()
    marks = []
    with tracer:
        traced_s = [sum(p[0]) for p in timed_passes(session, started + seconds, 1, tracer, marks)]
    summaries = [spans.summarize_pass(tracer.spans[a:b], tracer.names) for a, b in marks]
    spec = spans.per_layer_spec()
    units = {name: unit for name, unit, _better in spec}
    metrics = {
        name: (statistics.median(s["metrics"][name] for s in summaries), units[name])
        for name in summaries[0]["metrics"]
    }
    overhead = min(traced_s) / min(plain)
    metrics["trace.overhead_ratio"] = (overhead, units["trace.overhead_ratio"])
    shares = spans.layer_shares([s["self_s"] for s in summaries], traced_s)
    tracer.write(str(spans_path))
    detail = {
        "untraced_pass_s": plain,
        "traced_pass_s": traced_s,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "layer_shares": shares,
    }
    return metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "traplab" / "__init__.py").is_file():
        print(f"no traplab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import traplab

    if not Path(traplab.__file__).resolve().is_relative_to(SRC):
        print(f"traplab imported from {traplab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"run-{os.getpid()}"
    work_dir.mkdir()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        session = Session(
            workloads.BUILDERS[args.workload](args.seed, str(work_dir)),
            None if args.trace else workloads.KERNELS[args.workload],
        )
        if args.trace:
            metrics, detail = traced(
                session, args.seconds, OUT / f"{args.workload}-seed{args.seed}-spans.csv.gz"
            )
        else:
            metrics, detail = end_to_end(session, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = len(session.problems)
    env = environment(args.seed)
    values = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "metrics": values,
        "attempted": session.attempted,
        "failed": failed,
        "failed_ratio": failed / session.attempted,
        "problems": session.problems,
        "detail": detail,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:52s} {value:16.6f} {unit}")
    print(f"  {'failed_ratio':52s} {failed / session.attempted:16.6f} ratio"
          f"  ({failed} of {session.attempted} requests)")
    if not args.trace:
        print(f"  wall seconds per pass, not corrected for host speed: "
              + " ".join(f"{x:.3f}" for x in detail["wall_pass_s"]))
    for problem in session.problems[:20]:
        print(f"  FAILED {problem}")
    if args.trace:
        print("layer shares of traced pass time (self time, median over passes):")
        for label, share in detail["layer_shares"]:
            print(f"  {label:52s} {100 * share:7.2f} %")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
