#!/usr/bin/env python3
"""qconc benchmark: one workload, closed loop, one caller, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` (and started from there for CLI processes), never from an
installed copy.  Workloads, metrics and units are declared in
``BENCHMARK.json``; ``perfbench/README.md`` says what each layer metric
should move.

The process pins itself (and so its children) to one CPU.  Set-up runs
three times here and ``setup_s`` is the median.

With ``--trace 0`` the timed loop is split over several fresh worker
processes (``--worker``, started by this script), and the last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}`` with every
end-to-end metric.  Each op is timed between two runs of the workload's
reference (a fixed pure-Python loop, or a bare interpreter start for
``cli_small``), and the latency and throughput metrics are in units of that
reference, because the host's own speed drifts by ±20% over minutes.

With ``--trace 1`` the loop runs here and each op runs twice, plain and with
spans around the package's public functions, in alternating order; the two
outputs must be identical, and the metrics are the per-layer ones.

The line before the last holds the environment, the input hash, the host
reference timings, the tail percentile, and the wall-clock values of all
six end-to-end measures, ``failed_share`` among them.  Spans are written to
``.bench_out/``; state files live in ``.bench_work/`` for the run only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
STARTUP_PROBES = 5
HOST_REF_REPEATS = 5
HOST_REF_ITERATIONS = 300_000
CLI_TIMEOUT_S = 60


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# One caller, no added threads: BLAS/OpenMP pools default to one thread.
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(SRC))
try:
    import numpy as np
    import qconc
    import qconc.cli
except ImportError as exc:
    fail(f"cannot import qconc from {SRC}: {exc}")
if Path(qconc.__file__).resolve().parent != SRC / "qconc":
    fail(f"qconc was imported from {qconc.__file__}, not from {SRC}")

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, ref_loop  # noqa: E402


class Host:
    """Starts CLI processes and in-process CLI calls for the workloads."""

    def __init__(self, workdir: Path, tracer: Tracer | None) -> None:
        self.workdir = workdir
        self.tracer = tracer
        self.tracing = False  # True while a traced op or probe runs
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracing else contextlib.nullcontext()

    def run_cli(self, argv) -> subprocess.CompletedProcess:
        with self._span("cli.process"):
            return subprocess.run(
                [sys.executable, "-m", "qconc.cli", *argv], capture_output=True,
                text=True, env=self.env, cwd=self.workdir, timeout=CLI_TIMEOUT_S,
            )

    def python(self, code: str) -> float:
        """Wall time of a fresh interpreter running ``code``."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], capture_output=True, check=True,
                       env=self.env, cwd=self.workdir, timeout=CLI_TIMEOUT_S)
        return time.perf_counter() - start

    def import_probe(self) -> None:
        with self._span("cli.startup"):
            self.python("import qconc.cli")

    def cli_in_process(self, argv) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = qconc.cli.cli_main(list(argv))
        if self.tracing:
            self.tracer.count_cli(out.getvalue())
        return code, out.getvalue()


@contextlib.contextmanager
def traced(host: Host, op):
    """Spans on for the duration of the block, attributed to ``op``."""
    host.tracer.op = op
    host.tracing = True
    try:
        with host.tracer.patched():
            yield
    finally:
        host.tracing = False


def host_ref() -> list[float]:
    return [ref_loop(HOST_REF_ITERATIONS) for _ in range(HOST_REF_REPEATS)]


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it: (value, pct, beyond)."""
    ordered = sorted(values)
    n = len(ordered)
    beyond = min(10, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def median_of_kinds(values: list[float], kinds: list[str]) -> float:
    """Median over input kinds of each kind's median.

    With one kind this is the plain median.  tripartite_mixed has two cost
    clusters of equal weight (separable and entangled states), so its plain
    median falls in the gap between them and jumps from run to run; the
    median of the per-kind medians lies in the same gap but is stable.
    """
    by_kind: dict[str, list[float]] = {}
    for kind, value in zip(kinds, values):
        by_kind.setdefault(kind, []).append(value)
    return statistics.median(statistics.median(v) for v in by_kind.values())


def pin_cpu() -> int:
    """Hold this process and its children on one CPU.

    The host's speed drifts by tens of percent over seconds, and not equally
    on every CPU; on one CPU the reference loop and the op see the same
    speed, which is what the host-normalized metrics rely on.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "qconc").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "qconc": qconc.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "seed": seed,
    }


class Loop:
    """Closed loop over a workload's ops for ``seconds``, one op at a time.

    Plain runs are sandwiched between runs of the workload's reference; an
    op's host-normalized time is its wall time over the mean of the two.
    With a tracer, each op also runs traced (alternating which goes first),
    and the two outputs must be identical.
    """

    def __init__(self, workload, host: Host) -> None:
        self.workload = workload
        self.host = host
        self.tracer = host.tracer
        self.latencies: list[float] = []
        self.ratios: list[float] = []
        self.kinds: list[str] = []
        self.traced_latencies: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.ok = 0
        self.check_s = 0.0

    def checked(self, op, fn, *args):
        start = time.perf_counter()
        if self.tracer is None:
            result = fn(*args)
        else:
            self.tracer.op = op
            with self.tracer.span("oracle.check"):
                result = fn(*args)
        self.check_s += time.perf_counter() - start
        return result

    def attempt(self, item):
        start = time.perf_counter()
        try:
            out, error = self.workload.run(item), None
        except Exception:  # a crash of the program under test is a failed op
            out, error = None, traceback.format_exc(limit=3).strip().splitlines()[-1]
        return out, error, time.perf_counter() - start

    def run(self, seconds: float, part: int = 0, parts: int = 1) -> None:
        """Loop for ``seconds``, starting ``part``/``parts`` of the way into
        the workload's op order, so that workers cover different inputs."""
        workload, host, trace = self.workload, self.host, self.tracer is not None
        order = workload.order()
        first = part * len(order) // parts
        ref_prev = None if trace else workload.reference()
        start = time.perf_counter()
        for item in itertools.cycle(order[first:] + order[:first]):
            if self.attempted and time.perf_counter() - start >= seconds:
                break
            op = self.attempted
            self.attempted += 1
            if trace and op % 2:  # alternate which of the pair runs first
                with traced(host, op):
                    out_t, error_t, dt_t = self.attempt(item)
            out, error, dt = self.attempt(item)
            if trace and not op % 2:
                with traced(host, op):
                    out_t, error_t, dt_t = self.attempt(item)
            self.latencies.append(dt)
            if not trace:
                ref_next = workload.reference()
                self.ratios.append(2 * dt / (ref_prev + ref_next))
                self.kinds.append(workload.kind(item))
                ref_prev = ref_next
            reason = error or self.checked(op, workload.check, item, out)
            if trace and not reason:
                self.traced_latencies.append(dt_t)
                if error_t or out_t != out:
                    reason = f"traced output differs: {error_t or 'different value'}"
                else:
                    with traced(host, op):
                        reason = workload.traced_extra(item, out)
            if reason:
                self.failures.append(reason)
            else:
                self.ok += 1


def peak_rss_kb(name: str) -> int:
    """Peak RSS of the process doing the work: this one, or for cli_small
    the CLI processes it started."""
    who = resource.RUSAGE_CHILDREN if name == "cli_small" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def worker(name: str, seed: int, seconds: float, workdir: Path,
           part: int = 0, parts: int = 1) -> dict:
    """One fresh process's share of an untraced run: set up once, loop."""
    host = Host(workdir, None)
    workload = WORKLOADS[name](seed, host)
    workload.setup(full=False)
    loop = Loop(workload, host)
    loop.checked("setup", workload.expect)
    loop.run(seconds, part, parts)
    return {
        "digest": workload.digest, "latencies": loop.latencies, "ratios": loop.ratios,
        "kinds": loop.kinds,
        "failures": loop.failures, "attempted": loop.attempted, "ok": loop.ok,
        "check_s": loop.check_s, "peak_kb": peak_rss_kb(name),
    }


def run_workers(name: str, seed: int, seconds: float, workdir: Path, count: int) -> list[dict]:
    """Split the timed loop over ``count`` fresh processes, run one after another.

    A process's memory layout moves pure-Python speed by about 10%, the
    same for the whole life of the process; several processes per run
    average that out.
    """
    results = []
    for index in range(count):
        sub = workdir / f"worker{index}"
        sub.mkdir()
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", repr(seconds / count), "--worker", str(sub),
             "--part", str(index), "--parts", str(count)],
            capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker {index} failed:\n{proc.stderr}")
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    return results


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, dict]:
    """Run one workload; returns (result line, info line).

    Set-up runs SETUP_REPEATS times here.  Untraced, the timed loop runs in
    the workload's WORKERS fresh processes; traced, it runs here.
    """
    run_start = time.perf_counter()
    tracer = Tracer() if trace else None
    host = Host(workdir, tracer)
    workload = WORKLOADS[name](seed, host)
    ref_before = host_ref()

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with traced(host, "setup") if trace else contextlib.nullcontext():
            workload.setup()
        setup_times.append(time.perf_counter() - start)

    loop = Loop(workload, host)
    if trace:
        loop.checked("setup", workload.expect)
        loop.run(seconds)
        with traced(host, "probe"):
            reason = workload.cli_probe()
            for _ in range(STARTUP_PROBES):
                host.import_probe()
        loop.attempted += 1
        if reason:
            loop.failures.append(reason)
        peak_kb = peak_rss_kb(name)
    else:
        parts = run_workers(name, seed, seconds, workdir, workload.WORKERS)
        for part in parts:
            if part["digest"] != workload.digest:
                raise RuntimeError("a worker generated different inputs from the same seed")
            loop.latencies += part["latencies"]
            loop.ratios += part["ratios"]
            loop.kinds += part["kinds"]
            loop.failures += part["failures"]
            loop.attempted += part["attempted"]
            loop.ok += part["ok"]
            loop.check_s += part["check_s"]
        peak_kb = max(part["peak_kb"] for part in parts)
    ref_after = host_ref()

    latencies, ratios, failures = loop.latencies, loop.ratios, loop.failures
    failed = len(failures)
    p50 = statistics.median(latencies)
    tail_s, tail_pct, beyond = tail(latencies)
    wall = {
        "latency_p50_s": (p50, "s"),
        "latency_tail_s": (tail_s, "s"),
        "throughput_ops_per_s": (loop.ok / math.fsum(latencies), "ops/s"),
        "failed_share": (failed / loop.attempted, "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    if trace:
        metrics = tracer.metrics(time.perf_counter() - run_start)
        metrics["host.ref_s"] = statistics.median(ref_before + ref_after)
        metrics["trace.overhead_share"] = (
            (statistics.median(loop.traced_latencies) - p50) / p50
            if loop.traced_latencies else 0.0
        )
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{name}-seed{seed}.jsonl")
    else:
        metrics = {
            "latency_p50_ref": median_of_kinds(ratios, loop.kinds),
            "latency_tail_ref": tail(ratios)[0],
            "throughput_ops_per_kref": 1000 * loop.ok / math.fsum(ratios),
            "setup_s": wall["setup_s"][0],
            "peak_rss_mb": wall["peak_rss_mb"][0],
        }
    info = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(seed),
        "inputs_sha256": workload.digest,
        "wall_clock": {k: {"value": v, "unit": u} for k, (v, u) in wall.items()},
        "latency_tail": {"percentile": tail_pct, "samples": len(latencies), "beyond": beyond},
        "failures": failures[:5],
        "setup_runs_s": setup_times,
        "check_s": loop.check_s,
        "host_ref_s": {"before": statistics.median(ref_before),
                       "after": statistics.median(ref_after)},
    }
    result = {"correct": failed == 0, "attempted": loop.attempted, "failed": failed,
              "metrics": metrics}
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--part", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--parts", type=int, default=1, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker is not None:  # started by run_workers
        print(json.dumps(worker(args.workload, args.seed, args.seconds, args.worker,
                                args.part, args.parts)))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    cpu = pin_cpu()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result, info = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    values = result["metrics"]
    if set(values) != {m["name"] for m in declared}:
        fail(f"metrics {sorted(set(values) ^ {m['name'] for m in declared})} "
             "do not match BENCHMARK.json")
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in declared}
    info["env"]["pinned_cpu"] = cpu
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
