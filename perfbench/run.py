"""Closed-loop benchmark of the fockherald library.

Run from the repository root:

    python3 perfbench/run.py --workload nls_gate --seed 1 --seconds 30 --trace 0

One client, one process, no threads: the next request is sent only after
the previous one returned.  The library is imported from ``src/``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit, the sample count, error rate, input digest and
environment.

``--trace 0`` times the workload with nothing installed and reports the
end-to-end metrics.  Their times are scaled to a fixed reference speed (see
``reference.py``) so that the load of neighbours on a shared host cancels;
the raw wall-clock values are printed on the lines before the result.  ``--trace 1`` measures half the time untraced and half
with span wrappers installed, and reports the per-layer metrics; the spans
are written to ``.perfbench_out/trace-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracing
from reference import REF_NOMINAL_S, time_reference
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WARMUP_OPS = 2
SETUP_SAMPLES = 7
THROUGHPUT_CHUNKS = 10
STREAM_DIGEST_INPUTS = 64


def load_library() -> SimpleNamespace:
    if not (SRC / "fockherald" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fockherald package under {SRC}")
    # the CLI honours this variable; the workloads fix the cutoff themselves
    os.environ.pop("FOCKHERALD_CUTOFF", None)
    sys.path.insert(0, str(SRC))
    mods = {n: importlib.import_module(f"fockherald.{n}")
            for n in ("states", "squeezers", "heralding", "protocols", "cli")}
    return SimpleNamespace(**mods)


def prepare(lib, workload: str, seed: int):
    """Everything between the import and the first timed op."""
    warm = WORKLOADS[workload](lib, seed, stream=":warmup")
    for _ in range(WARMUP_OPS):
        inp = warm.next_input()
        warm.check(inp, warm.op(inp))
    return WORKLOADS[workload](lib, seed)


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from process start to ready-for-first-op, in fresh processes.

    Returns raw samples and samples scaled by the reference kernel timed
    right before and after each probe.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        ref_before = time_reference()
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"perfbench: setup probe failed ({proc.returncode})")
        ref = 0.5 * (ref_before + time_reference())
        raw.append(t1 - t0)
        scaled.append((t1 - t0) * REF_NOMINAL_S / ref)
    return raw, scaled


class InputLog:
    """Digest of every input the timed ops consumed, in order."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.count = 0

    def add(self, inp) -> None:
        self.sha.update(repr(inp).encode())
        self.count += 1


def stream_digest(lib, workload: str, seed: int) -> str:
    """Digest of the first inputs of the seed's stream, whatever the run length."""
    gen = WORKLOADS[workload](lib, seed)
    sha = hashlib.sha256()
    for _ in range(STREAM_DIGEST_INPUTS):
        sha.update(repr(gen.next_input()).encode())
    return sha.hexdigest()


class Samples:
    """Per-op wall times, raw and scaled to the reference speed."""

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.refs: list[float] = []
        self.attempted = 0
        self.failed = 0


def measure(wl, seconds: float, log: InputLog, tracer=None) -> Samples:
    """Closed loop for ``seconds``; the reference kernel brackets every op."""
    s = Samples()
    ref_before = time_reference()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        inp = wl.next_input()
        log.add(inp)
        s.attempted += 1
        ok = False
        try:
            t0 = perf_counter()
            if tracer is None:
                response = wl.op(inp)
            else:
                response = tracer.run_op(s.attempted, wl.op, inp)
            t1 = perf_counter()
            wl.check(inp, response)
            ok = True
        except Exception:  # a failed op is counted, and the run goes on
            s.failed += 1
            if s.failed <= 3:
                print(f"op {s.attempted} failed on input {inp!r}:", file=sys.stderr)
                traceback.print_exc()
        ref_after = time_reference()
        if ok:
            if tracer is not None:
                wl.count_response(response, tracer.counts)
            ref = 0.5 * (ref_before + ref_after)
            s.raw.append(t1 - t0)
            s.scaled.append((t1 - t0) * REF_NOMINAL_S / ref)
            s.refs.append(ref)
        ref_before = ref_after
    return s


def throughput(lat: list[float]) -> float:
    """Median over consecutive chunks of ops completed per second of op time."""
    chunks = min(THROUGHPUT_CHUNKS, len(lat))
    if chunks == 0:
        return 0.0
    size = len(lat) / chunks
    rates = []
    for i in range(chunks):
        part = lat[round(i * size):round((i + 1) * size)]
        rates.append(len(part) / sum(part))
    return statistics.median(rates)


def timing_metrics(lat: list[float], setup: list[float]) -> tuple[dict, int]:
    """Throughput, p50, p90 and set-up time; also the count of ops beyond p90."""
    ms = sorted(x * 1e3 for x in lat)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
    return {
        "throughput_ops_s": (throughput(lat), "ops/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (p90, "ms"),
        "setup_s": (statistics.median(setup), "s"),
    }, sum(1 for x in ms if x > p90)


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "nproc": os.cpu_count(), "cpu": cpu,
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: set up, print 'ready' and exit")
    args = ap.parse_args(argv)

    lib = load_library()
    if args.setup_probe:
        prepare(lib, args.workload, args.seed)
        print("ready", flush=True)
        return 0

    setup_raw, setup = measure_setup(args.workload, args.seed)
    wl = prepare(lib, args.workload, args.seed)
    log = InputLog()
    tracing.assert_uninstalled(lib)
    untraced = measure(wl, args.seconds / 2 if args.trace else args.seconds, log)
    attempted, failed = untraced.attempted, untraced.failed

    metrics = {}
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(lib)
        try:
            traced = measure(wl, args.seconds / 2, log, tracer)
        finally:
            tracer.uninstall()
        tracing.assert_uninstalled(lib)
        attempted, failed = attempted + traced.attempted, failed + traced.failed
        layer = tracer.layer_metrics(len(traced.raw))
        base = throughput(untraced.scaled)
        layer["trace.overhead_ratio"] = throughput(traced.scaled) / base if base else 0.0
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        metrics = {k: (layer[k], units[k]) for k in units}
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}.jsonl"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                  "ops": len(traced.raw)})
        traced_ms = statistics.fmean(traced.raw) * 1e3 if traced.raw else 0.0
        untraced_ms = statistics.fmean(untraced.raw) * 1e3 if untraced.raw else 0.0
        self_ms = sum(layer[k] for k in units if k.endswith(".self_ms"))
        print(f"spans {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
        print(f"accounting: summed self times {self_ms:.3f} ms/op; mean op "
              f"{traced_ms:.3f} ms traced, {untraced_ms:.3f} ms untraced (raw); "
              f"traced/untraced throughput at reference speed "
              f"{layer['trace.overhead_ratio']:.4f}")

    if untraced.raw:
        e2e, tail = timing_metrics(untraced.scaled, setup)
        raw, _ = timing_metrics(untraced.raw, setup_raw)
    else:
        e2e, raw, tail = {}, {}, 0
    e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    if not args.trace:
        metrics = e2e

    print("env " + json.dumps(environment(args.workload, args.seed, args.seconds, args.trace)))
    print(f"inputs count={log.count} sha256={log.sha.hexdigest()} "
          f"stream_sha256={stream_digest(lib, args.workload, args.seed)}")
    print(f"samples {len(untraced.raw)} timed ops (untraced), {tail} beyond p90; "
          f"setup samples {len(setup)}")
    if untraced.refs:
        print(f"reference kernel median {statistics.median(untraced.refs) * 1e3:.4f} ms "
              f"(nominal {REF_NOMINAL_S * 1e3:g} ms); raw wall-clock values:")
    for name, (value, unit) in raw.items():
        print(f"raw {name} = {value!r} {unit}")
    for name, (value, unit) in e2e.items():
        print(f"metric {name} = {value!r} {unit}")
    print(f"metric error_rate = {failed / max(attempted, 1)!r} ratio "
          f"({failed} failed of {attempted} attempted)")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"layer {name} = {value!r} {unit}")

    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
