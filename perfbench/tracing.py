"""Span tracing for the traced benchmark run, installed from outside the library.

The traced run swaps the names each calling module looks up (for example
``protocols.apply_two_mode_squeezer``, ``protocols.project`` or
``states.PureState.__init__``) for wrappers that record one span per call.
Spans stay in memory as ``[name, start_ns, end_ns, parent, op_id]`` and are
written out when the run ends.  The library source is never edited, and the
timed run installs nothing: ``assert_uninstalled`` proves it before timing.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter_ns

SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "op_id")
OP_SPAN = "bench.op"
_MARK = "_perfbench_span"

# (metric name, unit, better); values are per completed op unless the unit
# says otherwise.  BENCHMARK.json's per_layer list must name exactly these.
LAYER_METRICS = (
    ("squeezers.apply_two_mode_squeezer.calls", "count/op", "lower"),
    ("squeezers.apply_two_mode_squeezer.self_ms", "ms/op", "lower"),
    ("squeezers.terms_in", "count/op", "lower"),
    ("squeezers.terms_out", "count/op", "lower"),
    ("squeezers.ns_per_term_out", "ns", "lower"),
    ("squeezers.apply_type2_pdc.calls", "count/op", "lower"),
    ("heralding.project.self_ms", "ms/op", "lower"),
    ("heralding.project.terms_scanned", "count/op", "lower"),
    ("heralding.project.kept_ratio", "ratio", "higher"),
    ("heralding.outcome_distribution.self_ms", "ms/op", "lower"),
    ("heralding.outcome_distribution.patterns", "count/op", "lower"),
    ("states.PureState.constructed", "count/op", "lower"),
    ("states.PureState.terms_validated", "count/op", "lower"),
    ("states.PureState.self_ms", "ms/op", "lower"),
    ("states.superpose.self_ms", "ms/op", "lower"),
    ("states.make_basis_state.calls", "count/op", "lower"),
    ("protocols.run.self_ms", "ms/op", "lower"),
    ("protocols.runs_per_op", "count/op", "lower"),
    ("protocols.ProtocolResult.to_json.self_ms", "ms/op", "lower"),
    ("protocols.response_bytes", "bytes/op", "lower"),
    ("protocols.sweep.self_ms", "ms/op", "lower"),
    ("cli.main.self_ms", "ms/op", "lower"),
    ("cli.stdout_bytes", "bytes/op", "lower"),
    ("bench.op.self_ms", "ms/op", "lower"),
    ("trace.accounted_share", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "higher"),
)


def _count_squeezer(counts, args, kwargs, result):
    counts["squeezers.terms_in"] += len(args[0].terms)
    counts["squeezers.terms_out"] += len(result.terms)


def _count_project(counts, args, kwargs, result):
    counts["heralding.project.terms_scanned"] += len(args[0].terms)
    counts["heralding.project.terms_kept"] += len(result.conditional_state.terms)


def _count_patterns(counts, args, kwargs, result):
    counts["heralding.outcome_distribution.patterns"] += len(result)


def _count_state(counts, args, kwargs, result):
    counts["states.PureState.terms_validated"] += len(args[2])  # (self, modes, terms, ...)


def _count_response(counts, args, kwargs, result):
    counts["protocols.response_bytes"] += len(result)


def _patch_points(lib):
    """(owner, attribute, span name, counter) for every traced boundary.

    ``squeezers.apply_two_mode_squeezer`` is patched as well as the name in
    ``protocols`` because ``apply_type2_pdc`` looks it up in its own module.
    """
    p, sq, st, cli = lib.protocols, lib.squeezers, lib.states, lib.cli
    return [
        (p, "apply_two_mode_squeezer", "squeezers.apply_two_mode_squeezer", _count_squeezer),
        (sq, "apply_two_mode_squeezer", "squeezers.apply_two_mode_squeezer", _count_squeezer),
        (p, "apply_type2_pdc", "squeezers.apply_type2_pdc", None),
        (p, "project", "heralding.project", _count_project),
        (p, "outcome_distribution", "heralding.outcome_distribution", _count_patterns),
        (p, "superpose", "states.superpose", None),
        (p, "make_basis_state", "states.make_basis_state", None),
        (st.PureState, "__init__", "states.PureState", _count_state),
        (p.ProtocolResult, "to_json", "protocols.ProtocolResult.to_json", _count_response),
        (p, "run_nls", "protocols.run", None),
        (p, "run_qubit_teleport", "protocols.run", None),
        (p, "run_qutrit_teleport", "protocols.run", None),
        (p, "sweep", "protocols.sweep", None),
        (cli, "main", "cli.main", None),
    ]


def assert_uninstalled(lib) -> None:
    """Raise if any traced boundary still holds a tracing wrapper."""
    for owner, attr, _, _ in _patch_points(lib):
        if hasattr(getattr(owner, attr, None), _MARK):
            raise RuntimeError(f"tracing wrapper left on {attr}")
    for runner, *_ in getattr(lib.protocols, "_RUNNERS", {}).values():
        if hasattr(runner, _MARK):
            raise RuntimeError("tracing wrapper left in protocols._RUNNERS")


class Tracer:
    """In-memory span recorder; ``install``/``uninstall`` patch the library."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name, fn, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, tracer.op_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        setattr(wrapper, _MARK, name)
        return wrapper

    def run_op(self, op_id, fn, arg):
        """Run one benchmark op under a root span that groups its spans."""
        self.op_id = op_id
        return self.wrap(OP_SPAN, fn)(arg)

    def install(self, lib) -> None:
        for owner, attr, name, count in _patch_points(lib):
            original = getattr(owner, attr, None)
            if original is None:
                print(f"trace: {attr} not found, layer not traced", file=sys.stderr)
                continue
            own = attr in vars(owner)
            setattr(owner, attr, self.wrap(name, original, count))
            self._undo.append((owner, attr, original, own))
        runners = getattr(lib.protocols, "_RUNNERS", None)
        if runners is not None:
            saved = dict(runners)
            for key, (runner, *rest) in saved.items():
                runners[key] = (self.wrap("protocols.run", runner), *rest)
            self._undo.append((runners, None, saved, True))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if attr is None:
                owner.update(original)
            elif own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "fields": SPAN_FIELDS}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-op layer metrics derived from the recorded spans and counts.

        A span's self time is its duration minus the durations of its child
        spans; spans nest strictly because the benchmark is single-threaded.
        """
        calls: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        op_ns = 0
        for (name, start, end, _, _), inner in zip(self.spans, child_ns):
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + (end - start - inner)
            if name == OP_SPAN:
                op_ns += end - start
        c = self.counts
        n = max(ops, 1)

        def per_op_ms(name):
            return self_ns.get(name, 0) / n / 1e6

        layer_ns = sum(v for k, v in self_ns.items() if k != OP_SPAN)
        sq = "squeezers.apply_two_mode_squeezer"
        return {
            f"{sq}.calls": calls.get(sq, 0) / n,
            f"{sq}.self_ms": per_op_ms(sq),
            "squeezers.terms_in": c["squeezers.terms_in"] / n,
            "squeezers.terms_out": c["squeezers.terms_out"] / n,
            "squeezers.ns_per_term_out": self_ns.get(sq, 0) / max(c["squeezers.terms_out"], 1),
            "squeezers.apply_type2_pdc.calls": calls.get("squeezers.apply_type2_pdc", 0) / n,
            "heralding.project.self_ms": per_op_ms("heralding.project"),
            "heralding.project.terms_scanned": c["heralding.project.terms_scanned"] / n,
            "heralding.project.kept_ratio": c["heralding.project.terms_kept"]
            / max(c["heralding.project.terms_scanned"], 1),
            "heralding.outcome_distribution.self_ms": per_op_ms("heralding.outcome_distribution"),
            "heralding.outcome_distribution.patterns":
                c["heralding.outcome_distribution.patterns"] / n,
            "states.PureState.constructed": calls.get("states.PureState", 0) / n,
            "states.PureState.terms_validated": c["states.PureState.terms_validated"] / n,
            "states.PureState.self_ms": per_op_ms("states.PureState"),
            "states.superpose.self_ms": per_op_ms("states.superpose"),
            "states.make_basis_state.calls": calls.get("states.make_basis_state", 0) / n,
            "protocols.run.self_ms": per_op_ms("protocols.run"),
            "protocols.runs_per_op": calls.get("protocols.run", 0) / n,
            "protocols.ProtocolResult.to_json.self_ms": per_op_ms("protocols.ProtocolResult.to_json"),
            "protocols.response_bytes": c["protocols.response_bytes"] / n,
            "protocols.sweep.self_ms": per_op_ms("protocols.sweep"),
            "cli.main.self_ms": per_op_ms("cli.main"),
            "cli.stdout_bytes": c["cli.stdout_bytes"] / n,
            "bench.op.self_ms": per_op_ms(OP_SPAN),
            "trace.accounted_share": layer_ns / max(op_ns, 1),
        }
