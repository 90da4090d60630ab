"""Span tracing for the traced run, installed from the benchmark's side.

``Tracer.installed()`` wraps the package's public callables where their
callers look them up (methods on their class, functions in the namespace
the caller imports them into) and restores the originals on exit; nothing
under ``src/`` changes.  Each wrapper records a span: name, start, end,
parent span and the id of the example it serves.  Spans stay in memory and
are written out once, at the end of the run.

A span's self time is its duration minus the time covered by its child
spans.  Work outside every wrapped callable (argument parsing, JSON, file
hashing in the CLI) stays in the self time of the enclosing ``cli.*`` span.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

from qrewrite import autodiff, cli, dataio, metrics, model, synthetic, training

# span name -> unit of its mean duration per call, reported as
# "<name>_<unit>", next to "<name>.calls", the calls per workload cycle
TIMED_SPANS = {
    "model.encode": "ms",
    "model.start_step": "ms",
    "model.decode_token": "ms",
    "model.greedy_decode": "ms",
    "model.seal": "ms",
    "model.teacher_forced": "ms",
    "autodiff.backward": "ms",
    "training.adamw": "ms",
    "training.clip": "ms",
    "training.weighted_loss": "ms",
    "docgraph.make_step_inputs": "ms",
    "docgraph.arrange": "ms",
    "synthetic.make_splits": "s",
    "dataio.read_records": "ms",
    "dataio.write_records": "ms",
    "dataio.save_checkpoint": "ms",
    "dataio.load_model": "ms",
    "metrics.corpus_eval": "ms",
    "cli.gen_data": "s",
    "cli.arrange": "s",
    "cli.train": "s",
    "cli.generate": "s",
    "cli.evaluate": "s",
}
HOPS = (1, 2, 3)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99), or 0 for no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def graph_nodes(loss) -> int:
    """Tensors that ``backward`` would visit from ``loss``: every node that
    requires a gradient and is reachable through parent links."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        node = stack.pop()
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, example id, phase]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.phase = "setup"
        self.nodes: dict[int, list[int]] = {h: [] for h in HOPS}
        self.greedy_steps = 0
        self.truncated_steps = 0
        self.update_intervals: list[float] = []
        self._last_update: float | None = None

    # -- spans ---------------------------------------------------------

    def open(self, name: str, example=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if example is None and parent >= 0:
            example = self.spans[parent][4]
        if name.startswith("cli."):
            self._last_update = None  # update intervals never span commands
        self.spans.append([name, time.perf_counter(), 0.0, parent, example, self.phase])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, example=None):
        idx = self.open(name, example)
        try:
            yield
        finally:
            self.close(idx)

    # -- wrappers ------------------------------------------------------

    def _wrap(self, owner, attr, name, example=None, after=None):
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            idx = tracer.open(label, example(args) if example else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        return owner, attr, fn

    def _after_greedy(self, args, kwargs, out) -> None:
        forced = kwargs.get("forced_tokens", args[4] if len(args) > 4 else None)
        if forced is None:
            self.greedy_steps += 1
            self.truncated_steps += bool(out.truncated)

    def _after_example_loss(self, args, kwargs, loss) -> None:
        if loss.requires_grad:
            with self.span("trace.graph_walk"):
                self.nodes[args[1].hops].append(graph_nodes(loss))

    def _after_update(self, args, kwargs, result) -> None:
        now = time.perf_counter()
        if self._last_update is not None:
            self.update_intervals.append(now - self._last_update)
        self._last_update = now

    @contextmanager
    def installed(self):
        rewriter = model.QuestionRewriter

        def by_example(args):
            return args[1].example_id

        patches = [
            self._wrap(rewriter, "encode", "model.encode"),
            self._wrap(rewriter, "start_step", "model.start_step"),
            self._wrap(rewriter, "decode_token", "model.decode_token"),
            self._wrap(rewriter, "greedy_decode_step", "model.greedy_decode",
                       after=self._after_greedy),
            self._wrap(rewriter, "seal_step", "model.seal"),
            self._wrap(rewriter, "teacher_forced_final", "model.teacher_forced"),
            self._wrap(rewriter, "rewrite_forward",
                       lambda args: f"model.rewrite_forward.hop{len(args[1])}"),
            self._wrap(autodiff.Tensor, "backward", "autodiff.backward"),
            self._wrap(training.AdamW, "step", "training.adamw",
                       after=self._after_update),
            self._wrap(training, "clip_grad_norm", "training.clip"),
            self._wrap(training, "weighted_loss", "training.weighted_loss"),
            self._wrap(training, "_example_loss", "training.example_loss",
                       example=by_example, after=self._after_example_loss),
            self._wrap(training, "predict", "training.predict", example=by_example),
            self._wrap(training, "make_step_inputs", "docgraph.make_step_inputs"),
            self._wrap(cli, "make_step_inputs", "docgraph.make_step_inputs"),
            self._wrap(dataio, "arrange", "docgraph.arrange"),
            self._wrap(synthetic, "make_splits", "synthetic.make_splits"),
            self._wrap(dataio, "read_records", "dataio.read_records"),
            self._wrap(dataio, "write_records", "dataio.write_records"),
            self._wrap(dataio, "save_checkpoint", "dataio.save_checkpoint"),
            self._wrap(dataio, "load_model", "dataio.load_model"),
            self._wrap(metrics, "corpus_eval", "metrics.corpus_eval"),
        ]
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(patches):
                setattr(owner, attr, fn)

    # -- reports -------------------------------------------------------

    def _durations(self) -> dict[str, dict[str, list[float]]]:
        """name -> phase -> span durations in seconds."""
        out: dict[str, dict[str, list[float]]] = {}
        for name, start, end, _, _, phase in self.spans:
            out.setdefault(name, {}).setdefault(phase, []).append(end - start)
        return out

    def layer_metrics(self, n_setups: int, n_ops: int, items_per_op: int) -> dict:
        """Per-layer metrics.  Timings are mean duration per call.  Call
        counts are per workload cycle: one set-up plus one timed operation
        (set-up calls / set-ups traced + operation calls / operations
        traced).  A layer a workload never calls reports 0."""
        durations = self._durations()
        per = {"setup": max(n_setups, 1), "run": max(n_ops, 1)}

        def calls(name: str) -> float:
            return sum(len(v) / per[phase] for phase, v in durations.get(name, {}).items())

        def all_durations(name: str) -> list[float]:
            return [d for v in durations.get(name, {}).values() for d in v]

        def mean(name: str, unit: str) -> float:
            ds = all_durations(name)
            return (1e3 if unit == "ms" else 1.0) * sum(ds) / len(ds) if ds else 0.0

        m: dict[str, tuple[float, str]] = {}
        for name, unit in TIMED_SPANS.items():
            m[f"{name}_{unit}"] = (mean(name, unit), unit)
            m[f"{name}.calls"] = (calls(name), "count")
        for hop in HOPS:
            name = f"model.rewrite_forward.hop{hop}"
            m[f"model.rewrite_forward_ms.hop{hop}"] = (mean(name, "ms"), "ms")
            m[f"{name}.calls"] = (calls(name), "count")
            nodes = self.nodes[hop]
            m[f"autodiff.graph_nodes.hop{hop}"] = (
                sum(nodes) / len(nodes) if nodes else 0.0, "count")
        positions = len(durations.get("model.decode_token", {}).get("run", []))
        m["model.decode_positions"] = (positions / max(n_ops * items_per_op, 1), "count")
        m["model.truncated_frac"] = (
            self.truncated_steps / self.greedy_steps if self.greedy_steps else 0.0, "frac")
        ms = [1e3 * d for d in self.update_intervals]
        m["training.update_ms_p50"] = (percentile(ms, 50), "ms")
        m["training.update_ms_p90"] = (percentile(ms, 90), "ms")
        predict = [1e3 * d for d in all_durations("training.predict")]
        m["training.predict_ms_p50"] = (percentile(predict, 50), "ms")
        m["training.predict_ms_p90"] = (percentile(predict, 90), "ms")
        m["training.predict.calls"] = (calls("training.predict"), "count")
        return m

    def self_times(self) -> dict[str, dict]:
        """Total and self time by span name, and self-time share by layer
        (the span name's first component)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_name: dict[str, list[float]] = {}
        for (name, start, end, _, _, _), c in zip(self.spans, child):
            row = by_name.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - c
        total_self = sum(r[2] for r in by_name.values()) or 1.0
        layers: dict[str, float] = {}
        for name, (_, _, self_s) in by_name.items():
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + self_s / total_self
        spans = [
            {"name": name, "calls": n, "total_ms": round(1e3 * tot, 3),
             "self_ms": round(1e3 * s, 3), "self_share": round(s / total_self, 4)}
            for name, (n, tot, s) in sorted(by_name.items(), key=lambda kv: -kv[1][2])
        ]
        return {"by_layer": {k: round(v, 4) for k, v in layers.items()},
                "by_span": spans}

    def write(self, path: Path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, example, phase) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": parent, "example": example,
                    "phase": phase, "start_ms": round(1e3 * (start - t0), 4),
                    "end_ms": round(1e3 * (end - t0), 4),
                }) + "\n")
