"""Span tracing of camloc from outside the program, and the per-layer metrics.

No program file changes. While installed, the tracer replaces the public
functions of each ``camloc`` module with timing wrappers. It patches the name
in every module that holds it: ``model`` does ``from .tensor import conv2d``,
so patching ``tensor.conv2d`` alone would miss the model's calls. Each
wrapper calls the original function, so a call is recorded once even when
the name is patched in several modules. Tensor ops also wrap the backward
closure of the tensor they return, so the backward pass is timed per op.

Spans ``(name, start, end, parent)`` stay in memory; ``parent`` is the index
of the enclosing span or -1. A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import os
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

from camloc import cli, data, fusion, imageio, metrics, model, tensor

ELEMENTWISE = ("relu", "global_avg_pool", "broadcast_mul_channels", "softmax_cross_entropy", "add")
CONV_LAYERS = {(3, 16, 3): "b0", (16, 32, 3): "b1", (32, 64, 3): "b2", (64, 64, 3): "head"}
CLI_COMMANDS = ("gen_data", "train", "eval", "visualize")

# kinds of wrapped function
CALL, OP, WRITE, READ = "call", "op", "write", "read"


def _conv_name(args, kwargs) -> str:
    cout, cin, kh, _ = args[1].shape
    layer = "score" if kh == 1 else CONV_LAYERS.get((cin, cout, kh), "other")
    return f"tensor.conv2d.{layer}"


def _fusion_name(args, kwargs) -> str:
    config = args[3] if len(args) > 3 else kwargs["config"]
    single = args[4] if len(args) > 4 else kwargs.get("single_branch", False)
    return "fusion.localization_map." + ("single" if single else config.strategy)


# (attribute, span name or a function of the call's arguments, kind, modules
# holding the name). Ops get ".fwd" and ".bwd" appended to their span names.
SPECS = [
    ("conv2d", _conv_name, OP, (tensor, model)),
    ("maxpool2d", "tensor.maxpool2d", OP, (tensor, model)),
    ("bilinear_upsample", "tensor.bilinear_upsample", OP, (tensor, metrics, cli)),
    *[(op, f"tensor.{op}", OP, (tensor, model)) for op in ELEMENTWISE],
    ("backward", "tensor.backward", CALL, (tensor, model)),
    ("sgd_step", "tensor.sgd_step", CALL, (tensor, model)),
    ("forward", "model.forward", CALL, (model, metrics, cli)),
    ("train", "model.train", CALL, (model, cli)),
    ("save_checkpoint", "model.save_checkpoint", WRITE, (model, cli)),
    ("load_checkpoint", "model.load_checkpoint", READ, (model, cli)),
    # the guidance map inside model.forward: class map, normalize, complement or erase
    *[(fn, "cam.guidance", CALL, (model,)) for fn in ("class_map", "normalize_minmax", "complement", "threshold_erase")],
    ("localization_map", _fusion_name, CALL, (fusion, cli)),
    ("activity_map", "fusion.activity_map", CALL, (fusion,)),
    ("evaluate", "metrics.evaluate", CALL, (metrics, cli)),
    ("extract_bbox", "metrics.extract_bbox", CALL, (metrics, cli)),
    ("generate_dataset", "data.generate_dataset", CALL, (data, cli)),
    ("write_annotations", "data.write_annotations", CALL, (data, cli)),
    ("read_annotations", "data.read_annotations", CALL, (data, cli)),
    ("write_ppm", "imageio.write_ppm", WRITE, (imageio, cli)),
    ("write_pgm", "imageio.write_pgm", WRITE, (imageio, cli)),
    ("read_ppm", "imageio.read_ppm", READ, (imageio, cli)),
    ("main", "cli.main", CALL, (cli,)),
    *[(f"cmd_{c}", f"cli.{c}", CALL, (cli,)) for c in CLI_COMMANDS],
]


class Trace:
    """Spans and file byte counts recorded over one stretch of a run."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.bytes: dict[str, int] = defaultdict(int)


class Tracer:
    def __init__(self):
        self.trace = Trace()
        self._stack: list[int] = []
        self._patches = []
        for attr, name, kind, modules in SPECS:
            original = getattr(modules[0], attr)
            wrapped = self._wrap(name, original, kind)
            for module in modules:
                if getattr(module, attr) is not original:
                    raise RuntimeError(f"{module.__name__}.{attr} is not {modules[0].__name__}.{attr}")
                self._patches.append((module, attr, original, wrapped))

    @contextmanager
    def installed(self):
        """Patch the wrappers in for the duration of the block."""
        for module, attr, _, wrapped in self._patches:
            setattr(module, attr, wrapped)
        try:
            yield self
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)

    def take(self) -> Trace:
        """Return what was recorded so far and start a new trace."""
        if self._stack:
            raise RuntimeError("cannot take a trace while spans are open")
        done, self.trace = self.trace, Trace()
        return done

    def _wrap(self, name, fn, kind):
        tracer = self
        suffix = ".fwd" if kind == OP else ""

        def traced(*args, **kwargs):
            label = (name if isinstance(name, str) else name(args, kwargs)) + suffix
            trace, stack = tracer.trace, tracer._stack
            index = len(trace.spans)
            trace.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                trace.spans[index] = (label, start, perf_counter(), parent)
                stack.pop()
            if kind == OP and out._backward_fn is not None:
                out._backward_fn = tracer._wrap(label[: -len(suffix)] + ".bwd", out._backward_fn, CALL)
            elif kind == WRITE:
                trace.bytes[label] += os.path.getsize(args[1])
            elif kind == READ:
                trace.bytes[label] += os.path.getsize(args[0])
            return out

        return traced


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0  # seconds, children included
    self: float = 0.0  # seconds, children excluded
    children: int = 0


def span_stats(trace: Trace) -> dict[str, Stat]:
    spans = trace.spans
    child_time = [0.0] * len(spans)
    stats: dict[str, Stat] = defaultdict(Stat)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
            stats[spans[parent][0]].children += 1
    for (name, start, end, _), inner in zip(spans, child_time):
        stat = stats[name]
        stat.calls += 1
        stat.total += end - start
        stat.self += end - start - inner
    return stats


def activity_useful_frac(trace: Trace) -> float:
    """Activity maps needed over activity maps computed.

    A forward pass needs two activity maps (one per branch) when its sample
    is fused with l1norm; ``fuse_l1norm`` computes both again for every
    candidate class.
    """
    computed = needed = pending = 0
    for name, *_ in trace.spans + [("model.forward",)]:
        if name == "model.forward":
            needed += 2 if pending else 0
            pending = 0
        elif name == "fusion.activity_map":
            computed += 1
            pending += 1
    return needed / computed if computed else 0.0


def layer_metrics(setup: Trace, ops: Trace, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced rounds (``ops``) of a run.

    ``*_ms`` with a ``fwd``/``bwd``/``self`` part is self time per forward
    pass of the model (one sample through ``model.forward``); a plain
    ``.ms`` is wall time per call; ``.calls`` counts per forward pass; byte
    counts and ``cli.*`` times are per round. ``data.*`` also counts the
    set-up, where the library workloads generate their data.
    """
    s = span_stats(ops)
    everything = span_stats(setup)
    for name, stat in s.items():
        e = everything[name]
        e.calls += stat.calls
        e.total += stat.total
    passes = max(s["model.forward"].calls, 1)
    rounds = max(rounds, 1)

    def per_sample(*names):
        return sum(s[n].self for n in names) / passes * 1e3

    def per_call(name, stats=s):
        stat = stats[name]
        return stat.total / stat.calls * 1e3 if stat.calls else 0.0

    out: dict[str, tuple[float, str]] = {}
    for layer in ("b0", "b1", "b2", "head", "score"):
        for phase in ("fwd", "bwd"):
            out[f"tensor.conv2d.{layer}.{phase}_ms"] = (per_sample(f"tensor.conv2d.{layer}.{phase}"), "ms/sample")
    for phase in ("fwd", "bwd"):
        out[f"tensor.maxpool2d.{phase}_ms"] = (per_sample(f"tensor.maxpool2d.{phase}"), "ms/sample")
    out["tensor.bilinear_upsample.fwd_ms"] = (per_sample("tensor.bilinear_upsample.fwd"), "ms/sample")
    for phase in ("fwd", "bwd"):
        out[f"tensor.elementwise.{phase}_ms"] = (
            per_sample(*(f"tensor.{op}.{phase}" for op in ELEMENTWISE)),
            "ms/sample",
        )
    backward = s["tensor.backward"]
    out["tensor.backward.self_ms"] = (per_sample("tensor.backward"), "ms/sample")
    out["tensor.backward.nodes"] = (backward.children / backward.calls if backward.calls else 0.0, "count/call")
    out["tensor.sgd_step.ms"] = (per_call("tensor.sgd_step"), "ms/step")

    out["model.forward.self_ms"] = (per_sample("model.forward"), "ms/sample")
    out["model.train.self_ms"] = (per_sample("model.train"), "ms/sample")
    out["model.save_checkpoint.ms"] = (per_call("model.save_checkpoint"), "ms/call")
    out["model.load_checkpoint.ms"] = (per_call("model.load_checkpoint"), "ms/call")
    saves = s["model.save_checkpoint"].calls
    out["model.checkpoint.bytes"] = (ops.bytes["model.save_checkpoint"] / saves if saves else 0.0, "bytes")

    out["cam.guidance.ms"] = (per_sample("cam.guidance"), "ms/sample")

    strategies = ("single", "max", "addition", "l1norm")
    for strategy in strategies:
        out[f"fusion.localization_map.{strategy}.ms"] = (per_call(f"fusion.localization_map.{strategy}"), "ms/call")
    fused = sum(s[f"fusion.localization_map.{x}"].calls for x in strategies)
    out["fusion.localization_map.calls"] = (fused / passes, "count/sample")
    out["fusion.activity_map.calls"] = (s["fusion.activity_map"].calls / passes, "count/sample")
    out["fusion.activity_map.useful_frac"] = (activity_useful_frac(ops), "ratio")

    out["metrics.extract_bbox.ms"] = (per_call("metrics.extract_bbox"), "ms/call")
    out["metrics.extract_bbox.calls"] = (s["metrics.extract_bbox"].calls / passes, "count/sample")
    out["metrics.evaluate.self_ms"] = (per_sample("metrics.evaluate"), "ms/sample")

    for fn in ("generate_dataset", "write_annotations", "read_annotations"):
        out[f"data.{fn}.ms"] = (per_call(f"data.{fn}", everything), "ms/call")

    for fn in ("write_ppm", "read_ppm", "write_pgm"):
        out[f"imageio.{fn}.ms"] = (per_call(f"imageio.{fn}"), "ms/call")
    written = ops.bytes["imageio.write_ppm"] + ops.bytes["imageio.write_pgm"]
    out["imageio.bytes_written"] = (written / rounds, "bytes/round")
    out["imageio.bytes_read"] = (ops.bytes["imageio.read_ppm"] / rounds, "bytes/round")

    for command in CLI_COMMANDS:
        out[f"cli.{command}_s"] = (s[f"cli.{command}"].total / rounds, "s/round")
    cli_self = sum(s[n].self for n in ("cli.main", *(f"cli.{c}" for c in CLI_COMMANDS)))
    out["cli.self_ms"] = (cli_self / rounds * 1e3, "ms/round")
    return out


def write_spans(trace: Trace, path) -> None:
    """Write spans as CSV: name, start and end in microseconds from the
    first span, parent index."""
    origin = trace.spans[0][1] if trace.spans else 0.0
    with open(path, "w", encoding="ascii") as handle:
        handle.write("name,start_us,end_us,parent\n")
        for name, start, end, parent in trace.spans:
            handle.write(f"{name},{(start - origin) * 1e6:.1f},{(end - origin) * 1e6:.1f},{parent}\n")
