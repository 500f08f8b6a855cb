"""Spans around calls into surgenet's layers, recorded from outside the package.

The tracer replaces module attributes that callers look up at call time
(``training.forward_batch``, ``network.ACTIVATIONS["tanh"]``, ...) with
wrappers that time each call. Spans are kept in memory and aggregated once
the run is over. Each thread keeps its own span stack, because the sharded
training step runs ``_batch_backprop`` on pool threads; a span's self time is
its duration minus the time of the spans it directly encloses on its thread.

Every span carries the benchmark stage (``train``, ``generate``, ``load``,
``evaluate``, ``predict``, ...) that was current when it started, so the same
function can be attributed to the end-to-end metric it contributes to.
"""

import contextlib
import functools
import threading
from collections import defaultdict
from time import perf_counter

from surgenet import cli, dataset, evaluation, network, numerics, training

# (module or dict, attribute or key, span name). The same function reached
# through several bindings shares one span name.
_TARGETS = (
    (training, "forward_batch", "network.forward_batch"),
    (evaluation, "forward_batch", "network.forward_batch"),
    (cli, "forward_batch", "network.forward_batch"),
    (network.ACTIVATIONS, "tanh", "numerics.tanh_act"),
    (training, "_batch_backprop", "training.backprop"),
    (training, "adam_step", "training.adam_step"),
    (training, "_parallel_loss_grads", "training.loss_grads"),
    (training, "_weighted_mean_grads", "training.reduce"),
    (training, "_dataset_mse", "training.validation"),
    (training, "train", "training.train"),
    (numerics.Rng, "choice_without_replacement", "numerics.Rng.choice"),
    (dataset, "generate_track", "dataset.generate_track"),
    (dataset, "save_track_csv", "dataset.save_track_csv"),
    (dataset, "load_track_csv", "dataset.load_track_csv"),
    (dataset, "validate_track", "dataset.validate_track"),
    (dataset, "read_input_series", "dataset.read_input_series"),
    (dataset, "interpolate_to_grid", "dataset.interpolate_to_grid"),
    (evaluation, "predict_track", "evaluation.predict_track"),
    (evaluation, "fit_kde", "evaluation.fit_kde"),
    (evaluation, "prob_within", "evaluation.prob_within"),
    (evaluation, "quantile_interval", "evaluation.quantile_interval"),
    (evaluation, "emit_report", "evaluation.emit_report"),
    (cli, "load_checkpoint", "network.load_checkpoint"),
)


class Span:
    __slots__ = ("stage", "name", "thread", "start", "end", "child", "tag")

    def __init__(self, stage, name, thread, start, tag):
        self.stage = stage
        self.name = name
        self.thread = thread
        self.start = start
        self.end = start
        self.child = 0.0  # seconds covered by directly enclosed spans on this thread
        self.tag = tag

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    """Collects spans; stage is set by the benchmark's main thread only."""

    def __init__(self):
        self.stage = None
        self.spans = []
        self.main_thread = threading.get_ident()
        self._local = threading.local()
        self._undo = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name, tag=None):
        """A span opened by the benchmark itself."""
        span = self._open(name, tag)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name, tag) -> Span:
        span = Span(self.stage, name, threading.get_ident(), perf_counter(), tag)
        self._stack().append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child += span.duration
        self.spans.append(span)  # list.append is atomic under the GIL

    def wrap(self, name, fn, tag=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, tag(*args, **kwargs) if tag else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)

        return traced

    def install(self) -> None:
        """Replace every target binding with a traced wrapper."""
        for owner, attr, name in _TARGETS:
            original = owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]
            tag = _shard_count if attr == "_parallel_loss_grads" else None
            _bind(owner, attr, self.wrap(name, original, tag))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            _bind(owner, attr, original)
        self._undo.clear()

    def totals(self) -> dict:
        """(stage, name) -> [calls, total seconds, self seconds]."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for s in self.spans:
            slot = out[(s.stage, s.name)]
            slot[0] += 1
            slot[1] += s.duration
            slot[2] += s.self_time
        return out


def _bind(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def _shard_count(net, x, t, workers, executor=None) -> int:
    # The number of shards _parallel_loss_grads will use for this call.
    n = len(x)
    return min(workers, n) if workers > 1 and n > 1 else 1

