"""Spans and counters recorded around calls into telegraph_kit, from outside it.

``instrumented`` swaps public functions for timing wrappers in the module
namespaces where their callers look them up (``cli`` calls ``excursions.
sample_hitting``, ``analysis`` calls its own imported ``simulate_reflected``,
and so on) and puts the originals back on exit.  A span records name,
start, end, parent span, thread id, thread CPU time and an item count.
Spans stay in memory until the benchmark ends.  The wrappers never touch a
generator, so traced and untraced runs consume the same random draws.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from collections import Counter
from typing import NamedTuple


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    cpu: float
    items: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class _ThreadLog:
    __slots__ = ("thread", "stack", "spans", "counts")

    def __init__(self, thread: int):
        self.thread = thread
        self.stack: list[int] = []
        self.spans: list[Span] = []
        self.counts: Counter = Counter()


class Tracer:
    """Per-thread span and counter logs, merged only when read."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog(threading.get_ident())
            with self._lock:
                self._logs.append(log)
        return log

    def current(self) -> int | None:
        stack = self._log().stack
        return stack[-1] if stack else None

    def call(self, name, fn, args=(), kwargs=None, items=None, parent=None):
        """Run fn(*args, **kwargs) inside a span; ``items(args, kwargs, result)`` counts work."""
        log = self._log()
        stack = log.stack
        sid = next(self._ids)
        if stack:
            parent = stack[-1]
        stack.append(sid)
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            t1 = time.perf_counter()
            c1 = time.thread_time()
            stack.pop()
        count = 1 if items is None else int(items(args, kwargs or {}, result))
        log.spans.append(Span(sid, name, t0, t1, parent, log.thread, c1 - c0, count))
        return result

    def count(self, key: str, k: int = 1) -> None:
        self._log().counts[key] += k

    def spans(self) -> list[Span]:
        with self._lock:
            logs = list(self._logs)
        return sorted((s for log in logs for s in log.spans), key=lambda s: s.start)

    def counts(self) -> Counter:
        with self._lock:
            logs = list(self._logs)
        total: Counter = Counter()
        for log in logs:
            total.update(log.counts)
        return total

    def wrap(self, name, fn, items=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, items)

        return traced


def _arg(pos: int, key: str):
    """Item count taken from one argument of the wrapped call."""
    return lambda args, kwargs, result: kwargs[key] if key in kwargs else args[pos]


def _knots(args, kwargs, result) -> int:
    return len(result.knot_times)


def _queries(args, kwargs, result) -> int:
    ts = kwargs["ts"] if "ts" in kwargs else args[1]  # args[0] is the path
    return len(ts)


WRITERS = (
    "paths.write_path_csv",
    "excursions.write_excursions_csv",
    "coupling.write_coupling_batch_csv",
    "analysis.write_tv_curve_csv",
)
MODEL_FUNCTIONS = (
    "critical_rate",
    "excursion_mgf",
    "hitting_exponent",
    "mean_excursion_length",
    "hitting_mgf",
    "invariant_density",
    "invariant_mgf",
    "bound_constants",
    "tv_bound",
)


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore the originals."""
    from telegraph_kit import analysis, cli, coupling, excursions, model, paths, simulate

    modules = {
        "analysis": analysis,
        "cli": cli,
        "coupling": coupling,
        "excursions": excursions,
        "model": model,
        "paths": paths,
        "simulate": simulate,
    }
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def trace(name, lookups, items=None):
        """Wrap the function ``name`` names at every 'module.attr' its callers use."""
        layer, func = name.split(".")
        wrapped = tracer.wrap(name, getattr(modules[layer], func), items)
        for where in lookups:
            patch(modules[where], func, wrapped)

    def coalescent_items(args, kwargs, result) -> int:
        tracer.count("coupling.coalesced", int(result.coalesced))
        return 1

    try:
        trace("simulate.make_stream", ["simulate"])
        trace("simulate.simulate_reflected", ["simulate", "analysis"], _knots)
        trace("simulate.simulate_unreflected", ["simulate", "analysis"], _knots)
        trace("simulate.sample_unreflected_states", ["simulate", "analysis"], _arg(3, "n"))
        trace("excursions.sample_excursions", ["excursions"], _arg(0, "n"))
        trace("excursions.sample_hitting", ["excursions", "coupling"])
        trace("excursions.regenerative_estimate", ["excursions"], _arg(1, "n_excursions"))
        for process in ("reflected", "unreflected"):
            trace(f"coupling.coalescent_couple_{process}", ["coupling", "analysis"], coalescent_items)
        trace("coupling.crossing_couple", ["coupling"])
        trace("coupling.stick_couple", ["coupling"])
        trace("analysis.tv_curve", ["analysis"], _arg(4, "n"))
        for name in ("scaling_limit_check", "binned_tv_estimate", "binned_tv_noise_floor",
                     "sde_oracle", "ks_two_sample"):
            trace(f"analysis.{name}", ["analysis"])
        for name in WRITERS:
            trace(name, [name.split(".")[0]])
        for func in MODEL_FUNCTIONS:
            users = [m for m in ("model", "analysis", "coupling") if hasattr(modules[m], func)]
            trace(f"model.{func}", users)
        patch(paths.PiecewisePath, "eval_many",
              tracer.wrap("paths.eval_many", paths.PiecewisePath.eval_many, _queries))

        base_source = simulate.ExpSource

        class CountedExpSource(base_source):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                tracer.count("simulate.exp_sources")
                super().__init__(*args, **kwargs)

        for where in ("simulate", "excursions", "coupling"):
            patch(modules[where], "ExpSource", CountedExpSource)

        base_config = cli.RunConfig

        def recorded_config(*args, **kwargs):
            cfg = base_config(*args, **kwargs)
            tracer.count("cli.threads", cfg.threads)
            tracer.count("cli.configs")
            return cfg

        patch(cli, "RunConfig", recorded_config)

        base_pool = cli.ThreadPoolExecutor

        class ChunkPool(base_pool):
            """Pool whose tasks run inside 'cli.chunk' spans parented to the submitter."""

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()
                return super().submit(tracer.call, "cli.chunk", fn, args, kwargs, None, parent)

        patch(cli, "ThreadPoolExecutor", ChunkPool)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
