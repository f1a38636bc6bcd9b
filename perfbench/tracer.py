"""Per-layer spans and counts, recorded from outside the chipfire package.

install() wraps the public functions of every chipfire module, plus the
module-level helpers that mark a layer boundary, and rebinds each wrapper
under every name a caller can reach the original by: module globals,
package re-exports and module-level dispatch tables. A span's self time is
its duration minus the time of the wrapped spans it encloses; its layer is
the module that defines the function.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "graphs",
    "divisors",
    "rank",
    "linear_systems",
    "jacobian",
    "metric",
    "specialization",
    "experiments",
    "cli",
)

# Private functions that mark a layer boundary.
HELPERS = {
    "divisors": ("reduce_vector", "_dhar_unburnt"),
    "rank": ("_rank_geq",),
    "linear_systems": ("superstable_configs",),
    "jacobian": ("smith_normal_form", "_bareiss_determinant"),
    "metric": ("_unit_model",),
}

# (module, class, method): methods that are layer boundaries or carry counts.
METHODS = (
    ("graphs", "MultiGraph", "__init__"),
    ("rank", "_Session", "reduced"),
    ("rank", "RankResult", "verify"),
    ("experiments", "SweepResult", "write_jsonl"),
)


class Tracer:
    def __init__(self):
        self.stack = []  # one [child seconds, key] frame per open span
        self.self_s = defaultdict(float)  # key -> seconds outside child spans
        self.total_s = defaultdict(float)  # key -> seconds, children included
        self.calls = Counter()  # key -> calls
        self.counts = Counter()  # named counts recorded at span entry/exit

    def snapshot(self):
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def _enter(self, key):
        self.calls[key] += 1
        frame = [0.0, key]
        self.stack.append(frame)
        return frame

    def _leave(self, frame, started):
        elapsed = time.perf_counter() - started
        self.stack.pop()
        key = frame[1]
        self.self_s[key] += elapsed - frame[0]
        self.total_s[key] += elapsed
        if self.stack:
            self.stack[-1][0] += elapsed

    def parent_key(self):
        return self.stack[-1][1] if self.stack else None

    def wrap(self, fn, key, before=None, after=None):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            frame = self._enter(key)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(frame, started)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _wrap_generator(self, fn, key):
        # The generator's body runs inside next(), so each resumption is a
        # span; the consumer's work between items is not.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    frame = self._enter(key)
                    started = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._leave(frame, started)
                    self.counts[key + ".items"] += 1
                    yield item
            finally:
                inner.close()

        return wrapper


def _count_dhar(tracer, args):
    if tracer.parent_key() == "divisors.reduce_vector":
        tracer.counts["divisors.dhar_in_reduce"] += 1


def _count_memo(tracer, args):
    session, vec = args[0], args[1]
    memo = getattr(session, "reduce_memo", None)
    if memo is not None and vec in memo:
        tracer.counts["rank.memo_hits"] += 1


def _count_vertices(tracer, args, result):
    tracer.counts["graphs.vertices_built"] += len(args[0].vertices)


def _count_unit_model(tracer, args, result):
    tracer.counts["metric.unit_model_vertices"] += len(result.graph.vertices)


HOOKS = {
    "divisors._dhar_unburnt": (_count_dhar, None),
    "rank._Session.reduced": (_count_memo, None),
    "graphs.MultiGraph.__init__": (None, _count_vertices),
    "metric._unit_model": (None, _count_unit_model),
}


def install(tracer):
    """Wrap every traced function.

    A name missing from the package (renamed or deleted by a later change)
    is skipped, and its metrics read zero.
    """
    package = "chipfire"
    wrapped = {}  # id(original) -> wrapper
    for layer in LAYERS:
        module = sys.modules.get(f"{package}.{layer}")
        if module is None:
            continue
        names = [
            name
            for name, obj in vars(module).items()
            if inspect.isfunction(obj)
            and obj.__module__ == module.__name__
            and not name.startswith("_")
        ]
        names += [h for h in HELPERS.get(layer, ()) if hasattr(module, h)]
        for name in dict.fromkeys(names):
            fn = getattr(module, name)
            key = f"{layer}.{name}"
            before, after = HOOKS.get(key, (None, None))
            wrapped[id(fn)] = tracer.wrap(fn, key, before, after)
    for layer, cls_name, method in METHODS:
        module = sys.modules.get(f"{package}.{layer}")
        cls = getattr(module, cls_name, None)
        fn = getattr(cls, method, None) if cls is not None else None
        if fn is None:
            continue
        key = f"{layer}.{cls_name}.{method}"
        before, after = HOOKS.get(key, (None, None))
        setattr(cls, method, tracer.wrap(fn, key, before, after))
    # Rebind under every name: `from .divisors import reduce_vector` makes a
    # second global in the importing module, and dispatch dicts hold a third.
    for name, module in list(sys.modules.items()):
        if name != package and not name.startswith(package + "."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrapped:
                setattr(module, attr, wrapped[id(value)])
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if id(v) in wrapped:
                        value[k] = wrapped[id(v)]


def _sum(table, layer):
    prefix = layer + "."
    return sum(v for k, v in table.items() if k.startswith(prefix))


def layer_metrics(snap):
    """The per-layer metrics of a traced run's snapshot."""
    self_s = snap["self_s"]
    total_s = snap["total_s"]
    calls = snap["calls"]
    counts = snap["counts"]
    reduce_calls = calls.get("divisors.reduce_vector", 0)
    reduced = calls.get("rank._Session.reduced", 0)
    records = sum(
        calls.get(f"experiments.{name}", 0)
        for name in ("bn_instance", "gonality_instance", "subdivision_instance")
    )
    return {
        "graphs.build_s": (_sum(self_s, "graphs"), "s"),
        "graphs.vertices_built": (counts.get("graphs.vertices_built", 0), "count"),
        "divisors.reduce_calls": (reduce_calls, "count"),
        "divisors.reduce_s": (self_s.get("divisors.reduce_vector", 0.0), "s"),
        "divisors.dhar_passes": (calls.get("divisors._dhar_unburnt", 0), "count"),
        "divisors.dhar_s": (self_s.get("divisors._dhar_unburnt", 0.0), "s"),
        "divisors.passes_per_reduce": (
            counts.get("divisors.dhar_in_reduce", 0) / reduce_calls if reduce_calls else 0.0,
            "passes",
        ),
        "rank.search_nodes": (calls.get("rank._rank_geq", 0), "count"),
        "rank.memo_hit_ratio": (
            counts.get("rank.memo_hits", 0) / reduced if reduced else 0.0,
            "ratio",
        ),
        "rank.self_s": (_sum(self_s, "rank"), "s"),
        "rank.certificate_s": (
            total_s.get("rank.rank_with_certificate", 0.0)
            + total_s.get("rank.RankResult.verify", 0.0),
            "s",
        ),
        "linear_systems.configs_enumerated": (
            counts.get("linear_systems.superstable_configs.items", 0),
            "count",
        ),
        "linear_systems.self_s": (_sum(self_s, "linear_systems"), "s"),
        "jacobian.snf_s": (self_s.get("jacobian.smith_normal_form", 0.0), "s"),
        "jacobian.bareiss_s": (self_s.get("jacobian._bareiss_determinant", 0.0), "s"),
        "jacobian.coords_s": (self_s.get("jacobian.class_coordinates", 0.0), "s"),
        "metric.q_rank_calls": (calls.get("metric.q_rank", 0), "count"),
        "metric.unit_model_vertices": (
            counts.get("metric.unit_model_vertices", 0),
            "count",
        ),
        "metric.self_s": (_sum(self_s, "metric"), "s"),
        "experiments.records": (records, "count"),
        "experiments.io_s": (
            self_s.get("experiments.read_records", 0.0)
            + self_s.get("experiments.SweepResult.write_jsonl", 0.0),
            "s",
        ),
        "cli.self_s": (_sum(self_s, "cli"), "s"),
    }


# Metrics that count work; they must repeat exactly for one seed.
COUNT_METRICS = tuple(
    name
    for name in layer_metrics({"self_s": {}, "total_s": {}, "calls": {}, "counts": {}})
    if not name.endswith("_s")
)
