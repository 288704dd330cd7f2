"""Per-layer spans recorded from outside the library.

``Tracer.install()`` replaces library functions by timing wrappers where the
calling module binds them: every name a module (or the ``nscycles``
package) imports from another layer, plus the few private names through
which a layer is entered or a per-function metric is taken.  Calls inside
one module that do not go through a wrapped name are charged to that
module.  Methods of ``EdgeSet``, ``Graph`` and the other classes are not
wrapped, so their time is charged to the layer that calls them.

A span is opened on every wrapped call.  Layer self time charges each
interval between two span events to the innermost open span's layer, so
nested spans into other layers are subtracted.  A wrapped name missing from the library is skipped: its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import types
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "verify", "decomposition", "cocircuits", "circuits",
          "cycle_space", "graph_core", "corpus")

# (defining module, function name) -> (metric prefix, result counter or None).
FUNCTION_METRICS = {
    ("circuits", "_enumerate"): ("circuits.enumerate", ("circuits", len)),
    ("circuits", "_is_separating_edges"): (
        "circuits.separation_test", ("nonseparating", lambda sep: int(not sep))),
    ("decomposition", "_theta"): ("decomposition.theta", None),
    ("decomposition", "lift_circuit"): ("decomposition.lift", None),
    ("graph_core", "contract_edges"): ("graph_core.contract", None),
    ("graph_core", "blocks"): ("graph_core.blocks", None),
    ("graph_core", "is_top_3_connected"): ("graph_core.top3_test", None),
    ("graph_core", "thread_delete"): ("graph_core.thread_delete", None),
    ("graph_core", "is_k_connected"): ("graph_core.k_connected", None),
    ("cocircuits", "minimal_cut_candidates"): ("cocircuits.cut_candidates", ("found", len)),
    ("cocircuits", "bonds"): ("cocircuits.bonds", None),
    ("cocircuits", "circuits_meeting_once"): ("cocircuits.meeting_once", None),
    ("cycle_space", "express_in_span"): ("cycle_space.express", None),
    ("corpus", "gen_corpus"): ("corpus.generate", None),
}

# Names called inside their own module that still need a span.
INTRA_MODULE = [
    ("circuits", "_enumerate"),
    ("circuits", "_is_separating_edges"),
    ("decomposition", "_theta"),
    ("decomposition", "lift_circuit"),
    ("graph_core", "is_k_connected"),
    ("cocircuits", "minimal_cut_candidates"),
    ("cocircuits", "bonds"),
    ("cli", "run_command"),
]


def _is_function(obj) -> bool:
    return isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper))


class Tracer:
    def __init__(self):
        self.stack: list[str] = []  # layers of the open spans
        self.last = 0.0
        self.self_s: dict[str, float] = defaultdict(float)
        self.layer_calls: Counter = Counter()
        self.fn_calls: Counter = Counter()
        self.fn_s: dict[str, float] = defaultdict(float)
        self.fn_counts: Counter = Counter()
        self.fn_depth: Counter = Counter()

    def _wrap(self, layer: str, name: str, fn):
        metric, counter = FUNCTION_METRICS.get((layer, name), (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            stack = self.stack
            outer_layer = stack[-1] if stack else None
            if outer_layer:
                self.self_s[outer_layer] += start - self.last
            if outer_layer != layer:
                self.layer_calls[layer] += 1
            stack.append(layer)
            self.last = start
            if metric:
                self.fn_depth[metric] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.self_s[layer] += end - self.last
                self.last = end
                stack.pop()
                if metric:
                    self.fn_depth[metric] -= 1
                    if not self.fn_depth[metric]:
                        self.fn_calls[metric] += 1
                        self.fn_s[metric] += end - start
            if counter and not self.fn_depth[metric]:
                self.fn_counts[f"{metric}.{counter[0]}"] += counter[1](result)
            return result

        return wrapper

    def install(self) -> None:
        package = importlib.import_module("nscycles")
        modules = {"nscycles": package}
        for layer in LAYERS:
            modules[layer] = importlib.import_module(f"nscycles.{layer}")
        targets = []
        for owner, module in modules.items():
            for name, obj in vars(module).items():
                home = getattr(obj, "__module__", "") or ""
                if _is_function(obj) and home.startswith("nscycles.") and home != f"nscycles.{owner}":
                    targets.append((module, name, home.split(".", 1)[1]))
        for layer, name in INTRA_MODULE:
            if _is_function(getattr(modules[layer], name, None)):
                targets.append((modules[layer], name, layer))
        for module, name, layer in targets:
            if layer in LAYERS:
                setattr(module, name, self._wrap(layer, name, getattr(module, name)))

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.layer_calls[layer]
            out[f"{layer}.self_ms"] = self.self_s[layer] * 1000
        for metric, counter in FUNCTION_METRICS.values():
            out[f"{metric}.calls"] = self.fn_calls[metric]
            out[f"{metric}.ms"] = self.fn_s[metric] * 1000
            if counter:
                out[f"{metric}.{counter[0]}"] = self.fn_counts[f"{metric}.{counter[0]}"]
        return out
