"""Layer spans for the traced run, taken from outside the program.

Each hook replaces one public function of a lapvol layer with a timing
wrapper, under the name through which its callers look it up, and puts
the original back on ``uninstall``.  A hook whose function no longer
exists is reported as missing and its metrics are left out; the
workload still runs.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# Level metrics are keyed by the variable a level integrates: direct
# integrates l1..l(m-1), transform l2..lm.
DIRECT_LEVELS = range(1, 8)
TRANSFORM_LEVELS = range(2, 9)


def _level_name(prefix: str) -> Callable:
    return lambda args: f"{prefix}.level{args[1]}"


def _level_counts(prefix: str) -> Callable:
    def post(counts, args, result):
        stats = result[2]
        counts[f"{prefix}.level{args[1]}.terms_out"] += stats.terms_out
        counts[f"{prefix}.poles"] += stats.poles_found
    return post


def _ledger(counts, args, result):
    counts["terms.repairs"] += len(result.config.ledger)


def _leaf(counts, args, result):
    counts["direct.leaves"] += 1


def _call(counts, args, result):
    counts["lp.maximize_calls"] += 1


def _levels(prefix: str, levels) -> List[str]:
    return ([f"{prefix}.level{k}.ms" for k in levels]
            + [f"{prefix}.level{k}.terms_out" for k in levels] + [f"{prefix}.poles"])


# (module, attribute, span name or args -> span name, count update,
#  the per-layer metrics that depend on the hook)
HOOKS = (
    ("lapvol.cli", "load_instance", "cli.load_instance", None, ["cli.load_instance_ms"]),
    ("lapvol.cli", "decimal_string", "cli.decimal_string", None, ["cli.decimal_string_ms"]),
    ("lapvol.polytope", "scale_and_dedupe", "polytope.scale_and_dedupe", None,
     ["polytope.scale_and_dedupe_ms"]),
    ("lapvol.polytope", "compact_witness", "polytope.compact_witness", None,
     ["polytope.compact_witness_ms"]),
    ("lapvol.polytope", "find_strict_interior", "polytope.find_strict_interior", None,
     ["polytope.find_strict_interior_ms"]),
    ("lapvol.lp", "maximize", "lp.maximize", _call, ["lp.maximize_ms", "lp.maximize_calls"]),
    ("lapvol.cli", "run_direct", "direct.run_direct", _ledger,
     ["direct.run_direct_ms", "terms.repairs"]),
    ("lapvol.direct", "integrate_level", _level_name("direct"), _level_counts("direct"),
     _levels("direct", DIRECT_LEVELS)),
    ("lapvol.direct", "final_level_value", "direct.final", _leaf,
     ["direct.final_ms", "direct.leaves"]),
    ("lapvol.cli", "run_transform", "transform.run_transform", _ledger,
     ["transform.run_transform_ms", "terms.repairs"]),
    ("lapvol.transform", "integrate_level", _level_name("transform"),
     _level_counts("transform"), _levels("transform", TRANSFORM_LEVELS)),
)


def layer_metric_names() -> List[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = [metric for hook in HOOKS for metric in hook[4]]
    return list(dict.fromkeys(names)) + ["volume.bits"]


class Tracer:
    """Per-operation layer times and counts, kept in memory.

    ``ops`` holds one record per operation: the span time in ns summed
    per layer, and the counts the layers reported during it.
    """

    def __init__(self) -> None:
        self.ops: List[dict] = []
        self.missing: List[str] = []
        self._saved: List[tuple] = []
        self._ns: Dict[str, int] = defaultdict(int)
        self._counts: Dict[str, int] = defaultdict(int)

    def install(self) -> None:
        self.missing = []
        for module_name, attr, name, post, metrics in HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing += metrics
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, post))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn: Callable, name, post: Optional[Callable]) -> Callable:
        ns, counts = self._ns, self._counts

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter_ns()
            result = fn(*args, **kwargs)
            ns[name(args) if callable(name) else name] += time.perf_counter_ns() - t0
            if post is not None:
                post(counts, args, result)
            return result

        return wrapper

    def end_op(self, **info) -> None:
        """Close the current operation and start the next one."""
        self.ops.append({**info, "span_ns": dict(self._ns), "counts": dict(self._counts)})
        self._ns.clear()
        self._counts.clear()
