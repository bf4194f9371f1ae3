"""Per-layer spans for weavent, recorded from outside the program.

``Tracer.install`` rebinds every public module-level function of each layer
module to a timing wrapper, in every ``weavent`` namespace that holds it
(``cli``, ``duality`` and ``rewrite`` import names directly, and module
globals are looked up at call time, so calls inside a module are traced
too).  Methods of ``FiniteDomain``, ``EventStructure``, ``AsyncGraph`` and
the other classes are left alone: they are called millions of times.

Each call records a span: function, start, end, parent span and job id.
A span's self time is its duration minus the time of its child spans; a
layer's self time is the sum over its spans.  Counts come from arguments,
return values and ``cache_info()``, never from inside the program.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional

LAYERS = ("es", "domains", "duality", "intervals", "rewrite", "graphs",
          "asyncgraphs", "io", "dot", "cli")

# Work counts read off one call: (args, result, cache hit) -> {name: amount}.
COUNTERS: Dict[str, Callable] = {
    "es.configurations": lambda args, out, hit: {"sets": 0 if hit else len(out)},
    "domains.validate_domain": lambda args, out, hit: {"elements": len(args[0].elements)},
    "rewrite.trace_classes": lambda args, out, hit: {
        "classes": len(out.classes),
        "derivations": sum(len(c.members) for c in out.classes)},
    "rewrite.apply_rule": lambda args, out, hit: {"applied": out is not None},
    "rewrite.equivalent_traces": lambda args, out, hit: {"equivalent": out is not None},
    "graphs.find_matches": lambda args, out, hit: {"matches": len(out)},
    "asyncgraphs.async_domain": lambda args, out, hit: {"path_classes": len(out.elements)},
}


# Functions whose own self time is reported, and those whose calls are counted.
SELF_TIMES = ("es.minimal_enablings", "es.classify",
              "domains.validate_domain", "domains.primes", "domains.weak_primes",
              "domains.interchange_classes",
              "intervals.check_axioms", "intervals.interval_classes", "intervals.ev_wd",
              "intervals.zeta",
              "duality.dom_of_es", "duality.ev_of_domain", "duality.connect_es",
              "duality.poset_isomorphic", "duality.es_isomorphic",
              "rewrite.trace_classes", "rewrite.equivalent_traces", "rewrite.grammar_from_es",
              "graphs.iso_hash",
              "asyncgraphs.validate_async_graph", "asyncgraphs.async_domain",
              "io.load_structure")
CALLS = ("es.configurations", "es.minimal_enablings", "domains.validate_domain",
         "domains.decompose", "intervals.interval_leq", "rewrite.apply_rule",
         "rewrite.pushout", "rewrite.equivalent_traces", "graphs.find_matches",
         "graphs.iso_hash", "asyncgraphs.validate_async_graph")

# Names of the count-type metrics: they must repeat exactly from run to run.
COUNT_SUFFIXES = (".calls", ".sets", ".elements", ".classes", ".derivations",
                  ".matches", ".path_classes")


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "child_time")

    def __init__(self, name: str, parent: int, job: Optional[str]):
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.job = job
        self.child_time = 0.0


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.job: Optional[str] = None
        self.stats: Dict[str, Dict[str, float]] = {}

    # ------------------------------------------------------------------ #

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        stat = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0, "hits": 0})
        count = COUNTERS.get(name)
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            hits = cache_info().hits if cache_info else 0
            span = Span(name, stack[-1] if stack else -1, self.job)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                duration = span.end - span.start
                if span.parent >= 0:
                    spans[span.parent].child_time += duration
                stat["calls"] += 1
                stat["self_s"] += duration - span.child_time
            hit = bool(cache_info) and cache_info().hits > hits
            stat["hits"] += hit
            if count:
                for key, amount in count(args, out, hit).items():
                    stat[key] = stat.get(key, 0) + amount
            return out

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module, everywhere."""
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"weavent.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and callable(obj)
                        and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "weavent" and not modname.startswith("weavent."):
                continue
            for attr, obj in list(vars(mod).items()):
                entry = originals.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])

    # ------------------------------------------------------------------ #

    def per_layer(self) -> Dict[str, float]:
        """The per-layer figures of the calls traced so far, by metric name."""
        def get(fn: str, key: str) -> float:
            return self.stats.get(fn, {}).get(key, 0)

        def ratio(part: float, base: float) -> float:
            return part / base if base else 0.0

        out: Dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for name, stat in self.stats.items():
            out[name.split(".", 1)[0] + ".self_s"] += stat["self_s"]
        for fn in SELF_TIMES:
            out[f"{fn}.self_s"] = get(fn, "self_s")
        for fn in CALLS:
            out[f"{fn}.calls"] = get(fn, "calls")
        for fn in ("es.configurations", "es.minimal_enablings"):
            out[f"{fn}.hit_ratio"] = ratio(get(fn, "hits"), get(fn, "calls"))
        out["es.configurations.sets"] = get("es.configurations", "sets")
        out["domains.validate_domain.elements"] = get("domains.validate_domain", "elements")
        out["rewrite.trace_classes.classes"] = get("rewrite.trace_classes", "classes")
        out["rewrite.trace_classes.derivations"] = get("rewrite.trace_classes", "derivations")
        out["rewrite.derivations_per_class"] = ratio(out["rewrite.trace_classes.derivations"],
                                                     out["rewrite.trace_classes.classes"])
        out["rewrite.apply_rule.applied_ratio"] = ratio(get("rewrite.apply_rule", "applied"),
                                                        get("rewrite.apply_rule", "calls"))
        out["rewrite.equivalent_traces.hit_ratio"] = ratio(
            get("rewrite.equivalent_traces", "equivalent"), get("rewrite.equivalent_traces", "calls"))
        out["graphs.find_matches.matches"] = get("graphs.find_matches", "matches")
        out["asyncgraphs.async_domain.path_classes"] = get("asyncgraphs.async_domain",
                                                          "path_classes")
        return out
