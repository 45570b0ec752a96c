"""Span tracing of spacct's public functions, installed from outside the package.

`install()` wraps each function named in LAYER_FUNCTIONS and rebinds the
wrapper under every name any loaded spacct module holds for the original,
so calls made through `from .curve import d_hat` style imports are seen as
well as calls through the defining module. Pmf construction is counted
through `Pmf.__post_init__`. Spans (name, start, end, parent) are kept in
flat arrays while the pass runs and summarised into per-layer metrics, and
written out, when it ends.
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from collections import Counter
from functools import wraps

LAYER_FUNCTIONS = {
    "baseline": ("max_dp_queries",),
    "distkit": ("binomial", "hypergeometric", "poisson_binomial"),
    "curve": ("d_hat", "hockey_stick"),
    "spc": ("spc_iid", "spc_known_entries", "spc_general"),
    "partition": ("enumerate_templates", "sample_template"),
    "compose": ("nonadaptive_iid", "nonadaptive_general", "adaptive_iid", "adaptive_general"),
    "oracle": ("exact_mechanism_law", "mc_distinguish"),
    "tables": ("compute_table",),
    "scenario_io": ("load_scenario",),
    "cli": ("main",),
}
COMPOSE = tuple(f"compose.{f}" for f in LAYER_FUNCTIONS["compose"])


class Tracer:
    """Flat span store: parallel arrays indexed by span number."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.counts: Counter = Counter()
        self.binomial_keys: set = set()

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn, on_call=None, on_result=None):
        kind = self.name_id(name)
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            idx = len(self.kind)
            self.kind.append(kind)
            self.parent.append(self.current)
            self.end.append(0.0)
            self.current = idx
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.current = self.parent[idx]
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        return traced

    # per-layer counters -------------------------------------------------

    def _binomial(self, trials, p):
        self.binomial_keys.add((trials, p))

    def _hockey_stick(self, p, q, epsilon):
        self.counts["curve.support_points"] += max(p.top, q.top) - min(p.offset, q.offset) + 1

    def _templates(self, result, law, cap=None):
        self.counts["partition.templates"] += len(result)
        if law.restriction is not None:
            size = law.format.sizes[law.restriction[1] - 1]
            self.counts["partition.subsets"] += math.comb(law.n - 1, size - 1)
            self.counts["partition.restricted_templates"] += len(result)

    def _block_terms(self, report, *args, **kwargs):
        self.counts["compose.block_terms"] += len(report.per_block)

    def _mc_trials(self, scenario, spec, epsilon, trials, seed):
        self.counts["oracle.mc_trials"] += trials

    def _cells(self, cells, *args, **kwargs):
        self.counts["tables.cells"] += len(cells)

    def install(self) -> None:
        import spacct.cli  # noqa: F401  (loads every spacct module)
        from spacct import distkit

        on_call = {"distkit.binomial": self._binomial, "curve.hockey_stick": self._hockey_stick,
                   "oracle.mc_distinguish": self._mc_trials}
        on_result = {"partition.enumerate_templates": self._templates,
                     "tables.compute_table": self._cells,
                     **{name: self._block_terms for name in COMPOSE}}
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "spacct" or name.startswith("spacct."))]
        for layer, functions in LAYER_FUNCTIONS.items():
            module = sys.modules[f"spacct.{layer}"]
            for fn_name in functions:
                name = f"{layer}.{fn_name}"
                original = getattr(module, fn_name)
                traced = self.wrap(name, original, on_call.get(name), on_result.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)

        post_init = distkit.Pmf.__post_init__
        counts = self.counts

        def counted_post_init(pmf):
            counts["distkit.Pmf.constructed"] += 1
            counts["distkit.mass_points"] += getattr(pmf.masses, "size", len(pmf.masses))
            try:
                post_init(pmf)
            except Exception:
                counts["distkit.Pmf.errors"] += 1
                raise

        distkit.Pmf.__post_init__ = counted_post_init

    # summary ------------------------------------------------------------

    def summary(self) -> dict:
        """Calls, self seconds and counters; self time is a span's duration
        minus the durations of its direct children."""
        n = len(self.kind)
        child = [0.0] * n
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child[par] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        compose_ids = {self.name_ids[c] for c in COMPOSE if c in self.name_ids}
        inside_compose = [False] * n
        dhat = self.name_ids.get("curve.d_hat")
        counts = Counter(self.counts)
        for i in range(n):
            name = self.names[self.kind[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i]
            par = self.parent[i]
            inside_compose[i] = par >= 0 and (inside_compose[par] or self.kind[par] in compose_ids)
            if self.kind[i] == dhat and inside_compose[i]:
                counts["compose.dhat_calls"] += 1
        return {"calls": dict(calls), "self_s": dict(self_s), "counts": dict(counts),
                "binomial_distinct": len(self.binomial_keys), "spans": n}

    def write(self, path) -> None:
        """One line per span; `request` is the span's top-level ancestor, the
        `cli.main` call it belongs to."""
        request = array("i")
        with open(path, "w") as fh:
            fh.write("span\trequest\tname\tstart\tend\tparent\n")
            for i in range(len(self.kind)):
                par = self.parent[i]
                request.append(i if par < 0 else request[par])
                fh.write(f"{i}\t{request[i]}\t{self.names[self.kind[i]]}\t{self.start[i]!r}\t"
                         f"{self.end[i]!r}\t{par}\n")
