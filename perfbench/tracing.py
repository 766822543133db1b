"""Span tracing of the pricing layers, driven from the benchmark's side.

The tracer replaces module attributes of `twocurve` with wrappers that record
spans: name, start, end, parent span and the product being priced.  A name
bound with `from ... import` is looked up in the calling module, so it is
wrapped there as well as where it is defined.  Some layers have no public
entry point; their private names are wrapped (see SITES).  A name that no
longer exists is reported as absent instead of raising.

Spans are kept in memory while a pass runs and are written out as JSON lines
when the run ends.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import defaultdict

# (module, attribute, span name).  Private names are marked with a leading
# underscore in the attribute; they are the only handle on those layers.
SITES = [
    ("coeffs", "a_pair", "coeffs.a_pair"),
    ("curves", "ois_bond", "curves.bond"),
    ("curves", "libor_bond", "curves.bond"),
    ("curves", "libor_bond_via_ois", "curves.bond"),
    ("linear", "ois_bond", "curves.bond"),
    ("optional", "ois_bond", "curves.bond"),
    ("oracle", "ois_bond", "curves.bond"),
    ("cli", "ois_bond", "curves.bond"),
    ("cli", "libor_bond", "curves.bond"),
    ("measures", "forward_moments", "measures.forward_moments"),
    ("optional", "forward_moments", "measures.forward_moments"),
    ("linear", "expectation_coeffs", "linear.expectation_coeffs"),
    ("optional", "expectation_coeffs", "linear.expectation_coeffs"),
    ("linear", "fra_price", "linear.fra"),
    ("linear", "fair_fra_rate", "linear.fra"),
    ("optional", "fra_price", "linear.fra"),
    ("linear", "swap_price", "linear.swap"),
    ("linear", "fair_swap_rate", "linear.swap"),
    ("optional", "caplet_price", "optional.caplet"),
    ("optional", "swaption_price", "optional.swaption"),
    ("optional", "_refine", "optional.refine"),
    ("optional", "_boundary_root", "optional.boundary_root"),
    ("optional", "_column_panels", "optional.column_panels"),
    ("oracle", "_run", "oracle.run"),
    ("oracle", "_block_normals", "oracle.normals"),
    ("oracle", "_paths_from_normals", "oracle.paths"),
    ("cli", "run", "cli.run"),
    ("cli", "parse_scenario", "cli.parse"),
    ("cli", "_price_product", "cli.analytic"),
    ("cli", "_mc_product", "cli.mc"),
]

# name -> (unit, better); the order is the order of BENCHMARK.json.
LAYER_METRICS = {
    "coeffs.bundle_calls": ("count", "lower"),
    "coeffs.bundle_hit_ratio": ("ratio", "higher"),
    "coeffs.a_pair_calls": ("count", "lower"),
    "coeffs.a_pair_s": ("s", "lower"),
    "curves.bond_calls": ("count", "lower"),
    "curves.bond_s": ("s", "lower"),
    "measures.forward_moments_calls": ("count", "lower"),
    "measures.forward_moments_s": ("s", "lower"),
    "linear.expectation_coeffs_calls": ("count", "lower"),
    "linear.expectation_coeffs_s": ("s", "lower"),
    "linear.fra_s": ("s", "lower"),
    "linear.swap_self_s": ("s", "lower"),
    "optional.caplet_self_s": ("s", "lower"),
    "optional.swaption_self_s": ("s", "lower"),
    "optional.estimates_per_price": ("count", "lower"),
    "optional.boundary_root_calls": ("count", "lower"),
    "optional.boundary_root_s": ("s", "lower"),
    "optional.column_panels_s": ("s", "lower"),
    "oracle.blocks": ("count", "lower"),
    "oracle.normals_drawn": ("count", "lower"),
    "oracle.path_steps": ("count", "lower"),
    "oracle.normals_s": ("s", "lower"),
    "oracle.paths_s": ("s", "lower"),
    "oracle.payoff_s": ("s", "lower"),
    "oracle.s_per_1e5_path_steps": ("s", "lower"),
    "oracle.block_mib": ("MiB", "lower"),
    "cli.parse_s": ("s", "lower"),
    "cli.analytic_s": ("s", "lower"),
    "cli.mc_s": ("s", "lower"),
    "cli.report_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.coverage_ratio": ("ratio", "higher"),
}

# metric -> span names it is read from; a metric whose spans are all absent
# is reported as absent
_SOURCES = {
    "coeffs.a_pair_calls": ["coeffs.a_pair"], "coeffs.a_pair_s": ["coeffs.a_pair"],
    "curves.bond_calls": ["curves.bond"], "curves.bond_s": ["curves.bond"],
    "measures.forward_moments_calls": ["measures.forward_moments"],
    "measures.forward_moments_s": ["measures.forward_moments"],
    "linear.expectation_coeffs_calls": ["linear.expectation_coeffs"],
    "linear.expectation_coeffs_s": ["linear.expectation_coeffs"],
    "linear.fra_s": ["linear.fra"], "linear.swap_self_s": ["linear.swap"],
    "optional.caplet_self_s": ["optional.caplet"],
    "optional.swaption_self_s": ["optional.swaption"],
    "optional.estimates_per_price": ["optional.refine"],
    "optional.boundary_root_calls": ["optional.boundary_root"],
    "optional.boundary_root_s": ["optional.boundary_root"],
    "optional.column_panels_s": ["optional.column_panels"],
    "oracle.blocks": ["oracle.normals"], "oracle.normals_drawn": ["oracle.normals"],
    "oracle.normals_s": ["oracle.normals"],
    "oracle.path_steps": ["oracle.paths"], "oracle.paths_s": ["oracle.paths"],
    "oracle.block_mib": ["oracle.paths"],
    "oracle.payoff_s": ["oracle.run"], "oracle.s_per_1e5_path_steps": ["oracle.run", "oracle.paths"],
    "cli.parse_s": ["cli.parse"], "cli.analytic_s": ["cli.analytic"],
    "cli.mc_s": ["cli.mc"], "cli.report_s": ["cli.run"],
}


class Tracer:
    """Collects spans while `active`; wrappers pass straight through otherwise."""

    def __init__(self):
        self.active = False
        self.product = None
        self.spans = []  # [name, start, end, parent index, product, extra]
        self.stack = []
        self.counts = defaultdict(int)
        self.absent = []
        self._originals = []

    def install(self):
        for mod_name, attr, span in SITES:
            mod = importlib.import_module(f"twocurve.{mod_name}")
            fn = getattr(mod, attr, None)
            if fn is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._originals.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, span))
        # the coefficient memo is read, not wrapped: without a cache_info()
        # its metrics are absent
        cache = getattr(importlib.import_module("twocurve.coeffs"), "_bundle_cached", None)
        self.bundle_cache = cache if hasattr(cache, "cache_info") else None
        if self.bundle_cache is None:
            self.absent.append("coeffs._bundle_cached")

    def uninstall(self):
        for mod, attr, fn in reversed(self._originals):
            setattr(mod, attr, fn)
        self._originals.clear()

    def _open(self, name, extra=None):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.product, extra])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name):
        tracer = self

        if name == "optional.refine":
            # no span: the node-doubling estimates are the caplet/swaption
            # kernel, whose time stays in the pricer's self time
            def wrapper(estimate, *args, **kwargs):
                if not tracer.active:
                    return fn(estimate, *args, **kwargs)
                tracer.counts["refines"] += 1

                def counted(n):
                    tracer.counts["estimates"] += 1
                    return estimate(n)
                return fn(counted, *args, **kwargs)
            return wrapper

        if name == "oracle.run":
            def wrapper(params, times, config, payoff, *args, **kwargs):
                if not tracer.active:
                    return fn(params, times, config, payoff, *args, **kwargs)

                def traced_payoff(*a, **k):
                    j = tracer._open("oracle.payoff")
                    try:
                        return payoff(*a, **k)
                    finally:
                        tracer._close(j)
                idx = tracer._open(name)
                try:
                    return fn(params, times, config, traced_payoff, *args, **kwargs)
                finally:
                    tracer._close(idx)
            return wrapper

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            extra = None
            if name == "oracle.normals":
                n, n_steps = args[2], args[3]
                extra = 3 * n * n_steps
            elif name == "oracle.paths":
                z, times = args[0], args[1]
                extra = (z.shape[1] * z.shape[2], 3 * z.shape[1] * times.size * 8)
            idx = tracer._open(name, extra)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)
        return wrapper

    def start_pass(self):
        self.spans, self.stack = [], []
        self.counts = defaultdict(int)
        self.cache0 = self.bundle_cache and self.bundle_cache.cache_info()
        self.active = True

    def end_pass(self, wall: float) -> dict:
        """Stop recording and reduce this pass's spans to raw totals."""
        self.active = False
        hits = misses = 0
        if self.bundle_cache is not None:
            c1 = self.bundle_cache.cache_info()
            hits, misses = c1.hits - self.cache0.hits, c1.misses - self.cache0.misses
        spans = self.spans
        child_time = defaultdict(float)
        for s in spans:
            if s[3] is not None:
                child_time[s[3]] += s[2] - s[1]
        calls, incl, self_t = defaultdict(int), defaultdict(float), defaultdict(float)
        extra = defaultdict(float)
        block_bytes = 0
        for i, s in enumerate(spans):
            name, dur = s[0], s[2] - s[1]
            calls[name] += 1
            self_t[name] += dur - child_time[i]
            # inclusive time counts only the outermost span of each name
            p = s[3]
            while p is not None and spans[p][0] != name:
                p = spans[p][3]
            if p is None:
                incl[name] += dur
            if name == "oracle.normals":
                extra[name] += s[5]
            elif name == "oracle.paths":
                extra[name] += s[5][0]
                block_bytes = max(block_bytes, s[5][1])
        covered = sum(s[2] - s[1] for s in spans if s[3] is None)
        self.last_spans = spans
        return {"wall": wall, "hits": hits, "misses": misses, "counts": dict(self.counts),
                "calls": dict(calls),
                "incl": dict(incl), "self": dict(self_t), "extra": dict(extra),
                "block_bytes": block_bytes, "covered": covered}

    def present(self, span_name: str) -> bool:
        return any(span == span_name for mod, attr, span in SITES
                   if f"{mod}.{attr}" not in self.absent)


def layer_metrics(passes: list, untraced_walls: list, tracer: Tracer):
    """Per-pass averages of the traced passes, plus the tracing overhead.

    Returns (metrics, absent_metric_names).
    """
    n = len(passes)

    def tot(key, name):
        return sum(p[key].get(name, 0.0) for p in passes) / n

    hits = sum(p["hits"] for p in passes)
    misses = sum(p["misses"] for p in passes)
    path_steps = tot("extra", "oracle.paths")
    refines = tot("counts", "refines")
    cli_run = tot("incl", "cli.run")
    cli_parts = sum(tot("incl", k) for k in ("cli.parse", "cli.analytic", "cli.mc"))
    traced = statistics.median(p["wall"] for p in passes)
    untraced = statistics.median(untraced_walls)
    m = {
        "coeffs.bundle_calls": (hits + misses) / n,
        "coeffs.bundle_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "coeffs.a_pair_calls": tot("calls", "coeffs.a_pair"),
        "coeffs.a_pair_s": tot("incl", "coeffs.a_pair"),
        "curves.bond_calls": tot("calls", "curves.bond"),
        "curves.bond_s": tot("incl", "curves.bond"),
        "measures.forward_moments_calls": tot("calls", "measures.forward_moments"),
        "measures.forward_moments_s": tot("incl", "measures.forward_moments"),
        "linear.expectation_coeffs_calls": tot("calls", "linear.expectation_coeffs"),
        "linear.expectation_coeffs_s": tot("incl", "linear.expectation_coeffs"),
        "linear.fra_s": tot("incl", "linear.fra"),
        "linear.swap_self_s": tot("self", "linear.swap"),
        "optional.caplet_self_s": tot("self", "optional.caplet"),
        "optional.swaption_self_s": tot("self", "optional.swaption"),
        "optional.estimates_per_price": tot("counts", "estimates") / refines if refines else 0.0,
        "optional.boundary_root_calls": tot("calls", "optional.boundary_root"),
        "optional.boundary_root_s": tot("incl", "optional.boundary_root"),
        "optional.column_panels_s": tot("incl", "optional.column_panels"),
        "oracle.blocks": tot("calls", "oracle.normals"),
        "oracle.normals_drawn": tot("extra", "oracle.normals"),
        "oracle.path_steps": path_steps,
        "oracle.normals_s": tot("incl", "oracle.normals"),
        "oracle.paths_s": tot("incl", "oracle.paths"),
        "oracle.payoff_s": tot("incl", "oracle.payoff"),
        "oracle.s_per_1e5_path_steps": tot("incl", "oracle.run") / (path_steps / 1e5) if path_steps else 0.0,
        "oracle.block_mib": max(p["block_bytes"] for p in passes) / 2 ** 20,
        "cli.parse_s": tot("incl", "cli.parse"),
        "cli.analytic_s": tot("incl", "cli.analytic"),
        "cli.mc_s": tot("incl", "cli.mc"),
        "cli.report_s": cli_run - cli_parts if cli_run else 0.0,
        "trace.overhead_s": traced - untraced,
        "trace.overhead_ratio": traced / untraced,
        "trace.coverage_ratio": statistics.median(p["covered"] / p["wall"] for p in passes),
    }
    absent = [k for k, names in _SOURCES.items() if not any(tracer.present(s) for s in names)]
    if tracer.bundle_cache is None:
        absent += ["coeffs.bundle_calls", "coeffs.bundle_hit_ratio"]
    absent.sort()
    return m, absent


def write_spans(path, spans_by_pass):
    """Write every traced span as one JSON line: pass, name, start, end,
    parent (index within the pass) and product."""
    with open(path, "w") as fh:
        for i, spans in enumerate(spans_by_pass):
            for j, s in enumerate(spans):
                fh.write(json.dumps({"pass": i, "id": j, "name": s[0], "start": s[1],
                                     "end": s[2], "parent": s[3], "product": s[4]}) + "\n")
