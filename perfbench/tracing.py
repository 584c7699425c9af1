"""Span tracing around the package's public functions, installed from outside.

The tracer replaces each traced function in every satmdp module that binds
it (``agents`` and ``instances`` import ``transition`` and
``enumerate_reachable`` from ``mdp``, ``mdp`` imports ``greedy_value_poly``
and ``to_feature_vector`` from ``polyfeat``), so calls made inside the package
are seen too. Each call records a span (name, parent, start, end) in compact
arrays kept in memory and written out at the end; per-name call counts, total
and self time (total minus the time covered by child spans) accumulate as the
spans close. Nothing in the package changes.
"""
from __future__ import annotations

import contextlib
import sys
import time
from array import array

import numpy as np

MAX_SPANS = 2_000_000

SETUP = "setup"
OPS = "ops"

# (module, attribute) of every traced callable; "Class.method" patches a class
TARGETS = (
    ("mdp", "transition"),
    ("mdp", "encode_state"),
    ("mdp", "state_digest"),
    ("mdp", "enumerate_reachable"),
    ("mdp", "features_state"),
    ("polyfeat", "greedy_value_poly"),
    ("polyfeat", "to_feature_vector"),
    ("polyfeat", "theta_vector"),
    ("agents", "greedy_rollout_value"),
    ("agents", "tree_optimal_values"),
    ("agents", "a_sat"),
    ("agents", "epsilon_net_search"),
    ("agents", "horizon_split_policy"),
    ("toys", "ToyLinearMdp.__init__"),
    ("toys", "ToyLinearMdp.features_sa"),
    ("cnf", "brute_force_sat"),
    ("cnf", "parse_dimacs"),
    ("instances", "random_satisfiable_instance"),
    ("cli", "main"),
    ("reporting", "make_report"),
)


def _eps_info(result):
    return {"cover_points": result[1]["cover_points"],
            "unique_policies": result[1]["unique_policies"]}


# values read off a traced call's result, averaged per call
EXTRAS = {
    "mdp.enumerate_reachable": lambda r: {"states": len(r[0])},
    "mdp.state_digest": lambda r: {"bytes": len(r)},
    "polyfeat.greedy_value_poly": lambda r: {"terms": len(r.terms)},
    "agents.a_sat": lambda r: {"queries": sum(r.queries.values())},
    "agents.epsilon_net_search": _eps_info,
    "agents.horizon_split_policy":
        lambda r: {"basis_size_max": max(max(i["basis_sizes"]) for i in r[2])},
    "instances.random_satisfiable_instance": lambda r: {"attempts": r[2]},
}

# calls of one traced name made inside another, averaged per outer call
NESTED_COUNTS = {
    "agents.epsilon_net_search": ("toys.ToyLinearMdp.features_sa", "features_sa_calls"),
}

# metric name -> (unit, phase, traced name, statistic)
PER_LAYER = {
    "mdp.transition.calls": ("calls/op", OPS, "mdp.transition", "calls_per_op"),
    "mdp.transition.self_us": ("us", OPS, "mdp.transition", "self_us"),
    "mdp.encode_state.calls": ("calls/op", OPS, "mdp.encode_state", "calls_per_op"),
    "mdp.encode_state.self_us": ("us", OPS, "mdp.encode_state", "self_us"),
    "mdp.state_digest.self_us": ("us", OPS, "mdp.state_digest", "self_us"),
    "mdp.state_digest.bytes": ("B", OPS, "mdp.state_digest", "bytes"),
    "mdp.enumerate_reachable.states": ("states", OPS, "mdp.enumerate_reachable", "states"),
    "mdp.enumerate_reachable.self_ms": ("ms", OPS, "mdp.enumerate_reachable", "self_ms"),
    "mdp.features_state.calls": ("calls/op", OPS, "mdp.features_state", "calls_per_op"),
    "mdp.features_state.self_ms": ("ms", OPS, "mdp.features_state", "self_ms"),
    "polyfeat.greedy_value_poly.ms": ("ms", OPS, "polyfeat.greedy_value_poly", "ms"),
    "polyfeat.greedy_value_poly.terms": ("terms", OPS, "polyfeat.greedy_value_poly", "terms"),
    "polyfeat.to_feature_vector.ms": ("ms", OPS, "polyfeat.to_feature_vector", "ms"),
    "polyfeat.theta_vector.ms": ("ms", SETUP, "polyfeat.theta_vector", "ms"),
    "agents.greedy_rollout_value.self_ms":
        ("ms", OPS, "agents.greedy_rollout_value", "self_ms"),
    "agents.tree_optimal_values.ms": ("ms", OPS, "agents.tree_optimal_values", "ms"),
    "agents.a_sat.ms": ("ms", OPS, "agents.a_sat", "ms"),
    "agents.a_sat.queries": ("queries", OPS, "agents.a_sat", "queries"),
    "agents.epsilon_net_search.self_ms":
        ("ms", OPS, "agents.epsilon_net_search", "self_ms"),
    "agents.epsilon_net_search.cover_points":
        ("points", OPS, "agents.epsilon_net_search", "cover_points"),
    "agents.epsilon_net_search.unique_policies":
        ("policies", OPS, "agents.epsilon_net_search", "unique_policies"),
    "agents.epsilon_net_search.features_sa_calls":
        ("calls", OPS, "agents.epsilon_net_search", "features_sa_calls"),
    "agents.horizon_split_policy.self_ms":
        ("ms", OPS, "agents.horizon_split_policy", "self_ms"),
    "agents.horizon_split_policy.basis_size_max":
        ("vectors", OPS, "agents.horizon_split_policy", "basis_size_max"),
    "toys.ToyLinearMdp.init_ms": ("ms", OPS, "toys.ToyLinearMdp.__init__", "ms"),
    "cnf.brute_force_sat.ms": ("ms", SETUP, "cnf.brute_force_sat", "ms"),
    "instances.random_satisfiable_instance.attempts":
        ("attempts", SETUP, "instances.random_satisfiable_instance", "attempts"),
    "cnf.parse_dimacs.ms": ("ms", OPS, "cnf.parse_dimacs", "ms"),
    "cli.main.ms": ("ms", OPS, "cli.main", "ms"),
    "reporting.make_report.ms": ("ms", OPS, "reporting.make_report", "ms"),
}


class _Stat:
    __slots__ = ("calls", "total", "self_time", "extra", "extra_max")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.extra = {}
        self.extra_max = {}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.phase = SETUP
        self.stats: dict = {}
        self._stack: list = []
        self._patched: list = []

    # --- installing -----------------------------------------------------------------

    def install(self):
        """Wrap every target in every loaded satmdp module that binds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "satmdp" or name.startswith("satmdp.")]
        for mod_name, attr in TARGETS:
            owner = sys.modules[f"satmdp.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, holder, key, wrapper):
        self._patched.append((holder, key, getattr(holder, key)))
        setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def _wrap(self, name, fn):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        extra_of = EXTRAS.get(name)
        nested = NESTED_COUNTS.get(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stat = self._stat(name)
            inner = self._stat(nested[0]).calls if nested else 0
            idx = len(self.span_name)
            keep = idx < MAX_SPANS
            if keep:
                self.span_name.append(nid)
                self.span_parent.append(stack[-1][0] if stack else -1)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
            frame = [idx if keep else -1, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                if keep:
                    self.span_start[idx] = start
                    self.span_end[idx] = end
                else:
                    self.dropped += 1
                stat.calls += 1
                stat.total += dur
                stat.self_time += dur - frame[1]
            values = extra_of(result) if extra_of else {}
            if nested:
                values[nested[1]] = self._stat(nested[0]).calls - inner
            for key, value in values.items():
                stat.extra[key] = stat.extra.get(key, 0) + value
                stat.extra_max[key] = max(stat.extra_max.get(key, value), value)
            return result

        traced.__wrapped__ = fn
        return traced

    def _stat(self, name) -> _Stat:
        key = (self.phase, name)
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = _Stat()
        return stat

    # --- results --------------------------------------------------------------------

    def metrics(self, ops: int) -> dict:
        """Every per-layer metric; 0 for a layer the workload never called."""
        out = {}
        for metric, (unit, phase, name, statistic) in PER_LAYER.items():
            stat = self.stats.get((phase, name))
            value = 0.0
            if stat is not None and stat.calls:
                if statistic == "calls_per_op":
                    value = stat.calls / ops
                elif statistic == "self_us":
                    value = stat.self_time / stat.calls * 1e6
                elif statistic == "self_ms":
                    value = stat.self_time / stat.calls * 1e3
                elif statistic == "ms":
                    value = stat.total / stat.calls * 1e3
                elif statistic.endswith("_max"):
                    value = stat.extra_max[statistic]
                else:
                    value = stat.extra[statistic] / stat.calls
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path):
        """Spans as arrays: name index, parent span (-1 at a root), start, end."""
        n = len(self.span_name)
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32)[:n],
                 parent=np.frombuffer(self.span_parent, dtype=np.int32)[:n],
                 start=np.frombuffer(self.span_start, dtype=np.float64)[:n],
                 end=np.frombuffer(self.span_end, dtype=np.float64)[:n],
                 dropped=self.dropped)
