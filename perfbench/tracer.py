"""Spans around the program's public functions, recorded from outside.

Tracing replaces each function below with a wrapper that records a span
(name, start, end, parent) and restores the originals when it stops. The
package imports many functions by name (``traveler`` takes
``reachable_nodes`` from ``network``, ``cli`` takes ``fmt`` from
``render``, ...), so a wrapper replaces every attribute of every
``ctproute`` module that is bound to the original function, not only the
one in the defining module. Spans live in flat arrays while the run goes
on and are written out when it ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, attribute) of each traced function; a span takes the name
# "<module>.<function>", and every policy class's decide is one name
FUNCTIONS = (
    ("rng", "substream"),
    ("blockage", "sample_realization"),
    ("network", "parse_graph_document"),
    ("network", "reachable_nodes"),
    ("network", "dijkstra_distances"),
    ("network", "shortest_path"),
    ("network", "cheapest_edge"),
    ("traveler", "exact_expected_time"),
    ("traveler", "simulate_policy"),
    ("traveler", "walk_policy"),
    ("traveler", "evaluate_policy_exact"),
    ("traveler", "OptimalPolicy.decide"),
    ("traveler", "ReplanGreedyPolicy.decide"),
    ("traveler", "FixedRoutePolicy.decide"),
    ("centrality", "canadian_betweenness_all"),
    ("centrality", "canadian_betweenness"),
    ("elicit", "fit_prior"),
    ("elicit", "mixture_moments"),
    ("elicit", "mix_experts"),
    ("elicit", "sample_beta"),
    ("elicit", "pushforward_probabilities"),
    ("render", "render_json"),
    ("render", "fmt"),
    ("cli", "main"),
)
PLANNER_SPANS = ("traveler.exact_expected_time", "traveler.decide")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: array = array("i")
        self.parent: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock = time.perf_counter
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "ctproute" or name.startswith("ctproute."))
        }
        for module, attr in FUNCTIONS:
            owner = modules[f"ctproute.{module}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                self._patch(owner, attr, self._wrap(f"{module}.{attr}", vars(owner)[attr]))
                continue
            original = getattr(owner, attr)
            traced = self._wrap(f"{module}.{attr}", original)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, traced)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self, lo: int = 0) -> dict[str, np.ndarray]:
        """Copies of the spans from index `lo` on, parents re-based to it."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32)[lo:].copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32)[lo:] - lo,
            "start": np.frombuffer(self.start, dtype=np.float64)[lo:].copy(),
            "end": np.frombuffer(self.end, dtype=np.float64)[lo:].copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def summarize(spans: dict[str, np.ndarray], names: list[str]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds, self seconds, plus the planner
    and policy-cache counts.

    Self time is a span's duration minus the durations of its children;
    spans of one thread nest, so that is the time no child covers. Spans
    are stored in entry order, so a parent's index is below its child's.
    A negative parent index means a root span.
    """
    name_id, parent = spans["name_id"], spans["parent"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child = np.zeros_like(dur)
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    def flags(prefixes) -> np.ndarray:
        ids = [i for i, n in enumerate(names) if n.startswith(prefixes)]
        return np.isin(name_id, ids)

    # a reachable_nodes span under a planner span is one expanded state
    under = flags(PLANNER_SPANS)
    while True:
        nxt = under | (has_parent & under[np.where(has_parent, parent, 0)])
        if np.array_equal(nxt, under):
            break
        under = nxt
    # a decide span that reaches network code missed every policy cache
    network = flags(("network.",))
    reaches = np.zeros(len(dur), dtype=np.int8)
    while True:
        nxt = np.zeros_like(reaches)
        np.maximum.at(nxt, parent[has_parent], (reaches | network)[has_parent].astype(np.int8))
        if np.array_equal(nxt, reaches):
            break
        reaches = nxt

    out: dict[str, dict[str, float]] = {}
    for i, name in enumerate(names):
        mask = name_id == i
        out[name] = {
            "calls": int(mask.sum()),
            "s": float(dur[mask].sum()),
            "self_s": float(self_time[mask].sum()),
        }
    reach = flags(("network.reachable_nodes",))
    decide = flags(("traveler.decide",))
    out["traveler.planner"] = {"states_expanded": int((reach & under).sum())}
    out.setdefault("traveler.decide", {"calls": 0, "s": 0.0, "self_s": 0.0})
    calls = out["traveler.decide"]["calls"]
    out["traveler.decide"]["miss_share"] = float((decide & (reaches > 0)).sum()) / calls if calls else 0.0
    return out
