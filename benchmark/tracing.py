"""Outside-in span tracing of the epicut layers.

Wrappers are installed on the names as their callers look them up (the
module globals ``cli`` and ``solver`` imported, the oracle class
methods and ``Ellipsoid.__init__``) and removed again afterwards, so an
untraced run executes the package untouched.  Every wrapped call
records a span (name, start, end, parent, item) in flat arrays; self
time is a span's duration minus the durations of its wrapped children.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional

import numpy as np

import epicut.cli
import epicut.lp
import epicut.solver
from epicut.geometry import CutKind, Ellipsoid
from epicut.oracles import LinearConstraintSet, MaxAffineFunction, QuadraticForm

CLI_MAIN = "cli.main"

# (owner, attribute, span name).  ``cmd_minimize`` calls run_metasteps
# from the cli module, every inner program from the lp module.
_MODULE_TARGETS = [
    (epicut.cli, "load_problem", "cli.load_problem"),
    (epicut.cli, "normalize", "lp.normalize"),
    (epicut.cli, "decide_feasibility", "lp.decide_feasibility"),
    (epicut.cli, "global_radius", "lp.global_radius"),
    (epicut.cli, "find_feasible_point", "lp.find_feasible_point"),
    (epicut.cli, "run_metasteps", "solver.run_metasteps"),
    (epicut.lp, "run_metasteps", "solver.run_metasteps"),
    (epicut.solver, "bisect_level", "solver.bisect_level"),
    (epicut.solver, "deep_cut", "geometry.deep_cut"),
    (epicut.solver, "intersects_halfspace", "geometry.intersects_halfspace"),
]
_CLASS_TARGETS = [
    (Ellipsoid, "__init__", "geometry.factor"),
    (MaxAffineFunction, "eval", "oracles.eval"),
    (MaxAffineFunction, "subgradient", "oracles.subgradient"),
    (MaxAffineFunction, "eval_many", "oracles.eval_many"),
    (QuadraticForm, "eval", "oracles.eval"),
    (QuadraticForm, "subgradient", "oracles.subgradient"),
    (QuadraticForm, "eval_many", "oracles.eval_many"),
    (LinearConstraintSet, "normalized_max_violation", "oracles.constraint_check"),
]


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.self_time = array("d")
        self.counts: Counter = Counter()
        self.current_item = -1
        self._open: List[int] = []
        self._child: List[float] = []
        self._saved: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, nid: int) -> None:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.item.append(self.current_item)
        self.end.append(0.0)
        self.self_time.append(0.0)
        self._open.append(idx)
        self._child.append(0.0)
        self.start.append(time.perf_counter())

    def _exit(self) -> None:
        stop = time.perf_counter()
        idx = self._open.pop()
        children = self._child.pop()
        duration = stop - self.start[idx]
        self.end[idx] = stop
        self.self_time[idx] = duration - children
        if self._child:
            self._child[-1] += duration

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable[[object], None]] = None) -> Callable:
        nid = self._name_id(name)
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            if observe is not None:
                observe(result)
            return result

        return traced

    def call(self, item: int, fn: Callable, *args):
        """Run fn as the root span of one item."""
        self.current_item = item
        self._enter(self._name_id(CLI_MAIN))
        try:
            return fn(*args)
        finally:
            self._exit()

    # -------------------------------------------------------- install

    def _observe_cut(self, outcome) -> None:
        if outcome.kind is CutKind.EMPTY_INTERSECTION:
            self.counts["geometry.empty_intersections"] += 1

    def _observe_metastep(self, result) -> None:
        self.counts["solver.level_queries"] += result.level_queries
        self.counts["solver.ellipsoid_iters"] += result.iterations

    def install(self) -> None:
        observers = {
            "geometry.deep_cut": self._observe_cut,
            "solver.bisect_level": self._observe_metastep,
        }
        for owner, attr, name in _MODULE_TARGETS + _CLASS_TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, observers.get(name)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------- summary

    def save(self, path: str, items: List[str]) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            items=np.array(items),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            item=np.frombuffer(self.item, dtype=np.int32),
        )

    def layer_metrics(self, radius_methods: Counter) -> Dict[str, tuple]:
        """Per-layer metrics as {name: (value, unit)}."""
        k = len(self.names)
        name = np.frombuffer(self.name, dtype=np.int32)
        total = np.bincount(
            name, weights=np.frombuffer(self.end) - np.frombuffer(self.start), minlength=k
        )
        own = np.bincount(name, weights=np.frombuffer(self.self_time), minlength=k)
        calls = np.bincount(name, minlength=k)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        parent_name = np.where(parent >= 0, name[parent], -1)

        def nid(key: str) -> int:
            return self._ids.get(key, -1)

        def get(arr, key: str):
            i = nid(key)
            return arr[i].item() if i >= 0 else 0

        def under(child: str, parent_key: str) -> int:
            if nid(child) < 0 or nid(parent_key) < 0:
                return 0
            return int(np.count_nonzero((name == nid(child)) & (parent_name == nid(parent_key))))

        iters = self.counts["solver.ellipsoid_iters"]
        queries = self.counts["solver.level_queries"]
        ffp_calls = get(calls, "lp.find_feasible_point")
        out = {
            "cli.main.calls": (get(calls, CLI_MAIN), "count"),
            "cli.self_s": (get(own, CLI_MAIN), "s"),
            "cli.load_problem_s": (get(total, "cli.load_problem"), "s"),
            "lp.normalize_s": (get(total, "lp.normalize"), "s"),
            "lp.decide_feasibility.self_s": (get(own, "lp.decide_feasibility"), "s"),
            "lp.decide_feasibility.programs": (
                under("solver.run_metasteps", "lp.decide_feasibility"), "count"),
            "lp.global_radius_s": (get(total, "lp.global_radius"), "s"),
            "lp.global_radius.programs": (
                under("solver.run_metasteps", "lp.global_radius"), "count"),
            "lp.find_feasible_point_s": (get(total, "lp.find_feasible_point"), "s"),
            "lp.find_feasible_point.attempts_per_call": (
                under("solver.run_metasteps", "lp.find_feasible_point") / ffp_calls
                if ffp_calls else 0.0, "ratio"),
        }
        for method in ("GlobalC", "EpsilonShift", "Halving"):
            out[f"lp.radius_method.{method}"] = (radius_methods[method], "count")
        out.update({
            "solver.self_s": (
                get(own, "solver.run_metasteps") + get(own, "solver.bisect_level"), "s"),
            "solver.run_metasteps.calls": (get(calls, "solver.run_metasteps"), "count"),
            "solver.metasteps": (get(calls, "solver.bisect_level"), "count"),
            "solver.level_queries": (queries, "count"),
            "solver.ellipsoid_iters": (iters, "count"),
            "solver.iters_per_query": (iters / queries if queries else 0.0, "ratio"),
            "solver.us_per_iter": (
                get(total, "solver.bisect_level") / iters * 1e6 if iters else 0.0, "us"),
            "solver.probe_rounds": (under("oracles.eval_many", "solver.bisect_level"), "count"),
            "geometry.deep_cut.calls": (get(calls, "geometry.deep_cut"), "count"),
            "geometry.deep_cut.self_s": (get(own, "geometry.deep_cut"), "s"),
            "geometry.factor_s": (get(total, "geometry.factor"), "s"),
            "geometry.empty_intersections": (
                self.counts["geometry.empty_intersections"], "count"),
            "geometry.intersects_halfspace.calls": (
                get(calls, "geometry.intersects_halfspace"), "count"),
            "geometry.intersects_halfspace_s": (
                get(total, "geometry.intersects_halfspace"), "s"),
        })
        for op in ("eval", "subgradient", "eval_many", "constraint_check"):
            out[f"oracles.{op}.calls"] = (get(calls, f"oracles.{op}"), "count")
            out[f"oracles.{op}_s"] = (get(total, f"oracles.{op}"), "s")
        return out
