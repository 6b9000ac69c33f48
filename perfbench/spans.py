"""In-memory spans around gamarket functions, and per-layer metrics from them.

Functions are wrapped by name in the module that looks them up (for
example `gamarket.simulation.train`, the name `run_simulation` calls), so
the program itself carries no tracing code.  A name that no longer
exists is reported as absent instead of failing the run.  Spans assume
one thread, which holds because the benchmark never passes `--jobs`.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter_ns

# (module that looks the name up, attribute, span name = "<layer>.<function>")
TARGETS = (
    ("gamarket.cli", "parse_config", "config.parse_config"),
    ("gamarket.cli", "run_simulation", "simulation.run_simulation"),
    ("gamarket.cli", "emit_reports", "reports.emit_reports"),
    ("gamarket.simulation", "load_prices", "data.load_prices"),
    ("gamarket.simulation", "build_window", "data.build_window"),
    ("gamarket.simulation", "train", "neural.train"),
    ("gamarket.simulation", "evaluate_error", "neural.evaluate_error"),
    ("gamarket.players", "forward", "neural.forward"),
    ("gamarket.simulation", "committee_predict", "players.committee_predict"),
    ("gamarket.simulation", "run_clearing", "market.run_clearing"),
    ("gamarket.simulation", "evolve_generation", "evolution.evolve_generation"),
    ("gamarket.simulation", "record_networth", "metrics.record_networth"),
    ("gamarket.simulation", "record_generation", "metrics.record_generation"),
)
ROOT = "simulation.run_simulation"


def _count_epochs(counters, args, kwargs, result) -> None:
    hp = kwargs["hp"] if "hp" in kwargs else args[2]
    counters["neural.agent_epochs"] += hp.epochs


def _count_clearing(counters, args, kwargs, result) -> None:
    counters["market.rounds"] += result.rounds
    counters["market.trades"] += len(result.trades)
    counters["market.round_cap_days"] += result.terminated_by.value == "round_cap"


def _count_kept(counters, args, kwargs, result) -> None:
    agents = list(result.iter_agents())
    counters["evolution.kept_agents"] += sum(a.last_training_error is not None for a in agents)
    counters["evolution.agents"] += len(agents)


# Counts taken from each call's arguments or result, where the work happens.
OBSERVERS = {
    "neural.train": _count_epochs,
    "market.run_clearing": _count_clearing,
    "evolution.evolve_generation": _count_kept,
}


class Recorder:
    """Spans as parallel lists: name id, start, end, parent index (-1 = none)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.broken: set[str] = set()  # counters whose observer no longer fits
        self._stack: list[int] = []

    def wrap(self, span_name: str, fn, observe=None):
        name_id = len(self.names)
        self.names.append(span_name)
        # Bound methods as closure locals keep the per-call cost low; that
        # cost lands in the caller's self time and in trace.overhead_s.
        stack, end, start = self._stack, self.end, self.start
        push, pop = stack.append, stack.pop
        add_name, add_parent, add_end, add_start = (
            self.name.append,
            self.parent.append,
            self.end.append,
            self.start.append,
        )
        counters, broken = self.counters, self.broken

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            add_name(name_id)
            add_parent(stack[-1] if stack else -1)
            add_end(0)
            push(index)
            add_start(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    try:
                        observe(counters, args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        broken.add(span_name)
                return result
            finally:
                end[index] = perf_counter_ns()
                pop()

        return traced

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "counters": dict(self.counters),
            "broken": sorted(self.broken),
        }


def install(recorder: Recorder, targets=TARGETS) -> list[str]:
    """Wrap every target that exists; return the span names that are absent."""
    absent = []
    for module_name, attr, span_name in targets:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            absent.append(span_name)
            continue
        fn = getattr(module, attr, None)
        if not callable(fn):
            absent.append(span_name)
            continue
        setattr(module, attr, recorder.wrap(span_name, fn, OBSERVERS.get(span_name)))
    return absent


def self_times(spans: dict) -> tuple[dict[str, float], dict[str, int], float]:
    """Self seconds and call count per span name, and the root span's seconds.

    A span's self time is its duration minus the durations of its direct
    children, so the self times inside the root sum to the root's duration.
    """
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    child_ns = [0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child_ns[p] += end[i] - start[i]
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    root_s = 0.0
    for i, name_id in enumerate(spans["name"]):
        name = spans["names"][name_id]
        self_s[name] += (end[i] - start[i] - child_ns[i]) / 1e9
        calls[name] += 1
        if name == ROOT:
            root_s += (end[i] - start[i]) / 1e9
    return dict(self_s), dict(calls), root_s


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def SELF(s: float, n: int, k: dict) -> float:
    return s


def CALLS(s: float, n: int, k: dict) -> float:
    return n


# Per-layer metric -> (unit, span it comes from, formula over that span's
# self seconds s, call count n and the run's counters k).  A metric whose
# span is absent, or whose counter no longer fits the program, is left out.
LAYER_METRICS = {
    "config.parse_config_s": ("s", "config.parse_config", SELF),
    "data.load_prices_s": ("s", "data.load_prices", SELF),
    "data.build_window_calls": ("count", "data.build_window", CALLS),
    "data.build_window_s": ("s", "data.build_window", SELF),
    "neural.train_calls": ("count", "neural.train", CALLS),
    "neural.agent_epochs": ("count", "neural.train", lambda s, n, k: k["neural.agent_epochs"]),
    "neural.train_s": ("s", "neural.train", SELF),
    "neural.train_us_per_agent_epoch": (
        "us",
        "neural.train",
        lambda s, n, k: 1e6 * _ratio(s, k["neural.agent_epochs"]),
    ),
    "neural.evaluate_error_calls": ("count", "neural.evaluate_error", CALLS),
    "neural.evaluate_error_s": ("s", "neural.evaluate_error", SELF),
    "neural.forward_calls": ("count", "neural.forward", CALLS),
    "neural.forward_s": ("s", "neural.forward", SELF),
    "players.committee_predict_calls": ("count", "players.committee_predict", CALLS),
    "players.committee_predict_s": ("s", "players.committee_predict", SELF),
    "market.run_clearing_s": ("s", "market.run_clearing", SELF),
    "market.rounds": ("count", "market.run_clearing", lambda s, n, k: k["market.rounds"]),
    "market.trades": ("count", "market.run_clearing", lambda s, n, k: k["market.trades"]),
    "market.trades_per_round": (
        "ratio",
        "market.run_clearing",
        lambda s, n, k: _ratio(k["market.trades"], k["market.rounds"]),
    ),
    "market.round_cap_days": ("count", "market.run_clearing", lambda s, n, k: k["market.round_cap_days"]),
    "market.us_per_round": (
        "us",
        "market.run_clearing",
        lambda s, n, k: 1e6 * _ratio(s, k["market.rounds"]),
    ),
    "evolution.evolve_generation_calls": ("count", "evolution.evolve_generation", CALLS),
    "evolution.evolve_generation_s": ("s", "evolution.evolve_generation", SELF),
    "evolution.kept_weights_ratio": (
        "ratio",
        "evolution.evolve_generation",
        lambda s, n, k: _ratio(k["evolution.kept_agents"], k["evolution.agents"]),
    ),
    "metrics.record_networth_s": ("s", "metrics.record_networth", SELF),
    "metrics.record_generation_s": ("s", "metrics.record_generation", SELF),
    "reports.emit_reports_s": ("s", "reports.emit_reports", SELF),
    "simulation.self_s": ("s", ROOT, SELF),
}


def layer_metrics(spans: dict, absent: list[str]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as name -> (value, unit)."""
    self_s, calls, _ = self_times(spans)
    counters = defaultdict(float, spans["counters"])
    missing = set(absent) | set(spans["broken"])
    return {
        metric: (float(formula(self_s.get(span, 0.0), calls.get(span, 0), counters)), unit)
        for metric, (unit, span, formula) in LAYER_METRICS.items()
        if span not in missing
    }
