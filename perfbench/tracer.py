"""Per-layer spans of a simulator run, recorded from outside the library.

`Tracer.install()` rebinds each public function in `FUNCTIONS` in every
loaded `hashcast.*` module namespace that holds it: `simulation`, `ledger`
and `verification` use `from .core import ...`, so patching `core` alone
would miss most calls.  Methods in `METHODS` are patched on their classes.
Every callable handed to `EventQueue.push` is wrapped, so each event becomes
a `simulation.handler.<callback>` span whose parent is `EventQueue.run`.

A span is (name, start, end, parent).  Spans are kept in flat arrays while
the run executes and summarised after `uninstall()`.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

# (module, function, span name)
FUNCTIONS = [
    ("core", "digest", "core.digest"),
    ("core", "block_digest", "core.block_digest"),
    ("core", "serialize_transaction", "core.serialize_transaction"),
    ("core", "serialize_block", "core.serialize_block"),
    ("core", "make_block", "core.make_block"),
    ("core", "create_transaction", "core.create_transaction"),
    ("ledger", "commit_transactions", "ledger.commit_transactions"),
    ("verification", "select_validator_set", "verification.select_validator_set"),
    ("verification", "select_verifier_set", "verification.select_verifier_set"),
    ("verification", "verify_transaction", "verification.verify_transaction"),
    ("verification", "verify_block", "verification.verify_block"),
    ("verification", "verify_endorsements", "verification.verify_endorsements"),
    ("verification", "endorse_block", "verification.endorse_block"),
    ("transmission", "route_multicast", "transmission.route_multicast"),
    ("transmission", "compute_routes", "transmission.compute_routes"),
    ("transmission", "join_network", "transmission.join_network"),
    ("transmission", "evaluate_window", "transmission.evaluate_window"),
    ("transmission", "reconstruct_backbone", "transmission.reconstruct_backbone"),
    ("weights", "build_allocation", "weights.build_allocation"),
    ("cli", "csv_row", "cli.csv_row"),
]

# (module, class, method, span name)
METHODS = [
    ("core", "SimulatedSigner", "sign", "core.signer.sign"),
    ("core", "SimulatedSigner", "verify", "core.signer.verify"),
    ("ledger", "Ledger", "append_block", "ledger.Ledger.append_block"),
    ("ledger", "PendingPool", "add", "ledger.PendingPool.add"),
    ("weights", "RangeAllocation", "owner_index", "weights.RangeAllocation.owner_index"),
    ("weights", "RangeAllocation", "range_of", "weights.RangeAllocation.range_of"),
    ("weights", "RangeAllocation", "position_of", "weights.RangeAllocation.position_of"),
    ("weights", "RangeAllocation", "range_for", "weights.RangeAllocation.range_for"),
    ("fees", "TrafficAccounting", "settle_epoch", "fees.settle_epoch"),
    ("simulation", "EventQueue", "run", "simulation.EventQueue.run"),
]

PUSH_SPAN = "simulation.EventQueue.push"
HANDLER_PREFIX = "simulation.handler."

# Event callbacks the workloads schedule, by name without the leading "_".
HANDLERS = (
    "begin_epoch",
    "register",
    "finalize_allocation",
    "inject_tx",
    "tx_at_backbone",
    "tx_delivered",
    "block_at_backbone",
    "block_delivered",
    "broadcast_endorsed",
    "endorsed_delivered",
    "flush_pools",
    "settle",
    "monitor_window",
    "rui_tick",
    "allocate",
    "receive",
)


def _pool_add(counters: Counter, accepted) -> None:
    counters["ledger.pool_add.accepted"] += bool(accepted)


def _verifier_set(counters: Counter, vset) -> None:
    counters["verification.select_verifier_set.relocated"] += vset.relocated


def _multicast(counters: Counter, result) -> None:
    counters["transmission.route_multicast.links"] += result.link_transmissions
    counters["transmission.route_multicast.deliveries"] += len(result.deliveries)


# Counts taken from return values, where a layer can waste work.
RESULT_HOOKS = {
    "ledger.PendingPool.add": _pool_add,
    "verification.select_verifier_set": _verifier_set,
    "transmission.route_multicast": _multicast,
}


@dataclass
class TraceSummary:
    calls: Counter = field(default_factory=Counter)
    self_s: Counter = field(default_factory=Counter)
    counters: Counter = field(default_factory=Counter)
    top_level_s: float = 0.0
    min_self_s: float = 0.0
    grind_tries: int = 0  # make_block calls made directly by commit_transactions

    def add(self, other: "TraceSummary") -> None:
        self.calls.update(other.calls)
        self.self_s.update(other.self_s)
        self.counters.update(other.counters)
        self.top_level_s += other.top_level_s
        self.min_self_s = min(self.min_self_s, other.min_self_s)
        self.grind_tries += other.grind_tries


class Tracer:
    def __init__(self):
        self._span_ids: dict[str, int] = {}
        self._span_names: list[str] = []
        self._ids = array("i")
        self._parents = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def _span_id(self, name: str) -> int:
        if name not in self._span_ids:
            self._span_ids[name] = len(self._span_names)
            self._span_names.append(name)
        return self._span_ids[name]

    def wrap(self, fn, name: str):
        """A callable that runs `fn` inside a span called `name`."""
        span_id = self._span_id(name)
        ids, parents, starts, ends, stack = (
            self._ids, self._parents, self._starts, self._ends, self._stack
        )
        hook = RESULT_HOOKS.get(name)
        counters = self.counters
        clock = perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(span_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, result)
            return result

        return traced

    def _handler_runner(self):
        # Same recording as wrap(), but the span id travels with each queued
        # event, so one runner serves every handler without a closure per push.
        ids, parents, starts, ends, stack = (
            self._ids, self._parents, self._starts, self._ends, self._stack
        )
        clock = perf_counter

        def run_handler(span_id, fn, *args):
            idx = len(starts)
            ids.append(span_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                fn(*args)
            finally:
                ends[idx] = clock()
                stack.pop()

        return run_handler

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "hashcast" or name.startswith("hashcast.")
        ]
        for module_name, func_name, span_name in FUNCTIONS:
            original = getattr(sys.modules[f"hashcast.{module_name}"], func_name)
            traced = self.wrap(original, span_name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, traced)
        for module_name, class_name, method, span_name in METHODS:
            cls = getattr(sys.modules[f"hashcast.{module_name}"], class_name)
            self._set(cls, method, self.wrap(cls.__dict__[method], span_name))

        queue_cls = sys.modules["hashcast.simulation"].EventQueue
        original_push = queue_cls.__dict__["push"]
        run_handler = self._handler_runner()
        handler_ids: dict[str, int] = {}

        def push(queue, time, fn, *args):
            name = fn.__name__
            span_id = handler_ids.get(name)
            if span_id is None:
                span_id = handler_ids[name] = self._span_id(HANDLER_PREFIX + name.lstrip("_"))
            original_push(queue, time, run_handler, span_id, fn, *args)

        self._set(queue_cls, "push", self.wrap(push, PUSH_SPAN))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def summary(self) -> TraceSummary:
        """Aggregate the recorded spans by name, then drop them."""
        if self._stack:
            raise RuntimeError("summary taken while spans are still open")
        ids, parents, starts, ends = self._ids, self._parents, self._starts, self._ends
        count = len(ids)
        child = [0.0] * count
        for i in range(count):
            parent = parents[i]
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        names = self._span_names
        calls = [0] * len(names)
        self_total = [0.0] * len(names)
        out = TraceSummary(counters=Counter(self.counters))
        commit_id = self._span_ids.get("ledger.commit_transactions")
        make_block_id = self._span_ids.get("core.make_block")
        min_self = 0.0
        for i in range(count):
            span_id = ids[i]
            duration = ends[i] - starts[i]
            own = duration - child[i]
            calls[span_id] += 1
            self_total[span_id] += own
            if own < min_self:
                min_self = own
            parent = parents[i]
            if parent < 0:
                out.top_level_s += duration
            elif span_id == make_block_id and ids[parent] == commit_id:
                out.grind_tries += 1
        out.min_self_s = min_self
        for span_id, name in enumerate(names):
            out.calls[name] = calls[span_id]
            out.self_s[name] = self_total[span_id]
        for buf in (self._ids, self._parents, self._starts, self._ends):
            del buf[:]
        self.counters.clear()
        return out
