"""Deterministic discrete-event runs of the multicast chain and its baseline.

One run wires the whole pipeline together: registration window, range
allocation, transaction injection, hash-directed multicast through the
backbone, double verification, endorsement, endorsed-block broadcast, and
epoch settlement.  The baseline mode floods every item over a ring laid on a
seeded shuffle of the same population and lets every node verify everything.

Everything is driven by a single event queue; equal-time events fire in
insertion order, and all randomness comes from per-purpose seeded streams,
so a config+seed pair always produces the same event trace and report.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from typing import Optional

from . import transmission
from .config import ScenarioConfig
from .core import (
    Block,
    KeyPair,
    PublicKey,
    SimulatedSigner,
    Transaction,
    block_size,
    create_transaction,
    transaction_id,
    transaction_size,
)
from .fees import TrafficAccounting
from .ledger import (
    Ledger,
    PendingPool,
    commit_transactions,
    grind_block,
)
from .transmission import (
    BackboneGraph,
    MulticastResult,
    build_backbone,
    charge_monitors,
    compute_routes,
    evaluate_window,
    join_network,
    reconstruct_backbone,
    route_multicast,
    routing_table_bytes,
)
from .verification import (
    MisbehaviorReport,
    NodeSet,
    SetParams,
    VerificationOutcome,
    audit_endorsed_block,
    expected_verifier_set,
    select_validator_set,
    tally_endorsement,
    verify_block,
    verify_endorsements,
    verify_transaction,
)
from .weights import RangeAllocation, build_allocation

# Fixed model constants: the paper's evaluation never varies any of them.
REGISTRATION_WINDOW_MS = 100.0  # each epoch opens with this registration window
TX_INTERVAL_MS = 1.0  # one transaction is injected per interval after the window
EPOCH_MARGIN_MS = 200.0  # least slack after the last injection for the flush and settlement
VERIFY_COST_MS = 0.1  # modelled processing time of one verification
TRAFFIC_FEE = Fraction(1, 2)  # the fee a range owner pays per block in its ledger


class RunError(RuntimeError):
    """A valid config reached a state the protocol cannot continue from."""


@dataclass
class MetricsReport:
    """Counters and samples collected over one run; counters only grow."""

    packet_bytes_iot: int = 0
    packet_bytes_backbone: int = 0
    verify_ops: int = 0
    audit_ops: int = 0
    delay_samples: list[float] = field(default_factory=list)
    routing_table_bytes: int = 0
    routing_failures: int = 0
    lost_items: int = 0
    injected_tx: int = 0
    committed_tx: int = 0
    blocks_committed: int = 0
    endorsed_blocks: int = 0
    isolated: list[str] = field(default_factory=list)
    reports: list[MisbehaviorReport] = field(default_factory=list)
    detection_time_ms: Optional[float] = None
    excluded: list[str] = field(default_factory=list)

    @property
    def detected(self) -> bool:
        return self.detection_time_ms is not None

    @property
    def verify_time_ms(self) -> float:
        return self.verify_ops * VERIFY_COST_MS

    @property
    def mean_delay_ms(self) -> float:
        if not self.delay_samples:
            return 0.0
        return sum(self.delay_samples) / len(self.delay_samples)

    @property
    def max_delay_ms(self) -> float:
        return max(self.delay_samples) if self.delay_samples else 0.0


class EventQueue:
    """Time-ordered callbacks; ties resolved by insertion sequence."""

    def __init__(self):
        self._heap: list[tuple[float, int, object, tuple]] = []
        self._seq = 0
        self.now = 0.0

    def push(self, time: float, fn, *args) -> None:
        if time < self.now - 1e-9:
            raise ValueError("cannot schedule an event in the past")
        seq = self._seq
        heappush(self._heap, (time, seq, fn, args))
        self._seq = seq + 1

    def run(self) -> None:
        heap, pop = self._heap, heappop
        while heap:
            time, _, fn, args = pop(heap)
            self.now = time
            fn(*args)


@dataclass
class Identity:
    node_id: int
    keypair: KeyPair
    role: str  # "validator" | "node" | "auditor"

    @property
    def public(self) -> PublicKey:
        return self.keypair.public

    @property
    def display(self) -> str:
        return self.keypair.public.display


@dataclass(eq=False)
class Epoch:
    """One published allocation and everything judged under it.

    A transaction is bound to the record published when it is injected and a
    block to the record it was cut under, so a copy still in flight across an
    allocation is pooled, verified, appended and audited under the one it was
    sent under.  `tips` holds each range owner's last sent block, which its
    next block links to; `signatures` and `memo` the shared verdicts (see
    `VericomRun._once`); `votes` each block's verifier verdicts so far.
    """

    alloc: RangeAllocation
    params: Optional[SetParams]  # None in the baseline, which forms no sets
    pools: dict[str, PendingPool]
    ledgers: dict[str, Ledger]
    tips: dict[str, str]
    signatures: dict[Transaction, bool] = field(default_factory=dict)
    memo: dict[tuple, object] = field(default_factory=dict)
    votes: dict[str, dict[str, VerificationOutcome]] = field(default_factory=dict)


class _RunBase:
    """The run path both modes share: epochs, traffic, pools, ledgers, blocks.

    Every epoch lasts `epoch_ms`: the registration window, one interval per
    transaction of the busiest epoch, and `margin_ms`.  The margin is at
    least twice the subclass's `_transit_ms`, the longest a transaction can
    take from its sender to a pool, so the flush half a margin before the
    epoch ends comes after every transaction of the epoch is pooled.  A
    subclass also provides `_schedule_epoch`, which calls `_schedule_traffic`
    and schedules the event that calls `_open_epoch`, `_send_tx` for a fresh
    transaction and `_send_block` for a freshly cut block, which records the
    block as its owner's tip once it is sent.
    """

    def __init__(self, config: ScenarioConfig):
        self.config = config
        # epoch 0 takes the remainder of tx_count, so it is the busiest
        busiest = config.txs_in_epoch(0)
        self.margin_ms = max(EPOCH_MARGIN_MS, 2 * self._transit_ms())
        self.epoch_ms = REGISTRATION_WINDOW_MS + busiest * TX_INTERVAL_MS + self.margin_ms
        self.backend = SimulatedSigner()
        self.queue = EventQueue()
        self.metrics = MetricsReport()
        self.log_lines: list[str] = []
        self.rng_topology = random.Random(f"{config.seed}:topology")
        self.rng_payload = random.Random(f"{config.seed}:payload")
        self.rng_access = random.Random(f"{config.seed}:access")
        self.rng_schedule = random.Random(f"{config.seed}:schedule")
        self.identities: list[Identity] = []
        self.by_display: dict[str, Identity] = {}
        self.allocation_tables: list[str] = []
        self.settlement_lines: list[str] = []
        self.routing_dump = ""
        self.epoch: Optional[Epoch] = None  # the published record
        self.ledgers: dict[int, dict[str, Ledger]] = {}
        self._build_population()

    def log(self, actor: str, kind: str, info: str) -> None:
        self.log_lines.append(f"{self.queue.now:.6f} {actor} {kind} {info}")

    def _build_population(self) -> None:
        config = self.config
        total = config.num_iot_nodes
        for node_id in range(total):
            role = "validator" if node_id < config.num_validators else "node"
            kp = self.backend.keypair(f"{config.seed}:node:{node_id}".encode())
            self.identities.append(Identity(node_id=node_id, keypair=kp, role=role))
        if config.mode == "vericom" and config.auditor:
            kp = self.backend.keypair(f"{config.seed}:auditor".encode())
            self.identities.append(Identity(node_id=total, keypair=kp, role="auditor"))
        for ident in self.identities:
            self.by_display[ident.display] = ident
        self.owners = self.identities[: config.ring_size]
        self.auditors = [i.display for i in self.identities if i.role == "auditor"]

    def make_payload(self) -> bytes:
        return self.rng_payload.randbytes(self.config.payload_size)

    # -- run -----------------------------------------------------------

    def run(self) -> MetricsReport:
        for epoch in range(self.config.epochs):
            start = epoch * self.epoch_ms
            self._schedule_epoch(epoch, start, start + REGISTRATION_WINDOW_MS)
        self.queue.run()
        committed = 0
        for epoch_ledgers in self.ledgers.values():
            for ledger in epoch_ledgers.values():
                committed += sum(len(b.transactions) for b in ledger.blocks)
        self.metrics.committed_tx = committed
        return self.metrics

    def _schedule_traffic(self, epoch: int, start: float, window_end: float) -> None:
        """The epoch's tx injections after its registration window, then the flush."""
        for k in range(self.config.txs_in_epoch(epoch)):
            self.queue.push(window_end + (k + 1) * TX_INTERVAL_MS, self._inject_tx)
        epoch_end = start + self.epoch_ms
        self.queue.push(epoch_end - self.margin_ms / 2, self._flush_pools)

    def _open_epoch(self, epoch: int, alloc: RangeAllocation, params, actor: str) -> None:
        """Publish the epoch's record: every range owner gets a fresh pool, ledger and tip."""
        self.allocation_tables.append(alloc.table())
        self.log(actor, "allocation", f"epoch={epoch} validators={len(alloc.validators)}")
        record = self.epoch = Epoch(alloc, params, pools={}, ledgers={}, tips={})
        for pk in alloc.validators:
            record.pools[pk.display] = PendingPool(owner=pk, alloc=alloc)
            record.ledgers[pk.display] = Ledger(owner=pk)
            record.tips[pk.display] = ""
        self.ledgers[epoch] = record.ledgers

    # -- transactions and blocks ----------------------------------------

    def _inject_tx(self) -> None:
        sender_id = self.rng_schedule.choice(range(self.config.num_iot_nodes))
        ident = self.identities[sender_id]
        tx = create_transaction(ident.keypair, self.make_payload(), self.backend)
        self.metrics.injected_tx += 1
        self.log(f"node.{sender_id}", "inject-tx", tx.id)
        self._send_tx(ident, tx)

    def _commit_block(self, epoch: Epoch, display: str, allow_partial: bool) -> None:
        ident = self.by_display[display]
        block = commit_transactions(
            ident.keypair,
            epoch.pools[display],
            self.config.block_size,
            epoch.alloc,
            self.backend,
            epoch.tips[display],
            allow_partial=allow_partial,
        )
        if block is None:
            return
        self.metrics.blocks_committed += 1
        self.log(f"node.{ident.node_id}", "commit-block", block.digest)
        self._send_block(epoch, ident, block)

    def _pool_tx(self, epoch: Epoch, display: str, tx: Transaction) -> None:
        """Pool a verified tx at `display` under `epoch`; a full pool cuts a block."""
        pool = epoch.pools.get(display)
        if pool is not None and pool.add(tx):
            self._commit_block(epoch, display, allow_partial=False)

    def _flush_pools(self) -> None:
        """Cut a last block from every non-empty pool of the published record."""
        for pk in self.epoch.alloc.validators:
            self._commit_block(self.epoch, pk.display, allow_partial=True)


def _validator_displays(d: str, alloc: RangeAllocation, params: SetParams) -> tuple[str, ...]:
    """The displays of the validator set of digest `d`, in set order."""
    return tuple(pk.display for pk in select_validator_set(d, alloc, params).members)


class VericomRun(_RunBase):
    """Backbone-routed multicast mode."""

    def __init__(self, config: ScenarioConfig):
        super().__init__(config)
        self.graph: BackboneGraph = self._build_graph()
        self.access: list[list[float]] = self._draw_access_delays()  # [node_id][bn_id]
        # each row's backbone ids in ascending (delay, id) order: the join order
        self.nearest = [sorted(range(len(row)), key=row.__getitem__) for row in self.access]
        self.home: dict[str, int] = {}
        # (origin, destination displays) -> plan; dropped by _join_all
        self.plans: dict[tuple[int, tuple[str, ...]], MulticastResult] = {}
        self.excluded_bns: set[int] = set()
        self.dishonest: frozenset[bytes] = frozenset()  # raw keys of colluding verifiers
        self.accounting = TrafficAccounting(TRAFFIC_FEE)
        self.closed_epochs: list[tuple[int, list[int]]] = []  # (epoch, backbone ids)
        self.barred: frozenset[str] = frozenset()  # displays refused a range; set by _begin_epoch

    # -- setup ---------------------------------------------------------

    def _build_graph(self) -> BackboneGraph:
        config = self.config
        count = config.num_backbone
        specs = [(i, config.capacity(count)) for i in range(count)]
        links = []
        if config.backbone_topology == "chain":
            links = [(i - 1, i, config.link_delay_ms) for i in range(1, count)]
        elif config.backbone_topology == "star":
            links = [(0, i, config.link_delay_ms) for i in range(1, count)]
        else:  # random-connected: incremental attachment to a random member
            for i in range(1, count):
                parent = self.rng_topology.randrange(i)
                links.append((parent, i, config.link_delay_ms))
        graph = build_backbone(specs, links)
        if config.attack == "dropping":
            for bn_id in config.adversary_ids:
                graph[bn_id].drop_all = True
        return graph

    def _draw_access_delays(self) -> list[list[float]]:
        """Access-link delays: `access[node_id][bn_id]`, one row per identity.

        The delay of a pair is `min + (max - min) * u`, where `u` is the
        first 8 bytes, big-endian, of SHA-256(`{seed}:access:{node}:{bn}`)
        over 2**64.  Each row hashes its `{seed}:access:{node}:` prefix once
        and copies that state per backbone node, so every delay is still its
        own pair's hash and never depends on how many other pairs exist;
        growing the backbone leaves the delays every node already measured
        unchanged.  Rows are in node-id order, the auditor's last.
        """
        config = self.config
        low = config.access_delay_min_ms
        span = config.access_delay_max_ms - low
        suffixes = [str(bn_id).encode() for bn_id in range(config.num_backbone)]
        from_bytes, rows = int.from_bytes, []
        for ident in self.identities:
            prefix = hashlib.sha256(f"{config.seed}:access:{ident.node_id}:".encode())
            row = []
            for suffix in suffixes:
                h = prefix.copy()
                h.update(suffix)
                row.append(low + span * (from_bytes(h.digest()[:8], "big") / 2**64))
            rows.append(row)
        return rows

    def _join_all(self) -> None:
        self.home = {}
        self.plans.clear()
        for ident in self.identities:
            nearest = self.nearest[ident.node_id]
            attached = join_network(ident.display, ident.role, nearest, self.graph)
            if attached is None:
                if ident.display not in self.metrics.isolated:
                    self.metrics.isolated.append(ident.display)
                self.log(f"node.{ident.node_id}", "isolated", ident.display[:8])
            else:
                self.home[ident.display] = attached
        compute_routes(self.graph)
        table_size = max(routing_table_bytes(bn) for bn in self.graph.values())
        self.metrics.routing_table_bytes = max(
            self.metrics.routing_table_bytes, table_size
        )

    # -- run -----------------------------------------------------------

    def run(self) -> MetricsReport:
        self._join_all()
        lowest = self.graph[min(self.graph)]
        super().run()
        for epoch, backbone_ids in self.closed_epochs:
            lengths = {d: ledger.ledger_length for d, ledger in self.ledgers[epoch].items()}
            self.settlement_lines += self.accounting.settle_epoch(lengths, backbone_ids, epoch)
        self.routing_dump = transmission.routing_table_text(lowest)
        return self.metrics

    def _transit_ms(self) -> float:
        """Both access legs and the longest simple backbone path; a rebuild
        only adds bridges of `link_delay_ms`, so no later path is longer."""
        config = self.config
        return 2 * config.access_delay_max_ms + (config.num_backbone - 1) * config.link_delay_ms

    def _schedule_epoch(self, epoch: int, start: float, window_end: float) -> None:
        config = self.config
        self.queue.push(start, self._begin_epoch, epoch)
        for i, ident in enumerate(self.owners):
            at = start + REGISTRATION_WINDOW_MS * (i + 1) / (len(self.owners) + 2)
            self.queue.push(at, self._register, ident)
        self.queue.push(window_end, self._finalize_allocation, epoch)
        self._schedule_traffic(epoch, start, window_end)
        epoch_end = start + self.epoch_ms
        self.queue.push(epoch_end - self.margin_ms / 10, self._settle, epoch)
        if config.trust_mode == "untrusted":
            window = config.monitor_window_ms
            last = epoch_end - self.margin_ms / 4
            for w in range(1, max(1, int(self.epoch_ms // window)) + 1):
                # Ticks past `last` are clamped onto it; only the first one can act.
                at = min(start + w * window, last)
                self.queue.push(at, self._monitor_window, w)
                if at == last:
                    break

    def _begin_epoch(self, epoch: int) -> None:
        """Open the registration window; owners excluded so far are refused a range."""
        self.barred = frozenset(self.metrics.excluded)
        self.log("sim", "epoch-start", str(epoch))

    def _register(self, ident: Identity) -> None:
        status = "rejected-excluded" if ident.display in self.barred else "accepted"
        self.log(f"node.{ident.node_id}", "register", f"{ident.display[:8]} {status}")

    def _finalize_allocation(self, epoch: int) -> None:
        """At the window's end, allocate the ranges over the owners not barred."""
        registered = [i.public for i in self.owners if i.display not in self.barred]
        try:
            alloc = build_allocation(registered)
            params = SetParams(self.config.n, self.config.m, len(alloc.validators))
        except ValueError as exc:
            raise RunError(
                f"epoch {epoch}: {len(registered)} validators registered after exclusions: {exc}"
            ) from exc
        self._open_epoch(epoch, alloc, params, "vrd")
        self._arm_attack(epoch)

    # -- transaction pipeline -------------------------------------------

    def _uplink(self, ident: Identity, handler, epoch: Epoch, item) -> bool:
        """Send an item, bound to `epoch`, over the sender's access link to its backbone node.

        A sender attached to no backbone node counts one routing failure
        and sends nothing; the return value says whether the item went out.
        """
        bn_id = self.home.get(ident.display)
        if bn_id is None:
            self.metrics.routing_failures += 1
            return False
        send_time = self.queue.now
        arrive = send_time + self.access[ident.node_id][bn_id]
        self.queue.push(arrive, handler, epoch, item, bn_id, send_time)
        return True

    def _send_tx(self, ident: Identity, tx: Transaction) -> None:
        self._uplink(ident, self._tx_at_backbone, self.epoch, tx)

    def _tx_at_backbone(self, epoch: Epoch, tx: Transaction, bn_id: int, send_time: float) -> None:
        if bn_id not in self.graph:
            self.metrics.lost_items += 1
            return
        displays = self._once(
            epoch,
            ("validators", epoch.alloc.owner_index(tx.id)),
            _validator_displays, tx.id, epoch.alloc, epoch.params,
        )  # fmt: skip
        self.metrics.verify_ops += self._multicast(
            epoch, bn_id, displays, transaction_size(tx), send_time, self._tx_delivered, tx
        )

    def _multicast(self, epoch, bn_id, displays, size, send_time, handler, item) -> int:
        """Send an item from backbone node `bn_id` to every attached one of `displays`.

        Every multicast is charged here, from a fresh or a reused plan alike:
        its bytes, routing failures and losses and, in untrusted mode, where
        a monitoring window reads them, its monitor counts.  A destination
        attached nowhere is a missing route.  Schedules `handler` once per
        delivery and returns the number of deliveries.  A plan depends only
        on `bn_id`, `displays` and what `_join_all` sets up, so it is kept in
        `plans` until the next `_join_all`.  `queue.push` is read per call: a
        caller may rebind it after the run is built.
        """
        key = (bn_id, tuple(displays))
        result = self.plans.get(key)
        if result is None:
            destinations = {}
            for display in displays:
                home = self.home.get(display)
                if home is not None:
                    destinations[display] = self.access[self.by_display[display].node_id][home]
            result = self.plans[key] = route_multicast(self.graph, bn_id, destinations)
            result.missing_route += [d for d in displays if d not in destinations]
        if self.config.trust_mode == "untrusted":
            charge_monitors(self.graph, result.charged)
        metrics, deliveries = self.metrics, result.deliveries
        # the access-link copy into the backbone, then one copy per backbone link
        metrics.packet_bytes_backbone += size * (1 + result.link_transmissions)
        metrics.packet_bytes_iot += size * len(deliveries)
        metrics.routing_failures += len(result.missing_route)
        if result.lost:
            metrics.lost_items += len(result.lost)
            self.log(f"bn.{bn_id}", "multicast-losses", str(len(result.lost)))
        now, push = self.queue.now, self.queue.push
        for display, delay_ms in deliveries:
            push(now + delay_ms, handler, epoch, item, display, send_time)
        return len(deliveries)

    def _tx_delivered(self, epoch: Epoch, tx, display: str, send_time: float) -> None:
        self.metrics.delay_samples.append(self.queue.now - send_time)
        outcome = verify_transaction(tx, self.backend, signatures=epoch.signatures)
        if not outcome.ok:
            node_id = self.by_display[display].node_id
            self.log(f"node.{node_id}", "tx-rejected", f"{tx.id} {outcome.reason}")
            return
        self._pool_tx(epoch, display, tx)

    def _send_block(self, epoch: Epoch, ident: Identity, block: Block) -> None:
        if self._uplink(ident, self._block_at_backbone, epoch, block):
            epoch.tips[ident.display] = block.digest
        else:
            # the block never leaves its generator, so its transactions are lost
            self.metrics.lost_items += len(block.transactions)

    def _block_at_backbone(self, epoch: Epoch, block, bn_id: int, send_time: float) -> None:
        if bn_id not in self.graph:
            self.metrics.lost_items += 1
            return
        self.metrics.verify_ops += self._multicast(
            epoch,
            bn_id,
            [pk.display for pk in self._verifier_set(epoch, block).members],
            block_size(block),
            send_time,
            self._block_delivered,
            block,
        )

    def _block_delivered(self, epoch: Epoch, block, display: str, send_time: float) -> None:
        self.metrics.delay_samples.append(self.queue.now - send_time)
        d = block.digest
        votes = epoch.votes.setdefault(d, {})
        ident = self.by_display[display]
        if ident.public.raw in self.dishonest:
            outcome = VerificationOutcome.valid()
        else:
            outcome = self._verify_block(epoch, block)
        votes[display] = outcome
        verdict = "valid" if outcome.ok else "invalid"
        self.log(f"node.{ident.node_id}", "block-verdict", f"{d} {verdict}")
        verifier_set = self._verifier_set(epoch, block)
        if len(votes) < len(verifier_set.members):
            return
        verdicts = [
            (self.by_display[pk.display].keypair, votes[pk.display])
            for pk in verifier_set.members
        ]
        endorsed, report = tally_endorsement(block, verdicts, self.backend)
        if report is not None:
            self._record_report(report)
            return
        self.metrics.endorsed_blocks += 1
        self.log("sim", "block-endorsed", d)
        main = self.by_display[verifier_set.main.display]
        self._uplink(main, self._broadcast_endorsed, epoch, endorsed)

    def _once(self, epoch: Epoch, key: tuple, compute, *args):
        """`compute(*args)` on the first call for `key` under `epoch`'s allocation; kept after.

        A key holds everything its value reads besides the allocation: set
        selection reads only the generator and the digest owner's position, a
        block digest covers everything `verify_block` reads, and an endorsed
        copy keeps its block's digest, so the verifiers and the auditor share
        a verdict.  Each record keeps its own memo, so a copy in flight across
        an allocation is still judged under the one it was sent under.
        Callers pass `compute` and its arguments, not a closure, so a hit
        builds nothing but the key.
        """
        value = epoch.memo.get(key)
        if value is None:
            value = epoch.memo[key] = compute(*args)
        return value

    def _verify_block(self, epoch: Epoch, block: Block) -> VerificationOutcome:
        return self._once(
            epoch,
            ("block", block.digest),
            verify_block, block, epoch.alloc, self.backend, epoch.signatures,
        )  # fmt: skip

    def _verifier_set(self, epoch: Epoch, block: Block) -> NodeSet:
        return self._once(
            epoch,
            ("set", block.generator.raw, epoch.alloc.owner_index(block.digest)),
            expected_verifier_set, block, epoch.alloc, epoch.params,
        )  # fmt: skip

    def _verify_endorsements(self, epoch: Epoch, endorsed: Block) -> VerificationOutcome:
        return self._once(
            epoch,
            ("endorsed", endorsed.digest, endorsed.endorsements),
            verify_endorsements, endorsed, self._verifier_set(epoch, endorsed), self.backend,
        )  # fmt: skip

    def _detected(self) -> None:
        if not self.metrics.detected:
            self.metrics.detection_time_ms = self.queue.now

    def _record_report(self, report: MisbehaviorReport) -> None:
        self.metrics.reports.append(report)
        self._detected()
        for pk in report.accused:
            if pk.display not in self.metrics.excluded:
                self.metrics.excluded.append(pk.display)
        accused = ",".join(pk.display[:8] for pk in report.accused)
        self.log("sim", "misbehavior-report", f"{report.kind} {report.item_digest} [{accused}]")

    def _broadcast_endorsed(self, epoch: Epoch, endorsed, bn_id: int, send_time: float) -> None:
        if bn_id not in self.graph:
            self.metrics.lost_items += 1
            return
        self.log(f"bn.{bn_id}", "broadcast-endorsed", endorsed.digest)
        self._multicast(
            epoch,
            bn_id,
            [pk.display for pk in epoch.alloc.validators] + self.auditors,
            block_size(endorsed),
            send_time,
            self._endorsed_delivered,
            endorsed,
        )

    def _endorsed_delivered(self, epoch: Epoch, endorsed, display: str, send_time: float) -> None:
        """The generator appends an endorsed copy to its ledger; the auditor audits it.

        Both read one endorsement verdict (`_verify_endorsements`) under
        `epoch`, the record the block was cut under, so a copy in flight
        across an allocation is appended and audited under the one it was
        sent under.  The generator has a ledger only if it owns a range
        there.  The auditor judges the block first and its endorsements only
        if the block is valid: the verifier set of a block whose generator
        owns no range cannot be derived.
        """
        self.metrics.delay_samples.append(self.queue.now - send_time)
        if display == endorsed.generator.display:
            ledger = epoch.ledgers.get(display)
            if ledger is not None:
                outcome = ledger.append_block(endorsed, self._verify_endorsements(epoch, endorsed))
                kind = "append" if outcome.ok else f"append-rejected:{outcome.reason}"
                self.log(f"node.{self.by_display[display].node_id}", kind, endorsed.digest)
        if display in self.auditors:
            self.metrics.audit_ops += 1
            outcome = self._verify_block(epoch, endorsed)
            if outcome.ok:
                outcome = self._verify_endorsements(epoch, endorsed)
            report = audit_endorsed_block(endorsed, outcome)
            if report is not None:
                self.log("auditor", "audit-failed", f"{report.item_digest} {report.reason}")
                self._record_report(report)

    # -- epoch maintenance ----------------------------------------------

    def _settle(self, epoch: int) -> None:
        """Record the epoch's backbone; `run` bills the epoch after the queue drains,
        so a block appended after this event is billed too."""
        self.closed_epochs.append((epoch, list(self.graph)))
        # A fixed penalty count: the log format is recorded output, and
        # changing it waits for the re-record path of ROADMAP item 2.
        self.log("ta", "settlement", f"epoch={epoch} penalties=0")

    def _monitor_window(self, window: int) -> None:
        flagged = evaluate_window(self.graph)
        if not flagged:
            return
        for bn_id in flagged:
            self.log("monitor", "flagged", f"bn.{bn_id} window={window}")
        self._detected()
        self.excluded_bns.update(flagged)
        live = len(self.graph) - len(flagged)
        self.graph = reconstruct_backbone(
            self.graph, self.excluded_bns, self.config.link_delay_ms, self.config.capacity(live)
        )
        self.log("sim", "backbone-reconstructed", f"excluded={sorted(self.excluded_bns)}")
        self._join_all()

    # -- attacks ---------------------------------------------------------

    def _arm_attack(self, epoch: int) -> None:
        """At epoch 0's window end, schedule a forging generator's block."""
        config = self.config
        if config.attack in ("false-verification", "fake-transaction") and epoch == 0:
            generator = self.identities[config.adversary_ids[0]]
            at = self.queue.now + 5 * TX_INTERVAL_MS + TX_INTERVAL_MS / 2
            self.queue.push(at, self._inject_forged_block, generator)

    def _inject_forged_block(self, generator: Identity) -> None:
        """Grind a block holding a badly signed tx and let its verifiers collude.

        Under false-verification only the main verifier colludes, so its wing
        mates reject the block; under fake-transaction every verifier does.
        """
        epoch = self.epoch
        sender, signature = self.identities[-1].public, b"\x00" * 32
        payload = b"forged:" + self.rng_payload.randbytes(self.config.payload_size)
        fake_tx = Transaction(sender, payload, signature)
        block = grind_block(
            generator.keypair,
            epoch.tips[generator.display],
            [Transaction(sender, payload, signature, transaction_id(fake_tx))],
            epoch.alloc,
            self.backend,
        )
        verifiers = self._verifier_set(epoch, block)
        if self.config.attack == "false-verification":
            self.dishonest = frozenset({verifiers.main.raw})
        else:
            self.dishonest = verifiers.member_keys
        self.log(f"node.{generator.node_id}", "commit-forged-block", block.digest)
        self._send_block(epoch, generator, block)


class BaselineRun(_RunBase):
    """Conventional broadcast mode: flood everything, everyone verifies.

    The nodes form a ring laid on a seeded shuffle, and each ring link gets
    one seeded delay.  Every node verifies the first copy of an item it gets
    and passes it on over its other ring link; a repeated copy is dropped.
    So a flood over N nodes costs N + 1 copies and N verifications, all
    charged by `_originate`.  A range owner pools a transaction before
    passing it on, so a block its full pool cuts floods first.  A flood's
    hop events share one record, `(item, is_tx, send_time, seen)`, and one
    handler, `_hop` (`_receive` bound once); each looks up `queue.push` as
    it runs, since a caller may rebind it after the run is built.
    """

    def __init__(self, config: ScenarioConfig):
        super().__init__(config)
        ring = list(range(config.num_iot_nodes))
        self.rng_topology.shuffle(ring)
        # links[node] = [(neighbour, delay), ...] in neighbour order; each
        # ring link gets one delay, drawn in (lower id, higher id) order
        self.links: list[list[tuple[int, float]]] = [[] for _ in ring]
        pairs = {(min(a, b), max(a, b)) for a, b in zip(ring, ring[1:] + ring[:1]) if a != b}
        for a, b in sorted(pairs):
            delay = self.rng_access.uniform(config.access_delay_min_ms, config.access_delay_max_ms)
            self.links[a].append((b, delay))
            self.links[b].append((a, delay))
        self.onward = [
            {nb: [link for link in links if link[0] != nb] for nb, _ in links}
            for links in self.links
        ]
        self.pool_at: list[Optional[PendingPool]] = []  # each node's pool, or None
        self._hop = self._receive

    def _transit_ms(self) -> float:
        """The nearer way round the ring to the farthest node."""
        return (self.config.num_iot_nodes // 2) * self.config.access_delay_max_ms

    def _schedule_epoch(self, epoch: int, start: float, window_end: float) -> None:
        self.queue.push(window_end, self._allocate, epoch)
        self._schedule_traffic(epoch, start, window_end)

    def _allocate(self, epoch: int) -> None:
        alloc = build_allocation(i.public for i in self.owners)
        self._open_epoch(epoch, alloc, None, "sim")
        self.pool_at = [self.epoch.pools.get(i.display) for i in self.identities]

    def _send_tx(self, ident: Identity, tx: Transaction) -> None:
        self._originate(ident.node_id, tx, True, transaction_size(tx))

    def _send_block(self, epoch: Epoch, ident: Identity, block: Block) -> None:
        epoch.ledgers[ident.display].append_block(block, VerificationOutcome.valid())
        epoch.tips[ident.display] = block.digest
        self._originate(ident.node_id, block, False, block_size(block))

    def _originate(self, node_id: int, item, is_tx: bool, size: int) -> None:
        nodes, now = self.config.num_iot_nodes, self.queue.now
        self.metrics.packet_bytes_iot += (nodes + 1) * size
        self.metrics.verify_ops += nodes
        seen = bytearray(nodes)
        seen[node_id] = 1
        if is_tx and self.pool_at[node_id] is not None:
            self._pool_tx(self.epoch, self.identities[node_id].display, item)
        flood = (item, is_tx, now, seen)
        for nb, delay in self.links[node_id]:
            self.queue.push(now + delay, self._hop, node_id, nb, flood)

    def _receive(self, sender: int, node_id: int, flood: tuple) -> None:
        seen = flood[3]
        if seen[node_id]:
            return
        seen[node_id] = 1
        now = self.queue.now
        self.metrics.delay_samples.append(now - flood[2])
        if flood[1] and self.pool_at[node_id] is not None:
            self._pool_tx(self.epoch, self.identities[node_id].display, flood[0])
        for nb, delay in self.onward[node_id][sender]:
            self.queue.push(now + delay, self._hop, node_id, nb, flood)


def execute(config: ScenarioConfig):
    """Run one scenario and return the finished run object."""
    run = BaselineRun(config) if config.mode == "baseline" else VericomRun(config)
    run.run()
    return run
