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
import heapq
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
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
from .fees import Payment, TrafficAccounting, compute_tmf
from .ledger import (
    Ledger,
    PendingPool,
    RangeDistributor,
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
EPOCH_MARGIN_MS = 200.0  # slack after the last injection for the flush and settlement
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
    detected: bool = False
    detection_time_ms: Optional[float] = None
    excluded: list[str] = field(default_factory=list)
    penalties: list[str] = field(default_factory=list)

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
        heapq.heappush(self._heap, (time, self._seq, fn, args))
        self._seq += 1

    def run(self) -> None:
        while self._heap:
            time, _, fn, args = heapq.heappop(self._heap)
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


class _RunBase:
    """The run path both modes share: epochs, traffic, pools, ledgers, blocks.

    Every epoch lasts `epoch_ms`: the registration window, one interval per
    transaction of the busiest epoch, and the margin.  `run` works out each
    epoch's start and window end once and passes them to the subclass's
    `_schedule_epoch`, which calls `_schedule_traffic` and schedules the
    event that calls `_open_epoch`.  A subclass also provides `_send_tx` for
    a fresh transaction, `_chain_head` for the digest a validator's next
    block links to, and `_send_block` for a freshly cut block.
    """

    def __init__(self, config: ScenarioConfig):
        self.config = config
        # epoch 0 takes the remainder of tx_count, so it is the busiest
        busiest = config.txs_in_epoch(0)
        self.epoch_ms = REGISTRATION_WINDOW_MS + busiest * TX_INTERVAL_MS + EPOCH_MARGIN_MS
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
        self.alloc: Optional[RangeAllocation] = None
        self.pools: dict[str, PendingPool] = {}
        self.ledgers: dict[int, dict[str, Ledger]] = {}
        self.epoch_ledgers: dict[str, Ledger] = {}  # the published allocation's
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
        self.sender_ids = [i.node_id for i in self.identities if i.role != "auditor"]
        self.auditors = [i.display for i in self.identities if i.role == "auditor"]

    @property
    def validators(self) -> list[Identity]:
        return [i for i in self.identities if i.role == "validator"]

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
        self.queue.push(epoch_end - EPOCH_MARGIN_MS / 2, self._flush_pools)

    def _open_epoch(self, epoch: int, alloc: RangeAllocation, actor: str) -> None:
        """Publish the epoch's allocation and give every range owner a fresh pool and ledger.

        `epoch_ledgers` holds the new ledgers until the next allocation is
        published, so an endorsed copy that arrives before then is appended
        under the allocation it was cut in.
        """
        self.alloc = alloc
        self.allocation_tables.append(alloc.table())
        self.log(actor, "allocation", f"epoch={epoch} validators={len(alloc.validators)}")
        self.pools = {}
        self.epoch_ledgers = self.ledgers[epoch] = {}
        for pk in alloc.validators:
            self.pools[pk.display] = PendingPool(owner=pk, alloc=alloc)
            self.epoch_ledgers[pk.display] = Ledger(owner=pk)

    # -- transactions and blocks ----------------------------------------

    def _inject_tx(self) -> None:
        sender_id = self.rng_schedule.choice(self.sender_ids)
        ident = self.identities[sender_id]
        tx = create_transaction(ident.keypair, self.make_payload(), self.backend)
        self.metrics.injected_tx += 1
        self.log(f"node.{sender_id}", "inject-tx", tx.id)
        self._send_tx(ident, tx)

    def _commit_block(self, display: str, allow_partial: bool) -> None:
        ident = self.by_display[display]
        block = commit_transactions(
            ident.keypair,
            self.pools[display],
            self.config.block_size,
            self.alloc,
            self.backend,
            self._chain_head(display),
            allow_partial=allow_partial,
        )
        if block is None:
            return
        self.metrics.blocks_committed += 1
        self.log(f"node.{ident.node_id}", "commit-block", block.digest)
        self._send_block(ident, block)

    def _pool_tx(self, display: str, tx: Transaction) -> None:
        """Pool a verified tx at `display`; a full pool cuts a block."""
        pool = self.pools.get(display)
        if pool is not None and pool.add(tx):
            self._commit_block(display, allow_partial=False)

    def _flush_pools(self) -> None:
        """Cut a last block from every range owner's non-empty pool."""
        for pk in self.alloc.validators:
            self._commit_block(pk.display, allow_partial=True)


class VericomRun(_RunBase):
    """Backbone-routed multicast mode."""

    def __init__(self, config: ScenarioConfig):
        super().__init__(config)
        self.graph: BackboneGraph = self._build_graph()
        self.access: dict[tuple[int, int], float] = self._draw_access_delays()
        self.home: dict[str, int] = {}
        # (origin, destination displays) -> plan; dropped by _join_all
        self.plans: dict[tuple[int, tuple[str, ...]], MulticastResult] = {}
        # verdicts shared by every node that checks the same item; dropped each epoch
        self.signatures: dict[Transaction, bool] = {}
        self.memo: dict[tuple, object] = {}  # see _once
        self.excluded: set[str] = set()
        self.excluded_bns: set[int] = set()
        self.params: Optional[SetParams] = None
        self.chain_tip: dict[str, str] = {}
        self.block_states: dict[str, dict] = {}
        self.dishonest: frozenset[bytes] = frozenset()  # raw keys of colluding verifiers
        self.malicious_generator: Optional[Identity] = None
        self.accounting = TrafficAccounting(TRAFFIC_FEE)
        self.vrd: Optional[RangeDistributor] = None  # set by _begin_epoch

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
                graph.nodes[bn_id].drop_all = True
        return graph

    def _draw_access_delays(self) -> dict[tuple[int, int], float]:
        """Access-link delays, one per (node, backbone) pair.

        Each delay is derived from its own hash so a pair's delay never
        depends on how many other pairs exist; growing the backbone leaves
        the delays every node already measured unchanged.
        """
        config = self.config
        span = config.access_delay_max_ms - config.access_delay_min_ms
        delays = {}
        for ident in self.identities:
            for bn_id in range(config.num_backbone):
                h = hashlib.sha256(
                    f"{config.seed}:access:{ident.node_id}:{bn_id}".encode()
                ).digest()
                unit = int.from_bytes(h[:8], "big") / 2**64
                delays[(ident.node_id, bn_id)] = config.access_delay_min_ms + span * unit
        return delays

    def _join_all(self) -> None:
        self.home = {}
        self.plans.clear()
        for ident in self.identities:
            delays = {
                bn_id: self.access[(ident.node_id, bn_id)] for bn_id in self.graph.nodes
            }
            attached = join_network(ident.display, ident.role, delays, self.graph)
            if attached is None:
                self.metrics.isolated.append(ident.display)
                self.log(f"node.{ident.node_id}", "isolated", ident.display[:8])
            else:
                self.home[ident.display] = attached
        compute_routes(self.graph)
        table_size = max(routing_table_bytes(bn) for bn in self.graph.nodes.values())
        self.metrics.routing_table_bytes = max(
            self.metrics.routing_table_bytes, table_size
        )

    # -- run -----------------------------------------------------------

    def run(self) -> MetricsReport:
        self._join_all()
        lowest = self.graph.nodes[min(self.graph.nodes)]
        super().run()
        self.routing_dump = transmission.routing_table_text(lowest)
        return self.metrics

    def _schedule_epoch(self, epoch: int, start: float, window_end: float) -> None:
        config = self.config
        self.queue.push(start, self._begin_epoch, epoch, window_end)
        active = self.validators[: config.ring_size]
        for i, ident in enumerate(active):
            at = start + REGISTRATION_WINDOW_MS * (i + 1) / (len(active) + 2)
            self.queue.push(at, self._register, ident)
        self.queue.push(window_end, self._finalize_allocation, epoch)
        self._schedule_traffic(epoch, start, window_end)
        epoch_end = start + self.epoch_ms
        self.queue.push(epoch_end - EPOCH_MARGIN_MS / 10, self._settle, epoch)
        if config.trust_mode == "untrusted":
            window = config.monitor_window_ms
            last = epoch_end - EPOCH_MARGIN_MS / 4
            for w in range(1, max(1, int(self.epoch_ms // window)) + 1):
                # Ticks past `last` are clamped onto it; only the first one can act.
                at = min(start + w * window, last)
                self.queue.push(at, self._monitor_window, w)
                if at == last:
                    break

    def _begin_epoch(self, epoch: int, window_end: float) -> None:
        self.vrd = RangeDistributor(
            window_end_ms=window_end, excluded=frozenset(self.excluded)
        )
        self.log("sim", "epoch-start", str(epoch))

    def _register(self, ident: Identity) -> None:
        result = self.vrd.register_interest(ident.public, self.queue.now)
        status = "accepted" if result.accepted else f"rejected-{result.reason}"
        self.log(f"node.{ident.node_id}", "register", f"{ident.display[:8]} {status}")

    def _finalize_allocation(self, epoch: int) -> None:
        try:
            alloc = self.vrd.finalize_allocation(self.queue.now)
            self.params = SetParams(
                n=self.config.n, m=self.config.m, num_validators=len(alloc.validators)
            )
        except ValueError as exc:
            registered = len(self.vrd.registrations)
            raise RunError(
                f"epoch {epoch}: {registered} validators registered after exclusions: {exc}"
            ) from exc
        self._open_epoch(epoch, alloc, "vrd")
        self.chain_tip = {pk.display: "" for pk in alloc.validators}
        # verdicts and verifier sets last one epoch: each reads the allocation
        self.signatures.clear()
        self.memo.clear()
        self._arm_attack(epoch)

    # -- transaction pipeline -------------------------------------------

    def _uplink(self, ident: Identity, handler, item) -> bool:
        """Send an item over the sender's access link to its backbone node.

        A sender attached to no backbone node counts one routing failure
        and sends nothing; the return value says whether the item went out.
        """
        bn_id = self.home.get(ident.display)
        if bn_id is None:
            self.metrics.routing_failures += 1
            return False
        send_time = self.queue.now
        arrive = send_time + self.access[(ident.node_id, bn_id)]
        self.queue.push(arrive, handler, item, bn_id, send_time)
        return True

    def _send_tx(self, ident: Identity, tx: Transaction) -> None:
        self._uplink(ident, self._tx_at_backbone, tx)

    def _tx_at_backbone(self, tx: Transaction, bn_id: int, send_time: float) -> None:
        if bn_id not in self.graph.nodes:
            self.metrics.lost_items += 1
            return
        vset = select_validator_set(tx.id, self.alloc, self.params)
        self._multicast(
            bn_id,
            [pk.display for pk in vset.members],
            transaction_size(tx),
            send_time,
            self._tx_delivered,
            tx,
        )

    def _multicast(self, bn_id, displays, size, send_time, handler, item) -> None:
        """Route an item from backbone node `bn_id` to every attached one of `displays`.

        A plan depends only on `bn_id`, `displays` and what `_join_all` sets
        up (the graph, its routes, the homes and the access legs), so each
        plan is kept in `plans` and reused for the same origin and display
        list until the next `_join_all` drops them all.  A reused plan
        charges its monitor counts again, as routing afresh would.
        """
        key = (bn_id, tuple(displays))
        result = self.plans.get(key)
        if result is None:
            destinations = {}
            for display in displays:
                home = self.home.get(display)
                if home is not None:
                    destinations[display] = self.access[(self.by_display[display].node_id, home)]
            result = self.plans[key] = route_multicast(self.graph, bn_id, destinations)
        else:
            charge_monitors(self.graph, result.charged)
        # the access-link copy into the backbone, then one copy per backbone link
        self.metrics.packet_bytes_backbone += size * (1 + result.link_transmissions)
        self.metrics.routing_failures += len(result.missing_route)
        if result.lost:
            self.metrics.lost_items += len(result.lost)
            self.log(f"bn.{bn_id}", "multicast-losses", str(len(result.lost)))
        for delivery in result.deliveries:
            self.queue.push(
                self.queue.now + delivery.delay_ms,
                handler,
                item,
                delivery.display,
                send_time,
                size,
            )

    def _tx_delivered(self, tx: Transaction, display: str, send_time: float, size: int) -> None:
        self.metrics.packet_bytes_iot += size
        self.metrics.delay_samples.append(self.queue.now - send_time)
        self.metrics.verify_ops += 1
        outcome = verify_transaction(tx, self.backend, signatures=self.signatures)
        ident = self.by_display[display]
        if not outcome.ok:
            self.log(f"node.{ident.node_id}", "tx-rejected", f"{tx.id} {outcome.reason}")
            return
        self._pool_tx(display, tx)

    def _chain_head(self, display: str) -> str:
        return self.chain_tip[display]

    def _send_block(self, ident: Identity, block: Block) -> None:
        if self._uplink(ident, self._block_at_backbone, block):
            self.chain_tip[ident.display] = block.digest
        else:
            # the block never leaves its generator, so its transactions are lost
            self.metrics.lost_items += len(block.transactions)

    def _block_at_backbone(self, block, bn_id: int, send_time: float) -> None:
        if bn_id not in self.graph.nodes:
            self.metrics.lost_items += 1
            return
        verifier_set = self._verifier_set(block)
        expected = [pk.display for pk in verifier_set.members]
        self.block_states[block.digest] = {
            "expected": expected,
            "verdicts": {},
            "main": verifier_set.main.display,
        }
        self._multicast(
            bn_id,
            expected,
            block_size(block),
            send_time,
            self._block_delivered,
            block,
        )

    def _block_delivered(self, block, display: str, send_time: float, size: int) -> None:
        self.metrics.packet_bytes_iot += size
        self.metrics.delay_samples.append(self.queue.now - send_time)
        self.metrics.verify_ops += 1
        d = block.digest
        state = self.block_states.get(d)
        if state is None or display in state["verdicts"]:
            return
        ident = self.by_display[display]
        if ident.public.raw in self.dishonest:
            outcome = VerificationOutcome.valid()
        else:
            outcome = self._verify_block(block)
        state["verdicts"][display] = outcome
        self.log(
            f"node.{ident.node_id}",
            "block-verdict",
            f"{d} {'valid' if outcome.ok else 'invalid'}",
        )
        if len(state["verdicts"]) < len(state["expected"]):
            return
        verdicts = [
            (self.by_display[disp].keypair, state["verdicts"][disp])
            for disp in state["expected"]
        ]
        endorsed, report = tally_endorsement(block, verdicts, self.backend, self.dishonest)
        if report is not None:
            self._record_report(report)
            return
        self.metrics.endorsed_blocks += 1
        self.log("sim", "block-endorsed", d)
        self._uplink(self.by_display[state["main"]], self._broadcast_endorsed, endorsed)

    def _once(self, key: tuple, compute):
        """`compute()` on the first call for `key` under the published allocation; kept after.

        The keys are `("block", digest)` for a `verify_block` verdict,
        `("set", digest)` for a verifier set and `("endorsed", digest,
        endorsements)` for a `verify_endorsements` verdict.  Each value reads
        only its key and the allocation: a block digest covers everything
        `verify_block` reads and the generator, and an endorsed copy keeps
        its block's digest, so the verifiers and the auditor share a
        verdict.  `_finalize_allocation` drops them all.
        """
        value = self.memo.get(key)
        if value is None:
            value = self.memo[key] = compute()
        return value

    def _verify_block(self, block: Block) -> VerificationOutcome:
        return self._once(
            ("block", block.digest),
            lambda: verify_block(block, self.alloc, self.backend, self.signatures),
        )

    def _verifier_set(self, block: Block) -> NodeSet:
        return self._once(
            ("set", block.digest), lambda: expected_verifier_set(block, self.alloc, self.params)
        )

    def _verify_endorsements(self, endorsed: Block) -> VerificationOutcome:
        return self._once(
            ("endorsed", endorsed.digest, endorsed.endorsements),
            lambda: verify_endorsements(endorsed, self._verifier_set(endorsed), self.backend),
        )

    def _detected(self) -> None:
        if not self.metrics.detected:
            self.metrics.detected = True
            self.metrics.detection_time_ms = self.queue.now

    def _record_report(self, report: MisbehaviorReport) -> None:
        self.metrics.reports.append(report)
        self._detected()
        for pk in report.accused:
            if pk.display not in self.metrics.excluded:
                self.metrics.excluded.append(pk.display)
            self.excluded.add(pk.display)
        accused = ",".join(pk.display[:8] for pk in report.accused)
        self.log("sim", "misbehavior-report", f"{report.kind} {report.item_digest} [{accused}]")

    def _broadcast_endorsed(self, endorsed, bn_id: int, send_time: float) -> None:
        if bn_id not in self.graph.nodes:
            self.metrics.lost_items += 1
            return
        self.log(f"bn.{bn_id}", "broadcast-endorsed", endorsed.digest)
        self._multicast(
            bn_id,
            [pk.display for pk in self.alloc.validators] + self.auditors,
            block_size(endorsed),
            send_time,
            self._endorsed_delivered,
            endorsed,
        )

    def _endorsed_delivered(self, endorsed, display: str, send_time: float, size: int) -> None:
        """The generator appends an endorsed copy to its ledger; the auditor audits it.

        Both read one endorsement verdict (`_verify_endorsements`).  The
        generator has a ledger only while it owns a range of the published
        allocation.  The auditor judges the block first and its endorsements
        only if the block is valid: the verifier set of a block whose
        generator owns no range cannot be derived.
        """
        self.metrics.packet_bytes_iot += size
        self.metrics.delay_samples.append(self.queue.now - send_time)
        ident = self.by_display[display]
        if display == endorsed.generator.display:
            ledger = self.epoch_ledgers.get(display)
            if ledger is not None:
                outcome = ledger.append_block(endorsed, self._verify_endorsements(endorsed))
                kind = "append" if outcome.ok else f"append-rejected:{outcome.reason}"
                self.log(f"node.{ident.node_id}", kind, endorsed.digest)
        if ident.role == "auditor":
            self.metrics.audit_ops += 1
            outcome = self._verify_block(endorsed)
            if outcome.ok:
                outcome = self._verify_endorsements(endorsed)
            report = audit_endorsed_block(endorsed, ident.public, outcome)
            if report is not None:
                self.log("auditor", "audit-failed", f"{report.item_digest} {report.reason}")
                self._record_report(report)

    # -- epoch maintenance ----------------------------------------------

    def _settle(self, epoch: int) -> None:
        ledgers = self.ledgers.get(epoch, {})
        lengths = {display: ledger.ledger_length for display, ledger in ledgers.items()}
        payments = [
            Payment(payer=display, amount=compute_tmf(self.accounting.tf, length), epoch=epoch)
            for display, length in sorted(lengths.items())
        ]
        settlement = self.accounting.settle_epoch(
            payments, lengths, list(self.graph.nodes), epoch
        )
        self.settlement_lines.extend(settlement.lines())
        for display in settlement.penalties:
            if display not in self.metrics.penalties:
                self.metrics.penalties.append(display)
            self.excluded.add(display)
        self.log("ta", "settlement", f"epoch={epoch} penalties={len(settlement.penalties)}")

    def _monitor_window(self, window: int) -> None:
        flagged = evaluate_window(self.graph)
        if not flagged:
            return
        for bn_id in flagged:
            self.log("monitor", "flagged", f"bn.{bn_id} window={window}")
        self._detected()
        self.excluded_bns.update(flagged)
        live = len(self.graph.nodes) - len(flagged)
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
            self.malicious_generator = self.identities[config.adversary_ids[0]]
            at = self.queue.now + 5 * TX_INTERVAL_MS + TX_INTERVAL_MS / 2
            self.queue.push(at, self._inject_forged_block)

    def _inject_forged_block(self) -> None:
        """Grind a block holding a badly signed tx and let its verifiers collude.

        Under false-verification only the main verifier colludes, so its wing
        mates reject the block; under fake-transaction every verifier does.
        """
        generator = self.malicious_generator
        fake_tx = Transaction(
            sender=self.identities[-1].public,
            payload=b"forged:" + self.rng_payload.randbytes(self.config.payload_size),
            signature=b"\x00" * 32,
        )
        block = grind_block(
            generator.keypair,
            self.chain_tip[generator.display],
            [replace(fake_tx, id=transaction_id(fake_tx))],
            self.alloc,
            self.backend,
        )
        verifiers = self._verifier_set(block)
        if self.config.attack == "false-verification":
            self.dishonest = frozenset({verifiers.main.raw})
        else:
            self.dishonest = verifiers.member_keys
        self.log(f"node.{generator.node_id}", "commit-forged-block", block.digest)
        self._send_block(generator, block)


class BaselineRun(_RunBase):
    """Conventional broadcast mode: flood everything, everyone verifies.

    The nodes form a ring laid on a seeded shuffle, and each ring link gets
    one seeded delay.  An item's originator verifies it and sends it to its
    ring neighbours.  A node that gets an item for the first time verifies it
    and passes it on to every neighbour except the one it came from; a
    repeated copy is counted in the IoT bytes and dropped.

    Each flood is one record, `(item, is_tx, size, send_time, seen)`, shared
    by all of its hop events; `seen` is a bytearray with one slot per node,
    freed with the record once the flood's last hop has fired.  `pool_at`
    holds each node's pending pool for the epoch, or None, so a hop pools a
    transaction only at the range owners.
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
        self.pool_at: list[Optional[PendingPool]] = []

    def _schedule_epoch(self, epoch: int, start: float, window_end: float) -> None:
        self.queue.push(window_end, self._allocate, epoch)
        self._schedule_traffic(epoch, start, window_end)

    def _allocate(self, epoch: int) -> None:
        alloc = build_allocation(i.public for i in self.validators[: self.config.ring_size])
        self._open_epoch(epoch, alloc, "sim")
        self.pool_at = [self.pools.get(i.display) for i in self.identities]

    def _send_tx(self, ident: Identity, tx: Transaction) -> None:
        self._originate(ident.node_id, tx, True, transaction_size(tx))

    def _send_block(self, ident: Identity, block: Block) -> None:
        self.epoch_ledgers[ident.display].append_block(block, VerificationOutcome.valid())
        self._originate(ident.node_id, block, False, block_size(block))

    def _originate(self, node_id: int, item, is_tx: bool, size: int) -> None:
        seen = bytearray(self.config.num_iot_nodes)
        seen[node_id] = 1
        self._deliver(-1, node_id, (item, is_tx, size, self.queue.now, seen))

    def _receive(self, sender: int, node_id: int, flood: tuple) -> None:
        metrics = self.metrics
        metrics.packet_bytes_iot += flood[2]
        seen = flood[4]
        if seen[node_id]:
            return
        seen[node_id] = 1
        metrics.delay_samples.append(self.queue.now - flood[3])
        self._deliver(sender, node_id, flood)

    def _deliver(self, sender: int, node_id: int, flood: tuple) -> None:
        """`node_id` verifies the item and pools it if it owns a pool, then sends it on.

        The pool comes first: a full pool cuts a block, whose flood is
        scheduled before this item's next hops.  Every neighbour but
        `sender` gets a copy.
        """
        self.metrics.verify_ops += 1
        if flood[1] and self.pool_at[node_id] is not None:
            self._pool_tx(self.identities[node_id].display, flood[0])
        queue = self.queue
        now = queue.now
        for nb, delay in self.links[node_id]:
            if nb != sender:
                queue.push(now + delay, self._receive, node_id, nb, flood)

    def _chain_head(self, display: str) -> str:
        return self.epoch_ledgers[display].head_digest


def execute(config: ScenarioConfig):
    """Run one scenario and return the finished run object."""
    run = BaselineRun(config) if config.mode == "baseline" else VericomRun(config)
    run.run()
    return run


def run_scenario(config: ScenarioConfig) -> tuple[MetricsReport, list[str]]:
    """Run one scenario to completion; returns the report and event log."""
    run = execute(config)
    return run.metrics, run.log_lines
