"""Per-call costs of single library operations on fixed inputs, in µs per call.

Each operation runs in batches sized to take roughly `BATCH_S`; the figure
is the median over `REPEATS` batches.
"""

from __future__ import annotations

import statistics
from time import perf_counter

from hashcast import transmission
from hashcast.core import (
    Ed25519Signer,
    SimulatedSigner,
    block_digest,
    create_transaction,
    digest,
    make_block,
)
from hashcast.simulation import EventQueue
from hashcast.verification import (
    SetParams,
    select_validator_set,
    select_verifier_set,
    verify_transaction,
)
from hashcast.weights import build_allocation

from harness import build_run

BATCH_S = 0.04
REPEATS = 5


def per_call_us(fn, calls_per_invocation: int = 1) -> float:
    """Median µs per call of `fn()`, which performs `calls_per_invocation` calls."""
    fn()
    start = perf_counter()
    fn()
    once = max(perf_counter() - start, 1e-7)
    loops = max(1, int(BATCH_S / once))
    samples = []
    for _ in range(REPEATS):
        start = perf_counter()
        for _ in range(loops):
            fn()
        samples.append((perf_counter() - start) / (loops * calls_per_invocation))
    return statistics.median(samples) * 1e6


def _transactions(backend, count: int):
    keys = backend.keypair(b"micro:sender")
    return [create_transaction(keys, bytes([i % 256]) * 510, backend) for i in range(count)]


def _block(backend, tx_count: int):
    keys = backend.keypair(b"micro:generator")
    return make_block(keys, "", _transactions(backend, tx_count), 0, backend)


def _queue_push_pop(count: int = 1000):
    def noop():
        pass

    def cycle():
        queue = EventQueue()
        for i in range(count):
            queue.push(float(i % 7), noop)
        queue.run()

    return cycle, count


def micro_metrics() -> dict[str, tuple[float, str, int]]:
    sim = SimulatedSigner()
    ed = Ed25519Signer()
    sim_tx = _transactions(sim, 1)[0]
    ed_tx = _transactions(ed, 1)[0]
    for tx, backend in ((sim_tx, sim), (ed_tx, ed)):
        if not verify_transaction(tx, backend).ok:
            raise RuntimeError(f"{backend.name} transaction does not verify")
    block_1, block_50 = _block(sim, 1), _block(sim, 50)
    data_32, data_1k = bytes(range(32)), bytes(range(256)) * 4

    validators = [sim.keypair(f"micro:validator:{i}".encode()).public for i in range(40)]
    alloc = build_allocation(validators)
    params = SetParams(n=2, m=2, num_validators=40)
    digests = [digest(i.to_bytes(4, "big")) for i in range(64)]
    vsets = [(d, select_validator_set(d, alloc, params)) for d in digests]

    def verifier_sets():
        for d, vset in vsets:
            select_verifier_set(d, alloc, params, vset)

    backbone = build_run("multicast-b50-untrusted", 1)
    backbone._join_all()  # attaches every node and computes routes on the 50-node backbone

    queue_cycle, queue_calls = _queue_push_pop()
    measured = {
        "micro.digest_32b_us": per_call_us(lambda: digest(data_32)),
        "micro.digest_1kb_us": per_call_us(lambda: digest(data_1k)),
        "micro.block_digest_1tx_us": per_call_us(lambda: block_digest(block_1)),
        "micro.block_digest_50tx_us": per_call_us(lambda: block_digest(block_50)),
        "micro.verify_tx_simulated_us": per_call_us(lambda: verify_transaction(sim_tx, sim)),
        "micro.verify_tx_ed25519_us": per_call_us(lambda: verify_transaction(ed_tx, ed)),
        "micro.event_queue_push_pop_us": per_call_us(queue_cycle, queue_calls),
        "micro.select_verifier_set_us": per_call_us(verifier_sets, len(vsets)),
        "micro.compute_routes_50_us": per_call_us(
            lambda: transmission.compute_routes(backbone.graph)
        ),
        "micro.build_allocation_40_us": per_call_us(lambda: build_allocation(validators)),
    }
    return {name: (value, "us", REPEATS) for name, value in measured.items()}
