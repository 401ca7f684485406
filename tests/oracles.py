"""Independent reference implementations used to cross-check the library.

These deliberately avoid the library's own code paths: weights come from
character arithmetic instead of the table, repeat counts from prefix scans,
shortest paths from Floyd-Warshall instead of per-source Dijkstra, a flood's
first arrivals from Dijkstra instead of replaying its hop events,
base-62 digests from one `divmod` per symbol instead of the pair table,
access delays from one hash of each whole pair string instead of a copied
per-node prefix, and transaction and block bytes from the README's
"Serialization" section, one length-prefixed field at a time, instead of
the library's one-join encoders and head and tail builders.  The ledger
scans walk whole chains, which the library itself never does.
"""

import hashlib
import heapq
import string
from fractions import Fraction


def brute_force_kwm(d):
    """Per-position prefix scan with its own weight derivation.

    A symbol with r earlier repeats contributes weight / 5**r, so the sum is
    accumulated as one integer numerator over the common denominator
    5**len(d) (r never reaches len(d)).
    """
    numerator = 0
    for i, ch in enumerate(d):
        if "a" <= ch <= "z":
            weight = ord(ch) - ord("a")
        elif "A" <= ch <= "Z":
            weight = 26 + ord(ch) - ord("A")
        elif "0" <= ch <= "9":
            weight = 52 + ord(ch) - ord("0")
        else:
            raise ValueError(ch)
        repeats = d[:i].count(ch)
        numerator += weight * 5 ** (len(d) - repeats)
    return Fraction(numerator, 5 ** len(d))


def linear_fit_r_squared(xs, ys):
    """Coefficient of determination of the least-squares line through the data."""
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    return 1.0 - ss_res / ss_tot


def links(graph):
    """A backbone graph's links as (a, b, delay) with a < b, ascending."""
    return [
        (a, b, delay)
        for a in sorted(graph)
        for b, delay in sorted(graph[a].neighbors.items())
        if a < b
    ]


def floyd_warshall(graph):
    """All-pairs minimum delays of a backbone graph, by Floyd-Warshall over its links."""
    ids = sorted(graph)
    inf = float("inf")
    dist = {a: {b: (0.0 if a == b else inf) for b in ids} for a in ids}
    for a, b, delay in links(graph):
        dist[a][b] = min(dist[a][b], delay)
        dist[b][a] = min(dist[b][a], delay)
    for k in ids:
        for i in ids:
            for j in ids:
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return dist


def ring_first_arrivals(links, origin):
    """Shortest delay from `origin` to every node over `links[node] = [(neighbour, delay), ...]`.

    A flood that forwards only first copies reaches each node first along a
    shortest path, so these are the delays a flood from `origin` records.
    """
    dist = [float("inf")] * len(links)
    dist[origin] = 0.0
    heap = [(0.0, origin)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for nb, delay in links[node]:
            if d + delay < dist[nb]:
                dist[nb] = d + delay
                heapq.heappush(heap, (dist[nb], nb))
    return dist


BASE62 = "0123456789" + string.ascii_lowercase + string.ascii_uppercase


def in_range(rng, symbol):
    """Whether `symbol`'s alphabet index lies in the inclusive validation range `rng`."""
    return rng.start <= BASE62.index(symbol) <= rng.end


def base62_digest(content):
    """SHA-256 value as 32 base-62 symbols, least significant first, one per divmod."""
    value = int.from_bytes(hashlib.sha256(content).digest(), "big")
    symbols = []
    for _ in range(32):
        value, idx = divmod(value, 62)
        symbols.append(BASE62[idx])
    return "".join(symbols)


def access_delay(seed, node_id, bn_id, low, high):
    """The README's access delay of one pair, hashing its whole pair string at once."""
    h = hashlib.sha256(f"{seed}:access:{node_id}:{bn_id}".encode()).digest()
    return low + (high - low) * (int.from_bytes(h[:8], "big") / 2**64)


def _wire_field(data):
    return len(data).to_bytes(4, "big") + data


def _wire_credential(key, signature):
    blob = len(key).to_bytes(2, "big") + key + len(signature).to_bytes(2, "big") + signature
    assert len(blob) <= 459
    return blob.ljust(459, b"\x00")


def transaction_wire_bytes(tx, tx_id=None):
    """A transaction's bytes as the README lays them out, with `tx_id` (default its own id)."""
    tx_id = tx.id if tx_id is None else tx_id
    credential = _wire_credential(tx.sender.raw, tx.signature)
    fields = (b"tx", tx_id.encode(), credential, tx.payload, b"")
    return b"\x01" + b"".join(map(_wire_field, fields))


def transaction_signing_wire_bytes(tx):
    """The bytes a sender signs, as the README lays them out."""
    fields = (b"txsign", tx.sender.raw, tx.payload, b"")
    return b"\x01" + b"".join(map(_wire_field, fields))


def block_wire_bytes(block, endorsements):
    """A block's bytes as the README lays them out, with the given endorsements."""
    body = b"".join(transaction_wire_bytes(tx) for tx in block.transactions)
    header = b"\x01" + _wire_field(b"blkhdr") + _wire_field(block.generator.raw)
    header += _wire_field(block.previous_digest.encode())
    header += _wire_field("".join(tx.id for tx in block.transactions).encode())
    header += block.nonce.to_bytes(8, "big")
    head = b"\x01" + _wire_field(b"blk") + _wire_field(header)
    head += _wire_field(_wire_credential(block.generator.raw, block.signature))
    tail = _wire_field(body) + len(endorsements).to_bytes(4, "big")
    for end in endorsements:
        tail += _wire_credential(end.verifier.raw, end.signature)
    return head + tail


def scan_range_discipline(ledgers, alloc):
    """Every block digest's first symbol lies inside its ledger owner's range."""
    return all(
        in_range(alloc.range_for(ledger.owner), block.digest[0])
        for ledger in ledgers
        for block in ledger.blocks
    )


def scan_chain_integrity(ledger):
    """The ledger's blocks form one chain, each naming the previous digest."""
    digests = [""] + [block.digest for block in ledger.blocks]
    return all(block.previous_digest == d for block, d in zip(ledger.blocks, digests))
