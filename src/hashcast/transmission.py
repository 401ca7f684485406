"""The backbone network: topology, joins, routing, multicast, and monitoring.

Backbone nodes route all chain traffic.  After every round of joins, one
routing pass reads which destinations are attached to which backbone node
and gives every node a next-hop table from one Dijkstra pass over the link
delays, with ties broken by the lowest-id first hop.  Multicast forwards one
copy per link and fans out only where destination paths diverge.
`route_multicast` only plans: it returns one multicast's deliveries, link
copies and monitor counts and changes nothing, so a caller can reuse a plan
until the next round of joins.

In untrusted mode the caller charges each multicast's monitor counts through
`charge_monitors`: every backbone node counts each copy that reaches it with
destinations, onward or attached to it, and the copies it passes on, one per
onward link and one per local delivery.  A node that passed on fewer than it
received over a monitoring window is flagged, and the backbone is rebuilt
without the flagged nodes.  A destination attached nowhere, or that a node on
its path neither holds nor routes, is a missing route: a routing failure.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

# Serialized routing-table sizing: each table is framed and signed by its
# owner (one 459-byte credential + 64-byte frame) and carries fixed-width
# entries (32-byte key display + 4-byte next hop + 1-byte role).
ROUTING_TABLE_BASE_BYTES = 459 + 64
ROUTING_ENTRY_BYTES = 32 + 4 + 1

# Only traffic destinations get routing entries; plain nodes never receive.
ROUTABLE_ROLES = frozenset({"validator", "auditor"})


class RoutingError(Exception):
    pass


class TopologyError(ValueError):
    pass


class BackboneNode:
    def __init__(self, node_id: int, capacity: int):
        self.id = node_id
        self.capacity = capacity
        self.neighbors: dict[int, float] = {}  # neighbor id -> link delay ms
        self.attached: dict[str, str] = {}  # key display -> role
        self.routes: dict[str, int] = {}  # key display -> next hop
        # Monitoring counters for the current window.
        self.window_inbound = 0
        self.window_forwarded = 0
        # Adversarial behavior toggle.
        self.drop_all = False


# The backbone is its node map: backbone id -> node.
BackboneGraph = dict[int, BackboneNode]


def build_backbone(
    node_specs: Sequence[tuple[int, int]],
    links: Sequence[tuple[int, int, float]],
) -> BackboneGraph:
    """Build and validate a backbone graph (symmetric links, connected)."""
    nodes = {node_id: BackboneNode(node_id, capacity) for node_id, capacity in node_specs}
    for a, b, delay in links:
        if a not in nodes or b not in nodes or a == b:
            raise TopologyError(f"link ({a}, {b}) references unknown or equal nodes")
        if delay <= 0:
            raise TopologyError(f"link ({a}, {b}) must have positive delay")
        nodes[a].neighbors[b] = delay
        nodes[b].neighbors[a] = delay
    if nodes and len(_reachable(nodes, min(nodes), set())) < len(nodes):
        raise TopologyError("backbone graph is not connected")
    return nodes


def _reachable(graph: BackboneGraph, start: int, seen: set[int]) -> set[int]:
    """Add to `seen` every node reachable from `start` without crossing `seen`."""
    seen.add(start)
    stack = [start]
    while stack:
        cur = stack.pop()
        for nb in graph[cur].neighbors:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return seen


def compute_routes(graph: BackboneGraph) -> None:
    """Fill every node's next-hop table toward every attached destination.

    Destinations are the validator and auditor keys attached anywhere on the
    backbone, each homed at the node it is attached to.  One Dijkstra pass
    per source settles every backbone node with the first hop of a
    minimum-total-delay path to it; heap entries are (delay, first hop,
    node), so among equal-delay paths the lowest-id first hop wins.  Call it
    again after any change to the graph or its attachments.
    """
    homes = sorted(
        (display, node_id)
        for node_id in graph
        for display, role in graph[node_id].attached.items()
        if role in ROUTABLE_ROLES
    )
    for src in graph:
        first_hop: dict[int, int] = {}
        heap = [(0.0, src, src)]
        while heap:
            cost, hop, cur = heapq.heappop(heap)
            if cur in first_hop:
                continue
            first_hop[cur] = hop
            for nb, delay in graph[cur].neighbors.items():
                if nb not in first_hop:
                    heapq.heappush(heap, (cost + delay, nb if cur == src else hop, nb))
        if len(first_hop) < len(graph):
            raise RoutingError(f"backbone node {src} reaches only {len(first_hop)} nodes")
        graph[src].routes = {display: first_hop[home] for display, home in homes}


def join_network(
    display: str,
    role: str,
    nearest: Sequence[int],
    graph: BackboneGraph,
) -> Optional[int]:
    """Attach to the first node of `nearest` still in `graph` with free room.

    `nearest` ranks the backbone ids by the joining node's access delay,
    in ascending (delay, id) order; returns the id of the accepting node, or
    None if every node rejected (the node is isolated).
    """
    for node_id in nearest:
        bn = graph.get(node_id)
        if bn is not None and len(bn.attached) < bn.capacity:
            bn.attached[display] = role
            return node_id
    return None


class Delivery(NamedTuple):
    display: str
    delay_ms: float


@dataclass
class MulticastResult:
    deliveries: list[Delivery] = field(default_factory=list)
    link_transmissions: int = 0
    lost: list[str] = field(default_factory=list)
    missing_route: list[str] = field(default_factory=list)
    # (node id, copies passed on) per copy a node took in with onward or
    # local destinations: the monitor counts `charge_monitors` adds
    charged: list[tuple[int, int]] = field(default_factory=list)


def route_multicast(
    graph: BackboneGraph,
    origin: int,
    destinations: dict[str, float],
) -> MulticastResult:
    """Plan one item's multicast from `origin` to every destination key.

    `destinations` maps each key display to the delay of its final access
    link.  A destination that a node on its path has neither attached nor
    a next hop for is a missing route.  The rest travel as one copy per
    backbone link, split only where their next hops differ; a destination's
    delay is the link delays on its path plus its access leg.  A node with
    `drop_all` set forwards and delivers nothing, so every destination of its
    copy is lost.  The graph is left unchanged: the monitor counts are only
    listed in `charged`, for the caller to charge.
    """
    result = MulticastResult()
    deliveries, missing = result.deliveries, result.missing_route
    # (node, arrived_delay, dest subset), visited breadth-first: the loop
    # also walks the entries appended to `pending` while it runs.
    pending = [(origin, 0.0, sorted(destinations))]
    for node_id, delay_so_far, dests in pending:
        node = graph[node_id]
        attached, routes = node.attached, node.routes
        onward: dict[int, list[str]] = {}
        local: list[str] = []
        for display in dests:
            if display in attached:
                local.append(display)
            else:
                nxt = routes.get(display)
                if nxt is None or nxt == node_id:
                    missing.append(display)
                else:
                    onward.setdefault(nxt, []).append(display)
        if onward or local:
            result.charged.append((node_id, 0 if node.drop_all else len(onward) + len(local)))
        if node.drop_all:
            result.lost.extend(local)
            for subset in onward.values():
                result.lost.extend(subset)
            continue
        for display in local:
            deliveries.append(Delivery(display, delay_so_far + destinations[display]))
        neighbors = node.neighbors
        for nxt in sorted(onward):
            pending.append((nxt, delay_so_far + neighbors[nxt], onward[nxt]))
        result.link_transmissions += len(onward)
    return result


def charge_monitors(graph: BackboneGraph, charged: Sequence[tuple[int, int]]) -> None:
    """Count each (node id, copies passed on) entry as one inbound copy at that node."""
    for node_id, forwarded in charged:
        node = graph[node_id]
        node.window_inbound += 1
        node.window_forwarded += forwarded


def evaluate_window(graph: BackboneGraph) -> list[int]:
    """Close a monitoring window and flag the nodes that under-forwarded.

    Returns, in id order, the nodes that passed on fewer copies than they
    received during the window, and resets every node's counters.
    """
    flagged = []
    for node_id in sorted(graph):
        node = graph[node_id]
        if node.window_forwarded < node.window_inbound:
            flagged.append(node_id)
        node.window_inbound = 0
        node.window_forwarded = 0
    return flagged


def reconstruct_backbone(
    graph: BackboneGraph, excluded: set[int], link_delay: float, capacity: int
) -> BackboneGraph:
    """Rebuild the backbone without the excluded nodes.

    Every survivor gets `capacity` and keeps `drop_all` and its links to
    other survivors.  If exclusion split the backbone, one ascending sweep
    bridges it: the lowest id not yet reached gets a new link of delay
    `link_delay` from the previous bridge end, so the components' lowest ids
    form a chain.  Attachments are dropped; callers re-run joins over the
    new graph.
    """
    nodes = {i: BackboneNode(i, capacity) for i in sorted(graph) if i not in excluded}
    if not nodes:
        raise TopologyError("cannot reconstruct an empty backbone")
    for a, node in nodes.items():
        node.drop_all = graph[a].drop_all
        for b, delay in sorted(graph[a].neighbors.items()):
            if a < b and b in nodes:
                nodes[a].neighbors[b] = nodes[b].neighbors[a] = delay
    reached: set[int] = set()
    end = None  # the previous bridge end
    for node_id in nodes:
        if node_id in reached:
            continue
        if end is not None:
            nodes[end].neighbors[node_id] = nodes[node_id].neighbors[end] = link_delay
        _reachable(nodes, node_id, reached)
        end = node_id
    return nodes


def routing_table_bytes(bn: BackboneNode) -> int:
    """Serialized size of a node's destination table."""
    return ROUTING_TABLE_BASE_BYTES + ROUTING_ENTRY_BYTES * len(bn.routes)


def routing_table_text(bn: BackboneNode) -> str:
    """Destination/next-hop dump for run logs."""
    lines = [f"routing table of backbone node {bn.id}", "destination      next hop"]
    for display, nxt in sorted(bn.routes.items()):
        lines.append(f"{display[:12]}..   {nxt}")
    return "\n".join(lines)
