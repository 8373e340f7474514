"""Deterministic shortest-path routing over the street graph.

Edge weight is travel time (length / free-flow speed).  Cost ties are
broken by comparing the full node sequence lexicographically, which makes
the chosen route independent of adjacency ordering and lets exhaustive
path enumeration serve as an exact oracle in tests.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field


@dataclass
class StreetGraph:
    """Undirected street network: nodes joined by roadways.

    ``cheapest`` holds, per ordered node pair ``(a, b)``, the step of the
    cheapest roadway between them: ``(cost, roadway id, a)``.  ``routes``
    holds each origin's shortest-path tree, which maps a node to the step
    that reaches it (the origin to None) and so shares the steps; the trees
    are dropped when a node or roadway is added.
    """

    adjacency: dict[str, list[tuple[str, str, float]]] = field(default_factory=dict)
    routes: dict[str, dict[str, tuple | None]] = field(default_factory=dict, repr=False)
    cheapest: dict[tuple[str, str], tuple[float, str, str]] = field(default_factory=dict, repr=False)

    def add_node(self, node: str) -> None:
        self.adjacency.setdefault(node, [])
        self.routes.clear()

    def add_roadway(self, roadway_id: str, a: str, b: str, cost: float) -> None:
        self.add_node(a)
        self.add_node(b)
        self.adjacency[a].append((b, roadway_id, cost))
        self.adjacency[b].append((a, roadway_id, cost))
        for src, dst in ((a, b), (b, a)):
            step = (cost, roadway_id, src)
            self.cheapest[src, dst] = min(self.cheapest.get((src, dst), step), step)


def _tree(graph: StreetGraph, origin: str) -> dict[str, tuple | None]:
    """Each node reachable from ``origin`` mapped to the last step of its
    cheapest (cost, node path) route, origin to None: one Dijkstra run to
    the end, as no step of it depends on a destination."""
    best: dict[str, tuple[float, tuple[str, ...]]] = {origin: (0.0, (origin,))}
    heap: list[tuple[float, tuple[str, ...]]] = [(0.0, (origin,))]
    steps: dict[str, tuple | None] = {}
    while heap:
        cost, path = heapq.heappop(heap)
        node = path[-1]
        if node in steps:
            continue
        steps[node] = graph.cheapest[path[-2], node] if node != origin else None
        for nbr, _, weight in graph.adjacency[node]:
            if nbr in steps:
                continue
            cand = (cost + weight, path + (nbr,))
            if nbr not in best or cand < best[nbr]:
                best[nbr] = cand
                heapq.heappush(heap, cand)
    return steps


def shortest_route(graph: StreetGraph, origin: str, dest: str) -> list[str] | None:
    """Roadway ids of the cheapest origin->dest route, or None if disconnected.

    Returns [] when origin == dest.  Among equal-cost routes the one whose
    node sequence sorts first wins, and the cheapest roadway (then the
    smallest id) between two nodes.  The first route from an origin keeps
    its tree on the graph; each route is a new list walked back through it.
    """
    if origin not in graph.adjacency or dest not in graph.adjacency:
        return None
    tree = graph.routes.get(origin)
    if tree is None:
        tree = graph.routes[origin] = _tree(graph, origin)
    if dest not in tree:
        return None
    route = []
    while dest != origin:
        _, rid, dest = tree[dest]
        route.append(rid)
    return route[::-1]
