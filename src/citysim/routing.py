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

    ``routes`` memoizes routes by (origin, dest) for callers that route
    after the graph is finalized; edge costs never change after that.
    """

    adjacency: dict[str, list[tuple[str, str, float]]] = field(default_factory=dict)
    routes: dict[tuple[str, str], list[str] | None] = field(default_factory=dict, repr=False)

    def add_node(self, node: str) -> None:
        self.adjacency.setdefault(node, [])

    def add_roadway(self, roadway_id: str, a: str, b: str, cost: float) -> None:
        self.add_node(a)
        self.add_node(b)
        self.adjacency[a].append((b, roadway_id, cost))
        self.adjacency[b].append((a, roadway_id, cost))

    def finalize(self) -> None:
        for node in self.adjacency:
            self.adjacency[node].sort()


def shortest_route(graph: StreetGraph, origin: str, dest: str) -> list[str] | None:
    """Roadway ids of the cheapest origin->dest route, or None if disconnected.

    Returns [] when origin == dest.  Among equal-cost routes the one whose
    node sequence sorts first wins.
    """
    if origin not in graph.adjacency or dest not in graph.adjacency:
        return None
    if origin == dest:
        return []
    best: dict[str, tuple[float, tuple[str, ...]]] = {origin: (0.0, (origin,))}
    heap: list[tuple[float, tuple[str, ...], str]] = [(0.0, (origin,), origin)]
    done: set[str] = set()
    while heap:
        cost, path, node = heapq.heappop(heap)
        if node in done or (cost, path) != best.get(node, (None, None)):
            continue
        done.add(node)
        if node == dest:
            break
        for nbr, _, weight in graph.adjacency[node]:
            if nbr in done:
                continue
            cand = (cost + weight, path + (nbr,))
            if nbr not in best or cand < best[nbr]:
                best[nbr] = cand
                heapq.heappush(heap, (cand[0], cand[1], nbr))
    if dest not in best or dest not in done:
        return None
    _, path = best[dest]
    route = []
    for i in range(1, len(path)):
        # recover the roadway between consecutive nodes; cheapest id wins
        node, prev = path[i], path[i - 1]
        options = [
            (weight, rid) for nbr, rid, weight in graph.adjacency[prev] if nbr == node
        ]
        route.append(min(options)[1])
    return route

