"""Routing, the reference traffic federate, light coupling, lockstep."""

import heapq
import random

import pytest

from citysim import routing
from citysim.build import build_world
from citysim.federation import (
    LockstepError, ReferenceTrafficSimulator, roadway_mean_speed,
)
from citysim.hazards import apply_due
from citysim.routing import StreetGraph, shortest_route
from citysim.runner import run_variant

from conftest import config_from


def enumerate_cheapest_route(graph: StreetGraph, origin: str, dest: str,
                             max_depth: int = 12) -> list[str] | None:
    """Brute-force oracle: enumerate all simple paths, pick (cost, nodes) min."""
    if origin == dest:
        return []
    best: tuple[float, tuple[str, ...]] | None = None

    def walk(node: str, path: tuple[str, ...], cost: float) -> None:
        nonlocal best
        if len(path) > max_depth:
            return
        for nbr, _rid, weight in graph.adjacency.get(node, ()):
            if nbr in path:
                continue
            nxt = path + (nbr,)
            total = cost + weight
            if nbr == dest:
                cand = (total, nxt)
                if best is None or cand < best:
                    best = cand
            else:
                walk(nbr, nxt, total)

    walk(origin, (origin,), 0.0)
    if best is None:
        return None
    _, path = best
    return [
        min((w, rid) for nbr, rid, w in graph.adjacency[path[i - 1]] if nbr == path[i])[1]
        for i in range(1, len(path))
    ]


def diamond() -> StreetGraph:
    graph = StreetGraph()
    graph.add_roadway("top1", "s", "a", 1.0)
    graph.add_roadway("top2", "a", "t", 5.0)
    graph.add_roadway("bot1", "s", "b", 2.0)
    graph.add_roadway("bot2", "b", "t", 1.5)
    return graph


def test_same_node_route_is_empty():
    assert shortest_route(diamond(), "s", "s") == []


def test_line_graph_unique_route():
    graph = StreetGraph()
    graph.add_roadway("e1", "x", "y", 1.0)
    graph.add_roadway("e2", "y", "z", 1.0)
    assert shortest_route(graph, "x", "z") == ["e1", "e2"]


def test_diamond_matches_enumeration_oracle():
    graph = diamond()
    assert shortest_route(graph, "s", "t") == enumerate_cheapest_route(graph, "s", "t")
    assert shortest_route(graph, "s", "t") == ["bot1", "bot2"]


def test_tie_breaks_match_enumeration_oracle():
    graph = StreetGraph()
    # two equal-cost routes: lexicographically smaller node path must win
    graph.add_roadway("p1", "s", "a", 1.0)
    graph.add_roadway("p2", "a", "t", 1.0)
    graph.add_roadway("q1", "s", "b", 1.0)
    graph.add_roadway("q2", "b", "t", 1.0)
    assert shortest_route(graph, "s", "t") == enumerate_cheapest_route(graph, "s", "t")


def test_disconnected_route_is_none():
    graph = diamond()
    graph.add_node("island")
    assert shortest_route(graph, "s", "island") is None


def test_speed_law_clamps():
    assert roadway_mean_speed(10.0, 0, 40, 0.1, 1.0) == 10.0
    assert roadway_mean_speed(10.0, 40, 40, 0.1, 1.0) == pytest.approx(1.0)
    assert roadway_mean_speed(10.0, 400, 40, 0.1, 1.0) == pytest.approx(1.0)
    # off light shrinks effective capacity, lowering speed at equal demand
    on = roadway_mean_speed(10.0, 10, 40, 0.1, 1.0)
    off = roadway_mean_speed(10.0, 10, 40, 0.1, 0.4)
    assert off < on


def network(lights=("L",)):
    return {
        "roadways": {"r": {"free_flow_mps": 10.0, "capacity": 40, "lights": list(lights)}},
        "lights": list(lights),
    }


def test_reference_adapter_lockstep_enforced():
    sim = ReferenceTrafficSimulator(v_min_frac=0.1, light_off_factor=0.4)
    sim.initialize(network(), seed=1)
    sim.advance(1)
    with pytest.raises(LockstepError):
        sim.advance(3)
    with pytest.raises(LockstepError):
        sim.advance(1)


def test_query_is_cached_per_tick():
    sim = ReferenceTrafficSimulator(v_min_frac=0.1, light_off_factor=0.4)
    sim.initialize(network(), seed=1)
    sim.inject([{"kind": "route", "vehicle_id": "v", "edges": ["r"]}])
    sim.advance(1)
    assert sim.query() == sim.query()
    assert sim.query()["roadways"]["r"]["intensity"] == 1


def test_roadway_command_changes_the_speed_law_and_checks_its_id():
    sim = ReferenceTrafficSimulator(v_min_frac=0.1, light_off_factor=0.4)
    sim.initialize(network(), seed=1)
    route = {"kind": "route", "vehicle_id": "v", "edges": ["r"]}
    sim.inject([route, {"kind": "roadway", "roadway_id": "r", "capacity": 2,
                        "free_flow_mps": 20.0}])
    sim.advance(1)
    assert sim.query()["roadways"]["r"]["mean_speed"] == roadway_mean_speed(20.0, 1, 2, 0.1, 1.0)
    with pytest.raises(LockstepError):
        sim.inject([{"kind": "roadway", "roadway_id": "nowhere", "capacity": 2,
                     "free_flow_mps": 20.0}])


def test_zero_vehicles_free_flow_speed():
    sim = ReferenceTrafficSimulator(v_min_frac=0.1, light_off_factor=0.4)
    sim.initialize(network(), seed=1)
    sim.advance(1)
    assert sim.query()["roadways"]["r"]["mean_speed"] == 10.0


def test_light_off_lowers_speed_under_fixed_demand():
    def speed(light_status):
        sim = ReferenceTrafficSimulator(v_min_frac=0.1, light_off_factor=0.4)
        sim.initialize(network(), seed=1)
        sim.inject([{"kind": "light", "light_id": "L", "status": light_status}])
        sim.inject([{"kind": "route", "vehicle_id": f"v{i}", "edges": ["r"]}
                    for i in range(10)])
        sim.advance(1)
        return sim.query()["roadways"]["r"]["mean_speed"]

    assert speed("off") < speed("on")


def test_adapter_contract_matches_direct_computation():
    """Driving the federate through the adapter interface must reproduce the
    raw speed-density arithmetic exactly: the contract is lossless."""
    sim = ReferenceTrafficSimulator(v_min_frac=0.15, light_off_factor=0.5)
    sim.initialize(network(), seed=9)
    demands = [0, 3, 12, 40, 60, 7]
    states = ["on", "off", "on", "off", "on", "off"]
    via_adapter = []
    for tick, (demand, status) in enumerate(zip(demands, states), start=1):
        sim.inject([{"kind": "light", "light_id": "L", "status": status}])
        sim.inject([{"kind": "route", "vehicle_id": f"v{i}", "edges": ["r"]}
                    for i in range(demand)])
        sim.advance(tick)
        via_adapter.append(sim.query()["roadways"]["r"]["mean_speed"])
    direct = [
        roadway_mean_speed(10.0, demand, 40, 0.15, 0.5 if status == "off" else 1.0)
        for demand, status in zip(demands, states)
    ]
    assert via_adapter == direct


def light_city(seed=4):
    return config_from({
        "name": "lights", "seed": seed, "horizon_days": 1,
        "landscape": {
            "nodes": [{"id": "n0", "district": "d"}, {"id": "n1", "district": "d"}],
            "roadways": [{"id": "r0", "a": "n0", "b": "n1", "length_m": 500,
                          "free_flow_mps": 10, "capacity": 30, "station": True,
                          "district": "d"}],
            "places": [],
        },
        "ict": {
            "nodes": [{"id": "ctrl", "depends_on": [], "vulnerability": 1.0,
                       "recovery_ticks": 6}],
            "attackers": [{"id": "atk", "target": "ctrl", "attack_type": "ddos",
                           "propagation_probability": 0.0}],
        },
        "mobility": {
            "adapter": "reference",
            "traffic_lights": [{"id": "L", "node": "n1", "district": "d",
                                "roadways": ["r0"],
                                "ict": {"upstream": "ctrl", "vulnerability": 1.0,
                                        "recovery_ticks": 6}}],
        },
        "hazards": [{"tick": 4, "kind": "cyberattack", "selector": {"id": "atk::ict"}}],
    })


def test_light_follows_controller_availability():
    config = light_city()
    world = build_world(config)
    schedule = config.schedule()
    apply_due(world, 0, schedule)
    status = []
    controller_eff = []
    for _ in range(16):
        world.step()
        apply_due(world, world.tick, schedule)
        status.append(world.states["L::mobility"]["operation_status"])
        controller_eff.append(world.states["L::ict"]["effective_available"])
    # ctrl compromised at tick 5 -> L's own node cascades off the same tick,
    # the light reacts in its coupling stage that tick as well
    for light, ok in zip(status, controller_eff):
        assert light == ("on" if ok else "off")
    assert "off" in status and status[-1] == "on"


def test_light_on_whole_run_without_attack():
    raw = dict(light_city().raw)
    raw["hazards"] = []
    result = run_variant(config_from(raw), "risk")
    lights = [s.value for s in result.samples
              if s.scope == "L::mobility" and s.name == "operation_status"]
    assert lights == [1] * len(lights)


def test_station_count_in_export_rows():
    result = run_variant(light_city(), "risk")
    per_tick = {}
    for s in result.samples:
        if s.name == "mean_speed" and s.scope.endswith("::mobility"):
            per_tick.setdefault(s.tick, 0)
            per_tick[s.tick] += 1
    assert set(per_tick.values()) == {1}  # exactly one station declared
    assert len(per_tick) == 25


def early_exit_route(graph: StreetGraph, origin: str, dest: str) -> list[str] | None:
    """Reference: one Dijkstra per (origin, dest) pair that stops when dest
    is settled, with the same (cost, node path) tie-break."""
    if origin not in graph.adjacency or dest not in graph.adjacency:
        return None
    if origin == dest:
        return []
    best = {origin: (0.0, (origin,))}
    heap = [(0.0, (origin,), origin)]
    done = set()
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
    if dest not in done:
        return None
    path = best[dest][1]
    return [min((w, rid) for nbr, rid, w in graph.adjacency[path[i - 1]] if nbr == path[i])[1]
            for i in range(1, len(path))]


def grid(size: int, seed: int) -> StreetGraph:
    """A size x size street grid with integer costs, so equal-cost routes
    abound, and a parallel roadway on every fifth block."""
    rng = random.Random(seed)
    graph = StreetGraph()
    for r in range(size):
        for c in range(size):
            for dr, dc in ((0, 1), (1, 0)):
                if r + dr < size and c + dc < size:
                    a, b = f"n{r}_{c}", f"n{r + dr}_{c + dc}"
                    graph.add_roadway(f"r{a}{b}", a, b, float(rng.randint(1, 3)))
                    if rng.random() < 0.2:
                        graph.add_roadway(f"p{a}{b}", a, b, float(rng.randint(1, 3)))
    return graph


@pytest.mark.parametrize("which", ["casestudy", "grid"])
def test_tree_routes_equal_early_exit_routes_with_one_search_per_origin(
        which, casestudy, monkeypatch):
    if which == "casestudy":
        # the structure's graph may hold trees from other tests: route on a
        # copy without them
        shared = build_world(casestudy, "risk").services["street_graph"]
        graph = StreetGraph(shared.adjacency, cheapest=shared.cheapest)
    else:
        graph = grid(12, seed=3)
    tree, searches = routing._tree, []

    def counting_tree(graph, origin):
        searches.append(origin)
        return tree(graph, origin)

    monkeypatch.setattr(routing, "_tree", counting_tree)
    nodes = sorted(graph.adjacency)
    for origin in nodes:
        for dest in nodes:
            assert shortest_route(graph, origin, dest) == early_exit_route(graph, origin, dest)
    assert searches == nodes


@pytest.mark.parametrize("seed", range(40))
def test_tree_routes_match_enumeration_on_random_graphs(seed):
    rng = random.Random(seed)
    nodes = [f"v{i}" for i in range(rng.randint(3, 9))]
    graph = StreetGraph()
    island = nodes.pop()
    graph.add_node(island)
    for i in range(rng.randint(len(nodes), 2 * len(nodes) + 2)):
        a, b = rng.sample(nodes, 2)
        graph.add_roadway(f"e{i}", a, b, float(rng.randint(1, 3)))
        if rng.random() < 0.3:  # a parallel roadway, as cheap or dearer
            graph.add_roadway(f"f{i}", a, b, float(rng.randint(1, 3)))
    for origin in sorted(graph.adjacency):
        for dest in sorted(graph.adjacency):
            assert shortest_route(graph, origin, dest) == enumerate_cheapest_route(
                graph, origin, dest)
    assert shortest_route(graph, nodes[0], island) is None


def test_changing_the_graph_drops_the_trees():
    graph = diamond()
    assert shortest_route(graph, "s", "t") == ["bot1", "bot2"]
    graph.add_roadway("short", "s", "t", 0.5)
    assert shortest_route(graph, "s", "t") == ["short"]
    graph.add_roadway("shorter", "t", "s", 0.25)
    assert shortest_route(graph, "s", "t") == ["shorter"]
    assert shortest_route(graph, "s", "island") is None
    graph.add_node("island")
    assert graph.routes == {}
    assert shortest_route(graph, "s", "island") is None
    graph.add_roadway("bridge", "t", "island", 1.0)
    assert shortest_route(graph, "s", "island") == ["shorter", "bridge"]
