"""Benchmark workloads: each is a pure function of the benchmark seed.

A workload turns the seed into a scenario document (the only thing the
program receives) plus the list of variants to run on it.  Generators use
their own ``random.Random(seed)`` and draw only ``random()`` floats, so the
same seed yields the same scenario bytes on every supported Python.

Why each workload exists (see README.md for the layer map):

casestudy-paired  the shipped case study, all four variants: the only
                  multi-variant workload, so paired-run changes show here.
                  Only 24 distinct route pairs: a route cache hits nearly
                  every call.
metro-8k          8 000 citizens on a street grid with many places: the
                  population kernel, social settlement and routing over
                  many distinct pairs dominate.  One variant.
infra-cascade     a ~2 000-node ICT hierarchy under staggered attacks with
                  200 citizens: ICT stages, ICT settlement, hazard
                  dispatch and per-subagent recorder rows dominate.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# read relative to the checkout root, where the benchmark runs
CASESTUDY = Path("scenarios") / "casestudy.json"

DISEASE = {
    "beta": 0.0044, "p_severe": 0.34, "p_worsen": 0.6,
    "p_die_treated": 0.06, "p_die_untreated": 0.85,
    "mild_hours": [144, 216], "severe_hours": [120, 168],
    "critical_hours": [72, 120], "convalescence_hours": 168,
    "vaccination_factor": 0.5,
}
TIMETABLES = {
    "worker": [[0, "home"], [8, "work"], [17, "home"]],
    "shopper": [[0, "home"], [10, "market"], [14, "home"]],
}
ATTACK_TYPES = ("ddos", "botnet", "ransomware")


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: dict
    variants: list[str]


class _Draw:
    """Seeded draws built on ``random()`` alone (stable across versions)."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self._rng.random()

    def integer(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]."""
        return lo + min(int(self._rng.random() * (hi - lo + 1)), hi - lo)

    def choice(self, options: list):
        return options[self.integer(0, len(options) - 1)]

    def sample(self, options: list, k: int) -> list:
        pool = list(options)
        picked = []
        for _ in range(min(k, len(pool))):
            picked.append(pool.pop(self.integer(0, len(pool) - 1)))
        return picked


def casestudy_paired(seed: int) -> Workload:
    """The shipped case study, cut to five days with the attack at its start.

    The attack fires at tick 1 and its 96-tick outage ends at tick 97, so
    the window holds the attack, the outage and the recovery.  A short mild
    stage (24-48 h) and 12 seeded cases instead of 4 bring the first
    hospital admissions to ticks 25-32 at every seed from 1 to 10, inside
    the outage.  Five days keep one paired run short enough to repeat
    several times in a run.
    """
    raw = json.loads(CASESTUDY.read_text(encoding="utf-8"))
    raw["seed"] = seed
    raw["horizon_days"] = 5
    raw["health"]["disease"]["mild_hours"] = [24, 48]
    for event in raw["hazards"]:
        if event["kind"] == "cyberattack":
            event["day"] = 0
        elif event["kind"] == "disease_seed":
            event["payload"]["count"] = 12
    return Workload("casestudy-paired", raw, ["baseline", "risk", "beds", "cybersecurity"])


def _street_grid(draw: _Draw, districts: list[str], side: int, length: tuple[int, int]) -> dict:
    """Districts as square blocks of a 2-column grid of side x side nodes each.

    Roadways join horizontal and vertical neighbours, inside and across
    districts; every fifth one carries a counting station.
    """
    cols = 2
    nodes, roadways = [], []
    owner: dict[tuple[int, int], str] = {}
    for index, district in enumerate(districts):
        bx, by = (index % cols) * side, (index // cols) * side
        for x in range(bx, bx + side):
            for y in range(by, by + side):
                owner[(x, y)] = district
                nodes.append({"id": f"n_{x}_{y}", "x": x * 500, "y": y * 500,
                              "district": district})
    for (x, y), district in sorted(owner.items()):
        for nx, ny in ((x + 1, y), (x, y + 1)):
            if (nx, ny) not in owner:
                continue
            roadways.append({
                "id": f"r_{x}_{y}_{nx}_{ny}", "a": f"n_{x}_{y}", "b": f"n_{nx}_{ny}",
                "length_m": draw.integer(*length),
                "free_flow_mps": round(draw.uniform(9.0, 15.0), 2),
                "capacity": draw.integer(40, 80),
                "station": len(roadways) % 5 == 0,
                "district": district,
            })
    return {"nodes": nodes, "roadways": roadways}


def _places(draw: _Draw, landscape: dict, districts: list[str],
            kinds: dict[str, tuple[int, tuple[int, int] | None]]) -> list[dict]:
    """Places of each kind per district, on distinct seeded nodes."""
    places = []
    for district in districts:
        ids = [n["id"] for n in landscape["nodes"] if n["district"] == district]
        for kind, (count, capacity) in kinds.items():
            for i, node in enumerate(draw.sample(ids, count)):
                place = {"id": f"{kind}_{district}_{i}", "kind": kind,
                         "node": node, "district": district}
                if capacity is not None:
                    place["capacity"] = draw.integer(*capacity)
                places.append(place)
    return places


def _lights(draw: _Draw, landscape: dict, districts: list[str], per_district: int,
            upstream_of) -> list[dict]:
    """Traffic lights on distinct nodes, each controlling its incident roadways."""
    incident: dict[str, list[str]] = {}
    for rw in landscape["roadways"]:
        incident.setdefault(rw["a"], []).append(rw["id"])
        incident.setdefault(rw["b"], []).append(rw["id"])
    lights = []
    for district in districts:
        ids = [n["id"] for n in landscape["nodes"] if n["district"] == district]
        for i, node in enumerate(draw.sample(ids, per_district)):
            lights.append({
                "id": f"light_{district}_{i}", "node": node, "district": district,
                "roadways": sorted(incident[node]),
                "ict": {"upstream": upstream_of(district), "vulnerability": 1.0,
                        "recovery_ticks": 24},
            })
    return lights


def _hospitals(draw: _Draw, landscape: dict, districts: list[str], per_district: int,
               beds: tuple[int, int], upstream_of) -> list[dict]:
    hospitals = []
    for district in districts:
        ids = [n["id"] for n in landscape["nodes"] if n["district"] == district]
        for i, node in enumerate(draw.sample(ids, per_district)):
            hospitals.append({
                "id": f"hospital_{district}_{i}", "district": district, "node": node,
                "general_beds": draw.integer(*beds),
                "icu_beds": max(1, draw.integer(*beds) // 4),
                "care_quality": 1.0, "referral_peers": [],
                "ict": {"upstream": upstream_of(district), "vulnerability": 1.0,
                        "recovery_ticks": 24},
                "capacity_degradation_factor": 0.3,
            })
    ids = [h["id"] for h in hospitals]
    for hosp in hospitals:
        same = [h["id"] for h in hospitals
                if h["district"] == hosp["district"] and h["id"] != hosp["id"]]
        others = [h for h in ids if h != hosp["id"] and h not in same]
        hosp["referral_peers"] = same + draw.sample(others, 1)
    return hospitals


def metro_8k(seed: int) -> Workload:
    """8 000 citizens in four districts; one simulated day, one risk variant."""
    draw = _Draw(seed)
    districts = [f"d{i}" for i in range(4)]
    landscape = _street_grid(draw, districts, side=6, length=(300, 700))
    landscape["places"] = _places(draw, landscape, districts, {
        "work": (14, None), "market": (6, (200, 400)),
    })
    ict_nodes = [{"id": "ict_city", "depends_on": [], "vulnerability": 0.2,
                  "recovery_ticks": 48, "district": None}]
    for d in districts:
        ict_nodes.append({"id": f"ict_{d}", "depends_on": ["ict_city"],
                          "vulnerability": 1.0, "recovery_ticks": 8, "district": d})
    attacked = draw.choice(districts)
    raw = {
        "name": "metro-8k",
        "seed": seed,
        "horizon_days": 1,
        "ticks_per_day": 24,
        "landscape": landscape,
        "population": {
            "districts": {d: {"citizens": 2000, "household_size": [1, 4]} for d in districts},
            "timetables": TIMETABLES,
            "timetable_mix": {"worker": 0.7, "shopper": 0.3},
            "contact_k": 3, "boundary_jitter_h": 1, "lockdown": False,
        },
        "ict": {
            "nodes": ict_nodes,
            "attackers": [{"id": "attacker_metro", "target": f"ict_{attacked}",
                           "attack_type": "botnet", "propagation_probability": 1.0,
                           "district": attacked}],
        },
        "health": {
            "hospitals": _hospitals(draw, landscape, districts, 1, (40, 60),
                                    lambda d: f"ict_{d}"),
            # a short mild stage, so severe cases reach hospitals within the day
            "disease": {**DISEASE, "mild_hours": [6, 12]},
        },
        "mobility": {
            "adapter": "reference", "v_min_frac": 0.1, "light_off_factor": 0.4,
            "traffic_lights": _lights(draw, landscape, districts, 3, lambda d: f"ict_{d}"),
        },
        "hazards": [
            {"day": 0, "kind": "disease_seed", "selector": {"role": "patient"},
             "payload": {"count": 80}},
            {"tick": 12, "kind": "cyberattack", "selector": {"id": "attacker_metro::ict"}},
        ],
    }
    return Workload("metro-8k", raw, ["risk"])


def infra_cascade(seed: int) -> Workload:
    """A ~2 000-node ICT hierarchy under dozens of staggered attacks; two days."""
    draw = _Draw(seed)
    districts = [f"d{i}" for i in range(4)]
    horizon_days = 2
    horizon = horizon_days * 24
    nodes: list[dict] = [{"id": "ict_root", "depends_on": [], "vulnerability": 0.1,
                          "recovery_ticks": 12, "district": None}]
    leaves: dict[str, list[str]] = {d: [] for d in districts}
    levels: list[list[tuple[str, str]]] = [[("ict_root", None)]]
    fanout = (4, 6, 8, 9)
    for depth, width in enumerate(fanout, start=1):
        level = []
        for p_index, (parent, district) in enumerate(levels[-1]):
            for i in range(width):
                district_of = districts[i] if depth == 1 else district
                nid = f"ict_l{depth}_{p_index}_{i}"
                depends = [parent]
                # one node in ten is dual-homed to a sibling parent, so the
                # hierarchy is a DAG and outages can arrive by two routes
                if depth > 1 and draw.uniform(0, 1) < 0.1:
                    siblings = [p for p, d in levels[-1] if d == district and p != parent]
                    if siblings:
                        depends.append(draw.choice(siblings))
                nodes.append({
                    "id": nid, "depends_on": depends,
                    "vulnerability": round(draw.uniform(0.2, 0.9), 3),
                    "recovery_ticks": draw.integer(4, 18),
                    "district": district_of,
                })
                level.append((nid, district_of))
                if depth == len(fanout):
                    leaves[district_of].append(nid)
        levels.append(level)
    targets = [n for level in levels[2:] for n, _ in level]
    attackers, hazards = [], [
        {"day": 0, "kind": "disease_seed", "selector": {"role": "patient"},
         "payload": {"count": 6}},
    ]
    for i in range(48):
        target = draw.choice(targets)
        district = next(n["district"] for n in nodes if n["id"] == target)
        aid = f"attacker_{i}"
        attackers.append({"id": aid, "target": target,
                          "attack_type": ATTACK_TYPES[i % 3], "district": district})
        for _ in range(draw.integer(1, 3)):
            hazards.append({"tick": draw.integer(1, horizon - 2), "kind": "cyberattack",
                            "selector": {"id": f"{aid}::ict"}})
    # district-wide waves arm every attacker of a district at once; their
    # role/district selectors make resolve_selector scan every record
    for i, district in enumerate(districts):
        hazards.append({"tick": 6 + i * 10, "kind": "cyberattack",
                        "selector": {"role": "cyber-attacker", "district": district}})
    landscape = _street_grid(draw, districts, side=3, length=(400, 800))
    landscape["places"] = _places(draw, landscape, districts, {
        "work": (3, None), "market": (2, None),
    })

    def leaf_of(district: str) -> str:
        return draw.choice(leaves[district])

    raw = {
        "name": "infra-cascade",
        "seed": seed,
        "horizon_days": horizon_days,
        "ticks_per_day": 24,
        "landscape": landscape,
        "population": {
            "districts": {d: {"citizens": 50, "household_size": [1, 4]} for d in districts},
            "timetables": TIMETABLES,
            "timetable_mix": {"worker": 0.7, "shopper": 0.3},
            "contact_k": 3, "boundary_jitter_h": 1, "lockdown": False,
        },
        "ict": {"nodes": nodes, "attackers": attackers},
        "health": {
            "hospitals": _hospitals(draw, landscape, districts, 2, (10, 16), leaf_of),
            "disease": DISEASE,
        },
        "mobility": {
            "adapter": "reference", "v_min_frac": 0.1, "light_off_factor": 0.4,
            "traffic_lights": _lights(draw, landscape, districts, 6, leaf_of),
        },
        "hazards": hazards,
    }
    return Workload("infra-cascade", raw, ["risk"])


WORKLOADS = {
    "casestudy-paired": casestudy_paired,
    "metro-8k": metro_8k,
    "infra-cascade": infra_cascade,
}


def world_profile(world) -> dict:
    """Input properties a later "helps inputs with X" claim can quote."""
    roles: dict[str, int] = {}
    for record in world.records.values():
        roles[record.role] = roles.get(record.role, 0) + 1
    place_nodes = world.services.get("place_nodes", {})
    pairs = set()
    for sid in world.role_members("citizen"):
        schedule = world.records[sid].params["schedule"]
        for hour in range(24):
            a = place_nodes.get(schedule[hour - 1][0])
            b = place_nodes.get(schedule[hour][0])
            if a != b:
                pairs.add((a, b))
    return {
        "subagents_per_role": dict(sorted(roles.items())),
        "edges_per_layer": {name: len(layer.edges) for name, layer in world.layers.items()},
        "scheduled_route_pairs": len(pairs),
    }


def report_profile(report) -> dict:
    runs = report.runs.values()
    return {
        "hazard_events_applied": sum(
            len(events) for run in runs for events in run.applied_events.values()),
        "observed_subagent_rows": sum(
            1 for run in runs for s in run.samples if "::" in s.scope),
    }
