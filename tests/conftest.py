"""Shared fixtures and toy-world builders."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from citysim.kernel import Registry, RuleSet, World
from citysim.rng import Stream
from citysim.scenario import DISEASE_DEFAULTS, ScenarioConfig, parse_config
from citysim.systems import default_registry

SCENARIO_PATH = Path(__file__).resolve().parent.parent / "scenarios" / "casestudy.json"


def load_casestudy() -> ScenarioConfig:
    from citysim.scenario import load_scenario
    config, errors = load_scenario(SCENARIO_PATH)
    assert not errors, errors
    return config


@pytest.fixture(scope="session")
def casestudy() -> ScenarioConfig:
    return load_casestudy()


def config_from(raw: dict) -> ScenarioConfig:
    config, errors = parse_config(raw, "test-digest")
    assert not errors, errors
    return config


def disease_params(**overrides) -> dict:
    params = dict(DISEASE_DEFAULTS)
    params.update(home_hospital=None, vaccinated=False)
    params.update(overrides)
    return params


def seed_cases(world: World, patients: list[str]) -> None:
    """Infect each patient of a run at tick 0, as a hazard would, through
    ``World.change``: mild, for hours drawn on its ``init_course`` stream."""
    for pid in patients:
        lo, hi = world.params[pid]["mild_hours"]
        end = world.records[pid].stream.at(0, "init_course").randint(int(lo), int(hi))
        world.change(pid, dict(world.states[pid], infection="infected", severity="mild",
                               stage_end=end))


def build_patient_world(n: int, seed: int = 7, hospitals: list[dict] | None = None,
                        infected: bool = False, **disease_overrides) -> World:
    """Healthcare-only world: n patient agents, every one infected at tick
    0 if ``infected``, optional hospitals, no city."""
    world = World(seed, default_registry())
    for spec in hospitals or []:
        world.add_agent(spec["id"], [(
            f"{spec['id']}::healthcare", "healthcare", "hospital", {
                "nominal_general_capacity": spec.get("general", 10),
                "nominal_icu_capacity": spec.get("icu", 2),
                "base_care_quality": spec.get("care_quality", 1.0),
                "referral_peers": [f"{p}::healthcare" for p in spec.get("peers", [])],
                "capacity_degradation_factor": 0.5,
                "quality_degradation_factor": 0.75,
            })])
    for i in range(n):
        world.add_agent(f"p{i:04d}", [(
            f"p{i:04d}::healthcare", "healthcare", "patient",
            disease_params(**disease_overrides))])
    world.finalize()
    run = world.start()
    if infected:
        seed_cases(run, run.role_members("patient"))
    return run


def build_sir_world(n: int, seeds: int, beta: float, contact_k: int,
                    duration: int, master_seed: int = 11, bystanders: int = 0,
                    **disease_overrides) -> World:
    """Fully mixed epidemic toy: everyone shares one place around the clock.

    The first ``seeds`` patients are infected at tick 0.  Bystanders are
    citizens without a patient sibling; their ids sort before every other
    citizen's."""
    world = World(master_seed, default_registry())
    world.add_agent("commons", [(
        "commons::urban_landscape", "urban_landscape", "place", {"capacity": None})])
    schedule = [("commons", "commons")] * 24
    for i in range(n):
        cid = f"c{i:04d}"
        world.add_agent(cid, [
            (f"{cid}::social", "social", "citizen", {
                "home_place": "commons", "household": [],
                "contact_k": contact_k, "schedule": schedule,
            }),
            (f"{cid}::healthcare", "healthcare", "patient", disease_params(
                beta=beta, mild_hours=[duration, duration], **disease_overrides)),
        ])
    for i in range(bystanders):
        world.add_agent(f"b{i:04d}", [(f"b{i:04d}::social", "social", "citizen", {
            "home_place": "commons", "household": [],
            "contact_k": contact_k, "schedule": schedule,
        })])
    world.finalize()
    run = world.start()
    seed_cases(run, [f"c{i:04d}::healthcare" for i in range(seeds)])
    return run


def eager_contacts(world: World) -> dict[str, tuple[str, ...]]:
    """Oracle for the last placement's contacts: the whole graph drawn at
    once, place by place.  Every occupant draws ``contact_k`` distinct
    co-occupants on its own ``contacts`` stream at the placement tick, every
    contact is made mutual, and an occupant at its home meets its household
    members there.  Returns citizen id -> ascending contacts, for citizens
    with any.  Reads ``world.params``, so call it before they change."""
    placement = world.published["placement"]
    contacts: dict[str, set[str]] = {cid: set() for cid in world.role_members("citizen")}
    for place, occupants in placement.occupants.items():
        n = len(occupants)
        for idx, cid in enumerate(occupants):
            params = world.params[cid]
            k = min(round(params["contact_k"]), n - 1)
            if k > 0:
                rng = Stream(world.master_seed, cid).at(placement.tick, "contacts")
                for j in rng.sample_distinct(n - 1, k):
                    other = occupants[j if j < idx else j + 1]
                    contacts[cid].add(other)
                    contacts[other].add(cid)
            if place == params["home_place"]:
                contacts[cid].update(m for m in params["household"] if m in occupants)
    return {cid: tuple(sorted(c)) for cid, c in contacts.items() if c}


def build_ict_world(nodes: list[dict], attackers: list[dict],
                    seed: int = 5) -> tuple[World, ScenarioConfig]:
    """ICT-only scenario world plus its config (for hazard scheduling)."""
    raw = {
        "name": "ict-toy",
        "seed": seed,
        "horizon_days": 1,
        "ict": {"nodes": nodes, "attackers": attackers},
        "hazards": [],
    }
    config = config_from(raw)
    from citysim.build import build_world
    return build_world(config), config


def toy_registry(**rulesets: RuleSet) -> Registry:
    registry = Registry()
    for role, ruleset in rulesets.items():
        if ruleset.observe is None:
            ruleset.observe = lambda state, params: []
        registry.register_role(role, ruleset)
    return registry


def blank_state_init(defaults: dict):
    return lambda params: dict(defaults)


def write_scenario(tmp_path: Path, raw: dict) -> Path:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    return path
