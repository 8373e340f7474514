"""Shared fixtures and toy-world builders."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from citysim.kernel import Registry, RuleSet, World
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
    params.update(home_hospital=None, district=None, vaccinated=False,
                  initially_infected=False)
    params.update(overrides)
    return params


def build_patient_world(n: int, seed: int = 7, hospitals: list[dict] | None = None,
                        **disease_overrides) -> World:
    """Healthcare-only world: n patient agents, optional hospitals, no city."""
    world = World(seed, default_registry())
    for spec in hospitals or []:
        world.add_agent(spec["id"], [(
            f"{spec['id']}::healthcare", "healthcare", "hospital", {
                "nominal_general_capacity": spec.get("general", 10),
                "nominal_icu_capacity": spec.get("icu", 2),
                "base_care_quality": spec.get("care_quality", 1.0),
                "referral_peers": [f"{p}::healthcare" for p in spec.get("peers", [])],
                "district": spec.get("district"),
                "capacity_degradation_factor": 0.5,
                "quality_degradation_factor": 0.75,
            })])
    for i in range(n):
        world.add_agent(f"p{i:04d}", [(
            f"p{i:04d}::healthcare", "healthcare", "patient",
            disease_params(**disease_overrides))])
    world.finalize()
    return world


def build_sir_world(n: int, seeds: int, beta: float, contact_k: int,
                    duration: int, master_seed: int = 11, bystanders: int = 0) -> World:
    """Fully mixed epidemic toy: everyone shares one place around the clock.

    Bystanders are citizens without a patient sibling; their ids sort before
    every other citizen's."""
    world = World(master_seed, default_registry())
    world.add_agent("commons", [(
        "commons::urban_landscape", "urban_landscape", "place", {
            "place_id": "commons", "kind": "commons", "node": None,
            "district": None, "capacity": None,
        })])
    schedule = [("commons", "commons")] * 24
    for i in range(n):
        cid = f"c{i:04d}"
        world.add_agent(cid, [
            (f"{cid}::social", "social", "citizen", {
                "home_place": "commons", "district": None, "household": [],
                "contact_k": contact_k, "schedule": schedule,
            }),
            (f"{cid}::healthcare", "healthcare", "patient", disease_params(
                beta=beta, mild_hours=[duration, duration],
                initially_infected=i < seeds)),
        ])
    for i in range(bystanders):
        world.add_agent(f"b{i:04d}", [(f"b{i:04d}::social", "social", "citizen", {
            "home_place": "commons", "district": None, "household": [],
            "contact_k": contact_k, "schedule": schedule,
        })])
    world.finalize()
    return world


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
            ruleset.observe = lambda record: []
        registry.register_role(role, ruleset)
    return registry


def blank_state_init(defaults: dict):
    return lambda params, stream: dict(defaults)


def write_scenario(tmp_path: Path, raw: dict) -> Path:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    return path
