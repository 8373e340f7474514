"""Whole-state trajectories pinned across refactors.

The golden export digests see only observed roles and rollups; fields such
as ``trip_pending``, ``homebound``, ``stage_end`` and ``recovery_due`` are
never exported.  Each test here steps a world as a run does (hazard events
applied after every step) and chains a sha256 of every subagent's state,
tick by tick, into one digest pinned below (taken before the per-layer
rules moved into the settlements).  A refactor that changes any
state on any tick changes the digest.
"""

import copy
import hashlib
import random

import pytest

from citysim.build import build_world
from citysim.export import export_report
from citysim.hazards import HazardSchedule, apply_due
from citysim.runner import run_paired
from citysim.scenario import BASELINE

from conftest import build_ict_world, build_sir_world, config_from
from test_social import tiny_city
from test_wake import ict_hierarchy, short_casestudy, staggered_attacks

PINS = {
    "casestudy-baseline": "1691036ee5a3347e5855fbd79086c88acfe2f665c8dde6dc6020d6806b225b85",
    "casestudy-risk": "939106db3596d11d6b4482cd1201d697b433c0db373fe316d1a2d52b23b846a6",
    "casestudy-beds": "cf664e3878821ea517140e672c97a38f460c74346e406d4fb85559ac5e5dde07",
    "casestudy-cybersecurity": "4cf57cff4af90d080aba1a60517624b3cb036c81eac3502d023a9c84ddc3dcfe",
    "tiny-city-jitter": "4ed4fc238f8232f51252926827d746b65907e4708c5ae32102b3f37ff3ab0216",
    "tiny-city-lockdown": "7cef812a93b0235666b32543ae883415fa35705a883c230d07fb925f87329228",
    "sir": "4a668d5010161e61dd85e61cea48c83d7bf6c70eaf1ad0356419cc9d38a80266",
    "ict-hierarchy": "1a44e79bbb718b90ed721e76c00a0dcde53b48ef2efd2845a5048c29e970ad1a",
}


def trajectory_digest(world, ticks, schedule=None):
    """The chained sha256 of ``repr(sorted(world.states.items()))`` at tick
    0 and after each of ``ticks`` steps, hazard events applied as a run
    applies them."""
    schedule = schedule or HazardSchedule([])
    chain = hashlib.sha256()
    apply_due(world, 0, schedule)
    chain.update(repr(sorted(world.states.items())).encode())
    for _ in range(ticks):
        world.step()
        apply_due(world, world.tick, schedule)
        chain.update(repr(sorted(world.states.items())).encode())
    return chain.hexdigest()


@pytest.mark.parametrize("variant", ["baseline", "risk", "beds", "cybersecurity"])
def test_casestudy_trajectory(variant):
    config = config_from(short_casestudy())
    schedule = HazardSchedule([]) if variant == BASELINE else config.schedule()
    digest = trajectory_digest(build_world(config, variant), config.horizon_ticks, schedule)
    assert digest == PINS[f"casestudy-{variant}"]


def test_jittered_city_trajectory():
    assert trajectory_digest(build_world(tiny_city(jitter=1)), 72) == PINS["tiny-city-jitter"]


def test_lockdown_city_trajectory():
    digest = trajectory_digest(build_world(tiny_city(lockdown=True)), 36)
    assert digest == PINS["tiny-city-lockdown"]


def test_sir_trajectory():
    world = build_sir_world(60, seeds=4, beta=0.03, contact_k=3, duration=30)
    assert trajectory_digest(world, 120) == PINS["sir"]


def test_ict_hierarchy_trajectory():
    nodes, attackers = ict_hierarchy()
    world, _ = build_ict_world(nodes, attackers)
    digest = trajectory_digest(world, 40, HazardSchedule.from_config(staggered_attacks(), 24))
    assert digest == PINS["ict-hierarchy"]


# the id-keyed entity lists of a scenario document; hazards and mitigation
# ops are ordered, so they keep their order
ID_LISTS = (("landscape", "nodes"), ("landscape", "roadways"), ("landscape", "places"),
            ("ict", "nodes"), ("ict", "attackers"), ("health", "hospitals"),
            ("mobility", "traffic_lights"))


def reordered(raw, order):
    """A copy of the document with ``order`` applied in place to each id-keyed list."""
    raw = copy.deepcopy(raw)
    for section, key in ID_LISTS:
        order(raw[section][key])
    return raw


def test_document_order_does_not_change_the_exports(tmp_path):
    raw = short_casestudy()
    documents = {"as-written": raw, "reversed": reordered(raw, list.reverse)}
    for seed in (1, 2):
        documents[f"shuffled-{seed}"] = reordered(raw, random.Random(seed).shuffle)
    exports = {}
    for name, doc in documents.items():
        report = run_paired(config_from(doc), ["baseline", "risk", "beds", "cybersecurity"])
        export_report(report, tmp_path / name)
        exports[name] = {path.name: path.read_bytes()
                         for path in sorted((tmp_path / name).iterdir())
                         if path.name != "manifest.json"}
    for name, files in exports.items():
        assert files == exports["as-written"], name
