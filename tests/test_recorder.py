"""The block recorder: a run's rows are blocks shared across ticks, and the
export writes exactly the lines a per-row formatter writes over
``RunResult.samples``."""

from collections import Counter

import pytest

from citysim.build import build_world
from citysim.export import HEADER, _fmt, export_report
from citysim.hazards import HazardSchedule, apply_due
from citysim.kernel import RuleSet, World
from citysim.metrics import Recorder, sl_ict
from citysim.runner import ComparisonReport, RunResult, run, run_paired
from citysim.systems.health import INFECTIONS
from citysim.systems.social import PARTITION, partition_class

from conftest import blank_state_init, build_ict_world, config_from, toy_registry
from test_wake import ict_hierarchy, short_casestudy, staggered_attacks


def reference_metrics_csv(result) -> str:
    """``metrics_<variant>.csv`` as written one line per sample."""
    tpd = result.ticks_per_day
    lines = [HEADER] + [f"{tick},{tick // tpd},{scope},{metric},{_fmt(value)}"
                        for tick, scope, metric, value in result.samples]
    return "\n".join(lines) + "\n"


def assert_export_matches_reference(report, out):
    export_report(report, out)
    for name in report.order:
        result = report.runs[name]
        assert (out / f"metrics_{name}.csv").read_text() == reference_metrics_csv(result), name
        assert len(result.samples) == sum(1 for _ in result.samples), name
        assert all(pairs for _, blocks in result.samples.ticks for _, pairs in blocks), name


@pytest.fixture(scope="module")
def short_casestudy_report():
    return run_paired(config_from(short_casestudy()),
                      ["baseline", "risk", "beds", "cybersecurity"])


def test_casestudy_export_matches_per_row_formatting(short_casestudy_report, tmp_path):
    assert_export_matches_reference(short_casestudy_report, tmp_path)


def test_non_station_roadway_adds_no_rows(short_casestudy_report):
    world = build_world(config_from(short_casestudy()))
    roadways = world.role_members("roadway")
    stations = {sid for sid in roadways if world.params[sid]["station"]}
    assert stations and stations != set(roadways)
    for result in short_casestudy_report.runs.values():
        scopes = {scope for scope, _ in result.samples.blocks}
        assert scopes & set(roadways) == stations
        ticks = {s.tick for s in result.samples if s.scope in set(roadways) - stations}
        assert not ticks


def ict_hierarchy_config():
    nodes, attackers = ict_hierarchy()
    return config_from({"name": "ict-hierarchy", "seed": 5, "horizon_days": 2,
                        "ict": {"nodes": nodes, "attackers": attackers},
                        "hazards": staggered_attacks()})


def test_ict_hierarchy_export_matches_per_row_formatting(tmp_path):
    assert_export_matches_reference(run_paired(ict_hierarchy_config(), ["risk", "baseline"]),
                                    tmp_path)


def test_ict_service_level_is_sl_ict_of_the_flags_on_every_tick():
    nodes, attackers = ict_hierarchy()
    world, _ = build_ict_world(nodes, attackers)
    members = world.role_members("cyber-infrastructure")
    recorder = Recorder(world)
    levels = set()

    def check(w):
        recorder.observe()
        flags = [w.states[s]["effective_available"] for s in members]
        assert recorder.sl["ict"][-1] == sl_ict(flags), w.tick
        assert recorder.rollups["ict", "compromised_count"] == sum(
            not w.states[s]["available"] for s in members), w.tick
        levels.add(recorder.sl["ict"][-1])

    run(world, 40, HazardSchedule.from_config(staggered_attacks(), 24), (check,))
    assert len(recorder.sl["ict"]) == 41
    assert len(levels) > 2


def mixed_world():
    """Two subagents whose rows cover every value kind the export formats."""
    registry = toy_registry(mixed=RuleSet(
        init_state=blank_state_init({"on": True}),
        observe=lambda state, params: [
            ("on", state["on"]), ("count", 3), ("sum", 0.1 + 0.2), ("tiny", 1e-7),
            ("scale", params["scale"]), ("label", params["label"])]))
    world = World(1, registry)
    for sid in ("m1", "m2"):
        world.add_agent(sid, [(sid, "ict", "mixed", {"scale": 1.0, "label": "plain"})])
    world.finalize()
    return world.start()


def test_mixed_value_kinds_export_matches_per_row_formatting(tmp_path):
    world = mixed_world()
    recorder = Recorder(world, ["mixed"])
    schedule = HazardSchedule.from_config([{
        "tick": 3, "kind": "generic_override", "selector": {"id": "m2"},
        "overrides": {"scale": 0.1 * 3, "label": "changed"}}], 24)
    events = run(world, 6, schedule, (lambda w: recorder.observe(),))
    result = RunResult(variant="risk", scenario="mixed", seed=1, horizon_ticks=6,
                       ticks_per_day=4, config_digest="", samples=recorder.rows,
                       sl=recorder.sl, deaths=recorder.deaths,
                       station_speeds=recorder.station_speeds, applied_events=events)
    report = ComparisonReport(scenario="mixed", seed=1, horizon_ticks=6, ticks_per_day=4,
                              order=["risk"], runs={"risk": result}, sl_mobility={},
                              summary={})
    assert_export_matches_reference(report, tmp_path)
    text = (tmp_path / "metrics_risk.csv").read_text()
    assert "0,0,m1,on,1\n" in text and "0,0,m1,sum,0.30000000000000004\n" in text
    assert "0,0,m1,tiny,1e-07\n" in text and "0,0,m1,label,plain\n" in text
    assert "2,0,m2,scale,1.0\n" in text and "3,0,m2,scale,0.30000000000000004\n" in text
    assert "6,1,m2,label,changed\n" in text and "6,1,m1,label,plain\n" in text
    # m1 never changed: its one block serves every tick
    assert sum(1 for scope, _ in recorder.rows.blocks if scope == "m1") == 1
    assert sum(1 for scope, _ in recorder.rows.blocks if scope == "m2") == 2


def test_rows_compare_equal_by_content():
    world = mixed_world()
    cached, fresh = Recorder(world, ["mixed"]), Recorder(world, ["mixed"])
    for tick in range(3):
        if tick:
            world.step()
        apply_due(world, tick, HazardSchedule([]))
        cached.observe()
        fresh._version = None  # takes every block anew
        fresh.observe()
    assert cached.rows == fresh.rows
    assert len(cached.rows.blocks) < len(fresh.rows.blocks)
    fresh.observe()
    assert cached.rows != fresh.rows


# -- rollups from the change log -------------------------------------------------

def brute_force_rollups(world) -> dict:
    """The counted rollups as full walks over every member."""
    states, members = world.states, world.role_members
    parts = Counter(partition_class(states[c]) for c in members("citizen"))
    assert None not in parts
    infections = Counter(states[p]["infection"] for p in members("patient"))
    nodes = members("cyber-infrastructure")
    return {
        **{("social", part): parts[part] for part in PARTITION},
        **{("healthcare", "total_" + name): infections[name] for name in INFECTIONS},
        ("ict", "service_level"): sl_ict([states[s]["effective_available"] for s in nodes]),
        ("ict", "compromised_count"): sum(not states[s]["available"] for s in nodes),
        ("urban_landscape", "total_place_occupancy"):
            sum(states[p]["occupancy"] for p in members("place")),
    }


@pytest.mark.parametrize("variant", ["baseline", "risk", "beds", "cybersecurity"])
def test_rollups_equal_full_counts_with_two_recorders(variant):
    config = config_from(short_casestudy())
    world = build_world(config, variant)
    recorders = Recorder(world), Recorder(world)
    seen = set()

    def check(w):
        expected = brute_force_rollups(w)
        for recorder in recorders:
            recorder.observe()
            got = {**recorder.rollups, ("ict", "service_level"): recorder.sl["ict"][-1]}
            assert {key: got[key] for key in expected} == expected, w.tick
        seen.add(tuple(sorted(expected.items())))

    schedule = HazardSchedule([]) if variant == "baseline" else config.schedule()
    run(world, config.horizon_ticks, schedule, (check,))
    assert len(seen) > 10  # the counts move


def test_rollups_count_anew_after_a_change_between_observation_and_step():
    # one recorder observes every tick, one every third; a citizen is sent
    # into transit after the observation and before the next step; the
    # sparse recorder's rows equal those of one that takes every block anew
    config = config_from(short_casestudy())
    world = build_world(config, "risk")
    every, sparse, fresh = Recorder(world), Recorder(world), Recorder(world)
    citizen = world.role_members("citizen")[0]
    for tick in range(30):
        if tick:
            world.step()
        apply_due(world, tick, config.schedule())
        for recorder in (every, sparse) if tick % 3 == 0 else (every,):
            recorder.observe()
            assert recorder.rollups["social", "in_transit"] == \
                brute_force_rollups(world)["social", "in_transit"], tick
        if tick % 3 == 0:
            fresh._version = None
            fresh.observe()
            assert sparse.rows == fresh.rows, tick
        if tick == 10:
            world.change(citizen, dict(world.states[citizen], location="transit"))
