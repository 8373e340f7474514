"""Scenario validation, variants, CLI contract, CSV/manifest exports."""

import dataclasses
import json
import os
import stat

import pytest
from hypothesis import given, settings, strategies as st

from citysim.build import build_world
from citysim.cli import main
from citysim.export import export_report
from citysim.metrics import Recorder
from citysim.runner import InvariantMonitor, run, run_paired, run_variant
from citysim.scenario import PARAM_SPECS, load_scenario, parse_config

from conftest import SCENARIO_PATH, write_scenario


def minimal_raw(**overrides):
    raw = {
        "name": "mini", "seed": 1, "horizon_days": 1,
        "ict": {"nodes": [{"id": "a", "depends_on": [], "vulnerability": 0.5,
                           "recovery_ticks": 4}]},
        "hazards": [],
    }
    raw.update(overrides)
    return raw


def test_casestudy_loads_clean():
    config, errors = load_scenario(SCENARIO_PATH)
    assert errors == []
    assert config.name == "casestudy"
    assert config.horizon_days == 60
    assert config.mitigation_names == ["beds", "cybersecurity"]


def test_unknown_section_rejected(tmp_path):
    path = write_scenario(tmp_path, minimal_raw(power_grid={}))
    config, errors = load_scenario(path)
    assert config is None
    assert any("power_grid" in e for e in errors)


def test_missing_seed_rejected(tmp_path):
    raw = minimal_raw()
    del raw["seed"]
    config, errors = load_scenario(write_scenario(tmp_path, raw))
    assert config is None
    assert any("seed" in e for e in errors)


def test_dependency_cycle_rejected(tmp_path):
    raw = minimal_raw()
    raw["ict"]["nodes"] = [
        {"id": "a", "depends_on": ["b"], "vulnerability": 0.5, "recovery_ticks": 4},
        {"id": "b", "depends_on": ["a"], "vulnerability": 0.5, "recovery_ticks": 4},
    ]
    _, errors = load_scenario(write_scenario(tmp_path, raw))
    assert "ict.nodes: dependency graph has a cycle: a -> b -> a" in errors


def test_self_dependency_rejected(tmp_path):
    raw = minimal_raw()
    raw["ict"]["nodes"][0]["depends_on"] = ["a"]
    _, errors = load_scenario(write_scenario(tmp_path, raw))
    assert errors == ["ict.nodes: dependency graph has a cycle: a -> a"]


def test_bad_hazard_selector_named(tmp_path):
    raw = minimal_raw(hazards=[{"tick": 0, "kind": "generic_override",
                                "selector": {"role": "power-plant"}}])
    _, errors = load_scenario(write_scenario(tmp_path, raw))
    assert any("power-plant" in e for e in errors)


def test_bad_mitigation_param_named(tmp_path):
    raw = minimal_raw(mitigations={
        "fix": [{"selector": {"role": "cyber-infrastructure"},
                 "param": "warp", "op": "scale", "value": 2}]})
    _, errors = load_scenario(write_scenario(tmp_path, raw))
    assert any("warp" in e for e in errors)


def test_too_narrow_timetable_window_rejected(tmp_path):
    raw = minimal_raw(
        landscape={
            "nodes": [{"id": "n0", "district": "d"}],
            "roadways": [],
            "places": [{"id": "w", "node": "n0", "district": "d", "kind": "work",
                        "capacity": 5}],
        },
        population={
            "districts": {"d": {"citizens": 3, "household_size": [1, 1]}},
            "timetables": {"rushed": [[0, "home"], [8, "work"], [10, "home"]]},
            "timetable_mix": {"rushed": 1.0},
            "boundary_jitter_h": 1,
        },
    )
    _, errors = load_scenario(write_scenario(tmp_path, raw))
    assert any("jitter" in e for e in errors)


def test_invalid_json_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    config, errors = load_scenario(path)
    assert config is None
    assert any("invalid JSON" in e for e in errors)


def test_undecodable_bytes_reported(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"name": "caf\xe9"}')
    config, errors = load_scenario(path)
    assert config is None
    assert len(errors) == 1 and "invalid JSON" in errors[0]
    assert main(["validate", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_mitigation_scales_parameters(casestudy):
    risk = build_world(casestudy, "risk")
    beds = build_world(casestudy, "beds")
    for hid in risk.role_members("hospital"):
        assert beds.params[hid]["nominal_general_capacity"] == pytest.approx(
            risk.params[hid]["nominal_general_capacity"] * 1.5)
    cyber = build_world(casestudy, "cybersecurity")
    for nid in cyber.role_members("cyber-infrastructure"):
        assert cyber.params[nid]["vulnerability"] == 0.0


def test_unknown_variant_rejected(casestudy):
    with pytest.raises(ValueError, match="unknown variant"):
        run_paired(casestudy, ["risk", "fairy-dust"])


def small_config(tmp_path):
    raw = {
        "name": "small", "seed": 77, "horizon_days": 1,
        "ict": {
            "nodes": [{"id": "a", "depends_on": [], "vulnerability": 1.0,
                       "recovery_ticks": 4}],
            "attackers": [{"id": "atk", "target": "a", "attack_type": "botnet",
                           "propagation_probability": 1.0}],
        },
        "hazards": [{"tick": 3, "kind": "cyberattack", "selector": {"id": "atk::ict"}}],
        "mitigations": {
            "harden": [{"selector": {"role": "cyber-infrastructure"},
                        "param": "vulnerability", "op": "scale", "value": 0.0}],
        },
    }
    return write_scenario(tmp_path, raw)


def test_export_file_contract(tmp_path):
    config, errors = load_scenario(small_config(tmp_path))
    assert not errors
    report = run_paired(config, ["baseline", "risk", "harden"])
    out = tmp_path / "out"
    digests = export_report(report, out)
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted([
        "metrics_baseline.csv", "metrics_risk.csv", "metrics_harden.csv",
        "service_levels_baseline.csv", "service_levels_risk.csv",
        "service_levels_harden.csv",
        "deaths.csv", "comparison.csv", "manifest.json", "summary.json",
    ])
    header = (out / "metrics_risk.csv").read_text().splitlines()[0]
    assert header == "tick,day,scope,metric,value"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 77
    assert manifest["variants"] == ["baseline", "risk", "harden"]
    assert set(manifest["files"]) == set(digests) - {"manifest.json"}


def test_reexport_is_byte_identical(tmp_path):
    config, _ = load_scenario(small_config(tmp_path))
    report = run_paired(config, ["baseline", "risk"])
    first, second = tmp_path / "o1", tmp_path / "o2"
    export_report(report, first)
    export_report(report, second)
    for path in sorted(first.iterdir()):
        assert path.read_bytes() == (second / path.name).read_bytes()


def test_sl_recomputable_from_subagent_rows(tmp_path):
    """Round trip: recompute the ICT service level from the exported
    per-node effective availability columns; must match the exported SL."""
    config, _ = load_scenario(small_config(tmp_path))
    report = run_paired(config, ["risk"])
    out = tmp_path / "out"
    export_report(report, out)
    per_tick: dict[int, list[int]] = {}
    sl_rows: dict[int, float] = {}
    for line in (out / "metrics_risk.csv").read_text().splitlines()[1:]:
        tick, _day, scope, metric, value = line.split(",")
        if metric == "effective_available":
            per_tick.setdefault(int(tick), []).append(int(value))
        if metric == "service_level" and scope == "ict":
            sl_rows[int(tick)] = float(value)
    assert per_tick
    for tick, flags in per_tick.items():
        assert sl_rows[tick] == sum(flags) / len(flags)


def test_cli_validate_ok_and_failure(tmp_path, capsys):
    assert main(["validate", str(SCENARIO_PATH)]) == 0
    assert "OK: casestudy" in capsys.readouterr().out
    bad = write_scenario(tmp_path, minimal_raw(power_grid={}))
    assert main(["validate", str(bad)]) == 2
    assert "power_grid" in capsys.readouterr().err


def test_cli_run_and_exit_codes(tmp_path, capsys):
    path = small_config(tmp_path)
    out = tmp_path / "cli_out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert (out / "metrics_risk.csv").exists()
    captured = capsys.readouterr()
    assert "final deaths" in captured.out


def test_cli_compare_all(tmp_path):
    path = small_config(tmp_path)
    out = tmp_path / "cmp_out"
    assert main(["compare", str(path), "--all", "--out", str(out)]) == 0
    assert (out / "service_levels_harden.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["variants"] == ["baseline", "risk", "harden"]


def test_compare_with_a_station_turned_off_by_a_mitigation(tmp_path, capsys):
    raw = json.loads(SCENARIO_PATH.read_text())
    raw["horizon_days"] = 1
    raw["mitigations"]["no_c01"] = [{"selector": {"id": "r_c01::mobility"},
                                     "param": "station", "op": "set", "value": False}]
    path = write_scenario(tmp_path, raw)
    assert main(["validate", str(path)]) == 0
    assert main(["compare", str(path), "--all", "--out", str(tmp_path / "out")]) == 0
    config, errors = load_scenario(path)
    assert not errors
    report = run_paired(config, ["baseline", "no_c01"])
    baseline, variant = (report.runs[name].station_speeds for name in ("baseline", "no_c01"))
    assert sorted(variant) == sorted(set(baseline) - {"r_c01::mobility"})
    assert len(variant) == 3
    # no attack, so each remaining station runs at its baseline speed
    assert report.sl_mobility["no_c01"] == [1.0] * (config.horizon_ticks + 1)


def test_cli_unknown_variant_is_validation_error(tmp_path, capsys):
    path = small_config(tmp_path)
    assert main(["run", str(path), "--variant", "nope"]) == 2


def test_cli_unwritable_out_dir_is_io_error(tmp_path, capsys):
    if os.geteuid() == 0:
        pytest.skip("running as root: directory permissions are not enforced")
    path = small_config(tmp_path)
    locked = tmp_path / "locked"
    locked.mkdir()
    locked.chmod(stat.S_IRUSR | stat.S_IXUSR)
    assert main(["run", str(path), "--out", str(locked / "sub")]) == 3


def test_cli_out_path_collides_with_file_is_io_error(tmp_path, capsys):
    path = small_config(tmp_path)
    clash = tmp_path / "not_a_dir"
    clash.write_text("occupied")
    assert main(["run", str(path), "--out", str(clash)]) == 3
    assert "export failed" in capsys.readouterr().err


def test_cli_seed_env_override(tmp_path, capsys, monkeypatch):
    path = small_config(tmp_path)
    out = tmp_path / "seeded"
    monkeypatch.setenv("CITYSIM_SEED", "12345")
    assert main(["run", str(path), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "overridden to 12345" in captured.err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 12345


@pytest.mark.parametrize("how", ["--seed", "CITYSIM_SEED"])
def test_cli_seed_override_is_validated_at_that_seed(tmp_path, capsys, monkeypatch, how):
    # household counts follow the seed: this home exists at seed 10, not at seed 1
    raw = casestudy_copy()
    _add_hazard(_override_event({"id": "home_outskirts_85::urban_landscape"}, {"capacity": 5}))(raw)
    path = write_scenario(tmp_path, raw)
    assert main(["validate", str(path)]) == 0
    args = ["run", str(path), "--out", str(tmp_path / "o")]
    if how == "--seed":
        args += ["--seed", "1"]
    else:
        monkeypatch.setenv("CITYSIM_SEED", "1")
    assert main(args) == 2
    assert "error: hazards[2]: selector" in capsys.readouterr().err


@pytest.mark.parametrize("how", ["--seed", "CITYSIM_SEED"])
def test_cli_seed_override_validates_only_at_that_seed(tmp_path, capsys, monkeypatch, how):
    # invalid at the file's seed 1, valid at the run's seed 10: validated once, it runs
    raw = casestudy_copy()
    raw.update(seed=1, horizon_days=1)
    _add_hazard(_override_event({"id": "home_outskirts_85::urban_landscape"}, {"capacity": 5}))(raw)
    path = write_scenario(tmp_path, raw)
    assert main(["validate", str(path)]) == 2
    assert "error: hazards[2]: selector" in capsys.readouterr().err
    out = tmp_path / "o"
    args = ["run", str(path), "--out", str(out)]
    if how == "--seed":
        args += ["--seed", "10"]
    else:
        monkeypatch.setenv("CITYSIM_SEED", "10")
    assert main(args) == 0
    assert "error:" not in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["seed"] == 10


def test_cli_validate_uses_the_env_seed(tmp_path, capsys, monkeypatch):
    # this home exists at the file's seed 10, not at seed 1: validate agrees with run
    raw = casestudy_copy()
    _add_hazard(_override_event({"id": "home_outskirts_85::urban_landscape"}, {"capacity": 5}))(raw)
    path = write_scenario(tmp_path, raw)
    monkeypatch.setenv("CITYSIM_SEED", "1")
    assert main(["validate", str(path)]) == 2
    assert "error: hazards[2]: selector" in capsys.readouterr().err
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2


def test_cli_seed_env_not_an_integer(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CITYSIM_SEED", "abc")
    assert main(["run", str(small_config(tmp_path)), "--out", str(tmp_path / "o")]) == 2
    assert "error: CITYSIM_SEED must be an integer" in capsys.readouterr().err


def test_cli_runtime_abort_exit_code(tmp_path, monkeypatch):
    from citysim import cli
    from citysim.kernel import SimulationAbort

    def explode(*args, **kwargs):
        raise SimulationAbort("x::ict", 3, "boom")

    monkeypatch.setattr(cli, "run_paired", explode)
    assert main(["run", str(small_config(tmp_path))]) == 4


def test_observe_section_limits_subagent_rows(tmp_path):
    raw = json.loads(small_config(tmp_path).read_text())
    raw["observe"] = {"subagent_roles": ["cyber-attacker"]}
    path = write_scenario(tmp_path, raw)
    config, errors = load_scenario(path)
    assert not errors
    result = run_variant(config, "risk")
    scopes = {s.scope for s in result.samples if "::" in s.scope}
    assert scopes == {"atk::ict"}


def test_observe_section_unknown_role_rejected(tmp_path):
    raw = json.loads(small_config(tmp_path).read_text())
    raw["observe"] = {"subagent_roles": ["wizard"]}
    _, errors = load_scenario(write_scenario(tmp_path, raw))
    assert any("wizard" in e for e in errors)


def test_cli_oracle_commands(capsys):
    assert main(["oracle", "sir"]) == 0
    assert "peak prevalence" in capsys.readouterr().out
    assert main(["oracle", "attack", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["star_expected_mean_leaves_at_p_half"] == 2.0


@pytest.mark.parametrize("args", [
    "--population 1", "--initial-infected -1", "--initial-infected 501",
    "--beta -0.1", "--beta 5", "--beta nan", "--contacts -1", "--contacts 5000",
    "--duration 0", "--duration -3", "--horizon -1",
])
def test_cli_oracle_sir_out_of_range_is_exit_2(args, capsys):
    assert main(["oracle", "sir", *args.split()]) == 2
    captured = capsys.readouterr()
    assert f"error: {args.split()[0]} must be" in captured.err
    assert captured.out == ""


def test_cli_oracle_sir_more_infected_than_partners(capsys):
    # once everyone else is infected a susceptible's infectious share is 1
    argv = ["oracle", "sir", "--population", "10", "--initial-infected", "5",
            "--beta", "1", "--contacts", "4", "--horizon", "48", "--json"]
    assert main(argv) == 0
    curve = json.loads(capsys.readouterr().out)["prevalence"]
    assert len(curve) == 49 and curve[0] == 5.0
    assert all(0.0 <= v <= 10.0 for v in curve)


@pytest.mark.parametrize("horizon,share", [("0", "0.980"), ("5", "0.977")])
def test_cli_oracle_sir_final_susceptible_share_at_the_horizon(horizon, share, capsys):
    # 10 of the default 500 start infected; a short horizon ends the count early
    assert main(["oracle", "sir", "--horizon", horizon]) == 0
    assert capsys.readouterr().out.endswith(f"final susceptible share {share}\n")


def test_seed_change_changes_stochastic_output():
    from conftest import build_sir_world

    def infected_series(master_seed):
        world = build_sir_world(60, seeds=4, beta=0.02, contact_k=3,
                                duration=48, master_seed=master_seed)
        series = []
        for _ in range(100):
            world.step()
            series.append(sum(
                1 for p in world.role_members("patient")
                if world.states[p]["infection"] == "infected"))
        return series

    assert infected_series(1) != infected_series(2)


# -- the schema: bad input is a diagnostic, never a traceback -------------------

CASESTUDY = json.loads(SCENARIO_PATH.read_text())


def casestudy_copy() -> dict:
    return json.loads(json.dumps(CASESTUDY))


def _set(*path_and_value):
    *path, key, value = path_and_value

    def mutate(raw):
        for step in path:
            raw = raw[step]
        raw[key] = value
    return mutate


def _drop(*path):
    *path, key = path

    def mutate(raw):
        for step in path:
            raw = raw[step]
        del raw[key]
    return mutate


def _add_hazard(event):
    def mutate(raw):
        raw["hazards"].append(event)
    return mutate


def _override_event(selector, overrides):
    return {"tick": 2, "kind": "generic_override", "selector": selector, "overrides": overrides}


def _string_vulnerability_before_attack(raw):
    # unchecked, this validates and the run aborts at tick 4 ('<' between float and str)
    raw["hazards"][1] = {"tick": 3, "kind": "cyberattack",
                         "selector": {"id": "attacker_main::ict"}}
    raw["hazards"].append(_override_event({"role": "cyber-infrastructure"},
                                          {"vulnerability": "x"}))


def _override_unset_attack_probability(raw):
    # a null parameter takes a value of any kind; unchecked, the run aborts
    # when the attack spreads
    raw["ict"]["attackers"][0]["propagation_probability"] = None
    raw["hazards"].append(_override_event({"role": "cyber-attacker"},
                                          {"propagation_probability": "x"}))


def _unknown_place_schedule(raw):
    """A schedule whose last hour is at no place of the case study."""
    first = raw["landscape"]["places"][0]["id"]
    return [[first, "work"]] * 23 + [["nowhere", "work"]]


def _mitigation(*ops):
    return _set("mitigations", "harden", [
        {"selector": {"role": role}, "param": param, "op": op, "value": value}
        for role, param, op, value in ops])


BAD_INPUTS = {
    "hospital-without-general_beds": _drop("health", "hospitals", 0, "general_beds"),
    "roadway-without-length_m": _drop("landscape", "roadways", 0, "length_m"),
    "place-without-id": _drop("landscape", "places", 0, "id"),
    "vulnerability-string": _set("ict", "nodes", 0, "vulnerability", "x"),
    "beta-string": _set("health", "disease", "beta", "x"),
    "citizens-string": _set("population", "districts", "center", "citizens", "5"),
    "landscape-list": _set("landscape", []),
    "hazards-object": _set("hazards", {"a": 1}),
    "timetable-entry-too-short": _set("population", "timetables", "worker", 1, [0]),
    "seed-bool": _set("seed", True),
    # a tick is one simulated hour, which the 24-hour schedules step by
    "ticks-per-day-12": _set("ticks_per_day", 12),
    "hazards-empty-object": _set("hazards", {}),
    "set-without-value": _set("mitigations", "harden", [
        {"selector": {"role": "cyber-infrastructure"}, "param": "vulnerability",
         "op": "set"}]),
    # the rows below are only rejected by the checks on the built world
    "override-string-for-number": _string_vulnerability_before_attack,
    "override-bool-for-number": _add_hazard(_override_event(
        {"role": "cyber-infrastructure"}, {"vulnerability": True})),
    "override-number-for-bool": _add_hazard(_override_event(
        {"role": "roadway"}, {"station": 1})),
    "override-number-for-string": _add_hazard(_override_event(
        {"id": "attacker_main::ict"}, {"attack_type": 3})),
    # an override passes the target role's own checks, as a mitigation does
    "override-window-reversed": _add_hazard(_override_event(
        {"role": "patient"}, {"mild_hours": [48, 24]})),
    "override-probability-out-of-range": _add_hazard(_override_event(
        {"role": "patient"}, {"beta": 2})),
    "override-vulnerability-out-of-range": _add_hazard(_override_event(
        {"role": "cyber-infrastructure"}, {"vulnerability": 2})),
    "override-unset-parameter-wrong-type": _override_unset_attack_probability,
    "override-roadway-capacity-negative": _add_hazard(_override_event(
        {"role": "roadway"}, {"capacity": -5})),
    "override-roadway-free-flow-zero": _add_hazard(_override_event(
        {"role": "roadway"}, {"free_flow_mps": 0})),
    "mitigation-set-out-of-range": _mitigation(
        ("cyber-infrastructure", "vulnerability", "set", 2)),
    "mitigation-scale-out-of-range": _mitigation(
        ("hospital", "base_care_quality", "scale", 2)),
    "mitigation-later-op-out-of-range": _mitigation(
        ("cyber-infrastructure", "recovery_ticks", "set", 2),
        ("cyber-infrastructure", "recovery_ticks", "scale", 0.25)),
    "mitigation-set-wrong-type": _mitigation(
        ("cyber-infrastructure", "vulnerability", "set", "x")),
    "mitigation-scale-non-number": _mitigation(("cyber-attacker", "attack_type", "scale", 2)),
    "mitigation-scale-by-string": _mitigation(
        ("cyber-infrastructure", "vulnerability", "scale", "x")),
    "mitigation-window-reversed": _mitigation(("patient", "mild_hours", "set", [48, 24])),
    # a place a parameter names is one of the structure's; unchecked, these
    # validated and a citizen sent home stood in no place's occupancy
    "override-home-place-unknown": _add_hazard(_override_event(
        {"role": "citizen"}, {"home_place": "nowhere"})),
    "override-schedule-place-unknown": lambda raw: _add_hazard(_override_event(
        {"role": "citizen"}, {"schedule": _unknown_place_schedule(raw)}))(raw),
    "mitigation-home-place-unknown": _mitigation(("citizen", "home_place", "set", "nowhere")),
    "mitigation-schedule-place-unknown": lambda raw: _mitigation(
        ("citizen", "schedule", "set", _unknown_place_schedule(raw)))(raw),
    "override-schedule-entry-empty": _add_hazard(_override_event(
        {"role": "citizen"}, {"schedule": [[]] * 24})),
    # a key no run reads is not a param; unchecked, these validated and
    # changed nothing in a run
    "override-place-id": _add_hazard(_override_event({"role": "place"}, {"place_id": "x"})),
    "override-attacker-target": _add_hazard(_override_event(
        {"id": "attacker_main::ict"}, {"target": "ict_city::ict"})),
    "mitigation-roadway-length": _mitigation(("roadway", "length_m", "scale", 2)),
    # selectors read a district as built; unchecked, these validated and
    # changed nothing in a run
    "override-district": _add_hazard(_override_event({"role": "citizen"}, {"district": "north"})),
    "mitigation-district": _mitigation(("hospital", "district", "set", "north")),
    # a run reads the initial infection only at its start; seeding an
    # epidemic is the disease_seed hazard's job
    "override-initially-infected": _add_hazard(_override_event(
        {"role": "patient"}, {"initially_infected": True})),
    "mitigation-initially-infected": _mitigation(("patient", "initially_infected", "set", True)),
    # a change meets the spec of the field its parameter is built from;
    # unchecked, these validated and ran (a degraded hospital with 5x its beds)
    "mitigation-vaccination-factor-negative": _mitigation(
        ("patient", "vaccination_factor", "set", -1.0)),
    "mitigation-convalescence-negative": _mitigation(("patient", "convalescence_hours", "set", -5)),
    "mitigation-capacity-degradation-above-one": _mitigation(
        ("hospital", "capacity_degradation_factor", "set", 5.0)),
    "mitigation-quality-degradation-above-one": _mitigation(
        ("hospital", "quality_degradation_factor", "set", 3.0)),
    "mitigation-contact-k-negative": _mitigation(("citizen", "contact_k", "set", -2)),
    # every id a parameter names is one of the structure's; unchecked, these
    # validated and the run never admitted, never referred, or met no household
    "override-home-hospital-unknown": _add_hazard(_override_event(
        {"role": "patient"}, {"home_hospital": "nowhere::healthcare"})),
    "mitigation-home-hospital-unknown": _mitigation(("patient", "home_hospital", "set", "nowhere")),
    "override-referral-peers-unknown": _add_hazard(_override_event(
        {"role": "hospital"}, {"referral_peers": ["nowhere::healthcare"]})),
    "mitigation-referral-peers-unknown": _mitigation(
        ("hospital", "referral_peers", "set", ["hospital_center"])),
    "override-household-unknown": _add_hazard(_override_event(
        {"role": "citizen"}, {"household": ["nowhere::social"]})),
    "mitigation-household-unknown": _mitigation(("citizen", "household", "set", ["cit_center_0"])),
}


@pytest.mark.parametrize("mutate", list(BAD_INPUTS.values()), ids=list(BAD_INPUTS))
def test_bad_input_gives_errors_and_exit_2(tmp_path, capsys, mutate):
    raw = casestudy_copy()
    mutate(raw)
    path = write_scenario(tmp_path, raw)
    config, errors = load_scenario(path)
    assert config is None and errors
    assert main(["validate", str(path)]) == 2
    assert "error: " in capsys.readouterr().err


NON_FINITE = {"NaN": float("nan"), "Infinity": float("inf"), "-Infinity": float("-inf")}
NON_FINITE_SLOTS = {
    "landscape-field": lambda value: _set("landscape", "roadways", 0, "length_m", value),
    "override": lambda value: _add_hazard(_override_event(
        {"id": "r_c01::mobility"}, {"free_flow_mps": value})),
}


@pytest.mark.parametrize("slot", list(NON_FINITE_SLOTS))
@pytest.mark.parametrize("constant", list(NON_FINITE))
def test_non_finite_constant_is_rejected_by_name(tmp_path, capsys, constant, slot):
    # json.dumps writes the constant; unchecked, Infinity validated and the
    # run aborted on a non-finite station speed, and NaN ran unchecked
    raw = casestudy_copy()
    NON_FINITE_SLOTS[slot](NON_FINITE[constant])(raw)
    path = write_scenario(tmp_path, raw)
    assert constant in path.read_text()
    config, errors = load_scenario(path)
    assert config is None and errors == [f"{path}: invalid JSON: {constant} is not a JSON number"]
    assert main(["validate", str(path)]) == 2
    assert f"{constant} is not a JSON number" in capsys.readouterr().err


def test_override_and_mitigation_errors_name_their_source(tmp_path):
    raw = casestudy_copy()
    _string_vulnerability_before_attack(raw)
    _override_unset_attack_probability(raw)
    _add_hazard(_override_event({"id": "hospital_center::urban_landscape"}, {"capacity": "x"}))(raw)
    _mitigation(("cyber-infrastructure", "vulnerability", "set", 2))(raw)
    _, errors = load_scenario(write_scenario(tmp_path, raw))
    assert any(e.startswith("hazards[2]: override 'vulnerability'")
               and e.endswith("expected number, got str") for e in errors), errors
    # a null parameter takes any kind, so its field's spec names the value
    assert ("hazards[3]: override 'propagation_probability' on 'attacker_main::ict': "
            "expected a number or null, got 'x'") in errors, errors
    assert ("hazards[4]: override 'capacity' on 'hospital_center::urban_landscape': "
            "expected an integer or null, got 'x'") in errors, errors
    assert any(e.startswith("mitigations.harden[0]: ")
               and e.endswith(": 2 must be in [0, 1]") for e in errors), errors


def test_overrides_and_mitigations_that_fit_validate_and_build(tmp_path):
    raw = casestudy_copy()
    raw["hazards"] += [
        # an int for a float, a float for an int
        _override_event({"role": "cyber-infrastructure"},
                        {"vulnerability": 1, "recovery_ticks": 48.0}),
        _override_event({"role": "roadway"}, {"station": False}),
        # an unset parameter takes any value
        _override_event({"id": "hospital_center::urban_landscape"}, {"capacity": 30}),
    ]
    # 1.0 * 2 would be out of range; the ops apply in order, so 0.5 * 2 is not
    _mitigation(("cyber-infrastructure", "vulnerability", "set", 0.5),
                ("cyber-infrastructure", "vulnerability", "scale", 2))(raw)
    config, errors = load_scenario(write_scenario(tmp_path, raw))
    assert errors == []
    world = build_world(config, "harden")
    assert {world.params[s]["vulnerability"]
            for s in world.role_members("cyber-infrastructure")} == {1.0}


# each role's params as built: what a run reads, and the district that
# selectors read
BUILT_PARAMS = {
    "citizen": {"contact_k", "district", "home_place", "household", "schedule"},
    "cyber-attacker": {"attack_type", "district", "propagation_probability"},
    "cyber-infrastructure": {"district", "recovery_ticks", "vulnerability"},
    "fixed-entity": {"district"},
    "hospital": {"base_care_quality", "capacity_degradation_factor", "district",
                 "nominal_general_capacity", "nominal_icu_capacity",
                 "quality_degradation_factor", "referral_peers"},
    "moving-entity": {"district"},
    "passenger": {"district"},
    "patient": {"beta", "convalescence_hours", "critical_hours", "district", "home_hospital",
                "initially_infected", "mild_hours", "p_die_treated", "p_die_untreated",
                "p_severe", "p_worsen", "severe_hours", "vaccinated", "vaccination_factor"},
    "place": {"capacity", "district"},
    "roadway": {"capacity", "district", "free_flow_mps", "station"},
    "street": {"district"},
    "traffic-light": {"district"},
}


def test_built_params_hold_only_what_a_run_reads(casestudy):
    # relations are layer edges, a place's id is its agent's id, and the
    # street graph and place nodes come from the document
    records = casestudy.structure.records.values()
    assert {rec.role for rec in records} == set(BUILT_PARAMS)
    for rec in records:
        assert set(rec.params) == BUILT_PARAMS[rec.role], rec.id
    assert {"target", "roadways", "a", "b", "length_m", "node", "kind",
            "place_id"}.isdisjoint(set().union(*BUILT_PARAMS.values()))


def ict_chain(length: int, leaf_first: bool) -> dict:
    nodes = [{"id": f"n{i}", "depends_on": [f"n{i - 1}"] if i else [],
              "vulnerability": 1.0} for i in range(length)]
    if leaf_first:
        nodes.reverse()
    return {
        "name": "chain", "seed": 3, "horizon_days": 1,
        "ict": {"nodes": nodes,
                "attackers": [{"id": "atk", "target": "n0", "attack_type": "ddos"}]},
        "hazards": [{"tick": 2, "kind": "cyberattack", "selector": {"id": "atk::ict"}}],
        "observe": {"subagent_roles": ["cyber-attacker"]},
    }


@pytest.mark.parametrize("length, leaf_first", [(1500, False), (1500, True), (5000, False)])
def test_deep_ict_chain_validates_and_runs(tmp_path, length, leaf_first):
    config, errors = load_scenario(write_scenario(tmp_path, ict_chain(length, leaf_first)))
    assert errors == []
    sl = run_variant(config, "risk").sl["ict"]
    assert len(sl) == 25
    # the root goes down at tick 3 and takes the whole chain with it
    assert sl[:3] == [1.0] * 3 and sl[3] == 0.0


DELETE = "<delete>"


def _slots(node, path=()):
    """The path of every value in a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _slots(child, path + (key,))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(list(_slots(CASESTUDY))),
       st.sampled_from([DELETE, None, "x", True, -1, 0, 2.5, [], {}]))
def test_mutated_casestudy_is_rejected_or_runs(slot, value):
    raw = casestudy_copy()
    *path, key = slot
    if value is DELETE:
        _drop(*path, key)(raw)
    else:
        _set(*path, key, value)(raw)
    config, errors = parse_config(raw, "fuzz")
    if errors:
        return
    again, errors = parse_config(json.loads(json.dumps(config.raw)), "fuzz")
    assert errors == [] and again.raw == config.raw
    world = build_world(config, "risk")
    run(world, 1, config.schedule())
    for variant in config.mitigation_names:
        build_world(config, variant)


def small_casestudy() -> dict:
    """The case study with 24 citizens a district: every role and parameter
    of its structure, built in a few ms."""
    raw = casestudy_copy()
    for district in raw["population"]["districts"].values():
        district["citizens"] = 24
    return raw


KNOWN_IDS = ["home_center_0", "hospital_outskirts::healthcare", "cit_center_1::social"]
GOOD_SCHEDULE = [["home_center_0", "home"]] * 8 + [["hospital_center", "work"]] * 16
# the kind table a change's value is drawn from: in- and out-of-range
# numbers, windows, ids known and unknown, schedules good and bad
KIND_VALUES = {
    "number": [0, 1, 0.5, 3, 24.0, -1, -0.25, 1.5, 10**9],
    "bool": [True, False],
    "str": ["x", "ddos", *KNOWN_IDS, "nowhere"],
    "list": [[], [6, 12], [12, 6], *([known] for known in KNOWN_IDS), ["nowhere"], GOOD_SCHEDULE,
             GOOD_SCHEDULE[1:], [["nowhere", "home"]] * 24, [["home_center_0"]] * 24],
    "NoneType": [None],
}
KIND = {bool: "bool", int: "number", float: "number", str: "str", list: "list", tuple: "list",
        type(None): "NoneType"}
# a change of every (role, parameter) of the structure: each value of the
# parameter's own kind and the first of every other kind, as a tick-1
# override and a mitigation op that sets it or, for a number, scales by it;
# with as many examples as changes, the derandomized sweep draws each once
CHANGES = sorted({
    (rec.role, name, how, json.dumps(value))
    for rec in parse_config(small_casestudy(), "changes")[0].structure.records.values()
    for name, built in rec.params.items()
    for kind, values in KIND_VALUES.items()
    for value in (values if kind == KIND[type(built)] else values[:1])
    for how in ("override", "set", "scale") if how != "scale" or KIND[type(value)] == "number"})


@settings(max_examples=len(CHANGES), derandomize=True, deadline=None, database=None)
@given(st.sampled_from(CHANGES))
def test_every_parameter_change_is_rejected_or_runs(change):
    # validate rejects the change, or the run honours it for three ticks
    # with checks on and every parameter still fits its field's spec
    role, param, how, value = change
    value = json.loads(value)
    raw = small_casestudy()
    if how == "override":
        variant = "risk"
        raw["hazards"].append({"tick": 1, "kind": "generic_override", "selector": {"role": role},
                               "overrides": {param: value}})
    else:
        variant = "sweep"
        raw["mitigations"][variant] = [
            {"selector": {"role": role}, "param": param, "op": how, "value": value}]
    config, errors = parse_config(raw, "sweep")
    if errors:
        return
    world = build_world(config, variant)
    recorder = Recorder(world)
    run(world, 3, config.schedule(), (lambda w: recorder.observe(), InvariantMonitor(world, recorder)))
    for sid, params in world.params.items():
        for name, spec in PARAM_SPECS.get(world.records[sid].role, {}).items():
            assert spec.problem(params[name], any_number=True) is None, (sid, name, params[name])


# -- one structure per scenario: validation and every variant share it ---------

def parsed(raw: dict):
    config, errors = parse_config(raw, "test-digest")
    assert errors == [], errors
    return config


def test_one_structure_serves_validation_and_every_variant(monkeypatch):
    from citysim.kernel import World

    calls = []

    def counted(name, method):
        def wrapper(self, *args):
            calls.append(name)
            return method(self, *args)
        return wrapper

    monkeypatch.setattr(World, "__init__", counted("build", World.__init__))
    monkeypatch.setattr(World, "finalize", counted("finalize", World.finalize))
    config, errors = load_scenario(SCENARIO_PATH)
    assert errors == []
    report = run_paired(dataclasses.replace(config, horizon_days=1), config.variants)
    assert report.order == ["baseline", "risk", "beds", "cybersecurity"]
    assert calls == ["build", "finalize"]
    for variant in config.variants:
        world = build_world(config, variant)
        assert world.records is config.structure.records
        assert world.layers is config.structure.layers


def casestudy_with_override() -> dict:
    # the shipped case study has no override; written into the shared
    # structure, this one would reach every run after the risk run
    raw = casestudy_copy()
    raw["horizon_days"] = 2
    raw["hazards"].append({"day": 1, "kind": "generic_override", "selector": {"role": "hospital"},
                           "overrides": {"base_care_quality": 0.5}})
    return raw


def test_variants_of_one_structure_keep_their_params_apart():
    config = parsed(casestudy_with_override())
    report = run_paired(config, ["risk", "baseline", "beds"])
    for variant in ("baseline", "beds"):
        alone = run_variant(parsed(casestudy_with_override()), variant)
        assert report.runs[variant].samples == alone.samples, variant
    assert config.structure.built_params() == parsed(casestudy_with_override()).structure.built_params()


def test_roadway_mitigation_reaches_the_traffic_federate():
    raw = casestudy_copy()
    raw["horizon_days"] = 1
    raw["mitigations"]["narrow_roads"] = [{"selector": {"role": "roadway"}, "param": "capacity",
                                           "op": "scale", "value": 0.01}]
    config = parsed(raw)

    def station_speeds(variant):
        return [(s.tick, s.scope, s.value) for s in run_variant(config, variant).samples
                if s.name == "mean_speed"]

    risk, narrow = station_speeds("risk"), station_speeds("narrow_roads")
    assert [key[:2] for key in risk] == [key[:2] for key in narrow]
    assert risk != narrow


def test_roadway_hazard_reaches_the_traffic_federate():
    raw = casestudy_copy()
    raw["horizon_days"] = 1
    plain = parsed(casestudy_copy() | {"horizon_days": 1})
    raw["hazards"].append({"tick": 1, "kind": "generic_override",
                           "selector": {"role": "roadway"}, "overrides": {"capacity": 0.4}})
    narrowed = parsed(raw)

    def station_speeds(config):
        return [(s.tick, s.scope, s.value) for s in run_variant(config, "risk").samples
                if s.name == "mean_speed"]

    before, after = station_speeds(plain), station_speeds(narrowed)
    assert [key[:2] for key in before] == [key[:2] for key in after]
    assert before != after
