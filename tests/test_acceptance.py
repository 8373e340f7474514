"""Acceptance suite: one test per shipped criterion, on the shipped scenario.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The paired case-study report (baseline / risk / beds /
cybersecurity under one seed) is built once per session; every run in it
executes with per-tick invariant monitoring enabled, so any conservation
or bound violation fails the suite immediately.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

import numpy as np
import pytest

from citysim.build import build_world
from citysim.export import export_report
from citysim.hazards import HazardSchedule, apply_due
from citysim.metrics import sl_healthcare, sl_ict, sl_mobility
from citysim.oracles import compromise_times, single_peaked, sir_prevalence
from citysim.runner import ComparisonReport, run_paired, run_variant
from citysim.scenario import parse_config

from conftest import (
    build_ict_world, build_patient_world, build_sir_world, load_casestudy,
)

ATTACK_TICK = 480          # day 20
CENTER_RECOVERY = 96       # ict_center recovery_ticks in the shipped scenario
OUTAGE = slice(481, 481 + CENTER_RECOVERY)   # ticks with degraded center ICT


def _pass(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


@pytest.fixture(scope="session")
def report() -> ComparisonReport:
    config = load_casestudy()
    return run_paired(config, ["baseline", "risk", "beds", "cybersecurity"],
                      checks=True)


def rows(result):
    return [(s.tick, s.scope, s.name, s.value) for s in result.samples]


def series(result, scope, name):
    return [s.value for s in result.samples if s.scope == scope and s.name == name]


# -- criterion 1: determinism and runtime -------------------------------------

def test_criterion_1_determinism_and_runtime(report, tmp_path):
    config = load_casestudy()
    rerun = run_variant(config, "risk", checks=True)
    original = report.runs["risk"]
    assert rows(rerun) == rows(original)
    assert rerun.deaths == original.deaths
    assert rerun.station_speeds == original.station_speeds

    def export_single(result, out):
        single = ComparisonReport(
            scenario=result.scenario, seed=result.seed,
            horizon_ticks=result.horizon_ticks, ticks_per_day=result.ticks_per_day,
            order=["risk"], runs={"risk": result}, sl_mobility={},
            summary={"final_deaths": {"risk": result.final_deaths},
                     "min_service_level": {}},
        )
        export_report(single, out)
        return sorted(p for p in out.iterdir() if p.suffix == ".csv")

    first = export_single(original, tmp_path / "a")
    second = export_single(rerun, tmp_path / "b")
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes(), f"{a.name} differs between reruns"

    reseeded, errors = parse_config(dict(config.raw, seed=config.seed + 1), config.digest)
    assert errors == []
    other_seed = run_variant(reseeded, "risk", checks=True)
    assert rows(other_seed) != rows(original)

    for name, result in report.runs.items():
        assert result.wall_time_s < 120, f"{name} run took {result.wall_time_s:.0f}s"
    _pass(1, f"byte-identical reruns; different seed differs; slowest run "
             f"{max(r.wall_time_s for r in report.runs.values()):.1f}s < 120s")


# -- criterion 2: SL bounds and monotonicity on randomized scenarios ----------

def _random_patient_world(rng: random.Random):
    hospitals = [{
        "id": "h0", "general": rng.randint(1, 20), "icu": rng.randint(0, 5),
        "peers": ["h1"],
    }, {
        "id": "h1", "general": rng.randint(1, 20), "icu": rng.randint(0, 5),
        "peers": ["h0"],
    }][: rng.randint(1, 2)]
    world = build_patient_world(
        rng.randint(5, 40), seed=rng.randrange(1 << 30), hospitals=hospitals,
        initially_infected=True,
        beta=rng.random() * 0.05,
        p_severe=rng.random(), p_worsen=rng.random(),
        p_die_treated=rng.random(), p_die_untreated=rng.random(),
        mild_hours=[1, rng.randint(1, 30)],
        severe_hours=[1, rng.randint(1, 30)],
        critical_hours=[1, rng.randint(1, 30)],
        home_hospital="h0::healthcare",
    )
    return world


def _random_ict_world(rng: random.Random):
    n = rng.randint(2, 8)
    nodes = [{"id": "n0", "depends_on": [], "vulnerability": rng.random(),
              "recovery_ticks": rng.randint(1, 20)}]
    for i in range(1, n):
        nodes.append({
            "id": f"n{i}", "depends_on": [f"n{rng.randrange(i)}"],
            "vulnerability": rng.random(), "recovery_ticks": rng.randint(1, 20),
        })
    attackers = [{"id": "atk", "target": f"n{rng.randrange(n)}",
                  "attack_type": rng.choice(["botnet", "ddos", "ransomware"]),
                  "propagation_probability": rng.random()}]
    world, _ = build_ict_world(nodes, attackers, seed=rng.randrange(1 << 30))
    schedule = HazardSchedule.from_config(
        [{"tick": rng.randint(0, 10), "kind": "cyberattack",
          "selector": {"id": "atk::ict"}}], 24)
    return world, schedule


def test_criterion_2_sl_bounds_and_monotonicity():
    checked = 0
    for seed in range(60):
        rng = random.Random(1000 + seed)
        world = _random_patient_world(rng)
        hospitals = world.role_members("hospital")
        for _ in range(48):
            world.step()
            value = sl_healthcare([
                (world.states[h]["unattended_this_tick"],
                 world.states[h]["general_capacity"]) for h in hospitals
            ])
            assert 0.0 <= value <= 1.0
        checked += 1
    for seed in range(60):
        rng = random.Random(5000 + seed)
        world, schedule = _random_ict_world(rng)
        apply_due(world, 0, schedule)
        nodes = world.role_members("cyber-infrastructure")
        for _ in range(30):
            world.step()
            apply_due(world, world.tick, schedule)
            value = sl_ict([world.states[s]["effective_available"] for s in nodes])
            assert 0.0 <= value <= 1.0
        checked += 1

    rng = random.Random(99)
    for _ in range(300):
        flags = [rng.random() < 0.5 for _ in range(rng.randint(1, 20))]
        raised = list(flags)
        raised[rng.randrange(len(flags))] = True
        assert sl_ict(raised) >= sl_ict(flags)
        terms = [(rng.randint(0, 50), rng.randint(1, 40))
                 for _ in range(rng.randint(1, 6))]
        i = rng.randrange(len(terms))
        more_unattended = list(terms)
        more_unattended[i] = (terms[i][0] + rng.randint(1, 20), terms[i][1])
        assert sl_healthcare(more_unattended) <= sl_healthcare(terms)
        more_capacity = list(terms)
        more_capacity[i] = (terms[i][0], terms[i][1] + rng.randint(1, 20))
        assert sl_healthcare(more_capacity) >= sl_healthcare(terms)
        base = {f"s{k}": rng.uniform(1, 30) for k in range(rng.randint(1, 5))}
        risk = {k: rng.uniform(1, 30) for k in base}
        faster = dict(risk)
        bump_station = rng.choice(sorted(base))
        faster[bump_station] = risk[bump_station] + rng.uniform(0.1, 5)
        assert sl_mobility(faster, base) >= sl_mobility(risk, base) - 1e-15
    _pass(2, f"SL in [0,1] on {checked} randomized engine scenarios; "
             f"monotonicity held on 300 randomized perturbations")


# -- criterion 3: service level unit oracles ----------------------------------

def test_criterion_3_sl_unit_oracles():
    assert abs(sl_ict([True] * 4 + [False] * 3) - 4 / 7) < 1e-12
    assert abs(sl_healthcare([(30, 100), (0, 100)]) - 0.85) < 1e-12
    assert abs(sl_mobility({"a": 5.0, "b": 12.0}, {"a": 10.0, "b": 10.0}) - 0.75) < 1e-12
    assert sl_healthcare([(250, 100)]) == 0.0
    assert sl_mobility({"a": 7.0}, {"a": 7.0}) == 1.0
    _pass(3, "direct formula evaluation matches hand arithmetic to 1e-12")


# -- criterion 4: SIR oracle equivalence ---------------------------------------

def test_criterion_4_sir_oracle_equivalence():
    # 25 initial infections keep the realized early growth close to the
    # deterministic integrator; a stochastic N=500 epidemic from a handful
    # of seeds can shift its flank by a day, which alone exceeds 15%
    n, seeds, beta, k, duration = 500, 25, 0.004, 4, 120
    horizon = 40 * 24
    world = build_sir_world(n, seeds=seeds, beta=beta, contact_k=k,
                            duration=duration, master_seed=2028)
    patients = world.role_members("patient")
    prevalence = [float(seeds)]
    for _ in range(horizon):
        world.step()
        prevalence.append(float(sum(
            1 for p in patients if world.states[p]["infection"] == "infected")))
    engine = np.array(prevalence)
    oracle, _ = sir_prevalence(n, seeds, beta, k, duration, horizon)
    sup_norm = np.max(np.abs(engine - oracle))
    peak = oracle.max()
    assert sup_norm <= 0.15 * peak, f"sup-norm {sup_norm:.1f} vs peak {peak:.1f}"
    assert single_peaked(engine)
    _pass(4, f"prevalence within {sup_norm / peak:.1%} of the independent "
             f"integrator (limit 15%), single-peaked")


# -- criterion 5: attack propagation oracle ------------------------------------

def test_criterion_5_attack_propagation_oracle():
    # deterministic chain and tree: exact compromise times
    def engine_times(nodes, attackers, target, ticks=8):
        world, _ = build_ict_world(nodes, attackers, seed=77)
        schedule = HazardSchedule.from_config(
            [{"tick": 0, "kind": "cyberattack", "selector": {"id": "atk::ict"}}], 24)
        apply_due(world, 0, schedule)
        down_at = {}
        for _ in range(ticks):
            world.step()
            for sid in world.role_members("cyber-infrastructure"):
                if not world.states[sid]["available"] and sid not in down_at:
                    down_at[sid] = world.tick
        return {sid.split("::")[0]: t for sid, t in down_at.items()}

    chain_nodes = [
        {"id": "a", "depends_on": [], "vulnerability": 1.0, "recovery_ticks": 50},
        {"id": "b", "depends_on": ["a"], "vulnerability": 1.0, "recovery_ticks": 50},
        {"id": "c", "depends_on": ["b"], "vulnerability": 1.0, "recovery_ticks": 50},
    ]
    attackers = [{"id": "atk", "target": "a", "attack_type": "botnet",
                  "propagation_probability": 1.0}]
    assert engine_times(chain_nodes, attackers, "a") == \
        compromise_times({"a": ["b"], "b": ["c"]}, "a", 1)

    tree_nodes = [
        {"id": "r", "depends_on": [], "vulnerability": 1.0, "recovery_ticks": 50},
        {"id": "x", "depends_on": ["r"], "vulnerability": 1.0, "recovery_ticks": 50},
        {"id": "y", "depends_on": ["r"], "vulnerability": 1.0, "recovery_ticks": 50},
        {"id": "z", "depends_on": ["x"], "vulnerability": 1.0, "recovery_ticks": 50},
    ]
    tree_attackers = [{"id": "atk", "target": "r", "attack_type": "botnet",
                       "propagation_probability": 1.0}]
    assert engine_times(tree_nodes, tree_attackers, "r") == \
        compromise_times({"r": ["x", "y"], "x": ["z"]}, "r", 1)

    # 4-leaf star at propagation 0.5: Monte-Carlo mean = 2.0 +- 0.1
    star_nodes = [{"id": "hub", "depends_on": [], "vulnerability": 1.0,
                   "recovery_ticks": 50}]
    star_nodes += [{"id": f"l{i}", "depends_on": ["hub"], "vulnerability": 1.0,
                    "recovery_ticks": 50} for i in range(4)]
    star_attackers = [{"id": "atk", "target": "hub", "attack_type": "botnet",
                       "propagation_probability": 0.5}]
    total = 0
    for seed in range(1000):
        world, _ = build_ict_world(star_nodes, star_attackers, seed=seed)
        schedule = HazardSchedule.from_config(
            [{"tick": 0, "kind": "cyberattack", "selector": {"id": "atk::ict"}}], 24)
        apply_due(world, 0, schedule)
        for _ in range(3):
            world.step()
        total += sum(1 for i in range(4)
                     if not world.states[f"l{i}::ict"]["available"])
    mean = total / 1000
    assert abs(mean - 2.0) <= 0.1
    _pass(5, f"chain/tree compromise times exact; star MC mean {mean:.3f} in 2.0+-0.1")


# -- criterion 6: case-study shape reproduction --------------------------------

def test_criterion_6_casestudy_shape(report):
    risk = report.runs["risk"]
    cyber = report.runs["cybersecurity"]
    baseline = report.runs["baseline"]

    # (a) ICT drops below 1 exactly on day 20, recovers within the window
    ict = risk.sl["ict"]
    first_drop = next(t for t, v in enumerate(ict) if v < 1.0)
    assert first_drop // 24 == 20
    assert all(v == 1.0 for v in ict[:first_drop])
    recovery_tick = ATTACK_TICK + 1 + CENTER_RECOVERY
    assert all(v < 1.0 for v in ict[first_drop:recovery_tick])
    assert all(v == 1.0 for v in ict[recovery_tick:])

    # (b) mobility dips only around day 20, driven only by center stations;
    # the baseline compared against itself is exactly 1 everywhere
    assert all(v == 1.0 for v in report.sl_mobility["baseline"])
    mobility = report.sl_mobility["risk"]
    dip_ticks = [t for t, v in enumerate(mobility) if v < 1.0]
    assert dip_ticks, "expected a mobility dip during the outage"
    assert all(481 <= t < recovery_tick for t in dip_ticks)
    for station, speeds in risk.station_speeds.items():
        base_speeds = baseline.station_speeds[station]
        slower = [t for t in range(len(speeds)) if speeds[t] < base_speeds[t]]
        if "r_c" in station:
            assert slower, f"center station {station} never affected"
        else:
            assert not slower, f"outskirts station {station} affected at {slower[:3]}"

    # (c) healthcare: two dips, the first concurrent with the attack and
    # caused by the capacity reduction, with recovery in between
    hc = risk.sl["healthcare"]
    assert all(v == 1.0 for v in hc[:481])
    dip1 = min(hc[481:601])
    assert dip1 < 0.85
    capacity = series(risk, "hospital_center::healthcare", "general_capacity")
    assert capacity[480] == 14 and capacity[481] == 4
    assert capacity[recovery_tick] == 14
    infected = series(risk, "healthcare", "total_infected")
    peak_tick = max(range(len(infected)), key=lambda t: infected[t])
    assert recovery_tick < peak_tick - 72
    assert max(hc[604:peak_tick - 72]) >= 0.93
    dip2 = min(hc[peak_tick - 72:peak_tick + 121])
    assert dip2 < 0.85

    # (d) outskirts ICT never compromised
    for scope in ("ict_outskirts::ict", "hospital_outskirts::ict",
                  "light_outskirts_1::ict", "light_outskirts_2::ict"):
        assert all(v == 1 for v in series(risk, scope, "availability"))

    # (e) referrals: outskirts hospital busier during the outage than in the
    # attack-free cybersecurity run
    occ_risk = series(risk, "hospital_outskirts::healthcare", "general_occupancy")
    occ_cyber = series(cyber, "hospital_outskirts::healthcare", "general_occupancy")
    assert sum(occ_risk[OUTAGE.start:OUTAGE.stop]) > sum(occ_cyber[OUTAGE.start:OUTAGE.stop])
    _pass(6, f"ICT dip [481,{recovery_tick}); mobility dips center-only; "
             f"healthcare dips {dip1:.2f} (attack) and {dip2:.2f} (peak day "
             f"{peak_tick // 24}); outskirts clean; referrals visible")


# -- criterion 7: mitigation ordering ------------------------------------------

def test_criterion_7_mitigation_ordering(report):
    risk, beds, cyber = (report.runs[v] for v in ("risk", "beds", "cybersecurity"))

    # (a) more beds change nothing for ICT or mobility
    assert beds.sl["ict"] == risk.sl["ict"]
    assert report.sl_mobility["beds"] == report.sl_mobility["risk"]

    # (b) hardening removes the cyberattack-driven dips entirely
    assert all(v == 1.0 for v in cyber.sl["ict"])
    assert all(v == 1.0 for v in report.sl_mobility["cybersecurity"])
    assert min(cyber.sl["healthcare"][460:601]) > min(risk.sl["healthcare"][460:601])

    # (c) deaths ordering: more beds is the best alternative
    deaths = {name: report.runs[name].final_deaths for name in report.order}
    assert deaths["baseline"] < deaths["beds"]
    assert deaths["beds"] < deaths["risk"]
    assert deaths["beds"] < deaths["cybersecurity"]
    assert deaths["cybersecurity"] <= deaths["risk"]
    _pass(7, f"beds leaves ICT/mobility untouched; hardening clears cyber dips; "
             f"deaths {deaths}")


# -- criterion 8: pre-hazard equivalence ---------------------------------------

def test_criterion_8_pre_hazard_equivalence(report):
    """Baseline vs a cyberattack-only risk run (the shipped scenario's
    epidemic seeding fires at tick 0, so the clean common-random-numbers
    window is exposed by pairing against the day-20 attack alone)."""
    config = load_casestudy()
    raw = json.loads(json.dumps(config.raw))
    raw["hazards"] = [e for e in raw["hazards"] if e["kind"] == "cyberattack"]
    cyber_only, errors = parse_config(raw, config.digest)
    assert not errors
    attack_only = run_variant(cyber_only, "risk", checks=True)
    baseline = report.runs["baseline"]

    before = ATTACK_TICK
    assert [r for r in rows(attack_only) if r[0] < before] == \
           [r for r in rows(baseline) if r[0] < before]
    assert attack_only.deaths[:before] == baseline.deaths[:before]
    for station in attack_only.station_speeds:
        assert attack_only.station_speeds[station][:before] == \
               baseline.station_speeds[station][:before]
    assert rows(attack_only) != rows(baseline)

    # the full paired report shares draws too: every variant is identical
    # to every other until the first effect that distinguishes them
    risk, beds, cyber = (report.runs[v] for v in ("risk", "beds", "cybersecurity"))
    assert risk.sl["healthcare"][:before] == beds.sl["healthcare"][:before] \
        == cyber.sl["healthcare"][:before]
    assert risk.deaths[:before] == beds.deaths[:before] == cyber.deaths[:before]
    _pass(8, "metric series identical for every tick before day 20")


# -- criterion 9: conservation suite --------------------------------------------

def test_criterion_9_conservation(report):
    population = 500
    for name, result in report.runs.items():
        compartments = {
            key: series(result, "healthcare", "total_" + key)
            for key in ("susceptible", "infected", "recovered", "dead")
        }
        ticks = len(compartments["susceptible"])
        assert ticks == result.horizon_ticks + 1
        for t in range(ticks):
            assert sum(compartments[k][t] for k in compartments) == population
        partition = {key: series(result, "social", key)
                     for key in ("in_place", "in_transit", "hospitalized", "dead")}
        for t in range(ticks):
            assert sum(partition[k][t] for k in partition) == population
        assert compartments["dead"] == partition["dead"]
        for t in range(1, ticks):
            assert result.deaths[t] >= result.deaths[t - 1]
        assert result.deaths[-1] <= population
        for hospital in ("hospital_center::healthcare", "hospital_outskirts::healthcare"):
            occupancy = series(result, hospital, "general_occupancy")
            icu = series(result, hospital, "icu_occupancy")
            cap = series(result, hospital, "general_capacity")
            icu_cap = series(result, hospital, "icu_capacity")
            for t in range(ticks):
                assert 0 <= occupancy[t]
                assert 0 <= icu[t]
                assert occupancy[t] <= max(cap[t], occupancy[t - 1] if t else 0)
                assert icu[t] <= max(icu_cap[t], icu[t - 1] if t else 0)
    _pass(9, "population partition, monotone deaths and occupancy bounds held "
             "at every tick of every acceptance run (per-tick monitors active)")


# -- golden trajectories -------------------------------------------------------

# sha256 of every exported file of the four-variant case study at seed 10;
# manifest.json is left out because it records wall times
GOLDEN_EXPORT = {
    "comparison.csv": "243b21ddf6a87eca53b88e211323eabe66e04e055c518b1bec0ca73a4c411ab8",
    "deaths.csv": "5314aa2a453b6f0413dae6bfd3561b2d97c6ceb0f3401cbcdac95c0b02a21d5f",
    "metrics_baseline.csv": "3d56550bc18f0c0e350d63814a9a5940d612d516dae33cbd67db3d4d4d50c252",
    "metrics_beds.csv": "3ce4287aaa97fdf1dc152608b349865c9671fa40131a372ace5a1c5976c7e8b9",
    "metrics_cybersecurity.csv": "ae336b41106754f0257203ca22b304380ce1a1383135e335519061fd0c5fcf82",
    "metrics_risk.csv": "c70e91460ad8e213cbce805be1cc8e1571c1559ba61ffde04daa18d0c3419d02",
    "service_levels_baseline.csv": "7df41a3fe3cc76a8737d20a1ec0d5a17a183a1fdbbd97cb32f3b97158e575df2",
    "service_levels_beds.csv": "8a8df25f87bd1b26c82177d394a3e89958ca9bda1d72815e59d9d7aa363e33e0",
    "service_levels_cybersecurity.csv": "b9f832123bbc93bc7040c67cdda166c1b718d0d428f4397aa3e3f8a49111bea5",
    "service_levels_risk.csv": "9f1901873c80d6360311b15f2d7dbb8edc77b63b9f1bdaa95b9e33c61292bb2d",
    "summary.json": "e42cacb0d7c4b899407f57c90b03fc42e84380075e832510476360cf87440b7a",
}


def test_golden_export_digests(report, tmp_path):
    export_report(report, tmp_path)
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.iterdir()) if p.name != "manifest.json"
    }
    assert digests == GOLDEN_EXPORT
