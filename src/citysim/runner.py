"""Run loop, invariant monitoring, and paired scenario execution.

A paired report runs several variants of one scenario under the same
master seed: baseline (all hazards stripped), risk (as configured) and any
declared mitigation bundles (risk plus parameter overrides).  Shared
per-subagent random streams mean all variants see identical draws at
identical decision points, so metric differences between runs are caused
by the scenario differences alone.  The mobility service level needs a
baseline to compare speeds against, so it is computed here, post hoc, from
the stored tick-aligned station series.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .build import build_world
from .hazards import HazardSchedule, apply_due
from .kernel import KernelError, World
from .metrics import Recorder, Rows, sl_mobility
from .scenario import BASELINE, RISK, ScenarioConfig
from .systems.social import PARTITION, partition_class


class InvariantViolation(KernelError):
    pass


def run(world: World, horizon: int, schedule: HazardSchedule | None = None,
        observers: tuple = ()) -> dict[int, list[int]]:
    """Drive the world `horizon` ticks: step, apply due hazards, observe.

    Returns {tick: applied event indices}.  Hazards due at tick 0 apply
    before the first observation so a horizon of 0 still yields tick-0
    metrics with any initial seeding in effect.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if world.tick != 0:
        raise ValueError("run() expects a freshly built world at tick 0")
    schedule = schedule if schedule is not None else HazardSchedule([])
    events: dict[int, list[int]] = {}
    applied = apply_due(world, 0, schedule)
    if applied:
        events[0] = applied
    for observer in observers:
        observer(world)
    for _ in range(horizon):
        world.step()
        applied = apply_due(world, world.tick, schedule)
        if applied:
            events[world.tick] = applied
        for observer in observers:
            observer(world)
    return events


class InvariantMonitor:
    """Per-tick conservation and bound checks; raises on first violation.

    The population checks read the counts the recorder took this tick (its
    system rollups), so the recorder must observe first; the monitor raises
    RuntimeError on a tick the recorder has not observed.
    population partition: every citizen is in a place, in transit, in
    hospital or dead (the social rollup), cumulative deaths never drop, and
    the dead citizens are exactly the dead patients (the healthcare rollup).
    hospital occupancy: within current capacity, except that a capacity cut
    never evicts patients, so an over-capacity count may only drain.
    """

    def __init__(self, world: World, recorder: Recorder):
        self.recorder = recorder
        self.hospitals = world.role_members("hospital")
        self._previous_occ: dict[tuple[str, str], int] = {}
        self._previous_cap: dict[tuple[str, str], int | None] = {}

    def __call__(self, world: World) -> None:
        tick = world.tick
        counts, deaths = self.recorder.rollups, self.recorder.deaths
        if len(deaths) != tick + 1:
            raise RuntimeError(f"tick {tick}: the recorder has not observed this tick")
        population = counts.get(("social", "population"), 0)
        if population and sum(counts["social", part] for part in PARTITION) != population:
            # only a citizen in none of the parts breaks the sum; name the first
            limbo = next(sid for sid in world.role_members("citizen")
                         if partition_class(world.states[sid]) is None)
            location = world.states[limbo]["location"]
            raise InvariantViolation(f"tick {tick}: {limbo} in limbo {location!r}")
        if len(deaths) > 1 and deaths[-1] < deaths[-2]:
            raise InvariantViolation(f"tick {tick}: deaths decreased")
        if population and deaths[-1] != counts["social", "dead"]:
            raise InvariantViolation(
                f"tick {tick}: dead patients {deaths[-1]} != dead citizens {counts['social', 'dead']}"
            )
        for hid in self.hospitals:
            state = world.states[hid]
            params = world.params[hid]
            for occ_key, cap_key, nominal_key in (
                ("general_occupancy", "general_capacity", "nominal_general_capacity"),
                ("icu_occupancy", "icu_capacity", "nominal_icu_capacity"),
            ):
                occ = state[occ_key]
                # a capacity cut never evicts, so a count over the current
                # nominal or capacity may persist but only drain
                previous = self._previous_occ.get((hid, occ_key), 0)
                if occ < 0 or occ > max(previous, round(params[nominal_key])):
                    raise InvariantViolation(
                        f"tick {tick}: {hid} {occ_key}={occ} outside [0, nominal]"
                    )
                # admissions this tick ran against the capacity of the
                # previous tick's end
                admissible = self._previous_cap.get((hid, occ_key))
                if admissible is None:
                    admissible = state[cap_key]
                if occ > max(previous, admissible):
                    raise InvariantViolation(
                        f"tick {tick}: {hid} admitted beyond capacity "
                        f"({occ} > cap {admissible}, was {previous})"
                    )
                self._previous_occ[(hid, occ_key)] = occ
                self._previous_cap[(hid, occ_key)] = state[cap_key]


@dataclass
class RunResult:
    variant: str
    scenario: str
    seed: int
    horizon_ticks: int
    ticks_per_day: int
    config_digest: str
    samples: Rows = field(default_factory=Rows, repr=False)
    sl: dict = field(default_factory=dict, repr=False)
    deaths: list = field(default_factory=list, repr=False)
    station_speeds: dict = field(default_factory=dict, repr=False)
    applied_events: dict = field(default_factory=dict, repr=False)
    wall_time_s: float = 0.0

    @property
    def final_deaths(self) -> int:
        return self.deaths[-1] if self.deaths else 0


def run_variant(config: ScenarioConfig, variant: str = RISK, *,
                checks: bool = True) -> RunResult:
    """Run one variant end to end on a fresh run of the config's structure;
    ``observe.subagent_roles`` chooses the roles with per-subagent rows."""
    world = build_world(config, variant=variant)
    schedule = HazardSchedule([]) if variant == BASELINE else config.schedule()
    recorder = Recorder(world, config.raw["observe"]["subagent_roles"] or None)
    observers: list = [lambda w: recorder.observe()]
    if checks:
        observers.append(InvariantMonitor(world, recorder))
    started = time.perf_counter()
    events = run(world, config.horizon_ticks, schedule, tuple(observers))
    elapsed = time.perf_counter() - started
    return RunResult(
        variant=variant,
        scenario=config.name,
        seed=config.seed,
        horizon_ticks=config.horizon_ticks,
        ticks_per_day=config.ticks_per_day,
        config_digest=config.digest,
        samples=recorder.rows,
        sl=recorder.sl,
        deaths=recorder.deaths,
        station_speeds=recorder.station_speeds,
        applied_events=events,
        wall_time_s=elapsed,
    )


@dataclass
class ComparisonReport:
    scenario: str
    seed: int
    horizon_ticks: int
    ticks_per_day: int
    order: list[str]
    runs: dict[str, RunResult]
    sl_mobility: dict[str, list[float]]
    summary: dict


def run_paired(config: ScenarioConfig, variants: list[str], *,
               checks: bool = True) -> ComparisonReport:
    """Run the requested variants under one seed and assemble the report."""
    known = set(config.variants)
    for name in variants:
        if name not in known:
            raise ValueError(
                f"unknown variant {name!r}; choose from {sorted(known)}"
            )
    order = list(dict.fromkeys(variants))
    runs = {name: run_variant(config, name, checks=checks) for name in order}
    mobility: dict[str, list[float]] = {}
    baseline = runs.get(BASELINE)
    if baseline is not None and baseline.station_speeds:
        # each run's own stations against the baseline's; sl_mobility keeps
        # the stations both have
        for name, result in runs.items():
            mobility[name] = [
                sl_mobility({s: speeds[t] for s, speeds in result.station_speeds.items()},
                            {s: speeds[t] for s, speeds in baseline.station_speeds.items()})
                for t in range(config.horizon_ticks + 1)]
    return ComparisonReport(
        scenario=config.name,
        seed=config.seed,
        horizon_ticks=config.horizon_ticks,
        ticks_per_day=config.ticks_per_day,
        order=order,
        runs=runs,
        sl_mobility=mobility,
        summary=_summarize(order, runs, mobility),
    )


def _summarize(order: list[str], runs: dict[str, RunResult],
               mobility: dict[str, list[float]]) -> dict:
    summary: dict = {"final_deaths": {}, "min_service_level": {}}
    for name in order:
        result = runs[name]
        summary["final_deaths"][name] = result.final_deaths
        minima = {}
        for system, series in sorted(result.sl.items()):
            if series:
                low = min(series)
                minima[system] = {"value": low, "tick": series.index(low)}
        if name in mobility and mobility[name]:
            low = min(mobility[name])
            minima["mobility"] = {"value": low, "tick": mobility[name].index(low)}
        summary["min_service_level"][name] = minima
    if RISK in runs:
        risk_deaths = runs[RISK].final_deaths
        summary["deaths_delta_vs_risk"] = {
            name: runs[name].final_deaths - risk_deaths for name in order
        }
    return summary
