"""The invariant monitor: each check raises on the one corruption it guards.

Each case runs the case study for a few ticks and corrupts subagent states
after a step, before the recorder counts them, as a faulty rule would.
"""

import dataclasses

import pytest

from citysim.build import build_world
from citysim.metrics import Recorder
from citysim.runner import InvariantMonitor, InvariantViolation, run

CITIZEN, PATIENT = "cit_center_0::social", "cit_center_0::healthcare"
HOSPITAL = "hospital_center::healthcare"


def _set(sid, **changes):
    def corrupt(world):
        world.change(sid, dict(world.states[sid], **changes))
    return corrupt


def run_corrupted(config, corruptions: dict, ticks: int = 3):
    """Run ``ticks`` ticks with the monitor on; ``corruptions`` maps a tick
    to the state changes made at it."""
    world = build_world(dataclasses.replace(config, horizon_days=1), "risk")
    recorder = Recorder(world)

    def corrupt(w):
        for change in corruptions.get(w.tick, ()):
            change(w)

    run(world, ticks, config.schedule(),
        (corrupt, lambda w: recorder.observe(), InvariantMonitor(world, recorder)))


def test_uncorrupted_run_passes(casestudy):
    run_corrupted(casestudy, {})


def test_citizen_in_limbo(casestudy):
    with pytest.raises(InvariantViolation, match=rf"tick 1: {CITIZEN} in limbo 'nowhere'"):
        run_corrupted(casestudy, {1: [_set(CITIZEN, location="nowhere")]})


def test_deaths_decrease(casestudy):
    died = [_set(PATIENT, infection="dead"), _set(CITIZEN, location="dead")]
    with pytest.raises(InvariantViolation, match=r"tick 2: deaths decreased"):
        run_corrupted(casestudy, {1: died, 2: [_set(PATIENT, infection="recovered")]})


def test_dead_patients_differ_from_dead_citizens(casestudy):
    with pytest.raises(InvariantViolation,
                       match=r"tick 1: dead patients 1 != dead citizens 0"):
        run_corrupted(casestudy, {1: [_set(PATIENT, infection="dead")]})


@pytest.mark.parametrize("occupancy", [-1, 10_000])
def test_occupancy_outside_nominal(casestudy, occupancy):
    with pytest.raises(InvariantViolation,
                       match=rf"tick 1: {HOSPITAL} general_occupancy={occupancy} outside \[0, nominal\]"):
        run_corrupted(casestudy, {1: [_set(HOSPITAL, general_occupancy=occupancy)]})


def test_admission_beyond_capacity(casestudy):
    # tick 2 admits against the capacity tick 1 ended with
    with pytest.raises(InvariantViolation,
                       match=rf"tick 2: {HOSPITAL} admitted beyond capacity \(1 > cap 0, was 0\)"):
        run_corrupted(casestudy, {1: [_set(HOSPITAL, general_capacity=0)],
                                  2: [_set(HOSPITAL, general_occupancy=1)]})


def test_monitor_before_recorder_fails_loudly(casestudy):
    world = build_world(dataclasses.replace(casestudy, horizon_days=1), "risk")
    recorder = Recorder(world)
    with pytest.raises(RuntimeError, match=r"tick 0: the recorder has not observed this tick"):
        run(world, 1, casestudy.schedule(),
            (InvariantMonitor(world, recorder), lambda w: recorder.observe()))
