"""The benchmark's set-up (perfbench/run.py) profiles a fresh run of each
variant with perfbench/workloads.py ``world_profile``, which reads the
records' params, the place nodes, the role members and the layer edges."""

import importlib.util
import sys
from pathlib import Path

from citysim.build import build_world

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def workloads_module(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_world_profile_of_every_casestudy_variant(casestudy, monkeypatch):
    world_profile = workloads_module(monkeypatch).world_profile
    profiles = [world_profile(build_world(casestudy, v)) for v in casestudy.variants]
    assert len(casestudy.variants) == 4
    expected = profiles[0]
    assert all(profile == expected for profile in profiles)
    assert expected["subagents_per_role"]["citizen"] == 500
    assert expected["edges_per_layer"] == {
        "ict": 9, "healthcare": 2, "mobility": 8, "social": 0, "urban_landscape": 0}
    assert expected["scheduled_route_pairs"] == 24
