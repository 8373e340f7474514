"""The benchmark's per-layer tracer (perfbench/tracing.py) still attaches
to the names the program calls through, and detaches without a trace."""

import dataclasses
import importlib.util
from pathlib import Path

from citysim import build, runner
from citysim.scenario import load_scenario

from conftest import SCENARIO_PATH

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_hooks_attach_and_detach():
    tracer = tracer_module().Tracer()
    tracer.install()
    patched = list(tracer._patched)
    try:
        config, errors = load_scenario(SCENARIO_PATH)
        assert errors == []
        assert tracer.calls["scenario.cross_errors"] == 1
        selected = tracer.calls["hazards.resolve_selector"]
        build.build_world(config, "beds")  # resolves its selectors through build's name
        assert tracer.calls["hazards.resolve_selector"] > selected
        runner.run_variant(dataclasses.replace(config, horizon_days=1), "cybersecurity")
        for name in ("runner.build", "hazards.apply_due", "runner.invariants", "kernel.step",
                     "metrics.observe", "metrics.aggregate", "metrics.observe_subagent",
                     "settle.ict", "settle.healthcare", "settle.social", "settle.mobility",
                     "settle.urban_landscape", "federation.inject",
                     "routing.shortest_route"):
            assert tracer.calls[name] > 0, name
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)
