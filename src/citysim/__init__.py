"""citysim: deterministic multi-layer agent/network simulation of urban
critical-infrastructure risk, with paired what-if scenario comparison."""

__version__ = "0.1.0"

from .build import build_world
from .kernel import World
from .metrics import sl_healthcare, sl_ict, sl_mobility
from .runner import ComparisonReport, RunResult, run, run_paired, run_variant
from .scenario import ScenarioConfig, load_scenario

__all__ = [
    "__version__",
    "World",
    "build_world",
    "load_scenario",
    "ScenarioConfig",
    "run",
    "run_variant",
    "run_paired",
    "RunResult",
    "ComparisonReport",
    "sl_ict",
    "sl_healthcare",
    "sl_mobility",
]
