"""citysim benchmark: scenario file -> paired runs -> exported series.

Run from the root of a checkout:

    python3 perfbench/run.py --workload metro-8k --seed 10 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

One process runs one workload as a closed loop: a single client sets the
scenario up, runs its variants and exports, then starts the next
iteration only after the previous one finished.  With ``--trace 0`` it
prints the end-to-end metrics, each the mean over the run in reference
seconds (reference.py); with ``--trace 1`` it runs the workload
once untraced and once traced and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden.json"
# the default seed; golden.json pins every workload's export at seeds 1-10
PINNED_SEED = 10

# On a shared VM the CPU speed can switch between modes up to 2x apart
# every few seconds (seen on a 2-vCPU Xeon VM).  Every timing is therefore
# scaled to reference seconds by kernel samples taken while it ran
# (reference.py), and short timings are spread over the whole run: each
# iteration sets up for at least this long before its paired run, and a
# run times at least SETUP_MIN_REPS set-ups in all
SETUP_CHUNK_SECONDS = 1.0
SETUP_MIN_REPS = 3
# each iteration exports its report at least this often and for at least
# this long; the time the iterations leave over goes to alternating single
# set-ups and exports for this long each
EXPORT_MIN_REPS = 5
EXPORT_MIN_SECONDS = 2.0
EXPORT_FILL_SECONDS = 0.5
# the reference kernel (~2 ms) is sampled this often all through a run
SAMPLE_INTERVAL_SECONDS = 0.05
# kernel runs before and after each paired run of a traced run, whose
# overhead is taken in reference seconds without interrupting it
TRACE_PROBE_RUNS = 100

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("export_s", "s"),
    ("us_per_citizen_tick", "us"),
    ("peak_rss_mb", "MB"),
]
# failed_frac is reported in the table but not in the result line: it is 0
# on a healthy program, and the result line carries attempted and failed
FAILED_FRAC = ("failed_frac", "ratio")

STAGE_PAIRS = [
    ("internal", "ict"), ("internal", "healthcare"), ("internal", "social"),
    ("network", "ict"), ("network", "healthcare"),
    ("coupling", "healthcare"), ("coupling", "mobility"), ("coupling", "social"),
    ("coupling", "urban_landscape"),
]
SETTLEMENTS = ["social", "urban_landscape", "healthcare", "mobility", "ict"]

PER_LAYER = (
    [("kernel.step_s", "s"), ("kernel.step_ms_p50", "ms"), ("kernel.step_ms_p99", "ms"),
     ("kernel.self_s", "s"), ("kernel.rule_calls", "count"),
     ("kernel.rule_changed_frac", "ratio"), ("kernel.counterpart_calls", "count"),
     ("kernel.role_members_calls", "count"), ("kernel.role_members_s", "s")]
    + [(f"stage.{stage}.{system}{suffix}", unit)
       for stage, system in STAGE_PAIRS
       for suffix, unit in (("_s", "s"), ("_calls", "count"), ("_changed_frac", "ratio"))]
    + [(f"settle.{system}_s", "s") for system in SETTLEMENTS]
    + [("routing.shortest_route_s", "s"), ("routing.shortest_route_calls", "count"),
       ("routing.distinct_pair_frac", "ratio"),
       ("federation.inject_s", "s"), ("federation.advance_s", "s"),
       ("federation.query_s", "s"), ("federation.routes", "count"),
       ("rng.stream_at_calls", "count"), ("rng.draws", "count"),
       ("rng.fnv64_calls", "count"), ("rng.fnv64_distinct_frac", "ratio"),
       ("metrics.observe_s", "s"), ("metrics.observe_subagent_s", "s"),
       ("metrics.aggregate_s", "s"), ("metrics.rows", "count"),
       ("runner.invariants_s", "s"), ("runner.build_s", "s"),
       ("runner.variant_wall_s_max", "s"),
       ("hazards.apply_due_s", "s"), ("hazards.events_applied", "count"),
       ("hazards.resolve_selector_s", "s"), ("hazards.resolve_selector_calls", "count"),
       ("scenario.load_s", "s"), ("scenario.cross_errors_s", "s"),
       ("build.world_s", "s"), ("build.finalize_s", "s"),
       ("build.subagents", "count"), ("build.edges", "count"),
       ("export.rows", "count"), ("export.bytes", "B"), ("export.files", "count"),
       ("trace.overhead_frac", "ratio"), ("trace.coverage_frac", "ratio")]
)


class SetupError(Exception):
    """The checkout cannot run the benchmark (missing sources or inputs)."""


class InvalidScenario(Exception):
    """A generated scenario failed validation: a failed run."""


def import_program():
    """Import citysim from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "citysim" / "__init__.py").is_file():
        raise SetupError(f"no citysim sources under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import citysim

    if Path(citysim.__file__).resolve().parent != (src / "citysim").resolve():
        raise SetupError(f"imported citysim from {citysim.__file__}, not from {src}")
    return citysim


# -- records ----------------------------------------------------------------

def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """sha256 over src/ file paths and bytes: names the code without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def summary(values: list[float]) -> dict:
    """Mean, median, quartiles (as statistics.quantiles gives them) and count."""
    mean = statistics.fmean(values)
    if len(values) == 1:
        return {"mean": mean, "median": mean, "q1": mean, "q3": mean, "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"mean": mean, "median": median, "q1": q1, "q3": q3, "n": len(values)}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def file_digests(directory: Path) -> dict[str, str]:
    """sha256 of every exported file except the manifest (it holds wall times)."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
        if path.is_file() and path.name != "manifest.json"
    }


def golden_for(name: str, seed: int) -> dict | None:
    """Pinned digests of the workload's export at ``seed``, or None."""
    pins = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return pins.get(name, {}).get(str(seed))


# -- workload runs ------------------------------------------------------------

def timed_exports(report, directory: Path, min_reps: int, min_seconds: float,
                  keep_first: bool, clock, timings) -> None:
    """Times ``export_report`` at least ``min_reps`` times and for at least
    ``min_seconds``, each time into a fresh directory, into ``timings``.
    Rewriting files in place truncates them, and ext4 then starts writeback
    on close.  Each directory is removed right after it is timed, so its
    dirty pages are dropped before writeback starts; with ``keep_first``
    the first stays as ``directory/0``."""
    from citysim.export import export_report

    done = 0
    begin = clock.now()
    while done < min_reps or clock.now() - begin < min_seconds:
        target = directory / str(done)
        first, start = len(clock.samples), clock.now()
        export_report(report, target)
        timings.add(clock, start, first)
        done += 1
        if not (keep_first and done == 1):
            shutil.rmtree(target)


class Job:
    """One workload at one seed: its scenario file and output directory."""

    def __init__(self, name: str, seed: int):
        import workloads

        try:
            self.workload = workloads.WORKLOADS[name](seed)
        except OSError as exc:
            raise SetupError(f"cannot generate {name}: {exc}") from exc
        self.out = OUT / name
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.scenario_path = self.out / "scenario.json"
        self.scenario_path.write_text(json.dumps(self.workload.scenario, indent=1),
                                      encoding="utf-8")
        self.golden = golden_for(name, seed)
        # the first export of the run: every later one must match it
        self.first_digests: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, why: str) -> None:
        self.failed += 1
        self.notes.append(why)
        print(f"FAILED: {why}", file=sys.stderr)

    def setup(self):
        """load_scenario (validates, building one world) + build_world of the
        first variant; returns (config, world)."""
        from citysim.build import build_world
        from citysim.scenario import load_scenario

        config, errors = load_scenario(self.scenario_path)
        if errors:
            raise InvalidScenario("; ".join(errors[:5]))
        return config, build_world(config, self.workload.variants[0])

    def run_paired(self, config):
        from citysim.runner import run_paired

        return run_paired(config, self.workload.variants, checks=True)

    def run_and_export(self, config, clock, runs, exports):
        """One iteration: paired run plus exports, timed into ``runs`` and
        ``exports``.  Returns (report, digests); the first export is kept in
        export/0."""
        exports_dir = self.out / "export"
        shutil.rmtree(exports_dir, ignore_errors=True)
        first, start = len(clock.samples), clock.now()
        report = self.run_paired(config)
        runs.add(clock, start, first)
        timed_exports(report, exports_dir, EXPORT_MIN_REPS, EXPORT_MIN_SECONDS,
                      True, clock, exports)
        return report, file_digests(exports_dir / "0")

    def check_digests(self, digests: dict[str, str]) -> bool:
        """Against the pins at this seed, and against the run's first export
        (same scenario and seed, so the same bytes) at any seed."""
        for expected, what in ((self.golden, "golden"), (self.first_digests, "repeat")):
            if expected is not None and digests != expected:
                wrong = sorted(k for k in set(digests) | set(expected)
                               if digests.get(k) != expected.get(k))
                self.fail(f"{what} digest mismatch in {wrong}")
                return False
        if self.first_digests is None:
            self.first_digests = digests
        return True


def measure(name: str, seed: int, seconds: float) -> dict:
    """End-to-end metrics: iterations of set-up, paired run and export until
    the next one would not fit in ``seconds``, then single set-ups and
    exports in turn for the time left.  Every timing is scaled to
    reference seconds by the kernel samples taken while it ran."""
    import workloads
    from reference import Clock, Timings

    job = Job(name, seed)
    setups, runs, exports = Timings(), Timings(), Timings()
    world_profile = None

    def set_up(min_seconds: float):
        nonlocal world_profile
        begin = clock.now()
        while True:
            first, start = len(clock.samples), clock.now()
            config, world = job.setup()
            setups.add(clock, start, first)
            if world_profile is None:
                world_profile = workloads.world_profile(world)
            del world
            gc.collect()
            if clock.now() - begin >= min_seconds:
                return config

    variants = len(job.workload.variants)
    iteration_times: list[float] = []
    digests: dict[str, str] = {}
    report_profile = None
    started = time.perf_counter()
    with Clock(SAMPLE_INTERVAL_SECONDS) as clock:
        while True:
            begin = time.perf_counter()
            last_report = None
            config = set_up(SETUP_CHUNK_SECONDS)
            job.attempted += 1
            try:
                report, digests = job.run_and_export(config, clock, runs, exports)
            except Exception:
                job.fail("iteration raised:\n" + traceback.format_exc())
            else:
                if job.check_digests(digests):
                    last_report = report
                if report_profile is None:
                    report_profile = workloads.report_profile(report)
                del report
            gc.collect()
            iteration_times.append(time.perf_counter() - begin)
            elapsed = time.perf_counter() - started
            if elapsed + statistics.median(iteration_times) > seconds:
                break
        # the iterations leave up to one iteration's time over; spent on
        # single set-ups and exports in turn, it gives those short timings
        # more windows of the run, so one slow stretch weighs less
        while last_report is not None:
            step = statistics.median(setups.wall) + EXPORT_FILL_SECONDS
            if time.perf_counter() - started + step > seconds:
                break
            set_up(0.0)
            timed_exports(last_report, job.out / "fill", 1, EXPORT_FILL_SECONDS, False,
                          clock, exports)
        del last_report
        while len(setups.wall) < SETUP_MIN_REPS:
            set_up(0.0)

    citizens = world_profile["subagents_per_role"].get("citizen", 0)
    ticks = config.horizon_ticks
    per_tick = 1e6 / (citizens * ticks * variants)
    run_ref = runs.reference(clock.samples)
    samples = {
        "setup_s": setups.reference(clock.samples),
        "run_s": run_ref,
        "export_s": exports.reference(clock.samples),
        "us_per_citizen_tick": [t * per_tick for t in run_ref],
        "peak_rss_mb": [peak_rss_mb()],
    }
    wall = {"setup_s": setups.wall, "run_s": runs.wall, "export_s": exports.wall,
            "us_per_citizen_tick": [t * per_tick for t in runs.wall]}
    return {
        "workload": name,
        "trace": 0,
        "environment": environment(seed),
        "profile": {**(world_profile or {}), **(report_profile or {})},
        "digests": digests,
        "golden_checked": job.golden is not None,
        "attempted": job.attempted,
        "failed": job.failed,
        "notes": job.notes,
        "samples": samples,
        "wall_samples": wall,
        "kernel_samples": {"setup_s": setups.kernel, "run_s": runs.kernel,
                           "export_s": exports.kernel, "all": clock.samples},
        "metrics": {metric: {**summary(samples[metric]), "unit": unit}
                    for metric, unit in END_TO_END if samples[metric]},
        "wall_means": {metric: statistics.fmean(v) for metric, v in wall.items() if v},
    }


def traced(name: str, seed: int) -> dict:
    """Per-layer metrics: one untraced iteration, the same traced, then the
    paired run untraced again, so the overhead is taken against runs on
    either side of the traced one, all three in reference seconds."""
    import workloads
    from reference import NOMINAL_S, probe
    from tracing import Tracer

    from citysim import build, runner, scenario
    from citysim.export import export_report

    job = Job(name, seed)
    variants = job.workload.variants

    def reference_s(start: float, before: float) -> float:
        """Wall seconds since ``start``, scaled by the kernel sample
        ``before`` taken just before it and by one taken now."""
        wall = time.perf_counter() - start
        return wall * NOMINAL_S / ((before + probe(TRACE_PROBE_RUNS)) / 2)

    job.attempted += 1
    config, world = job.setup()
    del world
    before, start = probe(TRACE_PROBE_RUNS), time.perf_counter()
    report = job.run_paired(config)
    untraced_ref = [reference_s(start, before)]
    export_report(report, job.out / "export")
    untraced_digests = file_digests(job.out / "export")
    job.check_digests(untraced_digests)
    del report
    gc.collect()

    tracer = Tracer()
    tracer.install()
    job.attempted += 1
    try:
        with tracer.span("setup", run_id="setup"):
            with tracer.span("scenario.load"):
                config, errors = scenario.load_scenario(job.scenario_path)
            if errors:
                raise InvalidScenario("; ".join(errors[:5]))
            world = build.build_world(config, variants[0])
        setup = dict(tracer.self_s)
        profile = workloads.world_profile(world)
        roles = {rec.role: rec.system for rec in world.records.values()}
        build_counts = {
            "build.subagents": len(world.records),
            "build.edges": sum(len(layer.edges) for layer in world.layers.values()),
        }
        del world
        gc.collect()

        tracer.reset()
        results = {}
        before, start = probe(TRACE_PROBE_RUNS), time.perf_counter()
        for variant in variants:
            with tracer.span("variant", run_id=variant):
                results[variant] = runner.run_variant(config, variant, checks=True)
        # let run_paired assemble the report from the traced runs, so the
        # comparison is built by the program's own code
        original = runner.run_variant
        runner.run_variant = lambda config, variant, **_: results[variant]
        try:
            report = runner.run_paired(config, variants, checks=True)
        finally:
            runner.run_variant = original
        traced_run_s = time.perf_counter() - start
        traced_ref = reference_s(start, before)
        run = {
            "self": dict(tracer.self_s), "calls": dict(tracer.calls),
            "counts": dict(tracer.counts),
            "durations": {k: list(v) for k, v in tracer.durations.items()},
            "rules": {k: list(v) for k, v in tracer.rules.items()},
            "route_pairs": len(tracer.route_pairs),
            "fnv_labels": len(tracer.fnv_labels),
        }

        tracer.reset()
        with tracer.span("export", run_id="export"):
            export_report(report, job.out / "traced-export")
    finally:
        tracer.uninstall()
    traced_digests = file_digests(job.out / "traced-export")
    if traced_digests != untraced_digests:
        job.fail("traced digests differ from untraced ones")
    tracer.write_spans(job.out / "spans.jsonl")
    gc.collect()
    before, start = probe(TRACE_PROBE_RUNS), time.perf_counter()
    job.run_paired(config)
    untraced_ref.append(reference_s(start, before))
    overhead = traced_ref / statistics.fmean(untraced_ref) - 1.0

    metrics = layer_metrics(setup, run, roles, build_counts, results, traced_run_s,
                            overhead, job.out / "traced-export")
    return {
        "workload": name,
        "trace": 1,
        "environment": environment(seed),
        "profile": {**profile, **workloads.report_profile(report)},
        "digests": traced_digests,
        "golden_checked": job.golden is not None,
        "attempted": job.attempted,
        "failed": job.failed,
        "notes": job.notes,
        "shares": self_time_shares(run, roles, traced_run_s),
        "metrics": {metric: {"value": metrics[metric], "unit": unit}
                    for metric, unit in PER_LAYER},
    }


def _pairs(run: dict, roles: dict[str, str]) -> dict[tuple[str, str], list]:
    """Rule accumulators (calls, changed, self s) summed per stage x system."""
    pairs: dict[tuple[str, str], list] = {}
    for (stage, role), (calls, changed, secs) in run["rules"].items():
        acc = pairs.setdefault((stage, roles.get(role, role)), [0, 0, 0.0])
        acc[0] += calls
        acc[1] += changed
        acc[2] += secs
    return pairs


def layer_metrics(setup: dict, run: dict, roles: dict[str, str], build_counts: dict,
                  results: dict, traced_run_s: float, overhead_frac: float,
                  export_dir: Path) -> dict:
    self_s, calls, counts = run["self"], run["calls"], run["counts"]
    pairs = _pairs(run, roles)
    steps_ms = sorted(d * 1000 for d in run["durations"].get("kernel.step", []))
    rule_calls = sum(acc[0] for acc in pairs.values())
    rule_changed = sum(acc[1] for acc in pairs.values())

    def frac(num, den):
        return num / den if den else 0.0

    out = {
        "kernel.step_s": sum(steps_ms) / 1000,
        "kernel.step_ms_p50": statistics.median(steps_ms) if steps_ms else 0.0,
        "kernel.step_ms_p99": (statistics.quantiles(steps_ms, n=100)[98]
                               if len(steps_ms) > 1 else sum(steps_ms)),
        "kernel.self_s": self_s.get("kernel.step", 0.0),
        "kernel.rule_calls": rule_calls,
        "kernel.rule_changed_frac": frac(rule_changed, rule_calls),
        "kernel.counterpart_calls": counts.get("kernel.counterpart", 0),
        "kernel.role_members_calls": calls.get("kernel.role_members", 0),
        "kernel.role_members_s": self_s.get("kernel.role_members", 0.0),
    }
    for stage, system in STAGE_PAIRS:
        n, changed, secs = pairs.get((stage, system), (0, 0, 0.0))
        out[f"stage.{stage}.{system}_s"] = secs
        out[f"stage.{stage}.{system}_calls"] = n
        out[f"stage.{stage}.{system}_changed_frac"] = frac(changed, n)
    for system in SETTLEMENTS:
        out[f"settle.{system}_s"] = self_s.get(f"settle.{system}", 0.0)
    export_files = sorted(p for p in export_dir.iterdir() if p.is_file())
    out.update({
        "routing.shortest_route_s": self_s.get("routing.shortest_route", 0.0),
        "routing.shortest_route_calls": calls.get("routing.shortest_route", 0),
        "routing.distinct_pair_frac": frac(run["route_pairs"], calls.get("routing.shortest_route", 0)),
        "federation.inject_s": self_s.get("federation.inject", 0.0),
        "federation.advance_s": self_s.get("federation.advance", 0.0),
        "federation.query_s": self_s.get("federation.query", 0.0),
        "federation.routes": counts.get("federation.routes", 0),
        "rng.stream_at_calls": counts.get("rng.stream_at", 0),
        "rng.draws": counts.get("rng.draws", 0),
        "rng.fnv64_calls": counts.get("rng.fnv64", 0),
        "rng.fnv64_distinct_frac": frac(run["fnv_labels"], counts.get("rng.fnv64", 0)),
        "metrics.observe_s": self_s.get("metrics.observe", 0.0),
        "metrics.observe_subagent_s": self_s.get("metrics.observe_subagent", 0.0),
        "metrics.aggregate_s": self_s.get("metrics.aggregate", 0.0),
        "metrics.rows": sum(len(r.samples) for r in results.values()),
        "runner.invariants_s": self_s.get("runner.invariants", 0.0),
        "runner.build_s": sum(run["durations"].get("runner.build", [])),
        "runner.variant_wall_s_max": max(run["durations"].get("variant", [0.0])),
        "hazards.apply_due_s": self_s.get("hazards.apply_due", 0.0),
        "hazards.events_applied": sum(
            len(ev) for r in results.values() for ev in r.applied_events.values()),
        "hazards.resolve_selector_s": self_s.get("hazards.resolve_selector", 0.0),
        "hazards.resolve_selector_calls": calls.get("hazards.resolve_selector", 0),
        "scenario.load_s": setup.get("scenario.load", 0.0),
        "scenario.cross_errors_s": setup.get("scenario.cross_errors", 0.0),
        "build.world_s": setup.get("build.world", 0.0),
        "build.finalize_s": setup.get("build.finalize", 0.0),
        **build_counts,
        "export.rows": sum(
            p.read_bytes().count(b"\n") - 1 for p in export_files if p.suffix == ".csv"),
        "export.bytes": sum(p.stat().st_size for p in export_files),
        "export.files": len(export_files),
        # against the mean of the untraced runs before and after the traced
        # one, all in reference seconds
        "trace.overhead_frac": overhead_frac,
        # self times partition the traced wall time; what the variant span
        # keeps for itself (the run loop) and the report assembly is unnamed
        "trace.coverage_frac": frac(
            sum(v for k, v in self_s.items() if k != "variant")
            + sum(acc[2] for acc in pairs.values()), traced_run_s),
    })
    return out


def self_time_shares(run: dict, roles: dict[str, str], traced_run_s: float) -> dict:
    """Share of traced run_s per layer group, to check each workload's reason."""
    pairs = _pairs(run, roles)
    self_s = run["self"]
    population = ("healthcare", "social", "mobility", "urban_landscape")
    groups = {
        "population stages + settle.social": (
            sum(acc[2] for (_, system), acc in pairs.items() if system in population)
            + self_s.get("settle.social", 0.0)),
        "ict stages + settle.ict": (
            sum(acc[2] for (_, system), acc in pairs.items() if system == "ict")
            + self_s.get("settle.ict", 0.0)),
        "metrics.observe_subagent": self_s.get("metrics.observe_subagent", 0.0),
    }
    for key, value in self_s.items():
        if key not in ("settle.social", "settle.ict", "metrics.observe_subagent"):
            groups[key] = value
    return {k: v / traced_run_s for k, v in sorted(groups.items(), key=lambda kv: -kv[1])}


# -- output -------------------------------------------------------------------

def report_result(result: dict) -> dict:
    """Print the human-readable summary; return the result line object."""
    name = result["workload"]
    env = result["environment"]
    print(f"workload {name}  seed {env['seed']}  trace {result['trace']}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("profile " + json.dumps(result["profile"], sort_keys=True))
    golden = ("checked against golden" if result["golden_checked"]
              else "not pinned at this seed; checked only between iterations")
    print(f"digests ({golden}) " + json.dumps(result["digests"], sort_keys=True))
    attempted, failed = result["attempted"], result["failed"]
    if result["trace"] == 0:
        # times in reference seconds; the result line carries each mean, and
        # the last column is the mean in wall seconds
        print(f"{'metric':<22}{'unit':>7}{'mean':>14}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'n':>5}{'wall mean':>14}")
        for metric, unit in END_TO_END:
            s = result["metrics"].get(metric)
            if s:
                wall = result["wall_means"].get(metric)
                print(f"{metric:<22}{unit:>7}{s['mean']:>14.6g}{s['median']:>14.6g}"
                      f"{s['q1']:>14.6g}{s['q3']:>14.6g}{s['n']:>5}"
                      f"{'' if wall is None else f'{wall:14.6g}'}")
        print(f"{FAILED_FRAC[0]:<22}{FAILED_FRAC[1]:>7}{failed / attempted:>14.6g}"
              f"{'':>42}{attempted:>5}   ({failed} failed of {attempted} attempted)")
        metrics = {m: {"value": s["mean"], "unit": s["unit"]}
                   for m, s in result["metrics"].items()}
    else:
        for metric, entry in result["metrics"].items():
            print(f"{metric:<40}{entry['unit']:>7}{entry['value']:>16.6g}")
        print("self-time share of traced run_s:")
        for group, share in result["shares"].items():
            print(f"  {share:8.2%}  {group}")
        metrics = result["metrics"]
    path = OUT / name / f"result-trace{result['trace']}-seed{env['seed']}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")
    correct = failed == 0 and len(metrics) == len(END_TO_END if result["trace"] == 0 else PER_LAYER)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            combined["correct"] = False
            continue
        line = json.loads(lines[-1])
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for metric, entry in line["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
        import workloads

        if args.workload == "all":
            return run_all(args)
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)} or all")
        if args.trace:
            result = traced(args.workload, args.seed)
        else:
            result = measure(args.workload, args.seed, args.seconds)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # a scenario that does not validate, or a traced run that raised
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    line = report_result(result)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
