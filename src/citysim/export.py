"""Deterministic CSV/JSON exports of a comparison report.

All CSVs share one long-format schema: ``tick,day,scope,metric,value``
with a mandatory header, LF line endings and '.' decimals, so any
plotting stack can ingest them directly.  Re-exporting the same report
produces byte-identical files.  In cross-run files the scope is prefixed
with the variant name ("risk:city").
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain
from pathlib import Path

from . import __version__
from .runner import ComparisonReport

HEADER = "tick,day,scope,metric,value"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write(path: Path, lines: list[str]) -> str:
    text = "\n".join(lines) + "\n"
    path.write_text(text, encoding="utf-8", newline="\n")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def export_report(report: ComparisonReport, out_dir: str | Path) -> dict[str, str]:
    """Write per-run metrics, per-run service levels, the cross-run deaths
    and comparison tables, a manifest and a delta summary.

    Returns {file name: sha256}.  Raises OSError if the directory is not
    writable.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tpd = report.ticks_per_day
    digests: dict[str, str] = {}

    def row(tick: int, scope: str, metric: str, value) -> str:
        return f"{tick},{tick // tpd},{scope},{metric},{_fmt(value)}"

    def service_levels(name: str, tick: int):  # (system, value): ict, healthcare, mobility
        sl = report.runs[name].sl
        yield from ((system, sl[system][tick]) for system in ("ict", "healthcare") if sl.get(system))
        if name in report.sl_mobility:
            yield "mobility", report.sl_mobility[name][tick]

    for name in report.order:
        result = report.runs[name]
        rows = result.samples
        # each distinct block is formatted once; a tick is its prefix joined
        # onto its blocks' texts, all in C
        texts = {id(block): [f"{block[0]},{metric},{_fmt(value)}" for metric, value in block[1]]
                 for block in rows.blocks}
        lines = [HEADER]
        for tick, blocks in rows.ticks:
            prefix = f"{tick},{tick // tpd},"
            lines.append(prefix + ("\n" + prefix).join(
                chain.from_iterable(map(texts.__getitem__, map(id, blocks)))))
        digests[f"metrics_{name}.csv"] = _write(out / f"metrics_{name}.csv", lines)

        lines = [HEADER]
        for tick in range(result.horizon_ticks + 1):
            lines.extend(row(tick, system, "service_level", value)
                         for system, value in service_levels(name, tick))
        digests[f"service_levels_{name}.csv"] = _write(
            out / f"service_levels_{name}.csv", lines)

    lines = [HEADER]
    for name in report.order:
        for tick, value in enumerate(report.runs[name].deaths):
            lines.append(row(tick, f"{name}:city", "cumulative_deaths", value))
    digests["deaths.csv"] = _write(out / "deaths.csv", lines)

    lines = [HEADER]
    for name in report.order:
        result = report.runs[name]
        for tick in range(result.horizon_ticks + 1):
            lines.extend(row(tick, f"{name}:{system}", "service_level", value)
                         for system, value in service_levels(name, tick))
            lines.append(row(tick, f"{name}:city", "cumulative_deaths",
                             result.deaths[tick]))
            for station in sorted(result.station_speeds):
                lines.append(row(tick, f"{name}:{station}", "mean_speed",
                                 result.station_speeds[station][tick]))
    digests["comparison.csv"] = _write(out / "comparison.csv", lines)

    summary_text = json.dumps(report.summary, indent=2, sort_keys=True) + "\n"
    (out / "summary.json").write_text(summary_text, encoding="utf-8", newline="\n")
    digests["summary.json"] = hashlib.sha256(summary_text.encode()).hexdigest()

    manifest = {
        "scenario": report.scenario,
        "config_sha256": report.runs[report.order[0]].config_digest,
        "seed": report.seed,
        "horizon_ticks": report.horizon_ticks,
        "ticks_per_day": tpd,
        "variants": report.order,
        "code_version": __version__,
        "wall_time_s": {
            name: round(report.runs[name].wall_time_s, 3) for name in report.order
        },
        "applied_events": {
            name: {str(t): ev for t, ev in sorted(report.runs[name].applied_events.items())}
            for name in report.order
        },
        "files": dict(sorted(digests.items())),
    }
    manifest_text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    (out / "manifest.json").write_text(manifest_text, encoding="utf-8", newline="\n")
    digests["manifest.json"] = hashlib.sha256(manifest_text.encode()).hexdigest()
    return digests
