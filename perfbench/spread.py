"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads metro-8k --seeds 10 --repeat 10
    python3 perfbench/spread.py --workloads metro-8k --seeds 1-10 --against set1.json

Runs ``run.py`` for BENCHMARK.json's ``run_seconds`` once per (workload,
seed, repeat), one process at a time, and reports for each metric the
median of the per-run values and the distance between their first and
third quartiles as a share of that median, as
``statistics.quantiles(values, n=4)`` gives them.  Repeating one seed
measures how steady the benchmark is on one input; a range of seeds adds
the differences between inputs.  The benchmark is steady when each share
stays below a third of the metric's bound (``setup_s`` is only compared
between two sets).  ``--against`` compares each median with that of an
earlier summary written by ``--out``, and reports a shift beyond the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", default="1-10", help="a-b or comma-separated")
    parser.add_argument("--repeat", type=int, default=1, help="runs per seed")
    parser.add_argument("--against", help="an earlier --out summary to compare medians with")
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    earlier = (json.loads(Path(args.against).read_text(encoding="utf-8"))["workloads"]
               if args.against else {})
    summary = {"seconds": seconds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in [s for s in seed_list(args.seeds) for _ in range(args.repeat)]:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=False,
            )
            wall = time.perf_counter() - start
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads((Path(".perfbench_out") / workload
                                 / f"result-trace0-seed{seed}.json").read_text(encoding="utf-8"))
            runs.append({"seed": seed, "wall_s": wall, "exit": proc.returncode, **line,
                         "wall_means": record["wall_means"],
                         "kernel_mean_s": statistics.fmean(record["kernel_samples"]["all"]),
                         "environment": record["environment"]})
            print(f"{workload} seed {seed}: exit {proc.returncode}, {wall:.1f} s, "
                  f"correct {line['correct']}", file=sys.stderr)
        metrics = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            q1, median, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / median
            metrics[name] = {"median": median, "q1": q1, "q3": q3, "n": len(values),
                             "iqr_share": share, "bound": bounds[name],
                             "values": values}
            walls = [r["wall_means"][name] for r in runs if name in r["wall_means"]]
            if len(walls) > 1:
                w1, w_median, w3 = statistics.quantiles(walls, n=4)
                # the same spread of the unscaled wall-time means, for comparison
                metrics[name]["wall_iqr_share"] = (w3 - w1) / w_median
            ok = name == "setup_s" or share < bounds[name] / 3
            steady &= ok
            wall_share = metrics[name].get("wall_iqr_share")
            print(f"{workload:<18}{name:<22}median {median:<12.6g}iqr/median "
                  f"{share:7.4f}  bound/3 {bounds[name] / 3:.4f}  {'ok' if ok else 'WIDE'}"
                  + ("" if wall_share is None else f"  (wall {wall_share:.4f})"))
            before = earlier.get(workload, {}).get("metrics", {}).get(name)
            if before:
                shift = median / before["median"] - 1.0
                within = abs(shift) <= bounds[name]
                metrics[name]["shift"] = shift
                steady &= within
                print(f"{'':<40}median shift {shift:+.4f} against {args.against}  "
                      f"{'ok' if within else 'BEYOND BOUND'}")
        summary["workloads"][workload] = {
            "environment": runs[-1]["environment"],
            "runs": [{k: r[k] for k in ("seed", "wall_s", "exit", "correct", "attempted", "failed",
                                        "kernel_mean_s", "wall_means")}
                     for r in runs],
            "metrics": metrics,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
