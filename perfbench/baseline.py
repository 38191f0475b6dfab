"""Repeat benchmark runs over seeds and summarise them.

Usage, from the repository root::

    python3 perfbench/baseline.py --seeds 1-10 [--write]

Runs ``run.py`` untraced once per (workload, seed) for every workload in
``BENCHMARK.json``, all seeds of one workload back to back, then once
traced per workload.  For every end-to-end metric it prints the median,
the quartiles and the spread (interquartile distance over the median)
next to the metric's bound.  ``--write`` stores the summary in
``baseline.json`` and ``BASELINE.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GATES = {"knapsack-meet": ("gate 3", 0.70), "knapsack-split": ("gate 4", 0.90)}


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    lines = done.stdout.splitlines()
    report = json.loads(lines[-1]) if lines else {}
    if done.returncode != 0 or not report.get("correct"):
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{done.stdout}{done.stderr}")
    report["facts"] = json.loads(next(l for l in lines if l.startswith("# facts "))[8:])
    return report


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    seeds = _seeds(args.seeds)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    facts = None
    for workload in workloads:
        for seed in seeds:
            report = _run(workload, seed, seconds, 0)
            facts = report["facts"]
            for name, m in report["metrics"].items():
                values[workload].setdefault(name, []).append(m["value"])
            print(f"seed {seed} {workload}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in report["metrics"].items()), flush=True)

    summary = {"facts": facts, "seeds": seeds, "run_seconds": seconds,
               "end_to_end": {}, "per_layer": {}}
    worst = {}
    for workload, metrics in values.items():
        summary["end_to_end"][workload] = {}
        for name, vals in metrics.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            summary["end_to_end"][workload][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            worst[name] = max(worst.get(name, 0.0), spread)
            print(f"{workload:15} {name:13} median {median:9.4g}  q1 {q1:9.4g}  "
                  f"q3 {q3:9.4g}  spread {spread:6.3f}  bound {bounds[name]}")
    for name, spread in worst.items():
        print(f"widest spread {name}: {spread:.3f} (a third of the bound is {bounds[name] / 3:.3f})")

    for workload in workloads:
        report = _run(workload, seeds[0], seconds, 1)
        summary["per_layer"][workload] = {k: m["value"] for k, m in report["metrics"].items()}
    if args.write:
        (HERE / "baseline.json").write_text(json.dumps(summary, indent=1) + "\n")
        (HERE / "BASELINE.md").write_text(_markdown(summary, spec))
    return 0


def _markdown(summary: dict, spec: dict) -> str:
    facts = summary["facts"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = [
        "# perfbench baseline",
        "",
        f"Commit `{facts['git_commit']}`, {facts['src_lines']} lines of `src/`, "
        f"{facts['cores']} cores, Python {facts['python']}.  "
        f"{len(summary['seeds'])} untraced runs per workload (seeds "
        f"{summary['seeds'][0]}-{summary['seeds'][-1]}), {summary['run_seconds']} s each; "
        f"one traced run per workload (seed {summary['seeds'][0]}).",
        "Written by `python3 perfbench/baseline.py --seeds "
        f"{summary['seeds'][0]}-{summary['seeds'][-1]} --write`.",
        "",
        "## End to end (untraced)",
        "",
        "Times are scaled to the reference host speed of `hostspeed.py`; each run "
        "also prints its unscaled `front_s` on a `#` line.",
        "",
        "| workload | metric | median | q1 | q3 | spread | bound |",
        "|---|---|---|---|---|---|---|",
    ]
    for workload, metrics in summary["end_to_end"].items():
        for name, s in metrics.items():
            out.append(f"| {workload} | {name} ({units[name]}) | {s['median']:.4g} | "
                       f"{s['q1']:.4g} | {s['q3']:.4g} | {s['spread']:.3f} | {bounds[name]} |")
    workloads = list(summary["per_layer"])
    out += ["", "## Per layer (traced, per pass over the instance set)", "",
            "| metric | " + " | ".join(workloads) + " |",
            "|---|" + "---|" * len(workloads)]
    for name in summary["per_layer"][workloads[0]]:
        cells = " | ".join(f"{summary['per_layer'][w][name]:.4g}" for w in workloads)
        out.append(f"| {name} ({units[name]}) | {cells} |")
    out += ["", "## Release gates", "",
            "`algorithms.vs_seq` is the workload's untraced front time over the "
            "sequential algorithm's on the same relabeled instances, in the same run.", "",
            "The second column divides the untraced `front_s` medians above.", "",
            "| workload | vs_seq (traced run) | front_s median / knapsack-seq's | gate | bound |",
            "|---|---|---|---|---|"]
    e2e = summary["end_to_end"]
    for workload, (gate, bound) in GATES.items():
        ratio = e2e[workload]["front_s"]["median"] / e2e["knapsack-seq"]["front_s"]["median"]
        out.append(f"| {workload} | {summary['per_layer'][workload]['algorithms.vs_seq']:.3f}"
                   f" | {ratio:.3f} | {gate} | {bound} |")
    return "\n".join(out) + "\n"


if __name__ == "__main__":
    sys.exit(main())
