"""Front-enumeration benchmark for biopt.

Run from the repository root::

    python3 perfbench/run.py --workload knapsack-seq --seed 1 --seconds 30 --trace 0

Workloads are listed in ``workloads.py``.  One run solves the workload's
instance set round-robin until ``--seconds`` have passed and every instance
has been solved at least once, checks every front exactly against its
frozen oracle reference, and prints a report whose last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

* ``--trace 0`` prints the end-to-end metrics: ``front_s`` and ``cpu_s``
  (per-instance medians, summed over the instance set), ``setup_s`` (median
  of several fresh interpreters, from start to ready for the first solve)
  and ``peak_rss_mib``.  The times are scaled to a reference host speed,
  measured between the solves (see ``hostspeed.py``).
* ``--trace 1`` prints the per-layer metrics of a traced run (see
  ``tracing.py``), next to untraced solves of the same instances that give
  the tracing overhead and the ratio to the sequential algorithm.

A solve that raises, exceeds the node limit, loses a worker, outlives the
watchdog or returns a front that differs from its reference is a failure;
any failure makes the run exit with status 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WATCHDOG_S = 40.0  # one solve; the slowest, split on knapsack-24-5, takes 5-10 s on 2 cores
HARD_STOP_S = 90.0  # start no solve after this, so a run ends within 180 s
SETUP_PROBES = (11, 15)  # fresh interpreters per run: at least, at most


def _load_program():
    """Import biopt from this checkout's source tree, never an installed copy."""
    src = ROOT / "src"
    if not (src / "biopt" / "__init__.py").is_file():
        sys.exit(f"perfbench: no biopt sources under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import biopt

    if Path(biopt.__file__).resolve().parent != src / "biopt":
        sys.exit(f"perfbench: imported biopt from {biopt.__file__}, not {src}")


# ---------------------------------------------------------------------------
# one checked solve
# ---------------------------------------------------------------------------

class SolveTimeout(Exception):
    """Raised in the main process by the watchdog alarm."""


def _alarm(signum, frame):
    raise SolveTimeout


@contextlib.contextmanager
def watchdog(seconds: float):
    """Interrupt the enclosed solve after ``seconds`` and kill its workers.

    The solver is pure Python, so the alarm's exception lands between two
    bytecodes of the main process, or in the pipe wait of a parallel run.  Forked
    workers do not inherit the timer; the ones still alive are killed.
    """
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except BaseException:
        signal.setitimer(signal.ITIMER_REAL, 0)
        for child in multiprocessing.active_children():
            child.kill()
            child.join(5)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def front_error(problem, front, reference) -> str | None:
    """Why ``front`` is not the reference front of ``problem``, or None."""
    outcomes = tuple(o.as_tuple() for o in front.outcomes())
    if outcomes != reference:
        return f"front {outcomes} differs from reference {reference}"
    from biopt import evaluate

    for sol in front:
        if not problem.is_feasible(sol.assignment):
            return f"infeasible point {sol.assignment}"
        if evaluate(problem, sol.assignment) != sol.outcome:
            return f"point {sol.assignment} does not attain {sol.outcome}"
    return None


class Solver:
    """Runs checked, watchdog-guarded solves and keeps the failure tally."""

    def __init__(self, references, watchdog_s: float = WATCHDOG_S) -> None:
        self.references = references
        self.watchdog_s = watchdog_s
        self.attempted = 0
        self.failures: list[str] = []

    def solve(self, algorithm, instance, around=contextlib.nullcontext()):
        """(front, stats, wall, cpu) of one solve, or None if it failed.

        ``around`` is entered just around the algorithm call.
        """
        self.attempted += 1
        gc.collect()
        cpu0 = _cpu()
        start = time.perf_counter()
        try:
            with watchdog(self.watchdog_s), around:
                front, stats = algorithm(instance.problem)
        except SolveTimeout:
            self.failures.append(f"{instance.key}: killed by the watchdog")
            return None
        except Exception as exc:  # noqa: BLE001 -- every solver error is a failure
            self.failures.append(f"{instance.key}: {type(exc).__name__}: {exc}")
            return None
        wall = time.perf_counter() - start
        cpu = _cpu() - cpu0
        error = front_error(instance.problem, front, self.references[instance.key])
        if error is not None:
            self.failures.append(f"{instance.key}: {error}")
            return None
        return front, stats, wall, cpu


def _sum_of_medians(samples: dict[str, list[float]]) -> float:
    return sum(statistics.median(v) for v in samples.values())


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def setup(workload_name: str, seed: int):
    """Everything a run does before its first solve."""
    from workloads import WORKLOADS, load_references, make_instances

    workload = WORKLOADS[workload_name]
    instances = make_instances(workload, seed)
    references = load_references(instances)
    return workload, instances, references


def setup_probe(workload: str, seed: int) -> float:
    """Wall time from spawning a fresh interpreter to ready for the first solve."""
    start = time.perf_counter()
    probe = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
    )
    return float(probe.stdout.split()[-1]) - start


def run_untraced(workload, instances, solver: Solver, seconds: float, seed: int):
    """End-to-end metrics of solves repeated for ``seconds``.

    A host-speed probe precedes the first solve and follows each solve, and
    each solve's times are scaled to the reference host by the mean of the
    two probes around it (see ``hostspeed.py``).  One set-up probe follows
    each solve too, so that ``setup_s`` samples the host over the same
    stretch of time as ``front_s``; it is scaled by the median host probe.
    A set-up probe does this process's set-up and nothing more, so its peak
    resident set stays below this process's and ``peak_rss_mib`` stays the
    solver's.
    """
    from hostspeed import REFERENCE_S, probe

    wall: dict[str, list[float]] = {inst.key: [] for inst in instances}
    cpu: dict[str, list[float]] = {inst.key: [] for inst in instances}
    unscaled: dict[str, list[float]] = {inst.key: [] for inst in instances}
    setup_times: list[float] = []
    host = [probe()]
    least, most = SETUP_PROBES
    start = time.perf_counter()
    for turn in range(10**9):
        elapsed = time.perf_counter() - start
        if solver.failures or elapsed >= HARD_STOP_S or (
                turn >= len(instances) and elapsed >= seconds):
            break
        instance = instances[turn % len(instances)]
        done = solver.solve(workload.algorithm, instance)
        host.append(probe())
        if done is not None:
            scale = REFERENCE_S / ((host[-2] + host[-1]) / 2)
            wall[instance.key].append(done[2] * scale)
            cpu[instance.key].append(done[3] * scale)
            unscaled[instance.key].append(done[2])
        if len(setup_times) < most:
            setup_times.append(setup_probe(workload.name, seed))
    if not solver.failures and not all(wall.values()):
        solver.failures.append(f"no solve of every instance within {HARD_STOP_S} s")
    while len(setup_times) < least:
        setup_times.append(setup_probe(workload.name, seed))
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(f"# host probe median {statistics.median(host):.6g} s over {len(host)} probes, "
          f"reference {REFERENCE_S} s")
    metrics = {"peak_rss_mib": max(own, kids) / 1024}
    if not solver.failures:
        metrics["front_s"] = _sum_of_medians(wall)
        metrics["cpu_s"] = _sum_of_medians(cpu)
        print(f"# unscaled front_s {_sum_of_medians(unscaled):.6g} s")
    metrics["setup_s"] = statistics.median(setup_times) * REFERENCE_S / statistics.median(host)
    return metrics


def _median_time(fn) -> float:
    times = []
    for _ in range(5):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_traced(workload, instances, solver: Solver, seconds: float):
    """Per-layer metrics, per pass over the instance set."""
    from biopt import format_result, parse_instance, sequential_boip
    from tracing import ATTRS, LEX, LP, NAME, Tracer, layer_metrics

    sequential = workload.algorithm is sequential_boip
    plain: dict[str, list[float]] = {inst.key: [] for inst in instances}
    seq: dict[str, list[float]] = {inst.key: [] for inst in instances}
    traced: dict[str, list[float]] = {inst.key: [] for inst in instances}
    algo = {"ip_solves": 0, "wasted_solves": 0, "worker_idle_s": 0.0, "parent_s": 0.0}
    fronts = {}  # the latest traced front of each instance, for format_s
    passes = 0
    spill = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    tracer = Tracer(spill)
    start = time.perf_counter()
    try:
        while not solver.failures and (passes == 0 or time.perf_counter() - start < seconds):
            passes += 1
            for instance in instances:
                if solver.failures or time.perf_counter() - start >= HARD_STOP_S:
                    break
                untraced = solver.solve(workload.algorithm, instance)
                if untraced is None:
                    break
                plain[instance.key].append(untraced[2])
                if not sequential:
                    done = solver.solve(sequential_boip, instance)
                    if done is None:
                        break
                    seq[instance.key].append(done[2])
                tracer.run = f"{instance.key}#{passes}"
                with tracer.install():
                    done = solver.solve(workload.algorithm, instance,
                                        tracer.span(f"algorithms.{workload.name}"))
                tracer.collect()
                if done is None:
                    break
                # the solver checked both fronts' outcomes against the
                # reference; a sequential run must also pick the same points
                front, stats, wall, _ = done
                if sequential and front.solutions != untraced[0].solutions:
                    solver.failures.append(f"{instance.key}: traced front differs")
                traced[instance.key].append(wall)
                fronts[instance.key] = (instance.problem, front)
                algo["ip_solves"] += stats.ip_solves
                algo["wasted_solves"] += stats.feasible_solves - stats.pareto_size
                algo["worker_idle_s"] += sum(wall - w for w in stats.worker_elapsed)
                algo["parent_s"] += wall - max(stats.worker_elapsed, default=0.0)
    finally:
        shutil.rmtree(spill, ignore_errors=True)
    if not solver.failures and not all(traced.values()):
        solver.failures.append(f"no traced solve of every instance within {HARD_STOP_S} s")

    spans = tracer.spans
    lex_calls = sum(1 for s in spans if s[NAME] == LEX)
    lp_calls = sum(1 for s in spans if s[NAME] == LP)
    lex_lps = sum(s[ATTRS][2] for s in spans if s[NAME] == LEX)
    if lex_calls != algo["ip_solves"]:
        solver.failures.append(f"lex spans {lex_calls} != RunStats ip_solves {algo['ip_solves']}")
    if lp_calls != lex_lps:
        solver.failures.append(f"LP spans {lp_calls} != sum of lp_count {lex_lps}")
    if solver.failures:
        return {}

    metrics = {f"algorithms.{k}": v / passes for k, v in algo.items()}
    metrics["algorithms.vs_seq"] = (
        1.0 if sequential else _sum_of_medians(plain) / _sum_of_medians(seq)
    )
    metrics.update(layer_metrics(spans, passes, os.getpid()))
    metrics["trace.overhead"] = _sum_of_medians(traced) / _sum_of_medians(plain)
    metrics["instances.parse_s"] = _median_time(
        lambda: [parse_instance(inst.boip) for inst in instances])
    metrics["instances.format_s"] = _median_time(
        lambda: [format_result(problem, front) for problem, front in fronts.values()])
    return metrics


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def run_facts() -> dict:
    """Host and source facts printed with every report."""
    src = ROOT / "src"
    lines = sum(len(p.read_text().splitlines()) for p in src.rglob("*.py"))
    commit = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": commit,
        "src_lines": lines,
    }


def metric_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload, instances, references = setup(args.workload, args.seed)
    if args.setup_probe:
        print(time.perf_counter())
        return 0

    solver = Solver(references)
    if args.trace:
        measured = run_traced(workload, instances, solver, args.seconds)
    else:
        measured = run_untraced(workload, instances, solver, args.seconds, args.seed)
    units = metric_units()
    metrics = {name: {"value": value, "unit": units[name]} for name, value in measured.items()}

    failed = len(solver.failures)
    print(f"# workload {workload.name}, seed {args.seed}: "
          + ", ".join(inst.key for inst in instances))
    print("# facts " + json.dumps(run_facts(), sort_keys=True))
    for reason in solver.failures:
        print(f"# FAILED {reason}")
    # fail_ratio is 0 on a correct program, so it is not a BENCHMARK.json
    # metric; the JSON carries it as failed / attempted
    print(f"# fail_ratio {failed / max(solver.attempted, 1):.6g} ratio "
          f"({failed} of {solver.attempted} solves)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": max(solver.attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
