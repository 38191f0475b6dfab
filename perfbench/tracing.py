"""Span tracing at the layer boundaries, from outside the library.

The tracer replaces four public callables while it is installed:

* ``biopt.ipsolve.solve_lex`` -- one span per lexicographic IP solve
  (``BranchAndBoundBackend`` looks the name up at call time);
* ``biopt.ipsolve.solve_lp`` -- one span per LP, the name the branch and
  bound calls;
* ``SharedBounds.read`` and ``SharedBounds.publish`` -- the bound exchange.

A span is ``[run, pid, id, parent, name, start, end, attrs]``.  Times come
from ``time.perf_counter``, which is CLOCK_MONOTONIC on Linux and so
comparable across processes.  Forked workers inherit the installed
wrappers and the open span stack, so their first span's parent is the main
process's algorithm span.  Workers leave through ``os._exit``, which skips
every exit hook, so each worker appends its spans to a per-process spill
file whenever its outermost span closes; the main process collects the
files after the algorithm returns.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from pathlib import Path
from typing import Iterable, Optional

import biopt.ipsolve
from biopt.algorithms import SharedBounds
from biopt.model import Relation

RUN, PID, SID, PARENT, NAME, START, END, ATTRS = range(8)

LEX, LP, READ, PUBLISH = ("ipsolve.solve_lex", "simplex.solve_lp",
                          "SharedBounds.read", "SharedBounds.publish")


def needs_phase1(rows, bounds) -> bool:
    """Does ``solve_lp`` need an artificial column for these rows and bounds?

    Mirrors its row normalisation: after shifting every variable to its
    lower bound, an equality row, or an inequality whose right-hand side
    has the wrong sign for a basic slack, starts with an artificial.
    """
    lows = [lo for lo, _ in bounds]
    for row in rows:
        if row.relation is Relation.EQ:
            return True
        b = row.rhs - sum(c * lo for c, lo in zip(row.coeffs, lows))
        if (b < 0) if row.relation is Relation.LE else (b > 0):
            return True
    return False


def _lex_attrs(args, result):
    return [result.is_optimal, result.node_count, result.lp_count]


def _lp_attrs(args, result):
    # rows and bounds are kept by reference and reduced in _finalize, so
    # the cost of deriving phase 1 falls outside every timed span
    _, rows, bounds = args
    return (result.is_optimal, rows, bounds)


def _bound_attrs(args, result):
    _, index, *value = args
    return [index, value[0] if value else result]


def _finalize(span: list) -> list:
    if isinstance(span[ATTRS], tuple):  # raw LP attributes
        optimal, rows, bounds = span[ATTRS]
        span[ATTRS] = [optimal, len(rows), needs_phase1(rows, bounds)]
    return span


class Tracer:
    """In-memory span recorder; ``install()`` wraps the traced callables."""

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = spill_dir
        self.spans: list[list] = []
        self.run: Optional[str] = None
        self._home = self._pid = os.getpid()
        self._stack: list[int] = []
        self._floor = 0  # stack depth inherited by a forked worker
        self._count = 0

    def _open(self) -> tuple[int, Optional[int]]:
        pid = os.getpid()
        if pid != self._pid:  # first span in a freshly forked worker
            self._pid, self._count, self.spans = pid, 0, []
            self._floor = len(self._stack)
        self._count += 1
        sid = (pid << 32) | self._count
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, span: list) -> None:
        self._stack.pop()
        self.spans.append(span)
        if self._pid != self._home and len(self._stack) == self._floor:
            with open(self.spill_dir / f"{self._pid}.jsonl", "a") as out:
                for s in self.spans:
                    out.write(json.dumps(_finalize(s)) + "\n")
            self.spans = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the main process, such as one algorithm call."""
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._close([self.run, self._pid, sid, parent, name, start, end, []])

    def _wrap(self, fn, name, attrs):
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._stack.pop()
                raise
            end = time.perf_counter()
            self._close([self.run, self._pid, sid, parent, name, start, end,
                         attrs(args, result)])
            return result
        return traced

    @contextlib.contextmanager
    def install(self):
        targets = [
            (biopt.ipsolve, "solve_lex", LEX, _lex_attrs),
            (biopt.ipsolve, "solve_lp", LP, _lp_attrs),
            (SharedBounds, "read", READ, _bound_attrs),
            (SharedBounds, "publish", PUBLISH, _bound_attrs),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
        try:
            for owner, attr, name, attrs in targets:
                setattr(owner, attr, self._wrap(getattr(owner, attr), name, attrs))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def collect(self) -> None:
        """Move spilled worker spans into ``spans``; finalize the main process's."""
        for path in sorted(self.spill_dir.glob("*.jsonl")):
            with open(path) as spill:
                self.spans.extend(json.loads(line) for line in spill)
            path.unlink()
        for span in self.spans:
            _finalize(span)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def self_times(spans: Iterable[list]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s[START]
        for lo, hi in sorted(children.get(s[SID], ())):
            lo, hi = max(lo, reach), min(hi, s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s[SID]] = (s[END] - s[START]) - covered
    return out


def stale_reads(spans: Iterable[list]) -> int:
    """Bound reads whose cap was already superseded while it was in use.

    A read is in use from its return until the end of the next IP solve in
    the same process, which is the solve it caps.  It counts as stale when
    a publish to the same cell of the same run, with a tighter value (any
    value, if the read found the cell unset), ended before that solve did:
    the solve then ran under a looser cap than the latest published one.
    """
    spans = sorted(spans, key=lambda s: s[START])
    publishes: dict[tuple, list[tuple[float, int]]] = {}
    for s in spans:
        if s[NAME] == PUBLISH:
            publishes.setdefault((s[RUN], s[ATTRS][0]), []).append((s[END], s[ATTRS][1]))
    stale = 0
    for i, s in enumerate(spans):
        if s[NAME] != READ:
            continue
        index, value = s[ATTRS]
        until = next(
            (t[END] for t in spans[i + 1:]
             if t[NAME] == LEX and t[PID] == s[PID] and t[START] >= s[END]),
            s[END],
        )
        if any(end <= until and (value is None or cap < value)
               for end, cap in publishes.get((s[RUN], index), ())):
            stale += 1
    return stale


def layer_metrics(spans: list[list], passes: int, home_pid: int) -> dict[str, float]:
    """Per-layer numbers from one workload's traced spans, per instance-set pass.

    ``home_pid`` is the main process's pid; spans from any other pid came back
    from forked workers.
    """
    lex = [s for s in spans if s[NAME] == LEX]
    lps = [s for s in spans if s[NAME] == LP]
    selfs = self_times(spans)
    lex_s = sum(s[END] - s[START] for s in lex)
    lp_s = sum(s[END] - s[START] for s in lps)
    nodes = sum(s[ATTRS][1] for s in lex)
    lp_count = sum(s[ATTRS][2] for s in lex)
    n_lex, n_lp = max(len(lex), 1), max(len(lps), 1)
    return {
        "algorithms.stale_reads": stale_reads(spans) / passes,
        "ipsolve.lex_calls": len(lex) / passes,
        "ipsolve.lex_s": lex_s / passes,
        "ipsolve.nodes": nodes / passes,
        "ipsolve.nodes_per_solve": nodes / n_lex,
        "ipsolve.lp_skip_ratio": 1 - lp_count / nodes if nodes else 0.0,
        "ipsolve.self_s": sum(selfs[s[SID]] for s in lex) / passes,
        "ipsolve.infeasible_s": sum(s[END] - s[START] for s in lex if not s[ATTRS][0]) / passes,
        "simplex.lp_calls": len(lps) / passes,
        "simplex.lp_s": lp_s / passes,
        "simplex.us_per_lp": 1e6 * lp_s / n_lp,
        "simplex.infeasible_share": sum(1 for s in lps if not s[ATTRS][0]) / n_lp,
        "simplex.rows_per_lp": sum(s[ATTRS][1] for s in lps) / n_lp,
        "simplex.phase1_share": sum(1 for s in lps if s[ATTRS][2]) / n_lp,
        "trace.worker_spans": sum(1 for s in spans if s[PID] != home_pid) / passes,
    }
