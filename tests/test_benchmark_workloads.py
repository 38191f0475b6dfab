"""The benchmark's algorithm calls, run against the oracle.

``perfbench/workloads.py`` calls the algorithms with keywords that no
other caller passes, such as ``t=2, executor="process"``.  Running each of
its workloads here keeps those call forms working.
"""

import sys
from pathlib import Path

import pytest

from biopt.oracle import brute_force_pareto

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_algorithm_matches_the_oracle(name, cover):
    front, stats = WORKLOADS[name].algorithm(cover)
    assert front.outcomes() == brute_force_pareto(cover).outcomes()
    assert stats.pareto_size == len(front)
