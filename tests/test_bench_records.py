"""Every committed ``BENCH_*.json`` record carries the fields a
performance claim is read against: the host's core count, the ``src/``
line counts before and after the change, and the parent commit measured."""

import json
import re
from pathlib import Path

import pytest

RECORDS = sorted(Path(__file__).resolve().parents[1].glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_fields(path):
    record = json.loads(path.read_text())
    cores = record["host"]["cores"]
    assert isinstance(cores, int) and cores >= 1
    lines = record["src_lines"]
    for side in ("parent", "change"):
        assert isinstance(lines[side], int) and lines[side] > 0, side
    assert re.fullmatch(r"[0-9a-f]{40}", record["parent_commit"])
