"""Self-check of the benchmark itself, at 1/50 scale.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (it sits
outside tier-1's ``testpaths``).  It proves the harness, not the package:
every metric BENCHMARK.json names comes out finite, a wrong value is
caught, and the exact counters of the single-client workloads repeat.
"""

from __future__ import annotations

import math

import pytest

from .harness import load_spec, run_workload
from .workloads import WORKLOADS, ZipfOutOfCache

SCALE = 0.02
SECONDS = 0.05
SINGLE_CLIENT = ("dict_paper", "zipf_outofcache", "txn_wal_fsync")
#: counted by the program, so exact for one client whatever the clock does
EXACT = (
    "storage.page_reads", "storage.page_writes", "storage.syscalls",
    "core.buffer.evictions", "core.buffer.writebacks", "core.buffer.hit_ratio",
    "core.table.splits", "core.table.overflow_pages",
    "core.wal.commits", "core.wal.checkpoints", "core.wal.checkpoint_pages",
    "core.wal.fsyncs_per_commit", "core.wal.bytes_per_user_byte",
)

SPEC = load_spec()


def _run(tmp_path, name: str, seed: int, trace: bool, tag: str = "") -> dict:
    return run_workload(name, seed, SECONDS, SCALE, trace, str(tmp_path / f"w{tag}"))


def test_spec_names_the_workloads_that_exist():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_declared_metric_is_reported(tmp_path, name):
    for trace, declared in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
        result = _run(tmp_path, name, 11, trace, tag=str(int(trace)))
        assert result["failed"] == 0 and result["attempted"] > 0
        for metric in declared:
            value = result["metrics"][metric["name"]]
            assert math.isfinite(value), metric["name"]
            if not trace:
                assert value > 0, metric["name"]
    assert result["metrics"]["core.wal.lost_acked_writes"] == 0
    assert result["metrics"]["bench.failed_frac"] == 0


def test_a_wrong_expected_value_is_caught(tmp_path, monkeypatch):
    """Corrupt what the benchmark believes it wrote: a read of any record
    it has not rewritten since must then count as a failure."""
    setup = ZipfOutOfCache.setup

    def lying_setup(self):
        setup(self)
        self.rec.version = [v + 1 for v in self.rec.version]

    monkeypatch.setattr(ZipfOutOfCache, "setup", lying_setup)
    result = _run(tmp_path, "zipf_outofcache", 11, trace=False)
    assert result["failed"] > 0


@pytest.mark.parametrize("name", SINGLE_CLIENT)
def test_exact_counters_repeat_per_seed(tmp_path, name):
    first = _run(tmp_path, name, 5, True, "a")["metrics"]
    again = _run(tmp_path, name, 5, True, "b")["metrics"]
    other = _run(tmp_path, name, 6, True, "c")["metrics"]
    assert [first[m] for m in EXACT] == [again[m] for m in EXACT]
    assert [first[m] for m in EXACT] != [other[m] for m in EXACT]
