"""Tests of the benchmark itself: inputs, counters and outputs, never timings."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run._load_program()

from spans import Recorder  # noqa: E402
from workloads import WORKLOADS, Corpus, Guard, OpRecord, Scale  # noqa: E402


class SmallScale(Scale):
    """The scale pipeline on an instance small enough for a unit test."""

    n_users, n_perms, n_roles = 300, 100, 20


class SmallCorpus(Corpus):
    size = 6


def _setup(cls, seed, tmp_path: Path, copy: int = 0):
    workdir = tmp_path / f"{cls.__name__}-{seed}-{copy}"
    workdir.mkdir()
    workload = cls(seed, workdir)
    text, _ = workload.setup(Recorder(tracing=False))
    return workload, text


@pytest.mark.parametrize("cls", [Guard, SmallScale, SmallCorpus])
def test_same_seed_gives_same_input_bytes(cls, tmp_path):
    _, first = _setup(cls, 99, tmp_path)
    _, again = _setup(cls, 99, tmp_path, copy=1)
    _, other = _setup(cls, 100, tmp_path)
    assert first == again
    assert first != other


def _op(workload, index, traced):
    out = OpRecord()
    workload.op(index, Recorder(tracing=traced), out, traced)
    return out.counts


def _same_outputs(plain, traced):
    assert {k: v for k, v in traced.items() if k in plain} == plain


def test_guard_counters_reconcile_at_seed_99(tmp_path):
    guard, _ = _setup(Guard, 99, tmp_path)
    traced = _op(guard, 0, traced=True)
    assert traced["constrained.candidates"] == 1626
    assert traced["constrained.oversized"] == 37
    assert (traced["constrained.split_roles"]
            - traced["lattice.removed_constrained"]
            == traced["constrained_r_count"] == 122)
    assert traced["crm.iterations"] == 643
    assert traced["lattice.removed_crm"] == 452
    assert traced["crm.iterations"] - traced["lattice.removed_crm"] == 191
    assert traced["crm_r_count"] == 191
    # mine(lattice=False) then lattice_reduce is exactly lattice=True
    _same_outputs(_op(guard, 0, traced=False), traced)


def test_scale_pipeline_round_trips(tmp_path):
    scale, _ = _setup(SmallScale, 7, tmp_path)
    scale.prepare()
    plain = _op(scale, 0, traced=False)
    traced = _op(scale, 0, traced=True)
    _same_outputs(plain, traced)
    assert (traced["constrained.split_roles"] - traced["lattice.removed_constrained"]
            == plain["constrained_r_count"])
    assert traced["datasets.input_bytes"] == len(scale.input_path.read_bytes())


def test_corpus_counters_reconcile(tmp_path):
    # A traced operation raises CheckFailed when a counter identity fails.
    corpus, _ = _setup(SmallCorpus, 5, tmp_path)
    for index in range(corpus.size):
        _same_outputs(_op(corpus, index, traced=False),
                      _op(corpus, index, traced=True))


def test_tail_needs_ten_samples_beyond():
    assert run._tail([0.1] * 10) is None
    tail = run._tail([float(i) for i in range(1, 21)])
    assert (tail["percentile"], tail["value"], tail["beyond"]) == (50, 10.0, 10)
    tail = run._tail([float(i) for i in range(1, 1001)])
    assert (tail["percentile"], tail["value"], tail["beyond"]) == (99, 990.0, 10)


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "guard-2000x500",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
