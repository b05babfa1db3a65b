"""Tests of the benchmark itself: run with ``python3 -m pytest bench -q``.

The smoke runs use tiny job lists, so they check the plumbing of every
workload (job execution, correctness gate, tamper check, traced replay and
metric names), not its timings.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest

import jobs
import layers
import run
from spans import Recorder, Span, self_times

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_children_once():
    spans = [
        Span("job", 0.0, 10.0, None, 0),
        Span("a", 1.0, 6.0, 0, 0),
        Span("b", 2.0, 3.0, 1, 0),
        Span("c", 2.5, 4.0, 1, 0),  # overlaps b: the union 2.0-4.0 counts once
        Span("d", 7.0, 9.0, 0, 0),
        Span("e", 8.5, 9.5, 4, 0),  # ends after its parent: clipped at 9.0
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 1.0, 1.5, 1.5, 1.0])


def test_layer_metrics_split_delta_from_dm_and_sum_verify():
    rec = Recorder()
    rec.spans = [
        Span("job", 0.0, 10.0, None, 0),
        Span("arrays.construct_ndm_kron", 1.0, 9.0, 0, 0),
        Span("verify.check_difference_matrix", 2.0, 3.0, 1, 0),  # from a constructor
        Span("verify.check_nested_dm", 4.0, 8.0, 1, 0),
        Span("verify.check_difference_matrix", 5.0, 7.0, 3, 0),  # inside the DM oracle
    ]
    rec.counts.update({"verify.dm_calls": 2})
    m = layers.layer_metrics(rec)
    assert m["verify.delta_s"] == pytest.approx(1.0)
    assert m["verify.dm_s"] == pytest.approx(2.0 + 2.0)
    assert m["arrays.self_s"] == pytest.approx(3.0)
    assert m["trace.unattributed_s"] == pytest.approx(2.0)
    assert m["verify.self_s"] == pytest.approx(5.0)
    assert m["verify.dm_calls"] == 2 and m["verify.oa_calls"] == 0


def test_recorder_reports_missing_names_and_restores_originals():
    module = SimpleNamespace(__name__="fakepkg.mod")
    sys.modules["fakepkg.mod"] = module  # type: ignore[assignment]
    try:
        def double(x):
            return 2 * x

        module.double = double
        rec = Recorder()
        rec.install("fakepkg", "mod.double", lambda fn: rec.span_wrapper(fn, "mod.double"))
        rec.install("fakepkg", "mod.gone", lambda fn: fn)
        rec.install("fakepkg", "nomodule.f", lambda fn: fn)
        assert module.double(4) == 8
        assert [s.name for s in rec.spans] == ["mod.double"]
        assert rec.missing == ["mod.gone", "nomodule.f"]
        rec.uninstall()
        assert module.double is double
    finally:
        del sys.modules["fakepkg.mod"]


def test_end_to_end_counts_a_partial_pass_and_divides_by_the_reference():
    def job(command, seconds):
        return run.JobResult(command, [], seconds, seconds, 2048, 0, start=100.0)

    passes = [
        run.Pass([job("construct", 2.0), job("verify", 1.0), job("verify", 0.5)], {}, {}, None, True),
        run.Pass([job("construct", 4.0), job("verify", 3.0), job("verify", 0.5)], {}, {}, None, True),
        run.Pass([job("construct", 3.0)], {}, {}, None, False),  # the window ended here
    ]
    stick = run.Yardstick()
    stick.samples, stick.stamps = [0.5, 0.5], [99.0, 110.0]
    e2e = run.end_to_end(passes, [0.1, 0.3, 0.2], stick)
    # per-job medians: construct over 3 passes, each verify over the 2 that ran it
    assert e2e["pass_s"] == pytest.approx(3.0 + 2.0 + 0.5)
    assert e2e["verify_s"] == pytest.approx(2.5) and e2e["construct_s"] == pytest.approx(3.0)
    assert e2e["pass_norm"] == pytest.approx(11.0) and e2e["verify_norm"] == pytest.approx(5.0)
    assert e2e["setup_s"] == pytest.approx(0.2) and e2e["lift_s"] is None
    assert e2e["peak_rss_mb"] == pytest.approx(2.0)


def test_yardstick_keeps_its_share_of_the_job_time(monkeypatch):
    monkeypatch.setattr(run, "reference_loop", lambda: 1 / 32)
    monkeypatch.setattr(run, "REF_SHARE", 0.1)
    stick = run.Yardstick()
    stick.keep_up(1.0)  # 3/32 < 0.1 <= 4/32
    assert len(stick.samples) == 4
    stick.keep_up(0.25)  # 0.125 covers 0.1 * 1.25: no new sample
    assert len(stick.samples) == 4
    stick.keep_up(0.01)
    assert len(stick.samples) == 5 and stick.mean == 1 / 32


def test_yardstick_scales_a_job_by_the_samples_near_it():
    stick = run.Yardstick()
    # (duration, end stamp): two fast samples early on, two slow ones later
    stick.samples, stick.stamps = [0.1, 0.1, 0.3, 0.3], [1.0, 2.0, 20.0, 21.0]
    assert stick.near(2.5, 4.0) == pytest.approx(0.1)
    assert stick.near(23.0, 23.5) == pytest.approx(0.3)
    assert stick.near(3.0, 18.0) == pytest.approx(0.2)  # all four are within reach
    assert stick.near(10.0, 11.0) == pytest.approx(0.2)  # none near: the mean of all


def _strength2(rows, s):
    want = len(rows) // s**2
    cols = list(zip(*rows))
    return all(
        set(Counter(zip(cols[a], cols[b])).values()) == {want} and len(set(zip(cols[a], cols[b]))) == s * s
        for a, b in combinations(range(len(cols)), 2)
    )


def test_generated_inputs_have_their_claimed_structure():
    assert _strength2(jobs.zn_oa(5), 5) and _strength2(jobs.zn_oa(3), 3)
    assert _strength2(jobs.gf8_oa(), 8)
    dm = jobs.zn_dm(7)
    for a, b in combinations(range(7), 2):
        assert sorted((r[a] - r[b]) % 7 for r in dm) == list(range(7))
    sizes = [5, 25, 125]
    perm = jobs.nested_permutation(sizes, random.Random(3))
    assert sorted(perm) == list(range(125))
    for s in sizes:
        assert len({v // (125 // s) for v in perm[:s]}) == s


def _smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric(workload):
    result, err = _smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, err
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())

    traced, err = _smoke(workload, 1)
    assert traced["correct"] is True and traced["failed"] == 0, err
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    again, _ = _smoke(workload, 1)
    counts = [k for k, v in traced["metrics"].items() if v["unit"] == "count"]
    assert {k: traced["metrics"][k]["value"] for k in counts} == \
        {k: again["metrics"][k]["value"] for k in counts}


def test_bare_directory_fails_without_a_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dm-kron", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == ""
