"""The benchmark's own tests, at toy input sizes.

Run from the root of a checkout::

    python3 -m pytest scjbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from scjbench import workloads
from scjbench.hostspeed import reference_seconds, relative
from scjbench.workloads import TOY, WORKLOADS, Reference, run_workload

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def run_cli(*args: str, cwd: Path = ROOT, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "scjbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_lists_the_workloads_this_runner_has():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_is_correct_and_reports_every_end_to_end_metric(workload):
    result = result_of(run_cli("--workload", workload, "--seed", "3", "--seconds", "1", "--size", "toy"))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == END_TO_END
    assert all(m["value"] > 0 for m in metrics.values()), metrics
    assert metrics["ok_frac"]["value"] == 1.0


#: Per-layer metrics that must be zero on a workload (the layer is bypassed)
#: and ones that must be positive (the layer does the work).
BYPASSED = {
    "join-highcard": ["index.refine_calls", "kernels.intersect_sorted_calls", "exec.chunks",
                      "relations.fingerprint_s", "serve.encode_s", "core.intersections"],
    "join-lowcard": ["tries.subset_leaves_calls", "core.verifications", "exec.chunks",
                     "relations.fingerprint_s", "kernels.pack_signatures_s"],
    "join-parallel": ["index.refine_calls", "relations.fingerprint_s", "serve.decode_s",
                      "exec.retries", "exec.fallback_chunks"],
    "serve-mixed": ["exec.chunks", "exec.worker_probe_s", "serve.rejected"],
}
EXERCISED = {
    "join-highcard": ["tries.subset_leaves_calls", "tries.subset_leaves_s", "core.verifications", "planner.plan_s"],
    "join-lowcard": ["index.refine_calls", "kernels.intersect_sorted_calls", "index.invert_s", "core.intersections"],
    "join-parallel": ["exec.chunks", "exec.worker_probe_s", "exec.supervise_s", "tries.subset_leaves_calls"],
    "serve-mixed": ["relations.fingerprint_s", "serve.encode_s", "serve.decode_s", "serve.server_s.p50",
                    "serve.cache_hit_ratio", "tries.subset_leaves_calls", "index.refine_calls"],
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    result = result_of(
        run_cli("--workload", workload, "--seed", "3", "--seconds", "1", "--size", "toy", "--trace", "1")
    )
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == PER_LAYER
    for name in BYPASSED[workload]:
        assert metrics[name]["value"] == 0, name
    for name in EXERCISED[workload]:
        assert metrics[name]["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_add_up_to_operation_time(workload, tmp_path):
    out = run_workload(workload, 5, 0.5, TOY, tmp_path, ROOT)
    rec = out.recorder
    assert rec.op_seconds
    for op, seconds in rec.op_seconds.items():
        self_total = sum(v for (span_op, _), v in rec.self_time.items() if span_op == op)
        unattributed = rec.self_time[(op, "op")]
        assert 0 <= unattributed <= seconds
        assert self_total == pytest.approx(seconds, rel=1e-9, abs=1e-9)
    # Children lie inside their parent and never overlap one another, so
    # subtracting covered time is subtracting the children's durations.
    spans = [json.loads(line) for line in (tmp_path / out.meta["spans_file"]).read_text().splitlines()]
    by_id = {s["id"]: s for s in spans if "id" in s}
    children: dict[int, list[dict]] = {}
    for span in by_id.values():
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    for parent_id, kids in children.items():
        parent = by_id[parent_id]
        kids.sort(key=lambda s: s["start"])
        assert all(parent["start"] <= k["start"] and k["end"] <= parent["end"] for k in kids)
        assert all(a["end"] <= b["start"] for a, b in zip(kids, kids[1:]))


def test_relative_time_is_in_reference_blocks_around_the_operation():
    assert relative(3.0, 0.01, 0.02) == pytest.approx(200.0)
    assert reference_seconds() > 0


def test_surrogates_match_the_program_generator_and_survive_its_failing_seeds():
    from repro.datagen.realworld import make_surrogate

    def records(rel):
        return [(rec.rid, rec.elements) for rec in rel]

    assert records(workloads.surrogate_relation("twitter", 300, 7)) == records(make_surrogate("twitter", 300, seed=7))
    assert records(workloads.surrogate_relation("flickr", 300, 7)) == records(make_surrogate("flickr", 300, seed=7))
    rel = workloads.surrogate_relation("twitter", 1500, 42032)  # make_surrogate raises on this seed
    assert len(rel) == 1500 and all(rec.elements for rec in rel)


def test_reference_detects_corrupted_pair_lists():
    r = repro.Relation.from_sets([{1, 2, 3}, {2, 4}, {1, 3}])
    s = repro.Relation.from_sets([{2}, {1, 3}, {4}])
    pairs = repro.set_containment_join(r, s, algorithm="nested-loop").pairs
    ref = Reference(r, s, pairs, seed=0)
    assert ref.matches(list(reversed(pairs)))
    assert ref.matches([list(p) for p in pairs])  # wire format
    assert not ref.matches(pairs[:-1])
    assert not ref.matches(pairs[:-1] + [pairs[0]])  # one lost, one duplicated
    assert not ref.matches(pairs[:-1] + [(pairs[-1][0], pairs[-1][1] + 1)])
    with pytest.raises(workloads.BenchError):
        Reference(r, s, pairs[:-1], seed=0)


def test_corrupted_join_output_counts_as_failed(monkeypatch):
    execute = repro.execute_plan

    def drop_one_pair(query_plan, r, s):
        result = execute(query_plan, r, s)
        return repro.JoinResult(result.pairs[:-1], result.stats)

    monkeypatch.setattr(repro, "execute_plan", drop_one_pair)
    out = run_workload("join-highcard", 2, 0.2, TOY, None, ROOT)
    assert out.attempted >= 1 and out.failed == out.attempted
    assert out.meta["warmup_mismatch"] is True


def test_refuses_an_environment_that_changes_the_program():
    env = dict(os.environ, REPRO_KERNEL="python")
    proc = run_cli("--workload", "join-lowcard", "--seed", "1", "--seconds", "1", "--size", "toy", env=env)
    assert proc.returncode == 2
    assert "REPRO_KERNEL" in proc.stderr
    assert proc.stdout == ""


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "scjbench", tmp_path / "scjbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = run_cli("--workload", "join-lowcard", "--seed", "1", "--seconds", "1", cwd=tmp_path, env=env)
    assert proc.returncode != 0
    assert proc.stdout == ""
