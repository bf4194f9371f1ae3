"""Self-checks of the benchmark:  python3 -m pytest -q perfbench

- Determinism: two traced passes of each workload under two different
  hash seeds give the same stdout bytes for every job and the same value
  for every count-type per-layer metric.  Counts are the gate; times are
  the report.
- The hand-written closed forms agree with the benchmark's own enumerator.
- ``BENCHMARK.json`` names exactly the metrics a run reports.
- Outside a weavent checkout the benchmark fails without a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import families as fam
import run
import tracer
import workloads


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_stdout_and_counts_repeat_across_hash_seeds(workload):
    first = run.run_pass(workload, seed=1, trace=True, hash_seed="1")
    second = run.run_pass(workload, seed=1, trace=True, hash_seed="2")
    assert first["hash_seed"] == "1" and second["hash_seed"] == "2"
    for a, b in zip(first["rows"], second["rows"]):
        assert a["problem"] is None and b["problem"] is None, (a, b)
        assert a["stdout_sha256"] == b["stdout_sha256"], a["job"]
    counts = [name for name in first["per_layer"] if name.endswith(tracer.COUNT_SUFFIXES)]
    assert counts
    assert {n: first["per_layer"][n] for n in counts} == \
        {n: second["per_layer"][n] for n in counts}


@pytest.mark.parametrize("family,sizes", [("B", range(1, 7)), ("X", range(1, 5)),
                                          ("L", range(1, 4)), ("C", range(1, 9))])
def test_closed_forms_match_the_enumerator(family, sizes):
    for n in sizes:
        es = fam.FAMILIES[family](n)
        confs = fam.configurations(es)
        a = fam.answers(family, n)
        assert len(confs) == a["elements"]
        assert len(fam.domain_json(confs)["covers"]) == a["covers"]
        assert len(es["events"]) == a["events"]
        assert len(es["conflict"]) == a["conflicts"]
        assert 2 * a["events"] + fam.choice_tuples(es, confs) + a["conflicts"] \
            == a["synth_nodes"]


def test_inputs_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS:
        one, _ = workloads.build(workload, 5)
        two, _ = workloads.build(workload, 5)
        other, _ = workloads.build(workload, 6)
        assert one.files == two.files
        if any(name.startswith("R") for name in one.files):
            assert one.files != other.files


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_fails_without_a_checkout(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "es-session",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
