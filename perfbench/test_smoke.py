"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is printed with its unit
in both modes, that the output checks count a wrong witness and a tampered
certificate as failures, and that the benchmark refuses to run without the
package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from multiorder import genericity  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_printed_with_unit(name, trace, section, tmp_path):
    spans = tmp_path / "spans.jsonl"
    proc = bench(
        "--workload", name, "--seed", "3", "--seconds", "0.3", "--trace", trace, "--tiny",
        "--spans", str(spans),
    )
    metrics = result_of(proc)["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in metrics.values())
    if trace == "1":
        logged = [json.loads(line) for line in spans.read_text().splitlines()]
        assert logged and set(logged[0]) == {"name", "start", "end", "parent", "op"}
        assert all(s["start"] <= s["end"] for s in logged)


def test_compare_flags_a_regression(tmp_path):
    base, head = tmp_path / "base.json", tmp_path / "head.json"
    for path in (base, head):
        bench("--workload", "construct", "--seed", "1", "--seconds", "0.3", "--tiny",
              "--out", str(path))
    same = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), "--base", str(base), "--head", str(base)],
        capture_output=True, text=True, timeout=60, check=False,
    )
    assert same.returncode == 0 and "construct" in same.stdout
    record = json.loads(head.read_text())
    record["metrics"]["ops_per_s"]["value"] /= 2
    head.write_text(json.dumps(record))
    worse = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), "--base", str(base), "--head", str(head)],
        capture_output=True, text=True, timeout=60, check=False,
    )
    assert worse.returncode == 1 and "worse" in worse.stdout


def test_full_record_carries_provenance():
    proc = bench("--workload", "construct", "--seed", "5", "--seconds", "0.2", "--tiny")
    record = json.loads(proc.stdout.strip().splitlines()[-2])
    prov = record["provenance"]
    for key in ("cpu_count", "cpu_model", "python", "numpy", "git_sha", "source_sha256"):
        assert key in prov
    assert prov["seed"] == 5
    assert all(m["samples"] >= 1 for m in record["metrics"].values())


def test_same_seed_same_inputs(tmp_path):
    a = workloads.setup_witness_narrow(7, True, str(tmp_path))
    b = workloads.setup_witness_narrow(7, True, str(tmp_path))
    c = workloads.setup_witness_narrow(8, True, str(tmp_path))
    outputs = [[op.run().point for op in rnd] for rnd in a]
    assert outputs == [[op.run().point for op in rnd] for rnd in b]
    assert outputs != [[op.run().point for op in rnd] for rnd in c]


def test_wrong_witness_counts_as_failure(tmp_path):
    op = workloads.setup_witness_narrow(1, True, str(tmp_path))[0][0]
    good = op.run()
    wrong = genericity.WitnessResult(
        tuple(x + 1000 for x in good.point), good.probes, good.backend
    )
    records = [(op, 0.0, good, None), (op, 0.0, wrong, None), (op, 0.0, None, RuntimeError())]
    assert run.check_records(records) == [True, False, False]


def test_tampered_certificate_counts_as_failure(tmp_path):
    rounds = workloads.setup_refute_verify(1, True, str(tmp_path))
    ops = {op.kind.split("/")[0]: op for op in rounds[0]}
    assert set(ops) == set(workloads.GENERATORS)
    for op in ops.values():
        refuted, verified = op.run()
        assert op.check((refuted, verified))
        cert = refuted[1]["certificate"]
        assert workloads.tamper_rejected(op.path, cert)
        bad_path = str(tmp_path / "bad.json")
        Path(bad_path).write_text(json.dumps(workloads.tampered(cert)))
        rejected = workloads._cli(["verify-cert", "--orders", op.path, "--cert", bad_path])
        assert not op.check((refuted, rejected))
    extra = workloads.refute_verify_extra_checks([(op, op.run()) for op in ops.values()])
    assert extra == [True] * len(ops)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "construct", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_predictions_name_known_metrics():
    predictions = json.loads((HERE / "predictions.json").read_text())
    names = {m["name"] for m in SPEC["end_to_end"]}
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    for layer in predictions["layers"].values():
        assert set(layer["metrics"]) <= layer_names
        for move in layer["moves"] + [
            m for item in predictions["roadmap_items"].values() for m in item["moves"]
        ]:
            assert move["workload"] in workloads.WORKLOADS
            assert move["metric"] in names
