"""Smoke runs of every workload at tiny sizes, and checks on metric names."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(set(names)) == len(names)


def test_declared_workloads_are_the_implemented_ones():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "OUT", tmp_path)
    record = workloads.run_workload(workload, seed=5, seconds=0, trace=trace,
                                    tiny=True)
    declared = {m["name"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert set(record["metrics"]) == declared
    assert all(np.isfinite(v) for v in record["metrics"].values())
    assert record["attempted"] > 0
    assert record["failures"] == []


def test_traced_run_restores_the_package():
    from dgpuq import deepgp, gplvm, kernels
    originals = (deepgp.elbo, deepgp.gram, gplvm.ascend, kernels.chol_psd)
    tracer = workloads.tracing.Tracer().install()
    assert deepgp.gram is not originals[1]
    tracer.uninstall()
    assert (deepgp.elbo, deepgp.gram, gplvm.ascend, kernels.chol_psd) == originals


def test_self_time_excludes_children():
    tracer = workloads.tracing.Tracer()
    with tracer.stage("root"):
        with tracer.stage("child"):
            pass
    root, child = tracer.spans
    self_s = tracer.self_times()
    assert child.parent == root.id and child.root == root.id
    assert self_s[0] == pytest.approx(root.duration - child.duration)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-64", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
