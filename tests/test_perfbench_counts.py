"""The benchmark's report readers stay in step with the report.

``perfbench/run.py:counts()`` reads ``pipeline_report()`` attributes by
name, and nothing else calls it short of a full benchmark run.  This
builds each perfbench workload at its ``"small"`` size, runs it, and
calls ``counts()`` on the outcome, so a renamed report attribute fails
here first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
run = _load("run")


@pytest.mark.parametrize("name", workloads.NAMES)
def test_counts_reads_the_report(name):
    inputs = workloads.make_inputs(name, 1, size="small")
    built = workloads.build(inputs)
    built.system.run(until=inputs.until)
    rep = workloads.outcome(built)
    assert all(rep["checks"].values()), rep["checks"]
    counts = run.counts(built, rep)
    assert counts["sim.events"] == rep["events"] > 0
    assert counts["metrics.ledger_residual"] == \
        rep["report"].conservation_residual
    for key, value in counts.items():
        assert isinstance(value, (int, float)), key
