"""The benchmark's own output checks, run as a test: one traced pipeline pass
per benchmark workload must finish with every check passed and every stage's
counters reported. A library change that breaks what ``bench/`` calls (a
function, a keyword, a field) fails here, not first in a benchmark run."""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_bench_run():
    # run.py puts bench/ on sys.path itself, so its own ``import gen`` works
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load_bench_run()


@pytest.mark.parametrize("workload", sorted(run.gen.WORKLOADS))
def test_traced_pipeline_pass_checks_pass(workload, tmp_path):
    inputs = run.gen.generate(workload, 5, tmp_path / "in")
    result = run.pipeline_pass(inputs, tmp_path, True, "test")
    assert result["failures"] == []
    counts = result["counts"]
    spec = inputs["graph_spec"]
    assert counts["walks"] == inputs["entity_count"] * spec["walks"]  # walk stage
    assert counts["vocab_size"] > 0 and counts["epochs"] == spec["epochs"]  # train stage
    assert counts["rows_dropped"] == 0  # eval stage: every gold entity has a vector
