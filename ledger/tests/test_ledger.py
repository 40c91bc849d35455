"""Self-tests of the ledger benchmark.

Run from the checkout root: ``python3 -m pytest ledger/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from repro import Database  # noqa: E402
from repro.query.query import OrderItem  # noqa: E402
from repro.query.result import QueryResult  # noqa: E402
from repro.workloads import CH_QUERIES, ChBenchmark  # noqa: E402

from ledger import gate, tracing  # noqa: E402
from ledger.runner import END_TO_END  # noqa: E402
from ledger.stats import self_times, tail_percentile  # noqa: E402
from ledger.workloads import WORKLOADS, ch_config  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "ledger/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_emits_every_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = END_TO_END if trace == "0" else tracing.LAYER_METRICS
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name][0]
    if trace == "0":
        assert "failed_frac" in done.stdout and " 0 ratio" in done.stdout


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "ledger/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (unit, _better) in END_TO_END.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        tracing.LAYER_METRICS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_engine_sources(tmp_path):
    shutil.copytree(ROOT / "ledger", tmp_path / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run("--workload", "ch_read_hot", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# ----------------------------------------------------------------------
# correctness gate
# ----------------------------------------------------------------------
def _result(rows):
    return QueryResult(["k", "n", "revenue"], rows)


def test_gate_accepts_equal_answers_and_float_noise():
    expected = _result([("a", 2, 10.0), ("b", 1, 3.0)])
    actual = _result([("b", 1, 3.0), ("a", 2, 10.0 * (1 + 1e-12))])
    assert gate.compare(expected, actual, 1) == []


@pytest.mark.parametrize("rows, fragment", [
    ([("a", 2, 10.0001), ("b", 1, 3.0)], "rel tol"),
    ([("a", 2.0, 10.0), ("b", 1, 3.0)], "type float"),
    ([("a", 3, 10.0), ("b", 1, 3.0)], "3 != 2"),
    ([("a", 2, 10.0)], "1 rows != 2"),
    ([("a", 2, 10.0), ("c", 1, 3.0)], "unexpected group"),
])
def test_gate_flags_perturbed_answers(rows, fragment):
    expected = _result([("a", 2, 10.0), ("b", 1, 3.0)])
    problems = gate.compare(expected, _result(rows), 1)
    assert any(fragment in problem for problem in problems), problems


def test_gate_flags_order_by_violation():
    expected = _result([("a", 2, 10.0), ("b", 1, 3.0)])
    order = [OrderItem("revenue", descending=True)]
    assert gate.compare(expected, _result([("a", 2, 10.0), ("b", 1, 3.0)]), 1, order) == []
    problems = gate.compare(expected, _result([("b", 1, 3.0), ("a", 2, 10.0)]), 1, order)
    assert any("ORDER BY" in problem for problem in problems)


def test_gate_flags_a_perturbed_engine_answer():
    db = Database()
    ChBenchmark(db, ch_config(seed=5, tiny=True)).load()
    sql = CH_QUERIES["Q10"]
    (bound,) = gate.bind_statements(db, [sql])
    snapshot = db.transactions.global_snapshot()
    answer = db.query(sql)
    assert gate.check(db, bound, snapshot, answer) == []
    rows = list(answer.rows)
    rows[0] = rows[0][:-1] + (rows[0][-1] + 0.01,)
    assert gate.check(db, bound, snapshot, QueryResult(answer.columns, rows))


# ----------------------------------------------------------------------
# helpers and determinism
# ----------------------------------------------------------------------
def test_tail_percentile_known_values():
    values = list(range(1, 201))  # 200 samples: p95 has exactly 10 beyond
    assert tail_percentile(values) == (95.0, 190)
    pct, value = tail_percentile(list(range(1, 101)))
    assert (pct, value) == (90.0, 90)  # 100 samples: p90 is the highest supported
    assert tail_percentile([4.0, 1.0, 3.0]) == (50.0, 3.0)
    assert tail_percentile([]) == (0.0, 0.0)


def test_self_time_subtracts_children():
    spans = [
        ["op", 0.0, 10.0, None, 0],
        ["child", 1.0, 4.0, 0, 0],
        ["grandchild", 2.0, 3.0, 1, 0],
        ["child", 5.0, 6.0, 0, 0],
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_operations(name):
    cls = WORKLOADS[name]
    first = cls(seed=7, seconds=2).operations()
    assert first == cls(seed=7, seconds=2).operations()
    assert first != cls(seed=8, seconds=2).operations() or name == "ch_read_hot"
    assert {op[0] for op in first} <= {"query", "txn", "merge", "refresh"}


def test_tracing_restores_every_boundary():
    before = [
        tracing.inspect.getattr_static(tracing._owner(b.site), b.attr)
        for b in tracing.BOUNDARIES
    ]
    undo = tracing.install(tracing.SpanRecorder())
    tracing.uninstall(undo)
    after = [
        tracing.inspect.getattr_static(tracing._owner(b.site), b.attr)
        for b in tracing.BOUNDARIES
    ]
    assert before == after
