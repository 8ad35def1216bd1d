"""Self-tests of the benchmark at a tiny scale (1/3000 of the paper's Internet).

    PYTHONPATH=src python3 -m pytest perfbench -q

Run from the repository root.  They check that every workload runs and
emits every named metric with its unit, that the command refuses to run
without the program, and that each output check trips on a deliberately
corrupted copy of a real output.
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
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from layers import PER_LAYER  # noqa: E402

TINY = 3000.0
SEED = 3


def _args(workload: str, trace: int) -> "list[str]":
    return ["--workload", workload, "--seed", str(SEED), "--seconds", "1",
            "--trace", str(trace)]


def test_benchmark_json_names_what_the_command_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_workload_emits_every_metric(workload, trace, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setitem(run.PARAMS, workload, dict(run.PARAMS[workload], scale=TINY))
    code = run.main(_args(workload, trace))
    out, err = capsys.readouterr()
    assert code == 0, err[-2000:]
    lines = out.strip().splitlines()
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert details["nproc"] >= 1 and details["seed"] == SEED
    assert details["params"]["scale"] == TINY
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, details["failures"]
    assert result["attempted"] >= 1
    wanted = ({name: unit for name, unit, _ in PER_LAYER} if trace
              else dict(run.END_TO_END))
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *_args("paper-report", 0)],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""


# -- each check trips on a corrupted copy of a real output ------------------


@pytest.fixture(scope="module")
def report_ctx():
    from repro.experiments import ExperimentContext
    from repro.experiments.report import render_full_report
    from repro.topology.config import TopologyConfig

    ctx = ExperimentContext.create(TopologyConfig.paper_scale(divisor=TINY, seed=SEED))
    return ctx, render_full_report(ctx)


def test_report_sections_check(report_ctx):
    _, text = report_ctx
    assert checks.check_report_sections(text) == []
    missing = text.replace("Figure 12: router vendor popularity", "Figure 12")
    assert checks.check_report_sections(missing)
    table1 = "\nTable 1: SNMPv3 measurement campaigns\n"
    assert checks.check_report_sections(text + table1)
    first, rest = text.split(table1)
    assert checks.check_report_sections(first + rest + table1)


def test_funnel_check(report_ctx):
    ctx, _ = report_ctx
    funnel = worker.funnel(ctx.pipeline_v4)
    assert checks.check_funnel("IPv4", funnel) == []
    grows = dict(funnel, removed=dict(funnel["removed"], **{"short-engine-id": -5}))
    assert checks.check_funnel("IPv4", grows)
    too_wide = dict(funnel, input_second=funnel["valid_count"] - 1)
    assert checks.check_funnel("IPv4", too_wide)
    lost = dict(funnel, valid_records=funnel["valid_records"] - 1)
    assert checks.check_funnel("IPv4", lost)
    checkpoint = dict(funnel, valid_engine_id_count=funnel["valid_engine_id_count"] + 1)
    assert checks.check_funnel("IPv4", checkpoint)


def test_partition_check(report_ctx):
    ctx, _ = report_ctx
    sets = [[str(a) for a in group] for group in ctx.alias_dual.sets]
    records = [str(r.address) for r in ctx.valid_v4 + ctx.valid_v6]
    assert checks.check_partition("dual", sets, records) == []
    assert checks.check_partition("dual", sets + [[sets[0][0]]], records)
    assert checks.check_partition("dual", sets[1:], records)
    assert checks.check_partition("dual", sets + [["192.0.2.1"]], records)


def test_same_and_recorded_checks(tmp_path, report_ctx):
    _, text = report_ctx
    digest = checks.sha256_text(text)
    assert checks.check_same("sha", [digest, digest]) == []
    assert checks.check_same("sha", [digest, checks.sha256_text(text + " ")])
    path = tmp_path / "recorded.json"
    assert checks.check_recorded(path, "sha", digest) == []
    assert checks.check_recorded(path, "sha", digest) == []
    assert checks.check_recorded(path, "sha", digest[::-1])


def test_recorded_values_are_kept_per_program_version(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("", encoding="utf-8")
    before = run.source_digest(tmp_path)
    assert run.source_digest(tmp_path) == before
    (package / "__init__.py").write_text("VERSION = 2\n", encoding="utf-8")
    assert run.source_digest(tmp_path) != before


@pytest.fixture(scope="module")
def observatory_run(tmp_path_factory):
    store = tmp_path_factory.mktemp("observatory")
    return worker.observatory({
        "scale": TINY, "seed": SEED, "dir": str(store), "firings": 6, "rate": 20.0,
        "trace": False, "t0": 0.0,
    })


def test_observatory_checks(observatory_run):
    out = observatory_run
    assert all(not failures for failures in out["checks"].values()), out["checks"]
    assert out["request_errors"] == []
    assert checks.check_integrity([{"scans": 3, "rows": 10, "consistent": True}]) == []
    assert checks.check_integrity([{"scans": 3, "rows": 10, "consistent": False}])
    assert checks.check_monotone("reader", [1, 2, 2, 5]) == []
    assert checks.check_monotone("reader", [1, 2, 5, 4])
    assert checks.check_rounds([1, 2, 3, 4, 5, 6], 6) == []
    assert checks.check_rounds([1, 2, 3, 5, 6], 6)
    fingerprints = out["fingerprints"]
    assert checks.check_same("fingerprints", [fingerprints, list(fingerprints)]) == []
    assert checks.check_same("fingerprints", [fingerprints, fingerprints[::-1]])


@pytest.fixture(scope="module")
def history_store(tmp_path_factory):
    base = tmp_path_factory.mktemp("history")
    out = worker.build_store({
        "scale": TINY, "seed": SEED, "dir": str(base / "store"), "firings": 6,
        "addresses": 40, "history_checks": 8, "expected": str(base / "expected.json"),
        "t0": 0.0,
    })
    data = json.loads((base / "expected.json").read_text(encoding="utf-8"))
    return out, data


def test_history_checks(history_store):
    out, data = history_store
    assert out["checks"] == {"history reference": []}
    expected = data["expected"]
    responsive = next(a for a in data["addresses"] if expected[a])
    silent = next(a for a in data["addresses"] if not expected[a])
    rows = expected[responsive]
    assert checks.check_history(responsive, 200, rows, rows) == []
    assert checks.check_history(silent, 200, [], []) == []
    assert checks.check_history(responsive, 500, rows, rows)
    assert checks.check_history(responsive, 200, rows[:-1], rows)
    changed = [dict(rows[0], engine_boots=rows[0]["engine_boots"] + 1)] + rows[1:]
    assert checks.check_history(responsive, 200, changed, rows)
    assert checks.check_history(silent, 200, rows, [])
    reply = json.dumps({"value": rows}).encode()
    assert checks.check_answer((responsive, 200, reply, 0.1), expected) == []
    assert checks.check_answer((silent, 200, reply, 0.1), expected)
    assert checks.check_answer((responsive, 0, b"connection reset", 0.1), expected)
