"""The public API surface: importability, the README example, bench utils."""

from __future__ import annotations

import math

import pytest


def test_top_level_exports():
    import repro

    for name in repro.__all__:
        assert hasattr(repro, name), name
    assert repro.__version__


def test_readme_example():
    from repro import Application, Executor, Request, ssco_audit

    app = Application.from_sources("hello", {
        "hello.php": """
$n = kv_get('hits');
if (is_null($n)) { $n = 0; }
kv_set('hits', $n + 1);
echo 'Hello, ', param('name', 'world'), ' #', $n + 1;
""",
    })
    result = Executor(app).serve([
        Request("r1", "hello.php", get={"name": "Dana"}),
        Request("r2", "hello.php", get={"name": "Pat"}),
    ])
    audit = ssco_audit(app, result.trace, result.reports,
                       result.initial_state)
    assert audit.accepted
    assert result.trace.responses()["r1"].body == "Hello, Dana #1"
    assert result.trace.responses()["r2"].body == "Hello, Pat #2"


def test_subpackage_imports():
    import repro.apps
    import repro.bench
    import repro.core
    import repro.lang
    import repro.multivalue
    import repro.net
    import repro.objects
    import repro.server
    import repro.sql
    import repro.trace
    import repro.workloads


def test_render_table_formatting():
    from repro.bench import render_table

    rows = [
        {"name": "a", "ratio": 1.2345, "big": 12345.6, "nan": float("nan"),
         "flag": True},
        {"name": "bb", "ratio": 0.001234, "big": 5.0, "nan": 1.0,
         "flag": False},
    ]
    text = render_table(rows)
    lines = text.splitlines()
    assert lines[0].split() == ["name", "ratio", "big", "nan", "flag"]
    assert "1.23" in text
    assert "12,346" in text
    assert "0.0012" in text
    assert "-" in lines[2]  # NaN renders as dash
    assert "yes" in text and "no" in text


def test_render_table_empty():
    from repro.bench import render_table

    assert render_table([]) == "(no rows)"


def test_render_table_column_subset():
    from repro.bench import render_table

    rows = [{"a": 1, "b": 2}]
    text = render_table(rows, ["b"])
    assert "a" not in text.splitlines()[0]


def test_figure8_row_keys(counter_app, honest_run):
    from repro.bench.harness import run_audit_phase
    from repro.bench.metrics import figure8_row, figure9_decomposition
    from repro.workloads.wiki import Workload

    workload = Workload(counter_app, [], "counter")
    run = run_audit_phase(workload, honest_run)
    row = figure8_row(run)
    assert row["accepted"]
    assert row["requests"] == 24
    assert row["orochi_report_bytes_per_req"] > 0
    decomposition = figure9_decomposition(run)
    assert decomposition["total"] > 0
    assert decomposition["baseline_total"] > 0


def test_figure8_row_overhead_is_relative_to_the_legacy_serve(
        counter_app, honest_run):
    from repro.bench import figure8_row, run_audit_phase
    from repro.workloads.wiki import Workload

    run = run_audit_phase(Workload(counter_app, [], "counter"), honest_run,
                          run_baseline=False)
    assert math.isnan(figure8_row(run)["server_cpu_overhead_pct"])
    assert math.isnan(figure8_row(run)["audit_speedup_vs_simple_reexec"])
    honest_run.server_seconds = 1.5
    run.legacy_seconds = 1.2
    row = figure8_row(run)
    assert row["server_cpu_overhead_pct"] == pytest.approx(25.0)
    assert row["audit_speedup_vs_legacy_serve"] == pytest.approx(
        1.2 / run.audit.phases["total"])
