"""The CI perf-regression gate (``benchmarks/check_regression.py``)."""

from __future__ import annotations

import importlib.util
import json
import os
import sys

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                     "benchmarks", "check_regression.py")
_SPEC = importlib.util.spec_from_file_location("check_regression", _PATH)
check_regression = importlib.util.module_from_spec(_SPEC)
# Registered before exec: the module's dataclasses resolve their own
# module through sys.modules at class-creation time.
sys.modules["check_regression"] = check_regression
_SPEC.loader.exec_module(check_regression)


def _epoch_parallel(speedups, cores=4):
    """A minimal ``epoch_parallel`` result/baseline document."""
    rows = [{"epoch_workers": 1, "driver": "serial", "speedup_total": 1.0,
             "total_seconds": 1.0}]
    for (workers, driver), speedup in speedups.items():
        rows.append({"epoch_workers": workers, "driver": driver,
                     "speedup_total": speedup,
                     "total_seconds": 1.0 / speedup})
    return {"benchmark": "epoch_parallel", "available_cpus": cores,
            "cpu_count": cores, "rows": rows}


def _transport(overhead, cores=4):
    return {"benchmark": "transport", "cpu_count": cores,
            "socket_overhead": overhead}


def test_equal_results_pass():
    doc = _epoch_parallel({(2, "process"): 1.8, (4, "process"): 2.5})
    assert check_regression.compare(doc, doc, tolerance=0.2) == []


def test_faster_than_baseline_passes():
    base = _epoch_parallel({(2, "process"): 1.2})
    fast = _epoch_parallel({(2, "process"): 2.4})
    assert check_regression.compare(fast, base, tolerance=0.2) == []


def test_lost_speedup_fails():
    base = _epoch_parallel({(2, "process"): 1.8})
    slow = _epoch_parallel({(2, "process"): 0.9})
    failures = check_regression.compare(slow, base, tolerance=0.2)
    assert len(failures) == 1
    assert "epoch_workers2_process_speedup" in failures[0]


def test_within_tolerance_passes():
    base = _epoch_parallel({(2, "process"): 1.0})
    slightly = _epoch_parallel({(2, "process"): 0.9})
    assert check_regression.compare(slightly, base, tolerance=0.2) == []
    assert check_regression.compare(slightly, base, tolerance=0.05)


def test_lower_is_better_direction():
    base = _transport(2.0)
    worse = _transport(3.5)
    better = _transport(1.2)
    assert check_regression.compare(better, base, tolerance=0.2) == []
    failures = check_regression.compare(worse, base, tolerance=0.2)
    assert len(failures) == 1
    assert "socket_overhead" in failures[0]


def test_single_core_runner_skips_speedups(capsys):
    """Speedup metrics are unmeasurable without cores: the gate skips
    them loudly instead of failing (or silently passing) on them."""
    base = _epoch_parallel({(2, "process"): 1.8}, cores=4)
    single = _epoch_parallel({(2, "process"): 0.5}, cores=1)
    assert check_regression.compare(single, base, tolerance=0.2) == []
    out = capsys.readouterr().out
    assert "SKIP" in out and "cores" in out


def test_metrics_only_in_baseline_are_skipped():
    """Trimming a worker count from the CI invocation narrows the gate
    instead of crashing it."""
    base = _epoch_parallel({(2, "process"): 1.8, (4, "process"): 2.5})
    ci = _epoch_parallel({(2, "process"): 1.8})
    assert check_regression.compare(ci, base, tolerance=0.2) == []


def test_benchmark_kind_mismatch_raises():
    with pytest.raises(ValueError, match="mismatch"):
        check_regression.compare(_transport(2.0),
                                 _epoch_parallel({}), tolerance=0.2)
    with pytest.raises(ValueError, match="unknown benchmark"):
        check_regression.compare({"benchmark": "nope"},
                                 {"benchmark": "nope"}, tolerance=0.2)


# -- the CLI -------------------------------------------------------------------


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_main_pass_and_fail_exit_codes(tmp_path, capsys):
    base = _write(tmp_path, "base.json",
                  _epoch_parallel({(2, "process"): 1.8}))
    good = _write(tmp_path, "good.json",
                  _epoch_parallel({(2, "process"): 1.9}))
    bad = _write(tmp_path, "bad.json",
                 _epoch_parallel({(2, "process"): 0.4}))
    assert check_regression.main([f"{good}:{base}"]) == 0
    assert "OK" in capsys.readouterr().out
    assert check_regression.main([f"{bad}:{base}"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_main_usage_errors(tmp_path, capsys):
    base = _write(tmp_path, "base.json", _transport(2.0))
    with pytest.raises(SystemExit):
        check_regression.main(["no-colon-here"])
    capsys.readouterr()
    assert check_regression.main([f"{base}:/nonexistent.json"]) == 2
    with pytest.raises(SystemExit):
        check_regression.main([f"{base}:{base}", "--tolerance", "1.5"])


def test_main_mismatched_kinds_exit_2(tmp_path, capsys):
    a = _write(tmp_path, "a.json", _transport(2.0))
    b = _write(tmp_path, "b.json", _epoch_parallel({}))
    assert check_regression.main([f"{a}:{b}"]) == 2


def test_parity_floor_defeats_single_core_baseline(capsys):
    """A baseline recorded on a 1-core host carries sub-parity
    "speedups"; on a multi-core runner the absolute parity floor still
    fails a configuration that lost its parallelism outright."""
    single_core_base = _epoch_parallel({(2, "process"): 0.5}, cores=1)
    still_broken = _epoch_parallel({(2, "process"): 0.5}, cores=4)
    failures = check_regression.compare(still_broken, single_core_base,
                                        tolerance=0.35)
    assert len(failures) == 1, capsys.readouterr().out
    healthy = _epoch_parallel({(2, "process"): 1.6}, cores=4)
    assert check_regression.compare(healthy, single_core_base,
                                    tolerance=0.35) == []
    # Near-parity within tolerance also passes (noisy 2-core runners).
    near = _epoch_parallel({(2, "process"): 0.8}, cores=4)
    assert check_regression.compare(near, single_core_base,
                                    tolerance=0.35) == []


def test_min_cores_raises_the_skip_threshold(capsys):
    base = _epoch_parallel({(2, "process"): 1.5}, cores=8)
    two_core = _epoch_parallel({(2, "process"): 0.2}, cores=2)
    # Default: 2 cores are enough to hold the metric to the gate.
    assert check_regression.compare(two_core, base, tolerance=0.2)
    # A higher --min-cores declares 2-core runners too noisy: skip.
    capsys.readouterr()
    assert check_regression.compare(two_core, base, tolerance=0.2,
                                    min_cores=4) == []
    assert "SKIP" in capsys.readouterr().out
    # Lowering --min-cores never forces speedups onto a 1-core runner.
    single = _epoch_parallel({(2, "process"): 0.2}, cores=1)
    assert check_regression.compare(single, base, tolerance=0.2,
                                    min_cores=1) == []


def _asof(steps_fraction, requests_fraction=0.5, timeline=0.2, cores=4):
    return {"benchmark": "asof", "cpu_count": cores,
            "explain_steps_fraction": steps_fraction,
            "explain_requests_fraction": requests_fraction,
            "timeline_vs_full": timeline}


def test_asof_fractions_gate_lower_is_better():
    base = _asof(0.2)
    assert check_regression.compare(_asof(0.15), base,
                                    tolerance=0.2) == []
    failures = check_regression.compare(_asof(0.5), base, tolerance=0.2)
    assert len(failures) == 1
    assert "explain_steps_fraction" in failures[0]


def test_asof_timeline_ratio_gated():
    base = _asof(0.2, timeline=0.2)
    blowup = _asof(0.2, timeline=0.9)
    failures = check_regression.compare(blowup, base, tolerance=0.35)
    assert len(failures) == 1
    assert "timeline_vs_full" in failures[0]
