"""The weblang static analyzer: effects, footprints, lint diagnostics.

Golden tests on minimal snippets (one per lint code), plus the effect
lattice over the call graph, footprint widening, and the analysis cache.
"""

from __future__ import annotations

import gc

from repro.apps import build_minicrp, build_miniwiki
from repro.lang.analysis import (
    EffectReport,
    analysis_for,
    analyze_app,
    analyze_program,
    clear_cache,
    sql_key_footprint,
)
from repro.lang.ast import If
from repro.lang.parser import parse_program


def analyze(src: str) -> EffectReport:
    return analyze_program(parse_program(src))


def codes(report: EffectReport) -> list:
    return sorted({d.code for d in report.diagnostics})


# -- effect inference ---------------------------------------------------------


def test_pure_program_has_no_effects():
    report = analyze("$a = 1 + 2; echo strtoupper('hi'), $a;")
    assert report.effects == frozenset()
    assert report.diagnostics == []
    assert not report.divergence_hazard


def test_request_inputs_are_effect_free():
    report = analyze("echo param('q', ''), cookie('sess');")
    assert report.effects == frozenset()


def test_state_builtin_effects():
    assert analyze("$a = kv_get('k');").effects == frozenset({"state-read"})
    assert analyze("kv_set('k', 1);").effects == frozenset({"state-write"})
    assert analyze("$r = db_query('SELECT a FROM t');").effects == frozenset(
        {"state-read", "state-write"}
    )
    assert "nondet" in analyze("$t = time();").effects
    assert "external" in analyze("send_email('a', 'b', 'c');").effects


def test_function_effects_propagate_through_call_graph():
    report = analyze(
        "function leaf() { return kv_get('k'); }"
        "function mid($x) { return leaf() . $x; }"
        "echo mid('!');"
    )
    assert report.function_effects["leaf"] == frozenset({"state-read"})
    assert report.function_effects["mid"] == frozenset({"state-read"})
    assert report.effects == frozenset({"state-read"})
    assert not report.function_pure("mid")


def test_mutual_recursion_reaches_fixpoint():
    report = analyze(
        "function ping($n) { if ($n > 0) { return pong($n - 1); }"
        "  return time(); }"
        "function pong($n) { return ping($n); }"
        "echo ping(3);"
    )
    assert report.function_effects["ping"] == frozenset({"nondet"})
    assert report.function_effects["pong"] == frozenset({"nondet"})


def test_pure_recursion_stays_pure():
    report = analyze(
        "function fact($n) { if ($n <= 1) { return 1; }"
        "  return $n * fact($n - 1); }"
        "echo fact(5);"
    )
    assert report.function_pure("fact")
    assert report.effects == frozenset()


def test_user_function_shadows_pure_builtin():
    report = analyze(
        "function strlen($s) { return kv_get($s); } echo strlen('k');"
    )
    assert report.effects == frozenset({"state-read"})


def test_per_node_effects():
    program = parse_program("$a = 1; $b = kv_get('k');")
    report = analyze_program(program)
    pure_stmt, state_stmt = program.body
    assert report.effects_of(pure_stmt) == frozenset()
    assert report.effects_of(state_stmt) == frozenset({"state-read"})


# -- footprints ---------------------------------------------------------------


def test_constant_sql_footprint_is_exact():
    report = analyze(
        "$r = db_query('SELECT a FROM pages');"
        "db_exec('INSERT INTO log (a) VALUES (1)');"
    )
    fp = report.footprint
    assert fp.covers_read("db:main", "pages")
    assert fp.covers_write("db:main", "log")
    assert not fp.covers_write("db:main", "pages")
    assert not fp.reads["db:main"].top


def test_computed_sql_widens_to_top():
    report = analyze("$t = param('t', 'x'); $r = db_query('SELECT a FROM ' . $t);")
    assert report.footprint.reads["db:main"].top
    assert "W005" in codes(report)


def test_constant_kv_and_register_keys_are_exact():
    report = analyze(
        "$v = kv_get('cache:front'); reg_write('flag', 1);"
        "session_put($v);"
    )
    fp = report.footprint
    assert fp.covers_read("kv:apc", "cache:front")
    assert fp.covers_write("reg:g:flag", "reg:g:flag")
    assert fp.covers_write("reg:sess:u17", "reg:sess:u17")
    assert not fp.covers_read("kv:apc", "other")


def test_computed_register_name_widens_to_family_prefix():
    report = analyze("$n = param('n', 'x'); $v = reg_read('slot' . $n);")
    assert report.footprint.covers_read("reg:g:slot9", "reg:g:slot9")
    assert not report.footprint.covers_read("reg:sess:u1", "reg:sess:u1")


def test_sql_key_footprint_write_reports_both_sides():
    reads, writes = sql_key_footprint("UPDATE t SET a = 1 WHERE a = 2")
    assert reads == ("t",) and writes == ("t",)
    reads, writes = sql_key_footprint("SELECT a FROM t")
    assert reads == ("t",) and writes == ()


# -- lint codes ---------------------------------------------------------------


def test_w001_nondet_branch_condition():
    report = analyze("if (rand(1, 10) > 5) { echo 'hi'; }")
    diags = [d for d in report.diagnostics if d.code == "W001"]
    assert diags and diags[0].severity == "warning"
    assert report.divergence_hazard


def test_w001_via_tainted_variable():
    report = analyze("$x = time(); $y = $x + 1; while ($y > 0) { $y -= 1; }")
    assert "W001" in codes(report)


def test_w002_external_flows_to_state_key():
    report = analyze("$k = external_call('svc', 'q'); kv_set($k, 1);")
    diags = [d for d in report.diagnostics if d.code == "W002"]
    assert diags and diags[0].severity == "warning"


def test_w003_state_write_under_divergent_branch():
    report = analyze("if (time() > 5) { kv_set('k', 1); }")
    diags = [d for d in report.diagnostics if d.code == "W003"]
    assert diags and diags[0].severity == "warning"
    assert report.divergence_hazard


def test_w003_covers_writes_through_user_calls():
    report = analyze(
        "function save() { kv_set('k', 1); }"
        "if (rand(1, 2) == 1) { save(); }"
    )
    assert "W003" in codes(report)


def test_w004_unknown_function_is_an_error():
    report = analyze("frobnicate(1);")
    diags = [d for d in report.diagnostics if d.code == "W004"]
    assert diags and diags[0].severity == "error"
    assert report.max_severity() == "error"


def test_w005_computed_state_key_is_info():
    report = analyze("$k = param('k', 'x'); $v = kv_get($k);")
    diags = [d for d in report.diagnostics if d.code == "W005"]
    assert diags and diags[0].severity == "info"
    assert "widened" in diags[0].message


def test_clean_branch_is_not_flagged():
    report = analyze("if (param('q', '') == 'x') { kv_set('k', 1); }")
    assert "W001" not in codes(report)
    assert "W003" not in codes(report)
    assert not report.divergence_hazard


def test_diagnostics_are_deduplicated_and_sorted():
    # The same nondet condition guards two writes: one W001, two W003.
    report = analyze(
        "$x = rand(1, 9);"
        "if ($x > 1) { kv_set('a', 1); kv_set('b', 2); }"
    )
    w001 = [d for d in report.diagnostics if d.code == "W001"]
    w003 = [d for d in report.diagnostics if d.code == "W003"]
    assert len(w001) == 1 and len(w003) == 2
    ordered = sorted(report.diagnostics, key=lambda d: (d.nid, d.code))
    json_nids = [d["nid"] for d in report.to_json()["diagnostics"]]
    assert json_nids == [d.nid for d in ordered]


def test_report_json_shape():
    data = analyze("$v = kv_get('k'); echo $v;").to_json()
    assert set(data) == {"script", "effects", "functions", "footprint",
                         "divergence_hazard", "diagnostics"}
    assert data["effects"] == ["state-read"]
    assert data["footprint"]["reads"]["kv:apc"]["keys"] == ["k"]


# -- application-level entry points -------------------------------------------


def test_analyze_app_covers_every_script():
    app = build_miniwiki(pages=2)
    reports = analyze_app(app)
    assert set(reports) == set(app.scripts)
    assert all(report.max_severity() != "error"
               for report in reports.values())


def test_divergence_hazard_flags_only_minicrp_submit():
    def hazards(app):
        return {script for script, report in analyze_app(app).items()
                if report.divergence_hazard}

    assert hazards(build_miniwiki(pages=2)) == set()
    assert hazards(build_minicrp()) == {"crp_submit.php"}


# -- caching ------------------------------------------------------------------


def test_analysis_for_is_cached_per_program_identity():
    program = parse_program("$a = kv_get('k');")
    first = analysis_for(program)
    assert analysis_for(program) is first
    clear_cache()
    assert analysis_for(program) is not first


def test_cache_does_not_keep_programs_alive():
    clear_cache()
    program = parse_program("$a = 1;")
    analysis_for(program)
    from repro.lang import analysis as module

    assert len(module._CACHE) == 1
    del program
    gc.collect()
    assert len(module._CACHE) == 0
