"""Patch-based auditing (§7, the Poirot use case)."""

from __future__ import annotations

import pytest

from repro.core.patch import patch_audit
from repro.server import Application, Executor, RandomScheduler
from repro.server.faulty import tamper_response
from repro.trace.events import Request

SCHEMA = (
    "CREATE TABLE items (id INT PRIMARY KEY AUTOINCREMENT, name TEXT,"
    " price INT);"
    "INSERT INTO items (name, price) VALUES ('book', 10), ('pen', 2)"
)

ORIGINAL_SRC = {
    "shop.php": """
$rows = db_query("SELECT name, price FROM items ORDER BY id");
echo "<ul>";
foreach ($rows as $row) {
  echo "<li>", $row['name'], ": $", $row['price'], "</li>";
}
echo "</ul>";
""",
    "buy.php": """
$item = param('item');
$rows = db_query("SELECT id, price FROM items WHERE name = "
                 . sql_quote($item));
if (count($rows) == 0) {
  echo "no such item";
} else {
  kv_set("last_buy", $item);
  echo "charged $", $rows[0]['price'];
}
""",
}


def _patched(render_fix=True, xss_fix=False):
    src = dict(ORIGINAL_SRC)
    if render_fix:
        # A rendering patch: same queries, different HTML.
        src["shop.php"] = ORIGINAL_SRC["shop.php"].replace(
            '"<li>", $row[\'name\'], ": $", $row[\'price\'], "</li>"',
            '"<li class=\'item\'>", htmlspecialchars($row[\'name\']),'
            ' " - $", $row[\'price\'], "</li>"',
        )
    return Application.from_sources("shop-patched", src,
                                    db_setup=SCHEMA)


@pytest.fixture
def epoch():
    app = Application.from_sources("shop", ORIGINAL_SRC, db_setup=SCHEMA)
    requests = [
        Request("v1", "shop.php"),
        Request("b1", "buy.php", get={"item": "book"}),
        Request("v2", "shop.php"),
        Request("b2", "buy.php", get={"item": "ghost"}),
    ]
    run = Executor(app, scheduler=RandomScheduler(2)).serve(requests)
    return app, run


def test_identical_patch_changes_nothing(epoch):
    app, run = epoch
    result = patch_audit(app, app, run.trace, run.reports,
                         run.initial_state)
    assert result.accepted_original
    assert sorted(result.unchanged) == ["b1", "b2", "v1", "v2"]
    assert not result.changed and not result.incomparable


def test_rendering_patch_flags_affected_requests(epoch):
    app, run = epoch
    result = patch_audit(app, _patched(), run.trace, run.reports,
                         run.initial_state)
    assert result.accepted_original
    assert set(result.changed) == {"v1", "v2"}
    old, new = result.changed["v1"]
    assert "<li>" in old and "class='item'" in new
    assert sorted(result.unchanged) == ["b1", "b2"]


def test_write_value_patch_is_comparable(epoch):
    """A patch that writes a different KV value: the sequence of ops is
    unchanged, so the replay remains comparable."""
    app, run = epoch
    src = dict(ORIGINAL_SRC)
    src["buy.php"] = src["buy.php"].replace(
        'kv_set("last_buy", $item);',
        'kv_set("last_buy", strtoupper($item));',
    )
    patched = Application.from_sources("shop-p2", src, db_setup=SCHEMA)
    result = patch_audit(app, patched, run.trace, run.reports,
                         run.initial_state)
    assert "b1" in result.unchanged  # output text unchanged
    assert not result.incomparable


def test_new_query_patch_is_incomparable(epoch):
    """A patch that adds a DB read cannot be replayed from this epoch's
    logs: flagged incomparable, not silently wrong."""
    app, run = epoch
    src = dict(ORIGINAL_SRC)
    src["buy.php"] = ("$audit = db_query(\"SELECT COUNT(*) AS n FROM"
                      " items\");\n") + src["buy.php"]
    patched = Application.from_sources("shop-p3", src, db_setup=SCHEMA)
    result = patch_audit(app, patched, run.trace, run.reports,
                         run.initial_state)
    assert set(result.incomparable) == {"b1", "b2"}
    assert set(result.changed) | set(result.unchanged) == {"v1", "v2"}


def test_corrupt_epoch_cannot_be_patch_audited(epoch):
    app, run = epoch
    bad_trace = tamper_response(run.trace, "v1", "<ul>lies</ul>")
    result = patch_audit(app, _patched(), bad_trace, run.reports,
                         run.initial_state)
    assert not result.accepted_original
    assert result.reason is not None


def test_price_change_patch(epoch):
    """A patch changing displayed logic (price doubling) flags both the
    listing and the purchase output."""
    app, run = epoch
    src = dict(ORIGINAL_SRC)
    src["shop.php"] = src["shop.php"].replace(
        '": $", $row[\'price\'],', '": $", $row[\'price\'] * 2,'
    )
    src["buy.php"] = src["buy.php"].replace(
        'echo "charged $", $rows[0][\'price\'];',
        'echo "charged $", $rows[0][\'price\'] * 2;',
    )
    patched = Application.from_sources("shop-p4", src, db_setup=SCHEMA)
    result = patch_audit(app, patched, run.trace, run.reports,
                         run.initial_state)
    assert set(result.changed) == {"v1", "v2", "b1"}
    assert result.unchanged == ["b2"]  # "no such item" path unaffected


def test_dropped_operation_patch_is_incomparable(epoch):
    """A patch that no longer issues a logged write ends its replay with
    fewer operations than the log holds: incomparable, not unchanged."""
    app, run = epoch
    src = dict(ORIGINAL_SRC)
    src["buy.php"] = src["buy.php"].replace(
        'kv_set("last_buy", $item);', "")
    patched = Application.from_sources("shop-p5", src, db_setup=SCHEMA)
    result = patch_audit(app, patched, run.trace, run.reports,
                         run.initial_state)
    assert result.accepted_original
    assert result.incomparable == ["b1"]
    assert "b1" not in result.unchanged and "b1" not in result.changed
    assert sorted(result.unchanged) == ["b2", "v1", "v2"]
