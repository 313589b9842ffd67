"""Span self-time arithmetic and the entry-point patching."""

import pytest

from bench import tracing
from bench.tracing import CPU0, CPU1, LAYER, NAME, PARENT, WALL0, WALL1


def span(name, parent, start, end):
    layer = name.split(".")[0]
    return [name, layer, parent, None, start, end, start / 2, end / 2, 1]


def synthetic_log():
    log = tracing.SpanLog()
    root = span("service.pump", None, 0.0, 10.0)
    plan = span("planner.plan", root, 1.0, 4.0)
    execute = span("planner.execute", root, 5.0, 9.0)
    derive = span("buildsys.derive", execute, 6.0, 7.0)
    other_root = span("service.submit", None, 20.0, 21.0)
    log.spans.extend([root, plan, execute, derive, other_root])
    return log


def test_self_time_is_duration_minus_direct_children():
    log = synthetic_log()
    rows = {row[0][NAME]: row for row in log.self_times()}
    assert rows["service.pump"][1] == pytest.approx(3.0)  # 10 - 3 - 4
    assert rows["planner.plan"][1] == pytest.approx(3.0)
    assert rows["planner.execute"][1] == pytest.approx(3.0)  # 4 - 1
    assert rows["buildsys.derive"][1] == pytest.approx(1.0)
    assert rows["service.pump"][2] == pytest.approx(1.5)  # CPU edges are halved


def test_layer_self_times_sum_to_the_roots():
    log = synthetic_log()
    rows = log.self_times()
    root_wall, root_cpu = tracing.root_seconds(log.spans)
    assert root_wall == pytest.approx(11.0)
    assert sum(row[1] for row in rows) == pytest.approx(root_wall)
    assert sum(row[2] for row in rows) == pytest.approx(root_cpu)
    layers = tracing.totals_by(rows, LAYER)
    assert layers["planner"].calls == 2
    assert layers["planner"].self_wall_s == pytest.approx(6.0)
    assert sum(t.self_wall_s for t in layers.values()) == pytest.approx(root_wall)


def test_window_keeps_the_reconciliation():
    log = synthetic_log()
    spans = log.window(0.0, 10.0)
    assert len(spans) == 4
    rows = log.self_times(spans)
    assert sum(row[1] for row in rows) == pytest.approx(tracing.root_seconds(spans)[0])


def test_wrap_records_nesting_and_survives_exceptions():
    log = tracing.SpanLog()

    def inner(_self, change):
        raise ValueError("boom")

    class Change:
        change_id = "D000042"

    wrapped_inner = log.wrap(inner, "vcs.patch_apply", tracing._first_change_id)

    def outer():
        try:
            wrapped_inner(None, Change())
        except ValueError:
            return "caught"

    assert log.wrap(outer, "service.pump")() == "caught"
    first, second = log.spans
    assert first[NAME] == "service.pump" and first[PARENT] is None
    assert second[PARENT] is first and second[tracing.IDENT] == "D000042"
    assert first[WALL0] <= second[WALL0] <= second[WALL1] <= first[WALL1]
    assert first[CPU1] >= first[CPU0]
    trace = log.to_chrome_trace()["traceEvents"]
    assert trace[1]["args"]["parent"] == 0 and trace[1]["cat"] == "vcs"


def test_install_patches_every_reference_and_uninstall_restores():
    import repro.buildsys.executor as executor
    import repro.buildsys.hashing as hashing
    import repro.journal as journal
    import repro.journal.recovery as recovery
    from repro.buildsys.executor import BuildContext
    from repro.service.core import CoreService

    originals = (
        hashing.incremental_hashes, recovery.recover,
        CoreService.__dict__["pump"], BuildContext.__dict__["load"],
    )
    log = tracing.SpanLog()
    undo = tracing.install(log)
    try:
        assert executor.incremental_hashes is hashing.incremental_hashes
        assert hashing.incremental_hashes is not originals[0]
        assert journal.recover is recovery.recover is not originals[1]
        assert CoreService.__dict__["pump"].__wrapped__ is originals[2]
        files = {"p/BUILD": "target(name='lib', srcs=['a.py'], deps=[], steps=['compile'])\n",
                 "p/a.py": "X = 1\n"}
        BuildContext.load(files)
        assert [s[NAME] for s in log.spans][0] == "buildsys.load"
    finally:
        tracing.uninstall(undo)
    assert executor.incremental_hashes is hashing.incremental_hashes is originals[0]
    assert journal.recover is originals[1]
    assert CoreService.__dict__["pump"] is originals[2]
    assert BuildContext.__dict__["load"] is originals[3]
