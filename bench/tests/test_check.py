"""The ground-truth checker fails on planted faults."""

from bench import check, fixtures


def truth(items):
    return {item.change.change_id: item.expect_committed for item in items}


def test_correct_outputs_pass():
    items = fixtures.mint("steady_shallow", 23, count=12).items
    assert check.check_decisions(items, truth(items), [True] * 5) == []
    assert check.check_responses([("GET /state", 200)]) == []
    assert check.check_recovery("abc", "abc") == []


def test_a_planted_wrong_decision_is_flagged():
    items = fixtures.mint("steady_shallow", 23, count=12).items
    decided = truth(items)
    victim = items[3].change.change_id
    decided[victim] = not decided[victim]
    failures = check.check_decisions(items, decided, [True])
    assert len(failures) == 1 and victim in failures[0]


def test_an_undecided_change_and_a_red_commit_are_flagged():
    items = fixtures.mint("steady_shallow", 23, count=12).items
    decided = truth(items)
    del decided[items[0].change.change_id]
    failures = check.check_decisions(items, decided, [True, False, True])
    assert any("never decided" in f for f in failures)
    assert any("commit 1 is red" in f for f in failures)
    assert len(failures) == 2


def test_a_planted_non_200_is_flagged():
    failures = check.check_responses(
        [("POST /changes", 200), ("GET /slo", 503), ("GET /changes/D1", 404)]
    )
    assert failures == ["GET /slo answered 503", "GET /changes/D1 answered 404"]


def test_a_diverged_recovery_is_flagged():
    assert len(check.check_recovery("abc", "abd")) == 1
    assert len(check.check_recovery("abc", None)) == 1
