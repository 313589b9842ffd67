"""Tests for the JSON API handlers and the CLI."""

import pytest

from repro.cli import main
from repro.predictor.predictors import StaticPredictor
from repro.service.api import SubmitQueueService
from repro.service.core import CoreService, CoreServiceConfig
from repro.service.handlers import ApiHandlers
from repro.strategies.submitqueue import SubmitQueueStrategy
from repro.workload.repo_synth import MonorepoSpec, SyntheticMonorepo


@pytest.fixture
def setup():
    monorepo = SyntheticMonorepo(MonorepoSpec(layers=(3, 4), fan_in=2), seed=8)
    service = SubmitQueueService(
        CoreService(
            repo=monorepo.repo,
            strategy=SubmitQueueStrategy(StaticPredictor(0.9, 0.1)),
            config=CoreServiceConfig(workers=4),
        )
    )
    return monorepo, ApiHandlers(service)


class TestHandlers:
    def test_land_and_status(self, setup):
        monorepo, handlers = setup
        change = monorepo.make_clean_change()
        draft_id = handlers.register_draft(change)
        response = handlers.handle_land({"change_id": draft_id, "wait": True})
        assert response["ok"] and response["code"] == 200
        assert response["status"]["state"] == "committed"
        status = handlers.handle_status({"change_id": draft_id})
        assert status["ok"]
        assert status["status"]["turnaround_minutes"] > 0

    def test_land_requires_known_draft(self, setup):
        _, handlers = setup
        assert handlers.handle_land({"change_id": "nope"})["code"] == 404
        assert handlers.handle_land({})["code"] == 400

    def test_status_unknown(self, setup):
        _, handlers = setup
        assert handlers.handle_status({"change_id": "nope"})["code"] == 404
        assert handlers.handle_status({})["code"] == 400

    def test_queue_and_process(self, setup):
        monorepo, handlers = setup
        for target in monorepo.target_names(0)[:2]:
            change = monorepo.make_clean_change(target)
            handlers.register_draft(change)
            handlers.handle_land({"change_id": change.change_id})
        queue = handlers.handle_queue()
        assert queue["depth"] == 2
        processed = handlers.handle_process()
        assert processed["decisions"] == 2
        assert handlers.handle_queue()["depth"] == 0

    def test_mainline_endpoint(self, setup):
        monorepo, handlers = setup
        assert handlers.handle_mainline()["green"] is True
        broken = monorepo.make_broken_change()
        handlers.register_draft(broken)
        handlers.handle_land({"change_id": broken.change_id, "wait": True})
        assert handlers.handle_mainline()["green"] is True  # still green!


class TestCli:
    def test_quickstart_command(self, capsys):
        assert main(["quickstart", "--changes", "25", "--workers", "16"]) == 0
        out = capsys.readouterr().out
        assert "landed" in out and "P50" in out

    def test_figure_command_quick(self, capsys):
        assert main(["figure", "9", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out

    def test_figure_14_quick(self, capsys):
        assert main(["figure", "14", "--quick"]) == 0
        assert "Figure 14" in capsys.readouterr().out

    def test_train_command(self, capsys):
        assert main(["train", "--history", "400"]) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out and "top + features" in out

    def test_compare_command(self, capsys):
        assert main([
            "compare", "--changes", "30", "--workers", "16", "--rate", "200",
        ]) == 0
        out = capsys.readouterr().out
        assert "Oracle" in out and "Single-Queue" in out

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["figure", "99"])
