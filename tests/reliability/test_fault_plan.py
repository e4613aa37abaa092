"""FaultPlan: selectors, serialization, and the injection wrapper."""

import json

import pytest

from repro.reliability import FaultPlan, InjectedFault, WorkerCrash
from repro.reliability.faults import FaultAction, call_with_faults, corrupt_file


class TestFaultAction:
    def test_validation(self):
        retired = ("drop_lease", "drop_result", "partition", "slow_network")
        for kind in ("explode", *retired):
            with pytest.raises(ValueError, match=f"unknown fault kind '{kind}'"):
                FaultAction(kind=kind)
        with pytest.raises(ValueError, match="times"):
            FaultAction(kind="transient", times=0)
        with pytest.raises(ValueError, match="seconds"):
            FaultAction(kind="slow", seconds=-1)

    def test_applies_window(self):
        action = FaultAction(kind="transient", times=2)
        assert action.applies(1) and action.applies(2)
        assert not action.applies(3)

    def test_dict_round_trip(self):
        action = FaultAction(kind="slow", times=3, seconds=0.5)
        assert FaultAction.from_dict(action.to_dict()) == action
        with pytest.raises(ValueError, match="unknown fault action field"):
            FaultAction.from_dict({"kind": "transient", "time": 1})

    @pytest.mark.parametrize(
        "payload, match",
        [
            ({"kind": "kill", "times": None}, "fault 'times' must be a number"),
            ({"kind": "kill", "times": [2]}, "fault 'times' must be a number"),
            ({"kind": "slow", "seconds": None}, "fault 'seconds' must be a number"),
            ({"kind": "slow", "seconds": "x"}, "fault 'seconds' must be a number"),
        ],
    )
    def test_non_numeric_fields_are_value_errors(self, payload, match):
        with pytest.raises(ValueError, match=match):
            FaultAction.from_dict(payload)


class TestFaultPlan:
    def test_resolve_positional_and_literal(self):
        plan = FaultPlan.from_dict(
            {
                "units": {
                    "#0": [{"kind": "transient", "times": 2}],
                    "u2": [{"kind": "kill"}],
                    "ghost": [{"kind": "transient"}],  # matches nothing
                    "#99": [{"kind": "transient"}],  # out of range
                }
            }
        )
        resolved = plan.resolve(["u0", "u1", "u2"])
        assert set(resolved) == {"u0", "u2"}
        assert resolved["u0"][0].kind == "transient"
        assert resolved["u2"][0].kind == "kill"

    def test_bad_positional_selector(self):
        plan = FaultPlan({"#abc": (FaultAction(kind="transient"),)})
        with pytest.raises(ValueError, match="positional fault selector"):
            plan.resolve(["u0"])

    def test_dict_round_trip_and_coerce(self):
        payload = {"units": {"#1": [{"kind": "transient", "times": 2}]}}
        plan = FaultPlan.from_dict(payload)
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        assert FaultPlan.coerce(payload) == plan
        assert FaultPlan.coerce(plan) is plan
        assert FaultPlan.coerce(None) is None
        assert FaultPlan.coerce({"units": {}}) is None  # empty plan = no plan
        with pytest.raises(TypeError):
            FaultPlan.coerce(42)

    def test_from_text_inline_and_file(self, tmp_path):
        payload = {"units": {"u0": [{"kind": "kill", "times": 1}]}}
        inline = FaultPlan.from_text(json.dumps(payload))
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(payload))
        assert FaultPlan.from_text(str(path)) == inline
        assert FaultPlan.from_text("") is None
        with pytest.raises(ValueError, match="not valid JSON"):
            FaultPlan.from_text("{broken")

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN",
            '{"units": {"#0": [{"kind": "transient"}]}}',
        )
        plan = FaultPlan.from_env()
        assert plan and plan.selectors == ("#0",)


class TestCallWithFaults:
    def test_transient_fires_then_clears(self):
        actions = [{"kind": "transient", "times": 2}]
        for attempt in (1, 2):
            with pytest.raises(InjectedFault):
                call_with_faults(actions, attempt, False, lambda x: x, (5,))
        assert call_with_faults(actions, 3, False, lambda x: x, (5,)) == 5

    def test_kill_degrades_in_process(self):
        # allow_exit=False must never actually exit the test process.
        with pytest.raises(WorkerCrash):
            call_with_faults(
                [{"kind": "kill"}], 1, False, lambda: None, ()
            )

    def test_slow_then_runs(self):
        actions = [{"kind": "slow", "times": 1, "seconds": 0.0}]
        assert call_with_faults(actions, 1, False, lambda x: x * 2, (3,)) == 6

    def test_corruption_kinds_are_parent_side_noops(self):
        # corrupt_checkpoint/corrupt_shard apply where the file is
        # written, not inside the unit: the wrapper runs the fn clean.
        actions = [{"kind": "corrupt_checkpoint"}, {"kind": "corrupt_shard"}]
        assert call_with_faults(actions, 1, False, lambda: "ok", ()) == "ok"


class TestCorruptFile:
    def test_overwrites_existing(self, tmp_path):
        path = tmp_path / "shard.json"
        path.write_text('{"fine": true}')
        assert corrupt_file(str(path))
        with pytest.raises(ValueError):
            json.loads(path.read_text(errors="replace"))

    def test_missing_file_is_false(self, tmp_path):
        assert not corrupt_file(str(tmp_path / "absent.json"))
