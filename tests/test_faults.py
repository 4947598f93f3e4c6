"""Deterministic fault-injection harness: grammar, one-shot firing, scoping."""

import pytest

from repro import faults
from repro.faults import (FaultInjector, FaultPlan, FaultSpecError,
                          InjectedFault)


class TestGrammar:
    def test_parse_single_clause(self):
        plan = FaultPlan.parse("kill@dispatch=2")
        assert len(plan) == 1
        spec = plan.specs[0]
        assert (spec.action, spec.site, spec.occurrence) == ("kill", "dispatch", 2)
        assert spec.params == {}

    def test_parse_params_and_round_trip(self):
        text = "delay@job=5:seconds=0.25,raise@lane_step=4:error=boom"
        plan = FaultPlan.parse(text)
        assert len(plan) == 2
        assert plan.specs[0].seconds == 0.25
        assert plan.specs[1].params == {"error": "boom"}
        assert FaultPlan.parse(plan.to_spec()).to_spec() == plan.to_spec()

    def test_empty_and_whitespace_plans(self):
        assert len(FaultPlan.parse(None)) == 0
        assert len(FaultPlan.parse("")) == 0
        assert len(FaultPlan.parse(" , ,")) == 0

    @pytest.mark.parametrize("text", [
        "explode@job=1",          # unknown action
        "kill@dispatch",          # missing occurrence
        "kill@dispatch=zero",     # non-integer occurrence
        "kill@dispatch=0",        # occurrences are 1-based
        "delay@job=1:seconds",    # parameter without value
        "killdispatch=1",         # no @
    ])
    def test_bad_clauses_raise(self, text):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse(text)

    @pytest.mark.parametrize("text", [
        "raise@train_setp=1",     # typo: would never fire
        "raise@round=3",          # a site with no seam
        "kill@dispatch=1,raise@nowhere=2",
    ])
    def test_unknown_sites_raise(self, text):
        with pytest.raises(FaultSpecError, match="unknown fault site"):
            FaultPlan.parse(text)

    def test_every_known_site_parses(self):
        plan = FaultPlan.parse(",".join(f"raise@{site}=1"
                                        for site in faults.SITES))
        assert [spec.site for spec in plan.specs] == list(faults.SITES)


class TestInjector:
    def test_clause_fires_exactly_once_at_its_occurrence(self):
        injector = FaultInjector(FaultPlan.parse("corrupt@cache_write=3"))
        assert injector.fire("cache_write") is None
        assert injector.fire("cache_write") is None
        spec = injector.fire("cache_write")
        assert spec is not None and spec.action == "corrupt"
        # one-shot: the same occurrence count never refires
        for _ in range(5):
            assert injector.fire("cache_write") is None
        assert [str(s) for s in injector.fired] == ["corrupt@cache_write=3"]

    def test_sites_count_independently(self):
        injector = FaultInjector(FaultPlan.parse("delay@job=2"))
        assert injector.fire("dispatch") is None
        assert injector.fire("job") is None
        assert injector.fire("dispatch") is None
        assert injector.fire("job") is not None
        assert injector.counters == {"dispatch": 2, "job": 2}

    def test_raise_clause_raises_injected_fault(self):
        injector = FaultInjector(FaultPlan.parse("raise@train_step=1"))
        with pytest.raises(InjectedFault):
            injector.fire("train_step")
        assert injector.fire("train_step") is None

    def test_custom_error_message(self):
        injector = FaultInjector(
            FaultPlan.parse("raise@job=1:error=boom"))
        with pytest.raises(InjectedFault, match="boom"):
            injector.fire("job")

    def test_lane_step_raise_is_a_plain_injected_fault(self):
        """The stacked step seam raises the same exception as every other
        site, whatever step context it is handed."""
        injector = FaultInjector(FaultPlan.parse("raise@lane_step=2"))
        assert injector.fire("lane_step", lanes=3) is None
        with pytest.raises(InjectedFault) as info:
            injector.fire("lane_step", lanes=3)
        assert type(info.value) is InjectedFault
        assert str(info.value.spec) == "raise@lane_step=2"
        assert injector.fire("lane_step", lanes=3) is None


class TestGlobalInjector:
    def test_override_installs_and_restores(self):
        before = faults.get_injector()
        with faults.override("raise@job=1"):
            assert faults.active()
            with pytest.raises(InjectedFault):
                faults.fault_point("job")
        assert faults.get_injector() is before

    def test_override_none_disables(self):
        with faults.override("delay@job=1"):
            with faults.override(None):
                assert not faults.active()
                assert faults.fault_point("job") is None
            # the outer plan's counters were untouched by the inner scope
            assert faults.fault_point("job") is not None

    def test_configure_and_reset(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        faults.configure("delay@job=1:seconds=0")
        try:
            assert faults.active()
            assert faults.fault_point("job").action == "delay"
        finally:
            faults.reset()
        assert not faults.active()

    def test_env_plan_is_picked_up(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "delay@dispatch=1")
        faults.reset()
        try:
            assert faults.active()
            assert faults.fault_point("dispatch").site == "dispatch"
        finally:
            monkeypatch.delenv(faults.ENV_VAR)
            faults.reset()

    def test_env_plan_with_unknown_site_is_rejected(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "raise@round=3")
        faults.reset()
        try:
            with pytest.raises(FaultSpecError, match="unknown fault site"):
                faults.active()
        finally:
            monkeypatch.delenv(faults.ENV_VAR)
            faults.reset()

    def test_inactive_fault_point_is_a_no_op(self):
        assert not faults.active() or True  # env chaos plans may be present
        with faults.override(None):
            assert faults.fault_point("anywhere") is None
