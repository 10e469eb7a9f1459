"""Tests for fault specs, schedules, and the scenario registry."""

import dataclasses
import random

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.schedule import FAULT_KINDS, FaultSpec
from repro.oskernel.kernel import get_kernel
from repro.oskernel.scheduler import CpuScheduler
from repro.sim.engine import Environment
from repro.workloads.profiles import get_profile
from repro.workloads.runner import BenchmarkHarness
from repro.workloads.scenarios import (
    FAULT_SCENARIOS,
    apply_fault_scenario,
    fault_scenario_names,
    get_fault_scenario,
)
from repro.workloads.base import RunConfig


class TestFaultSpec:
    def test_valid_spec(self):
        spec = FaultSpec("server_slowdown", 0.1, 0.5, 2.0)
        assert spec.kind == "server_slowdown"
        assert spec.start_frac == 0.1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meteor_strike", 0.1, 0.5)

    def test_start_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("server_crash", 1.0, 0.1)
        with pytest.raises(ValueError):
            FaultSpec("server_crash", -0.1, 0.1)

    def test_fault_must_end_within_window(self):
        with pytest.raises(ValueError):
            FaultSpec("server_crash", 0.8, 0.5)
        with pytest.raises(ValueError):
            FaultSpec("server_crash", 0.2, 0.0)

    def test_slowdown_magnitude_must_exceed_one(self):
        with pytest.raises(ValueError):
            FaultSpec("server_slowdown", 0.1, 0.2, 0.9)

    def test_fraction_kinds_bounded_below_one(self):
        with pytest.raises(ValueError):
            FaultSpec("freq_throttle", 0.1, 0.2, 1.0)
        with pytest.raises(ValueError):
            FaultSpec("net_loss", 0.1, 0.2, 1.5)

    def test_dict_roundtrip(self):
        """``as_dict`` (what the run fingerprint digests) keeps every
        field: the constructor rebuilds an equal spec from it."""
        spec = FaultSpec("net_latency", 0.25, 0.5, 0.003)
        assert FaultSpec(**spec.as_dict()) == spec

    def test_all_kinds_constructible(self):
        for kind in FAULT_KINDS:
            multiplier_kind = kind in ("server_slowdown", "disk_degraded")
            magnitude = 1.5 if multiplier_kind else 0.5
            FaultSpec(kind, 0.1, 0.3, magnitude)


class TestFaultSchedule:
    def test_empty_is_falsy(self):
        """The harness builds an injector only for a non-empty schedule;
        every scenario still gets the resilience client."""
        def harness(name):
            config = apply_fault_scenario(RunConfig(), name) if name else RunConfig()
            return BenchmarkHarness(config, get_profile("taobench"))

        shed = harness("overload_shed")
        assert not shed.config.scenario.schedule
        assert shed.injector is None and shed.client is not None
        blackout = harness("blackout")
        assert blackout.injector is not None and blackout.client is not None
        assert harness("").client is None

    def test_dict_roundtrip(self):
        """A scenario's dict lists its schedule's specs in order, so the
        fingerprint digests the whole schedule."""
        scenario = FAULT_SCENARIOS["flaky_network_compaction"]
        specs = scenario.as_dict()["schedule"]
        assert tuple(FaultSpec(**spec) for spec in specs) == scenario.schedule

    def test_sorted_by_start(self):
        """The injector applies a schedule in onset order whatever the
        listing order; faults with one onset apply in listing order."""
        schedule = (
            FaultSpec("server_crash", 0.5, 0.2),
            FaultSpec("net_loss", 0.1, 0.2, 0.1),
            FaultSpec("net_latency", 0.3, 0.2, 0.001),
            FaultSpec("mem_pressure", 0.3, 0.2, 0.5),
        )
        env = Environment()
        scheduler = CpuScheduler(
            env=env, logical_cores=4, freq_ghz=2.0, kernel=get_kernel("6.9")
        )
        injector = FaultInjector(env, schedule, scheduler, random.Random(1), 0.0, 1.0)
        injector.start()
        env.run(until=1.5)
        applied = [kind for _, kind, phase in injector.log if phase == "apply"]
        assert applied == ["net_loss", "net_latency", "mem_pressure", "server_crash"]

    def test_schedules_hashable(self):
        """Configs carrying equal scenarios are equal and hash equal
        (feedsim's operating-point memo keys on the config)."""
        blackout = get_fault_scenario("blackout")
        specs = tuple(FaultSpec(**spec.as_dict()) for spec in blackout.schedule)
        twin = dataclasses.replace(blackout, schedule=specs)
        a = RunConfig(scenario=blackout)
        b = RunConfig(scenario=twin)
        assert hash(a) == hash(b)
        assert a == b
        assert a != RunConfig(scenario=get_fault_scenario("brownout"))


class TestScenarioRegistry:
    def test_expected_scenarios_present(self):
        assert {"brownout", "blackout", "flaky_network", "noisy_neighbor"} <= set(
            fault_scenario_names()
        )

    def test_every_scenario_well_formed(self):
        for name, scenario in FAULT_SCENARIOS.items():
            assert scenario.name == name
            # Every scenario perturbs the run somehow: a fault schedule,
            # or pure overload (load multiplier + SLO control plane).
            assert scenario.schedule or (
                scenario.load_multiplier != 1.0 and scenario.control is not None
            )
            assert scenario.description
            # as_dict must be JSON-serializable for fingerprinting.
            import json

            json.dumps(scenario.as_dict(), sort_keys=True)

    def test_unknown_scenario_helpful_error(self):
        with pytest.raises(KeyError, match="known scenarios"):
            get_fault_scenario("nope")

    def test_apply_fault_scenario(self):
        config = apply_fault_scenario(RunConfig(), "blackout")
        assert config.scenario is FAULT_SCENARIOS["blackout"]
        assert config.scenario.schedule
        assert config.load_scale == 1.0

    def test_default_config_fault_free(self):
        assert RunConfig().scenario is None
