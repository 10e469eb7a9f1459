"""The in-run SLO control plane: shed, admit, brown out."""

import dataclasses
import hashlib
import json
import random

import pytest

from repro.core.benchmark import Benchmark
from repro.core.cli import main
from repro.faults.control import (
    SHED_MAX_FRACTION,
    AdmissionController,
    BrownoutResponder,
    LoadShedder,
    SloControlStats,
    SloControlPolicy,
)
from repro.loadgen.windows import WindowSnapshot
from repro.workloads.base import RunConfig
from repro.workloads.scenarios import (
    FAULT_SCENARIOS,
    apply_fault_scenario,
    fault_scenario_names,
)


def window(index=0, completions=100, errors=0, slo_met=None, p95=0.05):
    """A synthetic closed-window snapshot for driving controllers."""
    if slo_met is None:
        slo_met = completions
    return WindowSnapshot(
        index=index,
        start_s=0.0,
        end_s=0.1,
        completions=completions,
        errors=errors,
        slo_met=slo_met,
        p50=p95 / 2,
        p95=p95,
        p99=p95 * 1.1,
        stall_seconds=0.0,
    )


class TestPolicy:
    def test_defaults_valid(self):
        SloControlPolicy()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("shed_interval_windows", 0),
            ("shed_step", 0.0),
            ("shed_decay", 1.0),
            ("shed_error_rate_threshold", 1.5),
            ("admit_max_inflight_per_instance", -1),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            dataclasses.replace(SloControlPolicy(), **{field: value})

    def test_round_trips_through_dict(self):
        """``as_dict`` (what the run fingerprint digests) keeps every
        field and is JSON-safe."""
        policy = SloControlPolicy(shed_step=0.2, brownout_enabled=True)
        assert SloControlPolicy(**policy.as_dict()) == policy
        json.dumps(policy.as_dict(), sort_keys=True)


class TestLoadShedder:
    def make(self, **kwargs):
        policy = SloControlPolicy(
            shed_interval_windows=2, shed_step=0.1, shed_decay=0.5, **kwargs
        )
        stats = SloControlStats()
        return LoadShedder(policy, random.Random(7), stats), stats

    def test_admits_everything_at_zero_probability(self):
        shedder, _ = self.make()
        # No RNG entropy is consumed while the probability is zero.
        state = shedder.rng.getstate()
        assert all(shedder.admits() for _ in range(100))
        assert shedder.rng.getstate() == state

    def test_ramp_after_breach_interval(self):
        shedder, stats = self.make()
        shedder.on_window(window(p95=0.5))
        assert shedder.drop_probability == 0.0  # one breach: not yet
        shedder.on_window(window(p95=0.5))
        assert shedder.drop_probability == pytest.approx(0.1)
        assert stats.shed_steps == 1
        assert stats.breached_windows == 2

    def test_decay_on_healthy_window_and_recovery(self):
        shedder, stats = self.make()
        shedder.drop_probability = 0.1
        shedder.on_window(window(p95=0.01))
        assert shedder.drop_probability == pytest.approx(0.05)
        # Decay below the floor snaps to exactly zero (recovered).
        shedder.drop_probability = LoadShedder.FLOOR * 1.5
        shedder.on_window(window(p95=0.01))
        assert shedder.drop_probability == 0.0
        assert stats.shed_recoveries == 1

    def test_error_saturated_window_is_a_breach(self):
        shedder, stats = self.make()
        w = window(completions=10, errors=90, slo_met=10, p95=0.01)
        shedder.on_window(w)
        assert stats.breached_windows == 1

    def test_capped_at_max_fraction(self):
        shedder, _ = self.make()
        for _ in range(40):
            shedder.on_window(window(p95=0.5))
        assert shedder.drop_probability == SHED_MAX_FRACTION

    def test_decisions_deterministic_per_seed(self):
        def decisions(seed):
            shedder, _ = self.make()
            shedder.drop_probability = 0.5
            shedder.rng = random.Random(seed)
            return [shedder.admits() for _ in range(200)]

        assert decisions(7) == decisions(7)
        assert decisions(7) != decisions(8)


class TestAdmissionController:
    def test_zero_cap_admits_everything(self):
        ctl = AdmissionController(0, SloControlStats())
        assert all(ctl.try_acquire() is not None for _ in range(1000))

    def test_cap_and_release_round_robin(self):
        stats = SloControlStats()
        ctl = AdmissionController(1, stats)
        ctl.set_instances(2)
        assert ctl.try_acquire() == 0
        assert ctl.try_acquire() == 1
        # Both instances full: the next two probes are refused.
        assert ctl.try_acquire() is None
        assert ctl.try_acquire() is None
        assert stats.admission_rejections == 2
        ctl.release(0)
        # Round-robin continues from where it left off (instance 0 next).
        assert ctl.try_acquire() == 0
        # Instance 1 was never released, so it still refuses.
        assert ctl.try_acquire() is None

    def test_set_instances_validated(self):
        ctl = AdmissionController(1, SloControlStats())
        with pytest.raises(ValueError):
            ctl.set_instances(0)


class TestBrownoutResponder:
    def make(self):
        stats = SloControlStats()
        return BrownoutResponder(SloControlPolicy(brownout_enabled=True), stats), stats

    def test_steps_up_and_publishes(self):
        responder, stats = self.make()

        class Target:
            relief_speedup = 1.0

        target = Target()
        responder.attach(target)
        responder.on_window(window(p95=0.5))
        assert target.relief_speedup == 1.0
        responder.on_window(window(p95=0.5))
        assert responder.steps == 1
        assert target.relief_speedup == pytest.approx(1.0 / 0.75)
        assert stats.brownout_activations == 1

    def test_caps_at_max_steps(self):
        responder, _ = self.make()
        for _ in range(10):
            responder.on_window(window(p95=0.5))
        assert responder.steps == 2

    def test_recovers_after_healthy_windows(self):
        responder, stats = self.make()
        for _ in range(4):
            responder.on_window(window(p95=0.5))
        assert responder.steps == 2
        for _ in range(2):
            responder.on_window(window(p95=0.01))
        assert responder.steps == 1
        assert stats.brownout_recoveries == 1
        # Two more healthy windows finish the recovery.
        for _ in range(2):
            responder.on_window(window(p95=0.01))
        assert responder.steps == 0
        assert stats.brownout_recoveries == 2

    def test_late_attach_picks_up_current_relief(self):
        responder, _ = self.make()
        for _ in range(2):
            responder.on_window(window(p95=0.5))

        class Target:
            relief_speedup = 1.0

        late = Target()
        responder.attach(late)
        assert late.relief_speedup == pytest.approx(responder.relief_factor)


class TestScenarioWiring:
    def test_compound_scenarios_registered(self):
        assert {
            "brownout_degraded_disk",
            "flaky_network_compaction",
            "overload_shed",
        } <= set(fault_scenario_names())

    def test_apply_sets_control_and_load(self):
        config = apply_fault_scenario(RunConfig(), "overload_shed")
        assert config.scenario is FAULT_SCENARIOS["overload_shed"]
        assert config.scenario.control is not None
        assert config.load_scale == 1.0
        assert config.offered_load_scale == 2.0

    def test_load_multiplier_compounds_with_load_scale(self):
        config = apply_fault_scenario(
            RunConfig(load_scale=1.5), "overload_shed"
        )
        assert config.offered_load_scale == 3.0
        assert dataclasses.replace(config, scenario=None).offered_load_scale == 1.5

    def test_plain_scenarios_keep_control_disabled(self):
        config = apply_fault_scenario(RunConfig(), "brownout")
        assert config.scenario.control is None

    def test_scenario_dicts_digest_control_policy(self):
        payload = FAULT_SCENARIOS["overload_shed"].as_dict()
        assert payload["control"]["shed_target_latency_s"] == 0.08
        assert payload["load_multiplier"] == 2.0
        json.dumps(payload, sort_keys=True)


def _run_report(config):
    return Benchmark.by_name("taobench").run(config)


def _digest(report):
    canon = json.dumps(report.as_dict(), sort_keys=True, default=repr)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class TestOverloadShedEndToEnd:
    @pytest.fixture(scope="class")
    def shed_config(self):
        return apply_fault_scenario(
            RunConfig(measure_seconds=1.0, warmup_seconds=0.3),
            "overload_shed",
        )

    @pytest.fixture(scope="class")
    def shed_report(self, shed_config):
        return _run_report(shed_config)

    def test_shedding_raises_goodput_under_overload(
        self, shed_config, shed_report, monkeypatch
    ):
        """The acceptance bar: at 2x capacity, completions meeting the
        SLO are strictly more frequent with the shedder on (the
        baseline's shedder never acts on a window)."""
        monkeypatch.setattr(LoadShedder, "on_window", lambda self, window: None)
        baseline = _run_report(shed_config)
        shed_goodput = shed_report.result.extra["slo_goodput_rps"]
        base_goodput = baseline.result.extra["slo_goodput_rps"]
        assert shed_goodput > base_goodput
        assert shed_report.result.extra["slo_shed"] > 0
        assert baseline.result.extra["slo_shed"] == 0

    def test_replay_is_byte_identical(self, shed_config, shed_report):
        assert _digest(_run_report(shed_config)) == _digest(shed_report)

    def test_control_section_shape(self, shed_report):
        section = shed_report.hook_sections["slo_control"]
        assert section["scenario"] == "overload_shed"
        assert section["windows"] > 0
        assert section["shed_fraction"] > 0.0
        assert section["window_fields"] == list(WindowSnapshot.ROW_FIELDS)
        rows = section["window_series"]
        assert len(rows) == section["windows"]
        assert all(len(row) == len(WindowSnapshot.ROW_FIELDS) for row in rows)

    def test_disabled_control_reports_stub_section(self):
        report = _run_report(RunConfig(measure_seconds=0.3))
        assert report.hook_sections["slo_control"] == {"enabled": False}


class TestCliFaults:
    def test_faults_list_prints_every_scenario(self, capsys):
        assert main(["faults", "list"]) == 0
        out = capsys.readouterr().out
        for name in fault_scenario_names():
            assert name in out
        assert "CoDel-style shedder" in out or "shedder" in out

    def test_run_accepts_compound_scenario(self):
        parser_args = [
            "run", "-b", "taobench", "--faults", "overload_shed",
        ]
        from repro.core.cli import build_parser

        args = build_parser().parse_args(parser_args)
        assert args.faults == "overload_shed"
