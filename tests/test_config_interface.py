"""Unit tests for MLFSConfig validation and the scheduler interface."""

import pytest

from repro.core import DEFAULT_CONFIG, MLFSConfig, PriorityWeights, RewardWeights
from repro.cluster import Cluster
from repro.learncurve import AccuracyPredictor, RuntimePredictor
from repro.baselines import FIFOScheduler
from repro.sim import EngineConfig, SchedulerDecision, SchedulingContext, SimulationEngine
from repro.sim.interface import Placement
from repro.workload import build_jobs, generate_trace
from tests.conftest import make_job


class TestPriorityWeights:
    def test_paper_defaults(self):
        w = PriorityWeights()
        assert (w.alpha, w.gamma) == (0.3, 0.8)
        assert (w.gamma_d, w.gamma_r, w.gamma_w) == (0.3, 0.3, 0.35)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": -0.1},
            {"alpha": 1.1},
            {"gamma": 0.0},
            {"gamma": 1.0},
            {"gamma_d": -1.0},
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ValueError):
            PriorityWeights(**kwargs).validate()


class TestRewardWeights:
    def test_paper_defaults(self):
        assert RewardWeights().as_tuple() == (0.5, 0.55, 0.25, 0.15, 0.15)

    def test_deadline_weight_largest(self):
        w = RewardWeights()
        assert w.beta_deadline == max(w.as_tuple())


class TestMLFSConfig:
    def test_default_validates(self):
        DEFAULT_CONFIG.validate()

    def test_paper_thresholds(self):
        cfg = MLFSConfig()
        assert cfg.overload_threshold == 0.90
        assert cfg.system_overload_threshold == 0.90
        assert cfg.migration_candidate_fraction == 0.10
        assert cfg.eta == 0.95

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eta": 0.0},
            {"eta": 1.5},
            {"overload_threshold": 0.0},
            {"overload_threshold": 1.5},
            {"migration_candidate_fraction": 0.0},
            {"urgency_levels": 0},
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ValueError):
            MLFSConfig(**kwargs).validate()

    def test_ablation_flags_default_on(self):
        cfg = MLFSConfig()
        assert cfg.use_ml_features and cfg.use_urgency
        assert cfg.use_deadline and cfg.use_bandwidth
        assert cfg.enable_migration and cfg.enable_load_control


class TestSchedulerDecision:
    def test_empty(self):
        assert SchedulerDecision().is_empty()

    def test_nonempty(self):
        job = make_job(seed=1)
        decision = SchedulerDecision(placements=[Placement(job.tasks[0], 0, 0)])
        assert not decision.is_empty()


class TestSchedulingContext:
    def make(self, jobs, cluster, queue=None):
        return SchedulingContext(
            now=0.0,
            cluster=cluster,
            queue=queue or [],
            active_jobs=jobs,
            overload_threshold=0.9,
            system_overload_threshold=0.9,
            accuracy_predictor=AccuracyPredictor(),
            runtime_predictor=RuntimePredictor(),
        )

    def test_system_overloaded_via_queue(self):
        cluster = Cluster.build(2, 4)
        job = make_job(seed=2)
        ctx = self.make([job], cluster, queue=[job.tasks[0]])
        assert ctx.system_overloaded()
        ctx2 = self.make([job], cluster, queue=[])
        assert not ctx2.system_overloaded()


class TestDirectRuns:
    def test_fresh_jobs_per_run(self):
        records = generate_trace(5, duration_seconds=600.0, seed=80)

        def run_once():
            jobs = build_jobs(records, seed=81)
            return SimulationEngine(FIFOScheduler(), jobs, Cluster.build(4, 4)).run()

        first, second = run_once(), run_once()
        # Stateful Job objects must not leak between runs: identical
        # outcomes prove each run rebuilt its own workload.
        assert [r.jct for r in first.job_records] == [
            r.jct for r in second.job_records
        ]

    def test_max_time_truncates(self):
        jobs = build_jobs(generate_trace(3, duration_seconds=600.0, seed=82), seed=83)
        engine = SimulationEngine(
            FIFOScheduler(), jobs, Cluster.build(4, 4), EngineConfig(max_time=60.0)
        )
        # The 60-second cap truncates everything.
        assert all(r.completion_time <= 60.0 + 1e-6 for r in engine.run().job_records)


class TestEngineConfig:
    def test_paper_defaults(self):
        cfg = EngineConfig()
        assert cfg.tick_seconds == 60.0
        assert cfg.overload_threshold == 0.90
        assert cfg.system_overload_threshold == 0.90
