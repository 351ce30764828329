"""Unit tests for Eq. 2–6 priorities and the Eq. 1/7 objectives."""

import pytest

from repro.core import (
    MLFSConfig,
    ObjectiveValues,
    PriorityCalculator,
    PriorityWeights,
    RewardTracker,
    RewardWeights,
    job_temporal_factor,
    make_calculator,
    objective_values,
    reward,
    tune_reward_weights,
)
from tests.conftest import make_job


def calculator(**config_kwargs):
    return PriorityCalculator(config=MLFSConfig(**config_kwargs))


class TestTemporalFactor:
    def test_first_iteration_is_one(self):
        job = make_job(seed=1)
        assert job_temporal_factor(job) == 1.0

    def test_decreases_with_iterations(self):
        job = make_job(seed=1, iterations=50)
        values = []
        for i in range(0, 20):
            job.iterations_completed = i
            values.append(job_temporal_factor(job))
        assert all(b <= a for a, b in zip(values[1:], values[2:]))
        assert values[-1] < values[1]


class TestBasePriorities:
    def test_ml_priority_scales_with_urgency(self):
        calc = calculator()
        low = make_job(seed=2, urgency=1)
        high = make_job(seed=2, urgency=9)
        t_low = next(t for t in low.tasks if not t.is_parameter_server)
        t_high = next(t for t in high.tasks if not t.is_parameter_server)
        assert calc.base_ml_priority(t_high) > calc.base_ml_priority(t_low)

    def test_ml_priority_ignores_urgency_when_ablated(self):
        calc = calculator(use_urgency=False)
        job = make_job(seed=2, urgency=9)
        task = next(t for t in job.tasks if not t.is_parameter_server)
        job2 = make_job(seed=2, urgency=1)
        task2 = next(t for t in job2.tasks if not t.is_parameter_server)
        assert calc.base_ml_priority(task) == pytest.approx(
            calc.base_ml_priority(task2)
        )

    def test_ml_priority_scales_with_partition_size(self):
        calc = calculator()
        job = make_job(seed=3, model="alexnet", gpus=8)
        workers = [t for t in job.tasks if not t.is_parameter_server]
        big = max(workers, key=lambda t: t.partition_params_m)
        small = min(workers, key=lambda t: t.partition_params_m)
        if big.partition_params_m > small.partition_params_m:
            assert calc.base_ml_priority(big) > calc.base_ml_priority(small)

    def test_computation_priority_rises_with_closer_deadline(self):
        calc = calculator()
        job = make_job(seed=4)
        task = job.tasks[0]
        early = calc.base_computation_priority(task, now=job.arrival_time)
        late = calc.base_computation_priority(task, now=job.deadline - 120.0)
        assert late > early

    def test_computation_priority_rises_with_waiting(self):
        calc = calculator()
        job = make_job(seed=4)
        task = job.tasks[0]
        task.mark_queued(0.0)
        p1 = calc.base_computation_priority(task, now=60.0)
        p2 = calc.base_computation_priority(task, now=7200.0)
        assert p2 > p1

    def test_deadline_term_ablation(self):
        with_dl = calculator(use_deadline=True)
        without_dl = calculator(use_deadline=False)
        job = make_job(seed=4)
        task = job.tasks[0]
        now = job.arrival_time
        assert with_dl.base_computation_priority(
            task, now
        ) > without_dl.base_computation_priority(task, now)

    def test_shorter_remaining_time_higher_priority(self):
        calc = calculator()
        job = make_job(seed=5, iterations=100)
        task = job.tasks[0]
        p_long = calc.base_computation_priority(task, now=job.arrival_time)
        job.iterations_completed = 95
        p_short = calc.base_computation_priority(task, now=job.arrival_time)
        assert p_short > p_long


class TestPropagation:
    def test_upstream_tasks_outrank_downstream(self):
        calc = calculator()
        job = make_job(seed=6, model="alexnet", gpus=4)
        priorities = calc.job_priorities(job, now=job.arrival_time)
        workers = [t for t in job.tasks if not t.is_parameter_server]
        by_partition = {
            t.partition_index: priorities[t.task_id]
            for t in workers
            if t.replica_index == workers[0].replica_index
        }
        indexes = sorted(by_partition)
        if len(indexes) > 1:
            # Heads of sequential chains accumulate their children's
            # priority (Eq. 3), so priority decreases along the chain.
            assert by_partition[indexes[0]] > by_partition[indexes[-1]]

    def test_ps_task_has_highest_priority(self):
        calc = calculator()
        job = make_job(seed=7)
        ps = [t for t in job.tasks if t.is_parameter_server]
        if ps:
            priorities = calc.job_priorities(job, now=job.arrival_time)
            assert priorities[ps[0].task_id] == max(priorities.values())

    def test_gamma_raises_parent_priority(self):
        job = make_job(seed=8, model="alexnet", gpus=4)
        low = PriorityCalculator(
            config=MLFSConfig(priority=PriorityWeights(gamma=0.1))
        )
        high = PriorityCalculator(
            config=MLFSConfig(priority=PriorityWeights(gamma=0.9))
        )
        head = next(
            t
            for t in job.tasks
            if not t.is_parameter_server and t.partition_index == 0
        )
        p_low = low.job_priorities(job, now=0.0)[head.task_id]
        p_high = high.job_priorities(job, now=0.0)[head.task_id]
        assert p_high > p_low

    def test_alpha_blends(self):
        job = make_job(seed=9)
        ml_only = PriorityCalculator(
            config=MLFSConfig(priority=PriorityWeights(alpha=1.0))
        )
        comp_only = PriorityCalculator(
            config=MLFSConfig(priority=PriorityWeights(alpha=0.0))
        )
        blended = PriorityCalculator(
            config=MLFSConfig(priority=PriorityWeights(alpha=0.5))
        )
        task = next(t for t in job.tasks if not t.is_parameter_server)
        now = job.arrival_time
        p_ml = ml_only.job_priorities(job, now)[task.task_id]
        p_comp = comp_only.job_priorities(job, now)[task.task_id]
        p_mix = blended.job_priorities(job, now)[task.task_id]
        assert min(p_ml, p_comp) - 1e-9 <= p_mix <= max(p_ml, p_comp) + 1e-9

    def test_priorities_cover_all_tasks(self):
        calc = calculator()
        jobs = [make_job(seed=s, job_id=f"j{s}") for s in (10, 11, 12)]
        priorities = calc.priorities(jobs, now=0.0)
        expected = {t.task_id for j in jobs for t in j.tasks}
        assert set(priorities) == expected

    def test_make_calculator_validates(self):
        with pytest.raises(ValueError):
            make_calculator(weights=PriorityWeights(alpha=2.0))
        calc = make_calculator(weights=PriorityWeights(alpha=0.5))
        assert calc.config.priority.alpha == 0.5


class TestObjectives:
    def completed(self, seed, jct, deadline_met=True, accuracy=0.8):
        job = make_job(seed=seed)
        job.completion_time = job.arrival_time + jct
        job.deadline = job.completion_time + (1.0 if deadline_met else -1.0)
        job.accuracy_at_deadline = accuracy
        job.accuracy_requirement = 0.5
        return job

    def test_empty_objectives(self):
        values = objective_values([], 0.0)
        assert values.as_tuple() == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_objective_values(self):
        jobs = [
            self.completed(1, 3600.0),
            self.completed(2, 7200.0, deadline_met=False, accuracy=0.4),
        ]
        values = objective_values(jobs, bandwidth_mb=2048.0)
        assert values.inverse_avg_jct == pytest.approx(1.0 / 1.5)
        assert values.deadline_ratio == pytest.approx(0.5)
        assert values.inverse_bandwidth == pytest.approx(1.0 / 2.0)
        assert values.accuracy_met_ratio == pytest.approx(0.5)
        assert values.average_accuracy == pytest.approx(0.6)

    def test_reward_weighted_sum(self):
        values = ObjectiveValues(1.0, 1.0, 1.0, 1.0, 1.0)
        weights = RewardWeights()
        assert reward(values, weights) == pytest.approx(sum(weights.as_tuple()))

    def test_reward_tracker_window(self):
        tracker = RewardTracker()
        job = self.completed(3, 100.0)
        tracker.note_completion(job, now=50.0)
        tracker.note_bandwidth(1024.0, now=60.0)
        inside = tracker.reward_between(0.0, 100.0)
        outside = tracker.reward_between(200.0, 300.0)
        assert inside > 0.0
        assert outside == 0.0

    def test_reward_tracker_prune(self):
        tracker = RewardTracker()
        tracker.note_completion(self.completed(4, 100.0), now=10.0)
        tracker.prune(before=20.0)
        assert tracker.reward_between(0.0, 100.0) == 0.0

    def test_tune_reward_weights_improves_or_keeps(self):
        # Objective: prefer beta_jct as large as possible.
        def evaluate(weights: RewardWeights) -> float:
            return weights.beta_jct

        best, score = tune_reward_weights(evaluate, coarse_rounds=5, seed=1)
        assert score >= RewardWeights().beta_jct
