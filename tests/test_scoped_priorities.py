"""The MLF pass scores only the jobs it can act on, and exactly.

`MLFPass.on_schedule` computes Eq. 6 priorities and completion boosts
for the jobs with a queued task or a task on an overloaded server, not
for every active job.  Each job's map depends only on that job and
``now``, so every value the pass publishes must equal the value a full
map over all active jobs holds, and every task whose priority the pass
reads (queued tasks, tasks on a server handed to the migration
selector) must have one.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.core import PriorityCalculator, make_mlf_h
from repro.core import mlf_h
from repro.core.mlf_h import MLFPass
from repro.core.overload import MigrationSelector
from repro.workload import build_jobs, generate_trace
from tests.test_golden_traces import run_scenario
from tests.test_mlf_schedulers import make_ctx


@pytest.fixture
def passes(monkeypatch):
    """Record, per MLF pass, the full map, the published map and the
    tasks whose priority the pass may read."""
    log: list[dict] = []
    on_schedule = MLFPass.on_schedule
    select = MigrationSelector.select

    def logged_on_schedule(self, ctx):
        full = PriorityCalculator(config=self.config).priorities(
            ctx.active_jobs, ctx.now
        )
        log.append(
            {"full": full, "published": None, "read": list(ctx.queue), "moved": []}
        )
        return on_schedule(self, ctx)

    def logged_select(self, server, shadow, priorities, *args, **kwargs):
        log[-1]["read"].extend(server.tasks())
        chosen = select(self, server, shadow, priorities, *args, **kwargs)
        log[-1]["moved"].extend(chosen)
        return chosen

    def publish(priorities):
        log[-1]["published"] = dict(priorities)

    monkeypatch.setattr(MLFPass, "on_schedule", logged_on_schedule)
    monkeypatch.setattr(MigrationSelector, "select", logged_select)
    monkeypatch.setattr(mlf_h, "_publish_priorities", publish)
    return log


@pytest.mark.parametrize(
    "name", ["contended_mlf_h", "contended_mlf_rl", "mlfs", "mlf_h_faults"]
)
def test_scoped_map_matches_full_map(name, passes):
    run_scenario(name)
    assert passes, f"{name} ran no MLF pass"
    for index, record in enumerate(passes):
        full, published = record["full"], record["published"]
        assert published is not None, f"pass {index} published nothing"
        for task_id, value in published.items():
            assert value == full[task_id], (name, index, task_id)
        for task in record["read"]:
            if task.task_id in full:
                assert task.task_id in published, (name, index, task.task_id)
    # Not vacuous: migration victims were chosen, and some pass skipped
    # active jobs it could not act on.
    assert any(record["moved"] for record in passes)
    assert any(len(record["published"]) < len(record["full"]) for record in passes)


def _queued(seed: int, count: int):
    jobs = build_jobs(generate_trace(count, duration_seconds=10.0, seed=seed), seed=seed)
    for job in jobs:
        for task in job.tasks:
            task.mark_queued(0.0)
    return jobs


def test_pass_scores_only_jobs_it_can_act_on(monkeypatch):
    cluster = Cluster.build(6, 4)
    scheduler = make_mlf_h()
    *running, arrival = _queued(seed=4, count=3)
    decision = scheduler.on_schedule(make_ctx(running, cluster))
    for placement in decision.placements:
        server = cluster.servers[placement.server_id]
        server.place_task(placement.task, server.gpus[placement.gpu_id])
        placement.task.mark_placed(0.0, placement.server_id, placement.gpu_id)
    assert all(not job.queued_tasks() for job in running)
    assert cluster.overloaded_servers(scheduler.config.overload_threshold) == []

    scored: list[list[str]] = []
    published: list[dict] = []
    priorities = scheduler.calculator.priorities

    def spy(jobs, now):
        scored.append([job.job_id for job in jobs])
        return priorities(jobs, now)

    monkeypatch.setattr(scheduler.calculator, "priorities", spy)
    monkeypatch.setattr(mlf_h, "_publish_priorities", published.append)

    # Empty queue, no overloaded server: nothing to score.
    scheduler.on_schedule(make_ctx(running, cluster, now=60.0, queue=[]))
    assert scored == [[]]
    assert published == [{}]

    # A queued arrival is scored; the jobs running on healthy servers are not.
    scheduler.on_schedule(make_ctx(running + [arrival], cluster, now=60.0))
    assert scored[-1] == [arrival.job_id]
    assert set(published[-1]) == {t.task_id for t in arrival.tasks}
