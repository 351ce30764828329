"""MLFS core: priorities, MLF-H, MLF-RL, MLF-C and the composed system."""

from repro.core.config import (
    DEFAULT_CONFIG,
    MLFSConfig,
    PriorityWeights,
    RewardWeights,
)
from repro.core.exact import (
    PlacementScore,
    enumerate_assignments,
    epsilon_constraint_solve,
    pareto_frontier,
    score_assignment,
)
from repro.core.mlf_c import MLFCController
from repro.core.mlf_h import MLFHScheduler
from repro.core.mlf_rl import MLFRLScheduler
from repro.core.mlfs import MLFSScheduler, Phase, make_mlf_h, make_mlf_rl, make_mlfs
from repro.core.overload import MigrationSelector
from repro.core.placement import HostChoice, PlacementEngine, TaskCommIndex
from repro.core.priority import (
    PriorityCalculator,
    job_temporal_factor,
    make_calculator,
)
from repro.core.reward import (
    ObjectiveValues,
    RewardTracker,
    objective_values,
    reward,
    tune_reward_weights,
)
from repro.core.state import FEATURE_SIZE, StateFeaturizer
from repro.core.train import (
    TrainingSetup,
    collect_imitation_data,
    pretrain_policy,
    reinforce_finetune,
    train_mlf_rl_policy,
)

__all__ = [
    "DEFAULT_CONFIG",
    "FEATURE_SIZE",
    "HostChoice",
    "MLFCController",
    "MLFHScheduler",
    "MLFRLScheduler",
    "MLFSConfig",
    "MLFSScheduler",
    "MigrationSelector",
    "ObjectiveValues",
    "Phase",
    "PlacementEngine",
    "PlacementScore",
    "enumerate_assignments",
    "epsilon_constraint_solve",
    "pareto_frontier",
    "score_assignment",
    "PriorityCalculator",
    "PriorityWeights",
    "RewardTracker",
    "RewardWeights",
    "StateFeaturizer",
    "TaskCommIndex",
    "TrainingSetup",
    "collect_imitation_data",
    "job_temporal_factor",
    "make_calculator",
    "make_mlf_h",
    "make_mlf_rl",
    "make_mlfs",
    "objective_values",
    "pretrain_policy",
    "reinforce_finetune",
    "reward",
    "train_mlf_rl_policy",
    "tune_reward_weights",
]
