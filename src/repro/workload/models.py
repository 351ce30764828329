"""Analytic model zoo standing in for the paper's real training workloads.

The paper's experiments train five ML algorithms — AlexNet, ResNet, MLP,
LSTM and SVM (Section 4.1) — under data parallelism and model
parallelism.  The scheduler never inspects gradients; it only consumes

* per-layer parameter counts (model-partition sizes ``S_k``),
* per-iteration compute time,
* per-iteration loss reduction ``δl_I`` (the temporal ML feature), and
* communication volumes between workers.

This module provides those quantities analytically so the simulator can
drive every code path the paper exercises without a GPU testbed.  Layer
shapes follow the canonical architectures (e.g. AlexNet's 61M parameters
across 5 conv + 3 FC layers); per-iteration times are calibrated to
magnitudes reported for V100-class devices.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property


class PartitionStyle(Enum):
    """How a model may be split for model parallelism (Section 4.1).

    * ``SEQUENTIAL`` — "because of their sequential task dependency graph
      structures, we partitioned the model sequentially" (MLP, AlexNet).
    * ``LAYERED`` — "we partitioned each layer into several parts"
      (LSTM, ResNet): partitions run as parallel slices.
    * ``NONE`` — "SVM did not run in model parallelism because it is hard
      to partition its network model."
    """

    SEQUENTIAL = "sequential"
    LAYERED = "layered"
    NONE = "none"


@dataclass(frozen=True, slots=True)
class LayerSpec:
    """One layer of a model: a name and its parameter count (millions)."""

    name: str
    params_m: float


@dataclass(frozen=True)
class ModelProfile:
    """Static description of one trainable model.

    Attributes
    ----------
    name:
        Model identifier used in traces.
    layers:
        Ordered layer specifications; parameter counts drive partition
        sizes ``S_k`` in the priority formula (Eq. 2).
    partition_style:
        How model parallelism splits this model.
    base_iteration_seconds:
        Wall time of one full-model trace "iteration" (an epoch-scale unit
        of work) on a single unshared GPU; calibrated so job durations
        span minutes to hours like the Philly trace.
    batch_size_mb:
        Mini-batch size in MB (paper: 1 MB for AlexNet/ResNet, 1.5 KB
        for LSTM/MLP/SVM).
    loss_initial / loss_floor / loss_decay:
        Parameters of the per-iteration training-loss curve
        ``l(i) = floor + (initial - floor) * (1 + i)^(-decay)`` whose
        differences give the loss reductions ``δl_I``.
    comm_rounds_per_iteration:
        How many synchronization rounds one trace "iteration" performs
        (an epoch spans many mini-batches; the paper quotes 970–3168 MB
        of traffic *per mini-batch*).  Each round re-sends every link's
        volume, so per-iteration traffic = link volume × rounds.
    accuracy_ceiling:
        Best achievable accuracy for a typical job of this model;
        individual jobs jitter around it.
    curve_half_life:
        Iterations needed to reach half the accuracy ceiling in the
        saturating accuracy curve ``a(i) = ceiling * i / (i + half)``.
    """

    name: str
    layers: tuple[LayerSpec, ...]
    partition_style: PartitionStyle
    base_iteration_seconds: float
    batch_size_mb: float
    comm_rounds_per_iteration: int = 20
    loss_initial: float = 2.5
    loss_floor: float = 0.05
    loss_decay: float = 0.85
    accuracy_ceiling: float = 0.92
    curve_half_life: float = 8.0

    @cached_property
    def total_params_m(self) -> float:
        """Total parameters in millions (``S_J`` in Eq. 2), summed once."""
        return sum(layer.params_m for layer in self.layers)

    @property
    def num_layers(self) -> int:
        """Number of layers."""
        return len(self.layers)

    @property
    def model_state_mb(self) -> float:
        """Approximate serialized model size (fp32 parameters) in MB.

        Used to charge task-migration bandwidth: moving a worker moves
        its partition's parameter state.
        """
        return self.total_params_m * 4.0  # 1M fp32 params = 4 MB


def _alexnet() -> ModelProfile:
    layers = (
        LayerSpec("conv1", 0.035),
        LayerSpec("conv2", 0.615),
        LayerSpec("conv3", 0.885),
        LayerSpec("conv4", 1.327),
        LayerSpec("conv5", 0.885),
        LayerSpec("fc6", 37.75),
        LayerSpec("fc7", 16.78),
        LayerSpec("fc8", 4.10),
    )
    return ModelProfile(
        name="alexnet",
        layers=layers,
        partition_style=PartitionStyle.SEQUENTIAL,
        base_iteration_seconds=90.0,
        batch_size_mb=1.0,
        comm_rounds_per_iteration=40,
        loss_initial=3.2,
        loss_floor=0.35,
        loss_decay=0.8,
        accuracy_ceiling=0.86,
        curve_half_life=10.0,
    )


def _resnet() -> ModelProfile:
    blocks = [LayerSpec("conv1", 0.0095)]
    stage_params = {
        "stage1": (3, 0.073),
        "stage2": (4, 0.282),
        "stage3": (6, 1.118),
        "stage4": (3, 4.468),
    }
    for stage, (count, params) in stage_params.items():
        for i in range(count):
            blocks.append(LayerSpec(f"{stage}_block{i + 1}", params))
    blocks.append(LayerSpec("fc", 2.049))
    return ModelProfile(
        name="resnet",
        layers=tuple(blocks),
        partition_style=PartitionStyle.LAYERED,
        base_iteration_seconds=140.0,
        batch_size_mb=1.0,
        comm_rounds_per_iteration=30,
        loss_initial=4.2,
        loss_floor=0.25,
        loss_decay=0.9,
        accuracy_ceiling=0.94,
        curve_half_life=12.0,
    )


def _mlp() -> ModelProfile:
    layers = (
        LayerSpec("fc1", 2.36),
        LayerSpec("fc2", 4.19),
        LayerSpec("fc3", 2.10),
        LayerSpec("fc4", 0.52),
    )
    return ModelProfile(
        name="mlp",
        layers=layers,
        partition_style=PartitionStyle.SEQUENTIAL,
        base_iteration_seconds=25.0,
        batch_size_mb=0.0015,
        comm_rounds_per_iteration=25,
        loss_initial=2.3,
        loss_floor=0.12,
        loss_decay=1.0,
        accuracy_ceiling=0.97,
        curve_half_life=5.0,
    )


def _lstm() -> ModelProfile:
    layers = (
        LayerSpec("embed", 6.0),
        LayerSpec("lstm1", 4.2),
        LayerSpec("lstm2", 4.2),
        LayerSpec("proj", 1.3),
    )
    return ModelProfile(
        name="lstm",
        layers=layers,
        partition_style=PartitionStyle.LAYERED,
        base_iteration_seconds=60.0,
        batch_size_mb=0.0015,
        comm_rounds_per_iteration=30,
        loss_initial=5.8,
        loss_floor=1.1,
        loss_decay=0.7,
        accuracy_ceiling=0.89,
        curve_half_life=9.0,
    )


def _svm() -> ModelProfile:
    layers = (LayerSpec("weights", 0.3),)
    return ModelProfile(
        name="svm",
        layers=layers,
        partition_style=PartitionStyle.NONE,
        base_iteration_seconds=12.0,
        batch_size_mb=0.0015,
        comm_rounds_per_iteration=10,
        loss_initial=1.4,
        loss_floor=0.2,
        loss_decay=1.1,
        accuracy_ceiling=0.91,
        curve_half_life=4.0,
    )


#: The five workloads of Section 4.1, keyed by name.
MODEL_ZOO: dict[str, ModelProfile] = {
    profile.name: profile
    for profile in (_alexnet(), _resnet(), _mlp(), _lstm(), _svm())
}

#: Deterministic ordering of model names for sampling.
MODEL_NAMES: tuple[str, ...] = tuple(sorted(MODEL_ZOO))


def get_model(name: str) -> ModelProfile:
    """Look up a model profile by name.

    Raises
    ------
    KeyError
        If the name is not one of the five supported workloads.
    """
    try:
        return MODEL_ZOO[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; available: {', '.join(MODEL_NAMES)}"
        ) from None
