"""repro — reproduction of "Job Scheduling for Large-Scale Machine
Learning Clusters" (Wang, Liu, Shen — CoNEXT 2020).

The package implements the paper's MLFS scheduling system (MLF-H,
MLF-RL, MLF-C), every substrate it runs on (multi-resource cluster
model, data+model-parallel workloads with task dependency DAGs, a
trace-driven discrete-event simulator, learning-curve predictors, a
NumPy RL stack) and the seven comparison schedulers of its evaluation.

The supported public surface is :mod:`repro.api` (``from repro import
api``): run specs, sweeps and the simulation engine.
"""

__version__ = "1.0.0"
