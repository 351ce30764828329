"""Sharded multi-tenant front tier over N scheduler daemons.

The gateway is the missing production layer between clients and the
online scheduler service: one ingress process that partitions the
cluster across N :mod:`repro.service` daemons it spawns and supervises,
while clients keep speaking the exact same NDJSON protocol they already
speak to a single daemon.

* :mod:`repro.gateway.ring` — seeded consistent-hash routing of tenants
  to partitions with minimal key movement on membership change;
* :mod:`repro.gateway.gossip` — the cluster-wide occupancy board and
  the paper's global ``O_c > h_s`` admission gate at the door;
* :mod:`repro.gateway.supervisor` — worker lifecycle (spawn, readiness,
  restart, graceful stop) in process or thread mode;
* :mod:`repro.gateway.server` — the asyncio gateway daemon: TCP/Unix
  listeners, batch fan-out, aggregation, health/gossip loop;
* :mod:`repro.gateway.loadgen` — the deterministic load generator
  behind ``repro loadgen`` and the gateway tests.

See DESIGN.md §12 for the partitioning model and the determinism
contract.
"""

from repro.gateway.gossip import GlobalAdmission, OccupancyBoard, PartitionSample
from repro.gateway.ring import HashRing, RingConfig
from repro.gateway.server import (
    GatewayConfig,
    GatewayDaemon,
    ThreadedGateway,
    build_supervisor,
    run_gateway,
)
from repro.gateway.supervisor import (
    GatewayError,
    WorkerHandle,
    WorkerSupervisor,
    worker_service_configs,
)
from repro.gateway.loadgen import generate_payloads, run_loadgen

__all__ = [
    "GatewayConfig",
    "GatewayDaemon",
    "GatewayError",
    "GlobalAdmission",
    "HashRing",
    "OccupancyBoard",
    "PartitionSample",
    "RingConfig",
    "ThreadedGateway",
    "WorkerHandle",
    "WorkerSupervisor",
    "build_supervisor",
    "generate_payloads",
    "run_gateway",
    "run_loadgen",
    "worker_service_configs",
]
