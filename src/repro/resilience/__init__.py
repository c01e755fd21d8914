"""Resilience subsystem: fault injection, forensics, differential checks.

Three pillars (see ``docs/resilience.md``):

- :mod:`repro.resilience.faults` — seeded, deterministic timing faults
  (latency jitter/spikes, LSQ stall windows, bounded same-cycle event
  reordering) for the simulated machine;
- :mod:`repro.resilience.forensics` — wait-for analysis over a wedged
  simulation: :class:`DeadlockReport` with blocked nodes, starved ports,
  stuck producers, the minimal stuck cycle, and a JSON post-mortem;
- :mod:`repro.resilience.differential` — the executable form of the
  paper's timing-robustness claim: N perturbed schedules per kernel must
  match the sequential oracle.

Per-job timeouts, bounded retry and resume for experiment batches live
in the sweep scheduler (:mod:`repro.orchestrate`).

This ``__init__`` imports only the leaf modules (faults, forensics) so
the simulator can import forensics on its error path without a cycle;
``differential`` pulls in the API layer and is imported directly by its
users.
"""

from repro.resilience.faults import (
    LATENCY_ONLY,
    REORDER_ONLY,
    SHAKE_EVERYTHING,
    FaultInjector,
    FaultPlan,
    default_plans,
)
from repro.resilience.forensics import (
    BlockedNode,
    DeadlockReport,
    MissingInput,
    build_deadlock_report,
    dump_postmortem,
)

__all__ = [
    "LATENCY_ONLY",
    "REORDER_ONLY",
    "SHAKE_EVERYTHING",
    "FaultInjector",
    "FaultPlan",
    "default_plans",
    "BlockedNode",
    "DeadlockReport",
    "MissingInput",
    "build_deadlock_report",
    "dump_postmortem",
]
