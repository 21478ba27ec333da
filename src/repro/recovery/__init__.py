"""Liveness detection, checkpoint policies, and automatic recovery.

The paper's Cores are stationary and assumed reliable; this package
supplies the missing robustness story so layout experiments can include
Core *failure* as an environmental event, next to the link degradation
and shutdown the monitoring layer already reports:

- :class:`FailureDetector` — heartbeat rounds on the caller's cadence,
  publishing ``coreSuspected`` / ``coreFailed`` / ``coreRecovered``
  monitor events per peer;
- :class:`Checkpointer` — one per Core: it snapshots every complet the
  Core hosts (via :mod:`repro.core.persistence`) periodically and on
  each arrival or restore, into a :class:`CheckpointStore` that outlives
  the Cores (in memory, or a directory shared across OS processes);
- :class:`RecoveryManager` — reacts to ``coreFailed`` by restoring the
  dead Core's checkpointed complets on a survivor, repairing tracker
  chains and location-registry records, and reconciling identities when
  the dead Core comes back.

Entry point: :meth:`repro.cluster.cluster.Cluster.enable_recovery`.
"""

from repro.recovery.checkpoint import Checkpointer
from repro.recovery.detector import DetectorConfig, FailureDetector
from repro.recovery.recovery import RecoveryManager, RecoveryReport
from repro.recovery.store import CheckpointRecord, CheckpointStore

__all__ = [
    "CheckpointRecord",
    "CheckpointStore",
    "Checkpointer",
    "DetectorConfig",
    "FailureDetector",
    "RecoveryManager",
    "RecoveryReport",
]
