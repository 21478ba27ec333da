"""Cluster harness: build and drive multi-Core FarGo deployments.

The :class:`~repro.cluster.cluster.Cluster` is the one handle on a
deployment, whichever of the three shapes ``transport=`` picks: Cores of
this process on the simulated network (the default) or on per-Core TCP
hubs (``"tcp"``), or Cores in OS processes of their own (``"procs"``,
started through :mod:`repro.cluster.launch`).  It owns the clock and the
transport and reads the Cores through their admin interface.  Topology
helpers shape the simulated link matrix (LAN/WAN profiles), and the
failure injector schedules crashes and link degradation through the
transport's chaos hooks.
"""

from repro.cluster.cluster import Cluster
from repro.cluster.topology import configure_star, configure_uniform, configure_wan
from repro.cluster.failures import FailureInjector
from repro.cluster.launch import CoreProcesses
from repro.cluster.supervisor import RestartPolicy, Supervisor

__all__ = [
    "Cluster",
    "configure_star",
    "configure_uniform",
    "configure_wan",
    "FailureInjector",
    "CoreProcesses",
    "RestartPolicy",
    "Supervisor",
]
