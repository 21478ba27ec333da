"""Failure injection on the virtual timeline.

Schedules the environmental changes the paper's layout policies react
to: link degradation and recovery, link cuts, Core shutdown and crash,
revival, and network partitions — all as timers on the cluster's
scheduler, so a single ``cluster.advance(...)`` replays a whole failure
scenario deterministically.

Every injection is observable after the fact: it is appended to
:attr:`FailureInjector.log`, counted in the injector's metrics registry
(``injector.events{kind=...}``), and — when tracing is enabled — stamped
into the trace as an instant ``inject:<kind>`` span, so a Chrome trace
of a chaos run shows exactly when the environment turned hostile.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.cluster import Cluster
from repro.metrics.registry import MetricsRegistry
from repro.sim.scheduler import Timer


@dataclass(slots=True)
class FailureInjector:
    """Deterministic scheduler of environmental changes.

    Every injection goes through the cluster handle.  A crash or
    shutdown also ends a child's process on ``procs``, and a revival
    there is the Supervisor's to make.  Link cuts, latency and
    partitions reach every hub, a child's included, on the simulated
    network and real TCP alike.  Bandwidth shaping is the simulated
    network's alone: on TCP it raises
    :class:`~repro.errors.TransportCapabilityError` when the injection
    fires.
    """

    cluster: Cluster
    #: Log of injected changes: (time, description), for experiment reports.
    log: list[tuple[float, str]] = field(default_factory=list)
    #: Injection counts by kind, merged into cluster-wide metric views.
    metrics: MetricsRegistry = field(
        default_factory=lambda: MetricsRegistry("injector")
    )
    _timers: list[Timer] = field(default_factory=list)

    def _at(self, time: float, kind: str, description: str, action) -> Timer:
        def fire() -> None:
            self.log.append((self.cluster.now, description))
            self.metrics.counter("injector.events", kind=kind).inc()
            self._annotate(kind, description)
            action()

        timer = self.cluster.scheduler.call_at(time, fire)
        self._timers.append(timer)
        return timer

    def _annotate(self, kind: str, description: str) -> None:
        """Stamp the injection into the seat's trace as an instant root span."""
        tracer = self.cluster.seat.tracer
        if tracer.enabled:
            tracer.finish(
                tracer.start_span(
                    f"inject:{kind}", category="failure", root=True, description=description
                )
            )

    def degrade_link_at(
        self, time: float, a: str, b: str, *, bandwidth: float | None = None,
        latency: float | None = None,
    ) -> Timer:
        """Change a link's characteristics at a point in virtual time."""
        description = f"link {a}<->{b} becomes bw={bandwidth} lat={latency}"
        return self._at(
            time,
            "degrade_link",
            description,
            lambda: self.cluster.set_link(a, b, bandwidth=bandwidth, latency=latency),
        )

    def cut_link_at(self, time: float, a: str, b: str) -> Timer:
        return self._at(
            time,
            "cut_link",
            f"link {a}<->{b} goes down",
            lambda: self.cluster.set_link(a, b, up=False),
        )

    def restore_link_at(self, time: float, a: str, b: str) -> Timer:
        return self._at(
            time,
            "restore_link",
            f"link {a}<->{b} comes back",
            lambda: self.cluster.set_link(a, b, up=True),
        )

    def outage_at(self, time: float, a: str, b: str, duration: float) -> tuple[Timer, Timer]:
        """Cut the a<->b link at ``time``, restore it ``duration`` later.

        The shape every retry/abort scenario needs: a transient outage
        that a :class:`~repro.net.retry.RetryPolicy` can ride through —
        or, without one, that aborts the interaction at ``time`` and lets
        a later retry succeed.
        """
        return (
            self.cut_link_at(time, a, b),
            self.restore_link_at(time + duration, a, b),
        )

    def shutdown_core_at(self, time: float, name: str) -> Timer:
        """Graceful shutdown: the Core fires ``coreShutdown`` first."""
        return self._at(
            time,
            "shutdown_core",
            f"core {name} shuts down",
            lambda: self.cluster.shutdown_core(name),
        )

    def crash_core_at(self, time: float, name: str) -> Timer:
        """Hard crash: no shutdown event, the node simply stops answering
        (:meth:`~repro.cluster.cluster.Cluster.crash_core`)."""
        return self._at(
            time,
            "crash_core",
            f"core {name} crashes",
            lambda: self.cluster.crash_core(name),
        )

    def revive_core_at(self, time: float, name: str) -> Timer:
        """The crashed node answers again (:meth:`~repro.cluster.cluster.Cluster.revive_core`)."""
        return self._at(
            time,
            "revive_core",
            f"core {name} revives",
            lambda: self.cluster.revive_core(name),
        )

    def partition_at(self, time: float, *groups: set[str]) -> Timer:
        return self._at(
            time,
            "partition",
            f"network partitions into {[sorted(g) for g in groups]}",
            lambda: self.cluster.partition(*groups),
        )

    def heal_at(self, time: float) -> Timer:
        return self._at(time, "heal", "partition heals", self.cluster.heal_partition)

    def injected_count(self, kind: str | None = None) -> int:
        """Injections fired so far, optionally of one kind."""
        if kind is None:
            return len(self.log)
        return int(self.metrics.counter_value("injector.events", kind=kind))

    def cancel_all(self) -> None:
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
