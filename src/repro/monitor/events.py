"""Monitor events: asynchronous threshold notification (§4.2).

Registering a watch starts (or joins) the continuous profile of the
watched service and attaches a per-sample filter holding the watch's
threshold.  The *measurement* is shared — a hundred listeners with a
hundred different thresholds still cost one sampler — which is the
paper's "many listeners without overloading the measurement unit".

When a sample crosses the threshold, the engine publishes an event on
the Core's event bus, from which local callables, remote Cores, and
complet listeners all receive it.  Watches are edge-triggered by
default (one event per crossing); ``repeat=True`` fires on every
sample satisfying the predicate.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from collections.abc import Callable

from repro.errors import ConfigurationError

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.core import Core

#: Comparison operators accepted by watches (script syntax uses the same).
OPERATORS: dict[str, Callable[[float, float], bool]] = {
    ">": operator.gt,
    "<": operator.lt,
    ">=": operator.ge,
    "<=": operator.le,
}


@dataclass(slots=True)
class WatchSpec:
    """Declarative description of one threshold watch."""

    service: str
    op: str
    threshold: float
    interval: float = 1.0
    params: dict = field(default_factory=dict)
    event_name: str | None = None
    repeat: bool = False

    def resolved_event_name(self) -> str:
        if self.event_name is not None:
            return self.event_name
        return f"{self.service}{self.op}{self.threshold:g}"


@dataclass(slots=True)
class _Watch:
    watch_id: int
    spec: WatchSpec
    predicate: Callable[[float], bool]
    listener_handle: tuple
    satisfied: bool = False
    fired_count: int = 0


class MonitorEventEngine:
    """One Core's threshold-event engine."""

    def __init__(self, core: "Core") -> None:
        self.core = core
        self._ids = itertools.count(1)
        self._watches: dict[int, _Watch] = {}

    def watch(
        self,
        service: str,
        op: str,
        threshold: float,
        *,
        interval: float = 1.0,
        event_name: str | None = None,
        repeat: bool = False,
        **params,
    ) -> int:
        """Install a threshold watch; returns its id.

        The fired event's name defaults to ``"<service><op><threshold>"``
        (e.g. ``"invocationRate>3"``) and carries the measured value, the
        threshold, and the watch parameters in its data.
        """
        spec = WatchSpec(
            service=service,
            op=op,
            threshold=threshold,
            interval=interval,
            params=dict(params),
            event_name=event_name,
            repeat=repeat,
        )
        return self.watch_spec(spec)

    def watch_spec(self, spec: WatchSpec) -> int:
        compare = OPERATORS.get(spec.op)
        if compare is None:
            raise ConfigurationError(
                f"unknown comparison {spec.op!r}; expected one of {sorted(OPERATORS)}"
            )
        self.core.profiler.start(spec.service, interval=spec.interval, **spec.params)
        watch_id = next(self._ids)

        def on_sample(value: float, average: float) -> None:
            self._evaluate(watch_id, average)

        handle = self.core.profiler.add_sample_listener(
            spec.service, on_sample, **spec.params
        )
        threshold = spec.threshold
        self._watches[watch_id] = _Watch(
            watch_id=watch_id,
            spec=spec,
            predicate=lambda value: compare(value, threshold),
            listener_handle=handle,
        )
        return watch_id

    def unwatch(self, watch_id: int) -> None:
        watch = self._watches.pop(watch_id, None)
        if watch is None:
            return
        self.core.profiler.remove_sample_listener(watch.listener_handle)
        self.core.profiler.stop(watch.spec.service, **watch.spec.params)

    def active_watches(self) -> int:
        return len(self._watches)

    def fired_count(self, watch_id: int) -> int:
        watch = self._watches.get(watch_id)
        return watch.fired_count if watch is not None else 0

    def shutdown(self) -> None:
        for watch_id in list(self._watches):
            self.unwatch(watch_id)

    # -- evaluation ------------------------------------------------------------------

    def _evaluate(self, watch_id: int, value: float) -> None:
        watch = self._watches.get(watch_id)
        if watch is None:
            return
        holds = watch.predicate(value)
        should_fire = holds if watch.spec.repeat else (holds and not watch.satisfied)
        watch.satisfied = holds
        if not should_fire:
            return
        watch.fired_count += 1
        self.core.metrics.counter(
            "monitor.watch_fires", service=watch.spec.service
        ).inc()
        event_name = watch.spec.resolved_event_name()
        tracer = self.core.tracer
        if tracer.enabled:
            # A threshold crossing starts its own causal tree: whatever
            # the crossing triggers (script rules, moves, notifications)
            # becomes one trace rooted at this watch fire — even when the
            # sample was taken while unrelated traced work was active.
            with tracer.span(
                f"watch:{event_name}",
                category="watch",
                root=True,
                service=watch.spec.service,
                value=value,
                threshold=watch.spec.threshold,
            ):
                self._fire(watch, event_name, value)
        else:
            self._fire(watch, event_name, value)

    def _fire(self, watch: _Watch, event_name: str, value: float) -> None:
        self.core.events.publish(
            event_name,
            service=watch.spec.service,
            value=value,
            threshold=watch.spec.threshold,
            **watch.spec.params,
        )
