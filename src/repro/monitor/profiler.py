"""The profiling services of §4.1.

Every service is exposed through two interfaces, exactly as the paper
specifies:

- **instant** — :meth:`Profiler.instant` evaluates the service now.  A
  small TTL cache serves successive instant requests without
  re-evaluation ("the monitor caches recent results").
- **continuous** — :meth:`Profiler.start` begins periodic sampling into
  an exponential average, :meth:`Profiler.get` reads the current
  average, and :meth:`Profiler.stop` ends the sampling *if no other
  client still needs it* (starts are reference-counted).  Only services
  someone started are ever sampled, "minimizing system overhead".

Application profiling (invocation rates and byte rates along complet
references) is fed by the invocation unit through :meth:`note_invocation`
and :meth:`note_served`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from collections.abc import Callable

from repro.errors import ProfilingNotStartedError, UnknownServiceError
from repro.monitor.services import register_builtin_services
from repro.sim.scheduler import Timer
from repro.util.ema import ExponentialAverage, RateMeter
from repro.util.ids import CompletId

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.core import Core

#: Attribution for invocations issued outside any complet (driver code).
EXTERNAL = "external"

#: A sample listener receives (raw sample, running average).
SampleListener = Callable[[float, float], None]

#: Service implementation: evaluates the quantity now for given params.
ServiceFn = Callable[["Core", dict], float]


@dataclass(slots=True)
class ServiceDef:
    """One registered profiling service."""

    name: str
    fn: ServiceFn
    description: str = ""
    #: Expensive services (closure scans, probes) are worth caching and
    #: are better used through the instant interface (§4.1).
    expensive: bool = False
    #: Services that already return a smoothed value (rate meters) keep
    #: alpha=1.0 in their continuous profile to avoid double smoothing.
    default_alpha: float | None = None


#: Samples kept per continuous profile for history queries.
HISTORY_CAPACITY = 256


class ListenerFanoutStats:
    """Process-wide sample-listener fan-out counters (bench-facing).

    ``snapshots_built`` counts listener-table snapshot constructions per
    sampler tick; with snapshot caching this drops to once per
    listener-set change.
    """

    __slots__ = ("snapshots_built", "sample_ticks")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.snapshots_built = 0
        self.sample_ticks = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "snapshots_built": self.snapshots_built,
            "sample_ticks": self.sample_ticks,
        }


#: Shared counters; ``LISTENER_STATS.reset()`` scopes a measurement window.
LISTENER_STATS = ListenerFanoutStats()


@dataclass(slots=True)
class ContinuousProfile:
    """A running continuous measurement of one (service, params) pair."""

    service: ServiceDef
    params: dict
    interval: float
    average: ExponentialAverage
    timer: Timer | None = None
    refcount: int = 1
    samples_taken: int = 0
    last_sample: float = 0.0
    listeners: dict[int, SampleListener] = field(default_factory=dict)
    #: Cached immutable view of ``listeners``, rebuilt lazily after a
    #: listener change instead of on every sampler tick.
    listener_snapshot: tuple[tuple[int, SampleListener], ...] | None = None
    #: Recent (time, raw sample) pairs, oldest first, bounded.
    history: list[tuple[float, float]] = field(default_factory=list)


def _key(service: str, params: dict) -> tuple:
    return (service, tuple(sorted(params.items())))


class ProfilingSession:
    """A handle on one continuous profile (the preferred interface).

    Obtained from :meth:`Profiler.session` (or ``core.profile(...)``).
    Reads the running average via :attr:`value`, the raw sample history
    via :meth:`history`, and releases its reference on :meth:`stop` —
    automatically when used as a context manager.  Stopping twice is a
    no-op, so sessions are safe to close defensively.
    """

    __slots__ = ("profiler", "service", "params", "key", "_open")

    def __init__(
        self,
        profiler: "Profiler",
        service: str,
        *,
        interval: float = 1.0,
        alpha: float | None = None,
        **params,
    ) -> None:
        self.profiler = profiler
        self.service = service
        self.params = dict(params)
        self.key = profiler.start(service, interval=interval, alpha=alpha, **params)
        self._open = True

    @property
    def value(self) -> float:
        """The current exponential average of the profiled quantity."""
        return self.profiler.get(self.service, **self.params)

    @property
    def active(self) -> bool:
        return self._open

    def history(self) -> list[tuple[float, float]]:
        """Recent ``(time, raw sample)`` pairs, oldest first."""
        return self.profiler.history(self.service, **self.params)

    def stop(self) -> None:
        """Release this session's reference (idempotent)."""
        if not self._open:
            return
        self._open = False
        self.profiler.stop(self.service, **self.params)

    def __enter__(self) -> "ProfilingSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "open" if self._open else "stopped"
        return f"<ProfilingSession {self.service} {self.params or ''} ({state})>"


class Profiler:
    """One Core's profiling unit."""

    def __init__(self, core: "Core", *, cache_ttl: float = 1.0) -> None:
        self.core = core
        self.cache_ttl = cache_ttl
        self._services: dict[str, ServiceDef] = {}
        self._profiles: dict[tuple, ContinuousProfile] = {}
        self._cache: dict[tuple, tuple[float, float]] = {}
        self._listener_ids = 0
        # Counters live in the Core's unified metrics registry; the
        # instruments are bound here once, per-service lazily below.
        self._cache_hit_counter = core.metrics.counter("profiler.cache_hits")
        self._evaluation_counters: dict[str, object] = {}
        # Application-profiling meters, fed by the invocation unit.
        self._invocation_meters: dict[tuple[str, str], RateMeter] = {}
        self._byte_meters: dict[tuple[str, str], RateMeter] = {}
        self._served_meters: dict[str, RateMeter] = {}
        self._cpu_meter = RateMeter()
        register_builtin_services(self)

    # -- service registry -----------------------------------------------------------

    def register_service(
        self,
        name: str,
        fn: ServiceFn,
        *,
        description: str = "",
        expensive: bool = False,
        default_alpha: float | None = None,
    ) -> None:
        """Add a profiling service (applications may add their own)."""
        self._services[name] = ServiceDef(name, fn, description, expensive, default_alpha)

    def service(self, name: str) -> ServiceDef:
        try:
            return self._services[name]
        except KeyError:
            raise UnknownServiceError(
                f"Core {self.core.name!r} has no profiling service {name!r}; "
                f"known: {sorted(self._services)}"
            ) from None

    def services(self) -> list[str]:
        return sorted(self._services)

    # -- instant interface -----------------------------------------------------------

    def instant(self, service: str, *, use_cache: bool = True, **params) -> float:
        """Evaluate ``service`` now (serving from the TTL cache if fresh)."""
        definition = self.service(service)
        key = _key(service, params)
        now = self.core.scheduler.clock.now()
        if use_cache:
            cached = self._cache.get(key)
            if cached is not None and now - cached[0] <= self.cache_ttl:
                self._cache_hit_counter.inc()
                return cached[1]
        value = self._evaluate(definition, params)
        self._cache[key] = (now, value)
        return value

    def _evaluate(self, definition: ServiceDef, params: dict) -> float:
        counter = self._evaluation_counters.get(definition.name)
        if counter is None:
            counter = self._evaluation_counters[definition.name] = (
                self.core.metrics.counter(
                    "profiler.evaluations", service=definition.name
                )
            )
        counter.inc()  # type: ignore[attr-defined]
        return float(definition.fn(self.core, params))

    @property
    def evaluations(self) -> Counter:
        """Evaluation counts per service (shows what the cache avoided).

        A read-only view over the ``profiler.evaluations`` counters in
        the Core's metrics registry.
        """
        counts: Counter = Counter()
        for labels, counter in self.core.metrics.counters_named(
            "profiler.evaluations"
        ).items():
            counts[dict(labels)["service"]] = int(counter.value)
        return counts

    @property
    def cache_hits(self) -> int:
        """Instant reads served from the TTL cache (registry-backed)."""
        return int(self._cache_hit_counter.value)

    # -- continuous interface ------------------------------------------------------------

    def start(
        self,
        service: str,
        *,
        interval: float = 1.0,
        alpha: float | None = None,
        **params,
    ) -> tuple:
        """Begin (or join) continuous profiling of ``service``.

        Starts are reference-counted: a second client starting the same
        (service, params) pair shares the existing sampler instead of
        adding measurement work.  Returns the profile key for use with
        :meth:`get` / :meth:`stop`.
        """
        definition = self.service(service)
        key = _key(service, params)
        profile = self._profiles.get(key)
        if profile is not None:
            profile.refcount += 1
            return key
        if alpha is None:
            alpha = definition.default_alpha if definition.default_alpha is not None else 0.3
        profile = ContinuousProfile(
            service=definition,
            params=params,
            interval=interval,
            average=ExponentialAverage(alpha),
        )
        profile.timer = self.core.scheduler.call_every(interval, self._sample, key)
        self._profiles[key] = profile
        return key

    def session(
        self,
        service: str,
        *,
        interval: float = 1.0,
        alpha: float | None = None,
        **params,
    ) -> ProfilingSession:
        """Begin (or join) continuous profiling, returning a session handle."""
        return ProfilingSession(
            self, service, interval=interval, alpha=alpha, **params
        )

    def get(self, service: str, **params) -> float:
        """Current average of a continuous profile."""
        profile = self._profiles.get(_key(service, params))
        if profile is None:
            raise ProfilingNotStartedError(
                f"continuous profiling of {service!r} {params or ''} was not started"
            )
        return profile.average.value

    def stop(self, service: str, **params) -> None:
        """Leave a continuous profile; sampling ends with the last client."""
        key = _key(service, params)
        profile = self._profiles.get(key)
        if profile is None:
            raise ProfilingNotStartedError(
                f"continuous profiling of {service!r} {params or ''} was not started"
            )
        profile.refcount -= 1
        if profile.refcount <= 0 and not profile.listeners:
            self._drop_profile(key, profile)

    def _drop_profile(self, key: tuple, profile: ContinuousProfile) -> None:
        if profile.timer is not None:
            profile.timer.cancel()
        self._profiles.pop(key, None)

    def _sample(self, key: tuple) -> None:
        profile = self._profiles.get(key)
        if profile is None:
            return
        value = self._evaluate(profile.service, profile.params)
        average = profile.average.add(value)
        profile.samples_taken += 1
        profile.last_sample = value
        profile.history.append((self.core.scheduler.clock.now(), value))
        if len(profile.history) > HISTORY_CAPACITY:
            del profile.history[: len(profile.history) - HISTORY_CAPACITY]
        LISTENER_STATS.sample_ticks += 1
        snapshot = profile.listener_snapshot
        if snapshot is None:
            if profile.listeners:
                LISTENER_STATS.snapshots_built += 1
            snapshot = profile.listener_snapshot = tuple(profile.listeners.items())
        # Membership is re-checked per call so a listener removed by an
        # earlier listener of the same tick (e.g. ``unwatch`` from inside
        # a watch handler) is not fired with the in-flight sample.
        for listener_id, listener in snapshot:
            if profile.listeners.get(listener_id) is listener:
                listener(value, average)

    def history(self, service: str, **params) -> list[tuple[float, float]]:
        """Recent ``(time, raw sample)`` pairs of a continuous profile.

        Bounded to the last :data:`HISTORY_CAPACITY` samples; the viewer
        renders these as sparklines, experiments plot them directly.
        """
        profile = self._profiles.get(_key(service, params))
        if profile is None:
            raise ProfilingNotStartedError(
                f"continuous profiling of {service!r} {params or ''} was not started"
            )
        return list(profile.history)

    # -- sample listeners (used by the monitor-event engine) ----------------------------

    def add_sample_listener(
        self, service: str, listener: SampleListener, **params
    ) -> tuple[tuple, int]:
        """Attach a per-sample callback to a started continuous profile."""
        key = _key(service, params)
        profile = self._profiles.get(key)
        if profile is None:
            raise ProfilingNotStartedError(
                f"cannot listen to {service!r}: continuous profiling not started"
            )
        self._listener_ids += 1
        profile.listeners[self._listener_ids] = listener
        profile.listener_snapshot = None
        return (key, self._listener_ids)

    def remove_sample_listener(self, handle: tuple[tuple, int]) -> None:
        key, listener_id = handle
        profile = self._profiles.get(key)
        if profile is None:
            return
        profile.listeners.pop(listener_id, None)
        profile.listener_snapshot = None
        if profile.refcount <= 0 and not profile.listeners:
            self._drop_profile(key, profile)

    # -- introspection --------------------------------------------------------------------

    def active_profiles(self) -> int:
        """Number of (service, params) pairs currently being sampled."""
        return len(self._profiles)

    def profile_keys(self) -> list[tuple]:
        return list(self._profiles)

    # -- application-profiling feed (called by the invocation unit) -----------------------

    def note_invocation(
        self, source: CompletId | None, target: CompletId, nbytes: int
    ) -> None:
        src = str(source) if source is not None else EXTERNAL
        dst = str(target)
        self._meter(self._invocation_meters, (src, dst)).mark()
        self._meter(self._byte_meters, (src, dst)).mark(nbytes)

    def note_result_bytes(
        self, source: CompletId | None, target: CompletId, nbytes: int
    ) -> None:
        """Result payloads count toward the reference's byte rate too —
        a reference pulling bulk data *back* is just as link-hungry."""
        src = str(source) if source is not None else EXTERNAL
        self._meter(self._byte_meters, (src, str(target))).mark(nbytes)

    def note_served(self, complet_id: CompletId) -> None:
        self._cpu_meter.mark()
        self._meter(self._served_meters, str(complet_id)).mark()

    @staticmethod
    def _meter(table: dict, key) -> RateMeter:
        meter = table.get(key)
        if meter is None:
            meter = table[key] = RateMeter()
        return meter

    def invocation_meter(self, src: str, dst: str) -> RateMeter:
        return self._meter(self._invocation_meters, (src, dst))

    def byte_meter(self, src: str, dst: str) -> RateMeter:
        return self._meter(self._byte_meters, (src, dst))

    def served_meter(self, complet: str) -> RateMeter:
        return self._meter(self._served_meters, complet)

    @property
    def cpu_meter(self) -> RateMeter:
        return self._cpu_meter

    def shutdown(self) -> None:
        """Cancel every sampler (Core shutdown)."""
        for key, profile in list(self._profiles.items()):
            self._drop_profile(key, profile)
