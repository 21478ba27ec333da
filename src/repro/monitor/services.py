"""Built-in profiling services (§4.1).

System services measure the environment: how many complets a Core
hosts, the bandwidth and latency toward a peer Core (by active probing
through the Peer Interface), memory pressure, CPU load.  Application
services measure how the application *uses* complet references: the
invocation rate and byte rate between two complets — possible because
complet references are realized by the Core itself.

Bandwidth and latency are measured honestly with a two-size probe pair:
sending ``s₁`` and ``s₂`` byte probes and timing both round trips gives
``bandwidth = (s₂ - s₁) / (t₂ - t₁)`` independent of latency, and then
``latency = (t₁ - s₁/bandwidth) / 2``.
"""

from __future__ import annotations

from repro.complet.closure import compute_closure
from repro.errors import MonitoringError
from repro.net.messages import MessageKind

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.core import Core
    from repro.monitor.profiler import Profiler

#: Probe sizes for the bandwidth/latency estimator, in bytes.  Active
#: probing charges the link it measures, so the large probe is kept
#: modest: at the slowest links worth adapting around (~10 KB/s) one
#: probe pair costs ~1.5 s of link time; the instant-read cache (§4.1)
#: keeps repeated policy evaluations from re-paying it.
PROBE_SMALL = 1_024
PROBE_LARGE = 16_384


def register_builtin_services(profiler: "Profiler") -> None:
    """Install the paper's service set on a fresh profiler."""
    profiler.register_service(
        "completLoad",
        _complet_load,
        description="number of complets hosted by this Core",
    )
    profiler.register_service(
        "trackerLoad",
        _tracker_load,
        description="number of trackers kept by this Core",
    )
    profiler.register_service(
        "completSize",
        _complet_size,
        description="marshaled closure size of a complet, in bytes (params: complet)",
        expensive=True,
    )
    profiler.register_service(
        "coreMemory",
        _core_memory,
        description="total marshaled size of all hosted complets, in bytes",
        expensive=True,
    )
    profiler.register_service(
        "bandwidth",
        _bandwidth,
        description="measured bandwidth toward a peer Core, bytes/s (params: peer)",
        expensive=True,
    )
    profiler.register_service(
        "latency",
        _latency,
        description="measured one-way latency toward a peer Core, s (params: peer)",
        expensive=True,
    )
    profiler.register_service(
        "invocationRate",
        _invocation_rate,
        description="invocations/s along a complet reference (params: src, dst)",
        default_alpha=1.0,
    )
    profiler.register_service(
        "byteRate",
        _byte_rate,
        description="marshaled bytes/s along a complet reference (params: src, dst)",
        default_alpha=1.0,
    )
    profiler.register_service(
        "invocationCount",
        _invocation_count,
        description="total invocations along a complet reference (params: src, dst)",
    )
    profiler.register_service(
        "cpuLoad",
        _cpu_load,
        description="invocations executed per second on this Core",
        default_alpha=1.0,
    )
    profiler.register_service(
        "servedRate",
        _served_rate,
        description="invocations/s served by one complet (params: complet)",
        default_alpha=1.0,
    )
    profiler.register_service(
        "linkBytes",
        _link_bytes,
        description="total bytes exchanged with a peer Core (params: peer)",
    )


# -- system services ---------------------------------------------------------------


def _complet_load(core: "Core", params: dict) -> float:
    return float(len(core.repository))


def _tracker_load(core: "Core", params: dict) -> float:
    return float(core.repository.tracker_count())


def _complet_size(core: "Core", params: dict) -> float:
    anchor = core.repository.find_by_str(_require(params, "complet"))
    if anchor is None:
        raise MonitoringError(
            f"completSize: complet {params.get('complet')!r} is not hosted at "
            f"{core.name!r}"
        )
    return float(compute_closure(anchor).size_bytes)


def _core_memory(core: "Core", params: dict) -> float:
    return float(sum(compute_closure(a).size_bytes for a in core.repository.anchors()))


def _probe(core: "Core", peer: str, size: int) -> float:
    """Round-trip a probe of ``size`` bytes; returns elapsed seconds."""
    clock = core.scheduler.clock
    before = clock.now()
    core.peer.request_raw(
        peer, MessageKind.PROFILE_PROBE, size.to_bytes(8, "big") + b"\x00" * size
    )
    return clock.now() - before


def _bandwidth_and_latency(core: "Core", peer: str) -> tuple[float, float]:
    t_small = _probe(core, peer, PROBE_SMALL)
    t_large = _probe(core, peer, PROBE_LARGE)
    if t_large <= t_small:
        # Links faster than the probe can resolve (or zero-cost loopback).
        return float("inf"), max(t_small / 2.0, 0.0)
    bandwidth = (PROBE_LARGE - PROBE_SMALL) / (t_large - t_small)
    latency = max((t_small - PROBE_SMALL / bandwidth) / 2.0, 0.0)
    return bandwidth, latency


def _bandwidth(core: "Core", params: dict) -> float:
    bandwidth, _latency_ = _bandwidth_and_latency(core, _require(params, "peer"))
    return bandwidth


def _latency(core: "Core", params: dict) -> float:
    _bandwidth_, latency = _bandwidth_and_latency(core, _require(params, "peer"))
    return latency


def _link_bytes(core: "Core", params: dict) -> float:
    return float(core.peer.link_bytes(_require(params, "peer")))


# -- application services ----------------------------------------------------------------


def _invocation_rate(core: "Core", params: dict) -> float:
    meter = core.profiler.invocation_meter(
        _require(params, "src"), _require(params, "dst")
    )
    return meter.sample(core.scheduler.clock.now())


def _byte_rate(core: "Core", params: dict) -> float:
    meter = core.profiler.byte_meter(_require(params, "src"), _require(params, "dst"))
    return meter.sample(core.scheduler.clock.now())


def _invocation_count(core: "Core", params: dict) -> float:
    meter = core.profiler.invocation_meter(
        _require(params, "src"), _require(params, "dst")
    )
    return meter.total


def _cpu_load(core: "Core", params: dict) -> float:
    return core.profiler.cpu_meter.sample(core.scheduler.clock.now())


def _served_rate(core: "Core", params: dict) -> float:
    meter = core.profiler.served_meter(_require(params, "complet"))
    return meter.sample(core.scheduler.clock.now())


def _require(params: dict, key: str) -> str:
    try:
        return str(params[key])
    except KeyError:
        raise MonitoringError(f"profiling service requires parameter {key!r}") from None
