"""FarGo reproduced: system support for dynamic layout of distributed applications.

A from-scratch Python reimplementation of the FarGo runtime (Holder,
Ben-Shaul, Gazit — ICDCS 1999): complets with relocation-aware
references (``link`` / ``pull`` / ``duplicate`` / ``stamp``), a
stationary Core runtime with location-transparent tracker chains,
monitoring-driven relocation, and an external layout scripting language
— all over a simulated wide-area network with a virtual clock.

Quickstart (the paper's Figure 3)::

    from repro import Anchor, Cluster, Carrier, compile_complet

    class Message_(Anchor):
        def __init__(self, msg):
            self.msg = msg
        def print_message(self):
            return self.msg

    Message = compile_complet(Message_)

    cluster = Cluster(["technion", "acadia"])
    msg = Message("Hello World", _core=cluster["technion"])
    Carrier.move(msg, "acadia")
    assert msg.print_message() == "Hello World"
"""

from repro.complet.anchor import Anchor, current_complet, current_core
from repro.complet.metaref import MetaRef
from repro.complet.relocators import Duplicate, Link, Pull, Relocator, Stamp
from repro.complet.stub import (
    Stub,
    compile_complet,
    stub_core,
    stub_meta,
    stub_target_id,
    stub_tracker,
)
from repro.complet.continuation import Continuation
from repro.core.admin import CoreAdmin
from repro.core.carrier import Carrier
from repro.core.core import Core
from repro.core.events import Event
from repro.cluster.cluster import Cluster
from repro.cluster.failures import FailureInjector
from repro.cluster.topology import configure_star, configure_uniform, configure_wan
from repro.errors import TransportCapabilityError, TransportError
from repro.metrics import MetricsRegistry, merge_snapshots
from repro.monitor.profiler import ProfilingSession
from repro.net import SimTransport, TcpTransport, Transport
from repro.store import (
    FileStore,
    InMemoryStore,
    ObjectStore,
    StoreClient,
    StoreKey,
    StoreProxy,
)
from repro.recovery import (
    CheckpointManager,
    CheckpointPolicy,
    CheckpointStore,
    DetectorConfig,
    FailureDetector,
    RecoveryManager,
)
from repro.trace import (
    Span,
    SpanContext,
    Trace,
    Tracer,
    assemble_traces,
    chrome_trace_json,
)
from repro import errors

__version__ = "1.0.0"

__all__ = [
    "Anchor",
    "Carrier",
    "CheckpointManager",
    "CheckpointPolicy",
    "CheckpointStore",
    "Cluster",
    "Continuation",
    "Core",
    "CoreAdmin",
    "DetectorConfig",
    "Duplicate",
    "Event",
    "FailureDetector",
    "FailureInjector",
    "FileStore",
    "InMemoryStore",
    "Link",
    "MetaRef",
    "MetricsRegistry",
    "ObjectStore",
    "ProfilingSession",
    "Pull",
    "RecoveryManager",
    "Relocator",
    "SimTransport",
    "Span",
    "SpanContext",
    "Stamp",
    "StoreClient",
    "StoreKey",
    "StoreProxy",
    "Stub",
    "TcpTransport",
    "Trace",
    "Tracer",
    "Transport",
    "TransportCapabilityError",
    "TransportError",
    "assemble_traces",
    "chrome_trace_json",
    "compile_complet",
    "configure_star",
    "configure_uniform",
    "configure_wan",
    "current_complet",
    "current_core",
    "errors",
    "merge_snapshots",
    "stub_core",
    "stub_meta",
    "stub_target_id",
    "stub_tracker",
    "__version__",
]
