"""Exception hierarchy for the FarGo reproduction.

Every error raised by this library derives from :class:`FarGoError`, so
applications can catch the whole family with one clause while still being
able to discriminate the precise failure.  The hierarchy mirrors the
subsystems of the runtime: the complet programming model, the Core, the
network substrate, monitoring, and the layout scripting language.
"""

from __future__ import annotations


class FarGoError(Exception):
    """Base class of every error raised by the FarGo runtime."""


class ConfigurationError(FarGoError):
    """A runtime component was configured with invalid parameters."""


# ---------------------------------------------------------------------------
# Complet programming model
# ---------------------------------------------------------------------------


class CompletError(FarGoError):
    """Base class for errors in the complet programming model."""


class NotAnAnchorError(CompletError):
    """An object that is not a complet anchor was used where one is required."""


class NotAStubError(CompletError):
    """An object that is not a complet stub was used where one is required."""


class StubGenerationError(CompletError):
    """The stub compiler could not generate a stub class for an anchor class."""


class CompletBoundaryError(CompletError):
    """A raw anchor object was reached by graph traversal without a stub.

    The FarGo model requires every inter-complet reference to go through a
    stub; a direct reference to another complet's anchor (or to any object
    in another complet's closure) violates the complet boundary and would
    silently break relocation.  The closure and marshaling code detect the
    situation and raise this error instead.
    """


class DanglingReferenceError(CompletError):
    """A complet reference points at a target that no longer exists."""


# ---------------------------------------------------------------------------
# Relocation / movement
# ---------------------------------------------------------------------------


class RelocationError(FarGoError):
    """Base class for errors raised while moving complets."""


class MovementDeniedError(RelocationError):
    """A movement request was rejected (e.g. the complet is anchored)."""


class StampResolutionError(RelocationError):
    """No complet of the required type exists at the destination Core.

    Raised when a ``stamp`` reference is unmarshaled at a Core that hosts
    no complet of (or assignable to) the stamped type.
    """


class ContinuationError(RelocationError):
    """A movement continuation method could not be resolved or invoked."""


# ---------------------------------------------------------------------------
# Core runtime
# ---------------------------------------------------------------------------


class CoreError(FarGoError):
    """Base class for errors concerning Core lifecycle and identity."""


class CoreNotFoundError(CoreError):
    """The named Core is not known to the cluster."""


class CoreDownError(CoreError):
    """The target Core has been shut down."""


class CoreUnreachableError(CoreError):
    """The target Core cannot be reached (link down or network partition)."""


class DeadlineExceededError(CoreError):
    """A cross-Core call did not complete within its timeout.

    Raised by :meth:`repro.net.rpc.RpcEndpoint.call` when the round trip
    took longer (in virtual time) than the deadline configured for the
    message kind.  The reply — if one eventually arrived — is discarded,
    exactly as a timed-out RMI call discards a late answer.  Note that
    the remote handler may still have executed: retrying a call after
    this error gives at-least-once semantics.  Movement commit traffic
    (``MOVE_COMPLET``) is sent deadline-exempt so this indeterminacy can
    never split a move between a committed arrival and an aborted
    departure.
    """


class DuplicateCoreError(CoreError):
    """A Core with the same name is already registered in the cluster."""


class SerialsExhaustedError(CoreError):
    """A Core life has minted every complet or tracker serial of its range."""


# ---------------------------------------------------------------------------
# Naming service
# ---------------------------------------------------------------------------


class NamingError(FarGoError):
    """Base class for naming-service errors."""


class NameNotFoundError(NamingError):
    """No complet is bound under the requested logical name."""


class NameAlreadyBoundError(NamingError):
    """The logical name is already bound to a complet."""


# ---------------------------------------------------------------------------
# Invocation
# ---------------------------------------------------------------------------


class InvocationError(FarGoError):
    """Base class for method-invocation errors."""


class RemoteInvocationError(InvocationError):
    """A remote invocation failed inside the target complet.

    The original exception (re-raised at the caller, by value) is carried
    in ``__cause__`` whenever it can itself be serialized.
    """


class NoSuchMethodError(InvocationError):
    """The invoked method does not exist on the target anchor."""


# ---------------------------------------------------------------------------
# Serialization / network substrate
# ---------------------------------------------------------------------------


class SerializationError(FarGoError):
    """An object graph could not be (de)serialized across a Core boundary."""


class TransportError(FarGoError):
    """Low-level failure in the network transport (simulated or real)."""


class TransportCapabilityError(TransportError):
    """A transport was asked for a knob it does not model.

    Bandwidth shaping is meaningful on the simulated network but not on a
    real TCP link, so ``TcpTransport.set_link(bandwidth=...)`` raises this
    instead of silently doing nothing.  The failure model (crashes, cut
    links, partitions) is every backend's and never raises it.
    """


# ---------------------------------------------------------------------------
# Object store
# ---------------------------------------------------------------------------


class StoreError(FarGoError):
    """Base class for object-store errors (see :mod:`repro.store`)."""


class StoreMissError(StoreError):
    """A store key could not be resolved to its payload bytes.

    Raised when a :class:`repro.store.StoreProxy` arrives at a Core whose
    store (or the proxy's own locator) no longer holds the entry — it was
    evicted, or the backing store is gone.  The movement and invocation
    layers surface this to the caller rather than silently shipping a
    stale payload.
    """


# ---------------------------------------------------------------------------
# Monitoring
# ---------------------------------------------------------------------------


class MonitoringError(FarGoError):
    """Base class for profiling and monitor-event errors."""


class UnknownServiceError(MonitoringError):
    """The requested profiling service is not registered at this Core."""


class ProfilingNotStartedError(MonitoringError):
    """``get`` was called for a continuous profile that was never started."""


# ---------------------------------------------------------------------------
# Scripting
# ---------------------------------------------------------------------------


class ScriptError(FarGoError):
    """Base class for layout-script errors."""


class ScriptSyntaxError(ScriptError):
    """The script source failed to lex or parse.

    Carries the 1-based ``line`` and ``column`` of the offending token so
    administrators can pinpoint the error in their script.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class ScriptRuntimeError(ScriptError):
    """A script rule failed while executing its action part."""


class UnknownActionError(ScriptRuntimeError):
    """A script invoked an action that is neither built in nor registered."""
