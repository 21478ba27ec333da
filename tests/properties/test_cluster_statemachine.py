"""Stateful property testing: random interleavings of runtime operations.

Hypothesis drives arbitrary sequences of the operations a real
deployment performs — instantiation, movement (driver- and
host-initiated), invocation through any reference, reference creation at
arbitrary Cores, tracker GC — and checks the runtime's global invariants
after every step:

- every complet is hosted by exactly one running Core;
- every Core keeps at most one tracker per target;
- invocation through any reference reaches the authoritative state
  (counter values are globally consistent);
- tracker GC never breaks a live reference;
- every remote-pointer set mirrors the next hops that point at it
  (:func:`tests.pointers.pointer_set_violations`).

Every rule goes through the deployment handle only, so the same machine
runs on the simulated network, on the in-process TCP hub and on Cores in OS
processes of their own.  The first invariant is read through
``complets_at`` on every backend; the two that look inside a Core look
inside the Cores of this process: all of them on ``sim`` and ``tcp``,
the driver on ``procs``.  The pointer sets are checked after every step
on ``sim`` and on ``tcp``, with no pause between steps: over TCP a step
whose one-way updates (discards) are still in flight is not looked at,
and the next step starts at once, so an update overtaken by a later
step's messages is overtaken, a tracker sweep included.  A registration
is answered before the step that sent it goes on, so no sweep overtakes
one.  On ``procs`` the sets live in the children.
"""

import collections

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.cluster.cluster import Cluster
from repro.cluster.workload import Counter
from repro.net.messages import MessageKind
from repro.net.serializer import PLAIN
from tests.pointers import eventually, pointer_set_violations

CORES = ["a", "b", "c"]


class ClusterMachine(RuleBasedStateMachine):
    TRANSPORT = "sim"
    references = Bundle("references")

    @initialize()
    def setup(self):
        self.cluster = Cluster(CORES, transport=self.TRANSPORT)
        #: Authoritative expected value per complet id.
        self.expected: dict = {}
        #: The first reference each complet was known by.
        self.first: dict = {}
        #: One entry per one-way TRACKER_UPDATE (a discard) a Core of this
        #: process is about to post, and one per such update one has applied.
        self.posted: list = []
        self.landed: list = []
        for core in self.cluster.cores.values():
            endpoint = core.peer.endpoint
            handlers = endpoint._handlers
            handlers[MessageKind.TRACKER_UPDATE] = self._counted(
                handlers[MessageKind.TRACKER_UPDATE]
            )
            endpoint.post = self._counting(endpoint.post)

    def _counting(self, post):
        def count_then_post(dst, kind, payload):
            if kind is MessageKind.TRACKER_UPDATE:
                self.posted.append(dst)  # atomic: posts go out on many threads
            return post(dst, kind, payload)

        return count_then_post

    def _counted(self, handler):
        def apply_then_count(src, payload):
            result = handler(src, payload)
            _serial, _pointer, _epoch, register = PLAIN.loads(payload)
            if not register:
                self.landed.append(src)
            return result

        return apply_then_count

    def teardown(self):
        cluster = getattr(self, "cluster", None)
        if cluster is None:  # the run never got to setup
            return
        try:
            for complet_id, value in self.expected.items():
                assert self.first[complet_id].read() == value
            if self.TRANSPORT != "procs":
                assert eventually(self._all_landed)
                assert not pointer_set_violations(self.cluster.cores.values())
        finally:
            cluster.close()

    # -- operations ----------------------------------------------------------------

    @rule(target=references, core=st.sampled_from(CORES))
    def create_complet(self, core):
        if len(self.first) >= 6:  # bound the population
            return next(iter(self.first.values()))
        stub = Counter(0, _core=self.cluster.seat, _at=core)
        self.expected[stub._fargo_target_id] = 0
        self.first[stub._fargo_target_id] = stub
        return stub

    @rule(ref=references, destination=st.sampled_from(CORES))
    def move_from_driver(self, ref, destination):
        self.cluster.move(ref, destination)

    @rule(ref=references, destination=st.sampled_from(CORES))
    def move_from_host(self, ref, destination):
        self.cluster.move_via_host(ref, destination)

    @rule(ref=references, by=st.integers(min_value=1, max_value=5))
    def invoke(self, ref, by):
        observed = ref.increment(by)
        self.expected[ref._fargo_target_id] += by
        assert observed == self.expected[ref._fargo_target_id]

    @rule(target=references, ref=references, at=st.sampled_from(CORES))
    def alias_reference(self, ref, at):
        """A second reference to the same complet, wired elsewhere: at any
        Core of this process (stubs live where the program does)."""
        if at not in self.cluster.cores:
            at = self.cluster.seat.name
        return self.cluster.stub_at(at, ref)

    @rule()
    def collect_trackers(self):
        self.cluster.collect_all_trackers()

    @rule()
    def advance_time(self):
        self.cluster.advance(1.0 if self.cluster.scheduler.clock.is_virtual else 0.001)

    # -- invariants ---------------------------------------------------------------------

    @invariant()
    def exactly_one_host_per_complet(self):
        hosted = collections.Counter(
            complet
            for name in self.cluster.core_names()
            for complet in self.cluster.complets_at(name)
        )
        for complet_id in self.expected:
            assert hosted[str(complet_id)] == 1, (complet_id, hosted)

    @invariant()
    def one_tracker_per_target_per_core(self):
        for core in self.cluster.cores.values():
            seen = set()
            for tracker in core.repository.trackers():
                key = tracker.target_id
                assert key not in seen, (core.name, key)
                seen.add(key)

    @invariant()
    def pointer_sets_mirror_next_hops(self):
        # On procs the sets live in the children.  Nothing waits for posts to
        # land: on sim they have, and over TCP a step that left some in
        # flight is looked at by the next step that leaves none.
        if self.TRANSPORT != "procs" and self._all_landed():
            violations = pointer_set_violations(self.cluster.cores.values())
            assert not violations, violations

    def _all_landed(self) -> bool:
        """Whether every one-way pointer update has landed (registrations are answered)."""
        return len(self.landed) == len(self.posted)

    @invariant()
    def authoritative_state_matches(self):
        for complet_id, value in self.expected.items():
            for core in self.cluster.cores.values():
                anchor = core.repository.get(complet_id)
                if anchor is not None:
                    assert anchor.value == value


def machine_on(transport: str, examples: int):
    """The machine's test case on one backend, ``examples`` sequences of 30 steps."""
    machine = type(f"ClusterMachine_{transport}", (ClusterMachine,), {"TRANSPORT": transport})
    case = machine.TestCase
    case.settings = settings(max_examples=examples, stateful_step_count=30, deadline=None)
    return case


TestClusterMachine = machine_on("sim", 25)
# A failure on a real backend is a finding (ROADMAP item 3): fix it or file it
# there with the minimised rule sequence; do not lower the example count.
TestClusterMachineTcp = pytest.mark.tcp(machine_on("tcp", 10))
TestClusterMachineProcs = pytest.mark.tcp(machine_on("procs", 10))
