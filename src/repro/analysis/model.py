"""The layout contract of §3 as an executable model, and FG201–FG205 over it.

:class:`LayoutModel` holds each complet's one home Core, its class and
closure size, and the reference graph, each edge typed ``link`` /
``pull`` / ``duplicate`` / ``stamp`` (a stamp with its fallback).  Its
transitions say what §3.3 says happens, with no networking.  A
:meth:`~LayoutModel.move` takes the root's pull group (what its pull
references reach on its own Core, transitively) to the destination at
once: each ``duplicate`` target gets one copy there, which its holders
now reference, and each ``stamp`` rebinds to the first complet of the
target's class there, else keeps a ``link`` (``fallback="link"``) or
aborts the whole move.  Pull targets on other Cores follow in moves of
their own.  A move to where the complet is changes nothing.
:meth:`~LayoutModel.invoke` answers the host, or the typed error of a
crashed one.  :meth:`LayoutModel.of` alone reads a running cluster; the
transitions call no runtime code, so the model is an oracle independent
of what it checks.  Failures are transitions whose input is where the
runtime put each complet: :meth:`~LayoutModel.crash_core`,
:meth:`~LayoutModel.restore` (which returns how a recovery breaks the
contract), :meth:`~LayoutModel.revive` (stale copies stay until its
:meth:`~LayoutModel.reconcile`), :meth:`~LayoutModel.partition` and
:meth:`~LayoutModel.heal`.  The chaos soak and the cluster state machine
step one beside their cluster and compare with :func:`layout_mismatches`.

:func:`check_relocation` reports what the declared semantics will do
before a move enacts them: FG201 a pull group that amplifies a move,
FG202 a ``duplicate`` of a mutable complet (the copies diverge), FG203 a
``stamp`` type missing where the source could move, FG204 one edge both
pulled and copied or rebound, FG205 a large mutable duplicate its host's
store does not offload.  Sizing closures surfaces FG302/FG301 too.
"""

from __future__ import annotations

import ast
import collections
import inspect
import textwrap
from dataclasses import dataclass, field, replace

from repro.complet.anchor import resolve_class_ref
from repro.complet.closure import compute_closure
from repro.complet.stub import stub_meta, stub_target_id, stub_tracker
from repro.errors import CompletBoundaryError, CoreError, FarGoError, SerializationError
from repro.errors import CompletError, StampResolutionError
from repro.util.bytesize import human_bytes

from repro.analysis.diagnostics import Diagnostic, Severity, diag

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import Cluster


@dataclass(slots=True)
class Ref:
    """One outgoing reference: its target, type, and a stamp's fallback."""

    target: str
    type: str = "link"
    fallback: str = "error"


@dataclass
class LayoutModel:
    """Where every complet lives and what references it holds."""

    #: The running Cores, in the cluster's order.
    cores: list[str]
    #: complet id -> its one home Core, its anchor class (a stamp target's
    #: too, when no running Core hosts it), its closure size in bytes, and
    #: its outgoing references in closure order.
    hosts: dict[str, str] = field(default_factory=dict)
    classes: dict[str, type] = field(default_factory=dict)
    sizes: dict[str, int] = field(default_factory=dict)
    refs: dict[str, list[Ref]] = field(default_factory=dict)
    crashed: set[str] = field(default_factory=set)
    #: complet id -> invocations that reached it (a degraded copy, its original's).
    calls: collections.Counter = field(default_factory=collections.Counter)
    #: Core -> its stale copies, restored elsewhere while it was down.
    stale: dict[str, set[str]] = field(default_factory=dict)
    #: Core -> its side of a partition (the Cores on none form one more).
    sides: dict[str, int] = field(default_factory=dict)
    #: Core -> the store's offload threshold there; None without a store.
    offload: dict[str, int | None] = field(default_factory=dict)
    #: FG301/FG302 for complets whose closure could not be sized.
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @classmethod
    def of(cls, cluster: "Cluster") -> "LayoutModel":
        """The model of ``cluster``'s running Cores at this instant."""
        running = cluster.running_cores()
        model = cls([core.name for core in running])
        for core in running:
            model.offload[core.name] = getattr(core.store_client, "threshold", None)
            for anchor in core.repository.anchors():
                cid = str(anchor.complet_id)
                model.create(cid, core.name, type(anchor))
                try:
                    info = compute_closure(anchor)
                except (CompletBoundaryError, SerializationError) as exc:
                    code = "FG302" if isinstance(exc, CompletBoundaryError) else "FG301"
                    model.diagnostics.append(diag(code, f"complet {cid} (at {core.name}): {exc}"))
                    continue
                model.sizes[cid] = info.size_bytes
                for stub in info.outgoing:
                    relocator = stub_meta(stub).get_relocator()
                    ref = Ref(str(stub_target_id(stub)), relocator.type_name,
                              getattr(relocator, "fallback", "error"))
                    model.refs[cid].append(ref)
                    if ref.type == "stamp" and ref.target not in model.classes:
                        anchor_ref = stub_tracker(stub).anchor_ref
                        try:
                            model.classes[ref.target] = resolve_class_ref(anchor_ref)
                        except (FarGoError, ImportError, AttributeError):
                            pass
        return model

    def copy(self) -> "LayoutModel":
        """The same layout, which transitions change apart from this one."""
        refs = {cid: [replace(ref) for ref in out] for cid, out in self.refs.items()}
        return LayoutModel(list(self.cores), dict(self.hosts), dict(self.classes),
                           dict(self.sizes), refs, set(self.crashed))

    # -- transitions ------------------------------------------------------------

    def create(self, cid: str, core: str, cls: type, targets=(), size: int = 0) -> None:
        """A complet instantiated at ``core``; references passed in are links (§3.1)."""
        self.hosts[cid], self.classes[cid], self.sizes[cid] = core, cls, size
        self.refs[cid] = [Ref(target) for target in targets]

    def retype(self, source: str, target: str, type: str, fallback: str = "error") -> None:
        ref = next((ref for ref in self.refs[source] if ref.target == target), None)
        if ref is None:
            raise CompletError(f"complet {source!r} has no reference to {target!r}")
        ref.type, ref.fallback = type, fallback

    def crash_core(self, core: str) -> None:
        self.crashed.add(core)

    def restore(self, failed: str, destination: str, restored=None, degraded=(), skipped=(),
                unrepaired=()) -> list[str]:
        """Bring ``failed``'s complets back at ``destination``, where the runtime put them.

        ``restored`` lists those back under their own ids (None: all, as a
        respawned child restores its predecessor's), ``degraded`` maps others
        to their copies' fresh ids, ``skipped`` lists those left because they
        live elsewhere, and ``unrepaired`` the trackers still pointing into
        the grave.  Returns each breach of the contract, one line each.
        """
        mine, respawn = self.hosted(failed), destination == failed
        kept = list(mine if restored is None else restored)
        up = failed not in self.crashed and not respawn
        back = collections.Counter([*kept, *degraded])
        breaches = [f"tracker {entry} still points into the grave" for entry in unrepaired]
        side = self.sides.get
        if destination in self.crashed or up and side(failed) == side(destination):
            breaches.append(f"{failed} recovered at {destination}, which is down or reaches it")
        breaches += [f"{cid} skipped, but it lives nowhere else" for cid in skipped
                     if self.hosts.get(cid) in (None, failed, *self.crashed)]
        breaches += [f"{cid} of {failed} came back {back[cid]} times"
                     for cid in sorted(set(mine) | set(back))
                     if back[cid] != (cid in mine) and cid not in skipped]
        breaches += [f"{cid} came back under its identity while {failed} runs it"
                     for cid in sorted(set(kept)) if up]
        pairs = {**dict(zip(kept, kept)), **dict(degraded)}  # original -> where it came back
        landed = sorted((twin, cid) for twin, cid in pairs.items() if twin in mine)
        for cid in (cid for twin, cid in landed if cid == twin):
            del self.hosts[cid]  # hosted nowhere until it lands
        for twin, cid in landed:  # in the store's order: a stamp sees those before it
            if cid == twin:
                self.hosts[cid] = destination
                if not respawn:
                    self.stale.setdefault(failed, set()).add(cid)
            else:
                self.create(cid, destination, self.classes[twin], (), self.sizes[twin])
                self.calls[cid] = self.calls[twin]
            # A snapshot keeps its stamps alone; they resolve where it lands.
            self.refs[cid] = [self._rebind(ref, destination, "link") if ref.type == "stamp"
                              else Ref(ref.target) for ref in self.refs[twin]]
        return breaches

    def revive(self, core: str) -> None:
        self.crashed.discard(core)

    def reconcile(self, core: str) -> None:
        """A revived ``core`` has dropped its stale copies."""
        self.stale.pop(core, None)

    def partition(self, *groups: set[str]) -> None:
        self.sides = {core: side for side, group in enumerate(groups) for core in group}

    def heal(self) -> None:
        self.sides = {}

    def invoke(self, cid: str) -> str:
        """The Core an invocation of ``cid`` runs at."""
        host = self._reachable(self.hosts[cid])
        self.calls[cid] += 1
        return host

    def move(self, cid: str, destination: str) -> bool:
        """Move ``cid``'s group to ``destination``; False if it is there already."""
        source = self._reachable(self.hosts[cid])
        if source == destination:
            return False
        self._reachable(destination)
        group = self.pull_group(cid, at=source)
        copies: dict[str, str] = {}
        rebound: dict[int, Ref] = {}
        for member in group:
            for ref in self.refs.get(member, ()):
                if ref.type == "duplicate" and ref.target not in copies:
                    self._reachable(self.hosts[ref.target])
                    copies[ref.target] = f"{ref.target}'{len(self.hosts) + len(copies)}"
                elif ref.type == "stamp":
                    rebound[id(ref)] = self._rebind(ref, destination, ref.fallback)
        for target, copy in copies.items():
            cls, size = self.classes[target], self.sizes.get(target, 0)
            self.create(copy, destination, cls, [r.target for r in self.refs.get(target, ())], size)
        for member in group:
            self.hosts[member] = destination
            self.refs[member] = [
                rebound.get(id(ref))
                or (Ref(copies[ref.target], "duplicate") if ref.type == "duplicate" else ref)
                for ref in self.refs.get(member, ())
            ]
        for member in group:
            for ref in self.refs[member]:
                if ref.type == "pull" and self.hosts.get(ref.target, destination) != destination:
                    self.move(ref.target, destination)
        return True

    def rename(self, old: str, new: str) -> None:
        """Call complet ``old`` (a copy, named ``<target>'<n>`` by :meth:`move`) ``new``."""
        tables: tuple[dict, ...] = (self.hosts, self.classes, self.sizes, self.refs)
        for table in tables:
            table[new] = table.pop(old)
        for _source, ref in self.edges():
            ref.target = new if ref.target == old else ref.target

    def _rebind(self, ref: Ref, core: str, fallback: str) -> Ref:
        """Stamp ``ref`` at ``core``: the first complet of its type there, else
        a link to its target (``fallback="link"``), else the typed error."""
        there = self.hosted_like(self.classes[ref.target], core)
        if there or fallback == "link":
            return Ref(there[0], "stamp", ref.fallback) if there else Ref(ref.target)
        raise StampResolutionError(
            f"Core {core!r} hosts no complet of stamped type {self.classes[ref.target].__name__}"
        )

    def _reachable(self, core: str) -> str:
        if core in self.crashed:
            raise CoreError(f"Core {core!r} has crashed")
        return core

    # -- queries ----------------------------------------------------------------

    def hosted(self, core: str) -> list[str]:
        return sorted(cid for cid, host in self.hosts.items() if host == core)

    def hosted_like(self, cls: type, core: str) -> list[str]:
        """Complets of class ``cls`` at ``core``, in stamp-resolution order."""
        return sorted(
            (cid for cid in self.hosted(core) if issubclass(self.classes[cid], cls)),
            key=lambda cid: (cid.partition("/c")[0], int(cid.partition("/c")[2].split(":")[0])),
        )

    def pull_group(self, root: str, at: str | None = None) -> list[str]:
        """``root`` and what its pull references reach (through Core ``at`` only)."""
        group, frontier = [root], [root]
        while frontier:
            for ref in self.refs.get(frontier.pop(0), ()):
                if ref.type == "pull" and ref.target not in group:
                    if at is None or self.hosts.get(ref.target) == at:
                        group.append(ref.target)
                        frontier.append(ref.target)
        return group

    def edges(self):
        """Every ``(source, ref)`` pair, in closure order."""
        return ((source, ref) for source, refs in self.refs.items() for ref in refs)


def layout_mismatches(model: LayoutModel, cluster: "Cluster") -> list[str]:
    """Where ``cluster`` differs from ``model``, through its handles alone:
    each running Core's hosted set (stale copies aside) and each holder's
    reference rows (target, type, whether local)."""
    found = []
    for core in (core for core in model.cores if core not in model.crashed):
        try:
            hosted = sorted(cluster.complets_at(core))
        except FarGoError as exc:
            found.append(f"Core {core} did not answer: {exc!r}")
            continue
        if [cid for cid in hosted if cid not in model.stale.get(core, ())] != model.hosted(core):
            found.append(f"Core {core} hosts {hosted}, the model {model.hosted(core)}")
    for holder, refs in model.refs.items():
        host = model.hosts[holder]
        if refs and host not in model.crashed:
            rows = sorted((r["target"], r["type"], r["local"])
                          for r in cluster.admin(host).references(holder))
            if rows != sorted((r.target, r.type, model.hosts.get(r.target) == host) for r in refs):
                found.append(f"complet {holder} holds {rows}")
    return found


def check_relocation(
    layout: "Cluster | LayoutModel", *, amplification_threshold: float = 3.0
) -> list[Diagnostic]:
    """All relocation-semantics diagnostics for a cluster's current state (or its model)."""
    model = layout if isinstance(layout, LayoutModel) else LayoutModel.of(layout)
    diagnostics = list(model.diagnostics)
    for check in (_amplification, _duplicate_mutability, _stamp_resolution, _mixed, _offload):
        diagnostics.extend(check(model, amplification_threshold))
    return diagnostics


def _amplification(model: LayoutModel, threshold: float):
    """FG201: what moving each pull root drags along."""
    for root in sorted({source for source, ref in model.edges() if ref.type == "pull"}):
        group, size = model.pull_group(root), model.sizes.get(root, 0)
        total = sum(model.sizes.get(cid, 0) for cid in group)
        if size > 0 and len(group) > 1 and total / size > threshold:
            yield diag("FG201", f"moving complet {root} ({human_bytes(size)}) drags "
                       f"{len(group) - 1} pulled complet(s) along — {human_bytes(total)} total, "
                       f"×{total / size:.1f} amplification (threshold ×{threshold:g})")


def _duplicate_mutability(model: LayoutModel, _threshold: float):
    """FG202: a copy of a target whose interface mutates it."""
    seen: set[tuple[str, str]] = set()
    for source, ref in model.edges():
        if ref.type != "duplicate" or (source, ref.target) in seen:
            continue
        seen.add((source, ref.target))
        mutators = mutating_methods(model.classes[ref.target]) if ref.target in model.hosts else []
        if mutators:
            listed = ", ".join(f"{m}()" for m in mutators[:4])
            yield diag("FG202", f"complet {source} holds a duplicate-typed reference to "
                       f"{ref.target}, whose interface mutates state ({listed}); a private copy "
                       "made on move will silently diverge from the original")


def _stamp_resolution(model: LayoutModel, _threshold: float):
    """FG203: Cores a stamp's source could move to that host no complet of its type."""
    for source, ref in model.edges():
        cls = model.classes.get(ref.target)
        if ref.type != "stamp" or cls is None:
            continue
        host = model.hosts[source]
        missing = [c for c in model.cores if c != host and not model.hosted_like(cls, c)]
        if not missing:
            continue
        severity, outcome = Severity.WARNING, "moves to those Cores would abort"
        if ref.fallback != "error":
            outcome = "moves there would degrade the reference to a link"
        elif len(missing) == len(model.cores) - 1:
            severity, outcome = Severity.ERROR, "every move of it would abort"
        yield diag("FG203", f"complet {source} stamps {ref.target} by type {cls.__name__}, but "
                   f"{', '.join(missing)} host(s) no complet of that type — {outcome}",
                   severity=severity)


def _mixed(model: LayoutModel, _threshold: float):
    """FG204: one edge both pulled and copied or rebound."""
    by_pair: dict[tuple[str, str], set[str]] = {}
    for source, ref in model.edges():
        by_pair.setdefault((source, ref.target), set()).add(ref.type)
    for (source, target), types in sorted(by_pair.items()):
        conflicting = sorted(types & {"duplicate", "stamp"}) if "pull" in types else []
        if conflicting:
            undo = "copy" if "duplicate" in conflicting else "rebind"
            yield diag("FG204", f"complet {source} references {target} as both 'pull' and "
                       f"{', '.join(repr(t) for t in conflicting)}; one move cannot both "
                       f"relocate the original and {undo} it")


def _offload(model: LayoutModel, _threshold: float):
    """FG205: a large mutable duplicate target its host's store does not offload."""
    from repro.store.proxy import DEFAULT_OFFLOAD_THRESHOLD

    seen: set[str] = set()
    for _source, ref in model.edges():
        size, host = model.sizes.get(ref.target, 0), model.hosts.get(ref.target)
        if ref.type != "duplicate" or ref.target in seen or size < DEFAULT_OFFLOAD_THRESHOLD:
            continue
        if host is None or not mutating_methods(model.classes[ref.target]):
            continue
        threshold = model.offload[host]
        if threshold is not None and size >= threshold:
            continue  # offloading will kick in; nothing to warn about
        seen.add(ref.target)
        remedy = "enable it with Cluster(store=...)" if threshold is None else (
            f"its threshold ({human_bytes(threshold)}) exceeds the closure — "
            "lower store_threshold"
        )
        yield diag("FG205", f"complet {ref.target} ({human_bytes(size)}, mutable) is referenced "
                   f"with duplicate semantics but its host {host} does not offload it to the "
                   f"object store; every move of a holder re-ships the whole closure inline — "
                   f"{remedy}")


_CALLBACKS = {"pre_departure", "abort_departure", "pre_arrival", "post_arrival", "post_departure"}


def mutating_methods(anchor_cls: type) -> list[str]:
    """Public interface methods that assign into ``self`` state.

    Inspected from source with :mod:`ast`: a method mutates when a statement
    stores into an attribute (or a subscript of one) of ``self``.
    ``__init__`` and the movement callbacks are not interface, and are skipped.
    """
    try:
        tree = ast.parse(textwrap.dedent(inspect.getsource(anchor_cls)))
    except (OSError, TypeError, SyntaxError):  # no source (REPL, C ext)
        return []
    cls_node = next((n for n in tree.body if isinstance(n, ast.ClassDef)), None)
    return [
        method.name
        for method in (cls_node.body if cls_node is not None else ())
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not method.name.startswith("_")
        and method.name not in _CALLBACKS
        and any(_stores_into_self(node) for node in ast.walk(method))
    ]


def _stores_into_self(node: ast.AST) -> bool:
    targets: list[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    for base in targets:
        while isinstance(base, (ast.Subscript, ast.Attribute)):
            if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
                if base.value.id == "self":
                    return True
            base = base.value
    return False
