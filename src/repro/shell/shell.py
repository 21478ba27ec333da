"""The FarGo administration shell.

A line-oriented command interpreter over a cluster.  Every command
returns its output as a string (and :meth:`FarGoShell.loop` provides an
interactive REPL on top).  Commands::

    cores                                   list Cores and their status
    complets [<core>]                       list hosted complets
    layout                                  render the layout panel
    feed [<n>]                              tail of the live event feed
    move <complet-id> <core>                relocate a complet
    why <complet-id>                        the layout decision that placed it
    refs <core> <complet-id>                outgoing references of a complet
    retype <core> <complet-id> <target-id> <type>
    profile <core> <service> [key=value...] instant profiling read
    history <core> <service> [key=value...] sparkline of recent samples
    watch <core> <service> <op> <threshold> [key=value...]
    services <core>                         available profiling services
    collect                                 tracker GC on every Core
    shutdown <core>                         graceful Core shutdown
    advance <seconds>                       advance virtual time
    script <<< ... >>>  or  script @file    run a layout script
    lint [@path ...]                        static diagnostics (cluster, or files)
    trace on|off|clear                      toggle / reset span recording
    trace [list]                            one line per recorded trace
    trace show <trace-id>                   span tree of one trace
    trace timeline <trace-id>               text flame chart of one trace
    trace export <file>                     Chrome trace_event JSON
    metrics [<core>]                        metrics (cluster-wide by default)
    store [<core>]                          object-store contents and hit/miss stats
    snapshot <complet-id>                   checkpoint a complet into the shell
    restore <complet-id> [<core>] [keep]    restore a held snapshot on a Core
    failures                                injections, detector verdicts, recoveries
    supervisor [<core>]                     per-child restart counts and backoff state
    help                                    this text
"""

from __future__ import annotations

import shlex
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.core.admin import CoreAdmin
from repro.errors import FarGoError
from repro.script.interpreter import ScriptEngine
from repro.viewer.traceview import (
    render_metrics,
    render_trace,
    render_trace_timeline,
    render_traces_summary,
)
from repro.viewer.viewer import LayoutMonitor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import Cluster

_HELP = __doc__.split("Commands::", 1)[1] if __doc__ else ""


class FarGoShell:
    """Administration shell bound to a cluster."""

    def __init__(self, cluster: "Cluster", home: str | None = None) -> None:
        self.cluster = cluster
        self.core = cluster.core(home) if home is not None else cluster.seat
        self.monitor = LayoutMonitor(cluster, self.core.name)
        self.monitor.watch_all()
        self.engine = ScriptEngine(cluster, self.core.name)
        self._commands: dict[str, Callable[[list[str]], str]] = {
            "cores": self._cmd_cores,
            "complets": self._cmd_complets,
            "layout": self._cmd_layout,
            "feed": self._cmd_feed,
            "move": self._cmd_move,
            "why": self._cmd_why,
            "refs": self._cmd_refs,
            "retype": self._cmd_retype,
            "profile": self._cmd_profile,
            "history": self._cmd_history,
            "watch": self._cmd_watch,
            "services": self._cmd_services,
            "collect": self._cmd_collect,
            "shutdown": self._cmd_shutdown,
            "advance": self._cmd_advance,
            "script": self._cmd_script,
            "lint": self._cmd_lint,
            "trace": self._cmd_trace,
            "metrics": self._cmd_metrics,
            "store": self._cmd_store,
            "snapshot": self._cmd_snapshot,
            "restore": self._cmd_restore,
            "failures": self._cmd_failures,
            "supervisor": self._cmd_supervisor,
            "help": self._cmd_help,
        }
        #: Snapshots held by the shell, keyed by the complet id taken.
        self._snapshots: dict[str, bytes] = {}
        self._injector = None

    def admin(self, core_name: str) -> CoreAdmin:
        """Typed admin handle for ``core_name``, issued from the home Core."""
        return CoreAdmin(self.core, core_name)

    # -- dispatch ----------------------------------------------------------------------

    def execute(self, line: str) -> str:
        """Run one command line; returns its output (errors included)."""
        line = line.strip()
        if not line:
            return ""
        if line.startswith("script"):
            return self._cmd_script_raw(line[len("script"):].strip())
        try:
            parts = shlex.split(line)
        except ValueError as exc:
            return f"error: {exc}"
        command, args = parts[0], parts[1:]
        handler = self._commands.get(command)
        if handler is None:
            return f"error: unknown command {command!r} (try 'help')"
        try:
            return handler(args)
        except FarGoError as exc:
            return f"error: {exc}"
        except (IndexError, ValueError):
            return f"error: bad arguments for {command!r} (try 'help')"

    def loop(self, *, input_fn=input, print_fn=print) -> None:  # pragma: no cover
        """Interactive REPL; ``exit`` or EOF ends it."""
        print_fn("FarGo shell — 'help' for commands")
        while True:
            try:
                line = input_fn(f"fargo:{self.core.name}> ")
            except EOFError:
                break
            if line.strip() in ("exit", "quit"):
                break
            output = self.execute(line)
            if output:
                print_fn(output)

    # -- commands -----------------------------------------------------------------------------

    def _cmd_cores(self, args: list[str]) -> str:
        lines = []
        running = self.cluster.running_names()
        for name in self.cluster.core_names():
            state = "up" if name in running else "down"
            # A Core of this process keeps its repository when shut down; a child's dies with it.
            answers = name in running or name in self.cluster.cores
            hosted = len(self.cluster.complets_at(name)) if answers else 0
            lines.append(f"{name:<14} {state:<5} {hosted} complets")
        return "\n".join(lines)

    def _cmd_complets(self, args: list[str]) -> str:
        names = args if args else self.cluster.running_names()
        lines = []
        for name in names:
            for complet in self.cluster.complets_at(name):
                lines.append(f"{name:<14} {complet}")
        return "\n".join(lines) if lines else "(no complets)"

    def _cmd_layout(self, args: list[str]) -> str:
        return self.monitor.render()

    def _cmd_feed(self, args: list[str]) -> str:
        limit = int(args[0]) if args else 20
        return self.monitor.render_feed(limit)

    def _cmd_move(self, args: list[str]) -> str:
        """move — a one-step plan through the layout executor, journaled
        as the operator's."""
        from repro.analysis.layout import execute
        from repro.analysis.plan import MovePlan, PlannedMove

        complet_id, destination = args[0], args[1]
        host = self.cluster.find_host(complet_id)
        step = PlannedMove(complet_id, destination, source=host)
        execute(
            self.cluster,
            MovePlan((step,), name="shell move"),
            via=self.core.name,
            trigger="shell",
            solver="operator",
        ).raise_failure()
        return f"moved {complet_id} from {host} to {destination}"

    def _cmd_why(self, args: list[str]) -> str:
        """why <complet> — the newest journaled plan that moved it."""
        report = self.cluster.layout_history.why(args[0])
        if report is None:
            return f"no layout decision recorded for {args[0]}"
        return report.render()

    def _cmd_refs(self, args: list[str]) -> str:
        return self.monitor.references(args[0], args[1])

    def _cmd_retype(self, args: list[str]) -> str:
        core_name, complet_id, target_id, type_name = args[:4]
        self.monitor.retype_reference(core_name, complet_id, target_id, type_name)
        return f"reference {complet_id} -> {target_id} is now {type_name}"

    def _cmd_profile(self, args: list[str]) -> str:
        core_name, service = args[0], args[1]
        params = _parse_params(args[2:])
        value = self.monitor.profile(core_name, service, **params)
        return f"{service}@{core_name} {params or ''} = {value:g}"

    def _cmd_history(self, args: list[str]) -> str:
        """history <core> <service> [key=value...] — start-if-needed and
        render the continuous profile's recent samples as a sparkline."""
        from repro.viewer.render import render_sparkline

        core_name, service = args[0], args[1]
        params = _parse_params(args[2:])
        self.admin(core_name).profile_start(service, **params)
        samples = self.admin(core_name).profile_history(service, **params)
        return f"{service}@{core_name}: {render_sparkline(samples)}"

    def _cmd_watch(self, args: list[str]) -> str:
        core_name, service, op, threshold = args[0], args[1], args[2], float(args[3])
        params = _parse_params(args[4:])
        watch_id = self.admin(core_name).watch(service, op, threshold, **params)
        return f"watch #{watch_id} installed at {core_name}"

    def _cmd_services(self, args: list[str]) -> str:
        return "\n".join(self.admin(args[0]).services())

    def _cmd_collect(self, args: list[str]) -> str:
        return f"collected {self.cluster.collect_all_trackers()} trackers"

    def _cmd_shutdown(self, args: list[str]) -> str:
        self.cluster.shutdown_core(args[0])
        return f"core {args[0]} shut down"

    def _cmd_advance(self, args: list[str]) -> str:
        seconds = float(args[0])
        self.cluster.advance(seconds)
        return f"t = {self.cluster.now:.3f}"

    def _cmd_script_raw(self, rest: str) -> str:
        if rest.startswith("@"):
            with open(rest[1:], encoding="utf-8") as f:
                source = f.read()
        else:
            source = rest
        try:
            script = self.engine.run(source)
        except FarGoError as exc:
            return f"error: {exc}"
        return f"script active: {len(script.rules)} rules"

    def _cmd_script(self, args: list[str]) -> str:  # pragma: no cover - routed raw
        return self._cmd_script_raw(" ".join(args))

    def _cmd_lint(self, args: list[str]) -> str:
        """lint — analyze the live cluster; lint @path ... — analyze files and
        directories (scripts resolve against the live topology)."""
        from repro.analysis import TopologyInfo, check_paths, render_text

        if args and args[0].startswith("@"):
            topology = TopologyInfo.from_cluster(self.cluster)
            diagnostics = check_paths([arg.removeprefix("@") for arg in args], topology=topology)
        else:
            diagnostics = self.cluster.analyze()
        return render_text(diagnostics)

    def _cmd_trace(self, args: list[str]) -> str:
        sub = args[0] if args else "list"
        if sub == "on":
            self.cluster.set_tracing(True)
            return "tracing enabled on all Cores"
        if sub == "off":
            self.cluster.set_tracing(False)
            return "tracing disabled on all Cores"
        if sub == "clear":
            self.cluster.clear_spans()
            return "spans cleared"
        if sub == "list":
            return render_traces_summary(self.cluster.traces())
        if sub == "show":
            trace = self.cluster.traces().get(args[1])
            if trace is None:
                return f"error: no trace {args[1]!r}"
            return render_trace(trace)
        if sub == "timeline":
            trace = self.cluster.traces().get(args[1])
            if trace is None:
                return f"error: no trace {args[1]!r}"
            return render_trace_timeline(trace)
        if sub == "export":
            path = args[1]
            with open(path, "w", encoding="utf-8") as f:
                f.write(self.cluster.chrome_trace_json(indent=2))
            return f"wrote {len(self.cluster.spans())} spans to {path}"
        return f"error: unknown trace subcommand {sub!r} (try 'help')"

    def _cmd_metrics(self, args: list[str]) -> str:
        if args:
            snapshot = self.admin(args[0]).metrics()
            return render_metrics(snapshot, title=f"metrics of {args[0]}")
        snapshot = self.cluster.metrics_snapshot()["cluster"]
        return render_metrics(snapshot, title="cluster metrics")

    def _cmd_store(self, args: list[str]) -> str:
        """store [<core>] — the object store's contents (per-key size,
        refcount, hits) plus client offload/resolve counters; one Core's
        view with an argument, the cluster-wide picture without."""
        if args:
            view = self.admin(args[0]).store()
            if not view.get("enabled"):
                return f"(object store disabled at {args[0]})"
            lines = [f"client at {args[0]}: {_render_store_client(view['client'])}"]
            lines.extend(_render_store_backend(view["store"]))
            return "\n".join(lines)
        snap = self.cluster.store_snapshot()
        if not snap.get("enabled"):
            return "(object store disabled; create the Cluster with store=...)"
        lines = list(_render_store_backend(snap["store"]))
        for name in sorted(snap["cores"]):
            view = snap["cores"][name]
            if view.get("enabled"):
                lines.append(f"client at {name}: {_render_store_client(view['client'])}")
        return "\n".join(lines)

    def _cmd_snapshot(self, args: list[str]) -> str:
        """snapshot <complet-id> — checkpoint via the hosting Core's admin
        facade; the bytes are held by the shell for a later ``restore``."""
        complet_id = args[0]
        host = self.cluster.find_host(complet_id)
        data = self.admin(host).checkpoint(complet_id)
        self._snapshots[complet_id] = data
        return f"snapshot of {complet_id} taken at {host} ({len(data)} bytes)"

    def _cmd_restore(self, args: list[str]) -> str:
        """restore <complet-id> [<core>] [keep] — revive a held snapshot.

        ``keep`` asks for the original identity (refused with a typed
        error when a live copy contradicts it); default is a fresh one.
        """
        complet_id = args[0]
        rest = args[1:]
        keep = "keep" in rest
        rest = [token for token in rest if token != "keep"]
        destination = rest[0] if rest else self.core.name
        data = self._snapshots.get(complet_id)
        if data is None:
            return f"error: no snapshot held for {complet_id!r} (take one first)"
        new_id = self.admin(destination).restore(data, keep_identity=keep)
        return f"restored {complet_id} as {new_id} at {destination}"

    def _cmd_failures(self, args: list[str]) -> str:
        """failures — the cluster's failure picture: what was injected,
        what each detector currently believes, what recovery did."""
        lines: list[str] = []
        if self._injector is not None and self._injector.log:
            lines.append("injections:")
            lines.extend(
                f"  {t:8.2f}  {desc}" for t, desc in self._injector.log
            )
        for name in sorted(self.cluster.running_names()):
            try:
                state = self.admin(name).detector_state()
            except FarGoError:  # crashed or unreachable: nothing to show
                continue
            if not state:
                continue
            lines.append(f"detector at {name}:")
            lines.extend(
                f"  {peer:<14} {view['status']} (last ok t={view['last_ok']:.2f})"
                for peer, view in sorted(state.items())
            )
        recovery = getattr(self.cluster, "recovery", None)
        if recovery is not None and recovery.log:
            lines.append("recovery:")
            lines.extend(f"  {t:8.2f}  {message}" for t, message in recovery.log)
        return "\n".join(lines) if lines else "(no failure activity)"

    def attach_injector(self, injector) -> None:
        """Show ``injector``'s log in the ``failures`` command."""
        self._injector = injector

    def _cmd_supervisor(self, args: list[str]) -> str:
        """supervisor [<core>] — per-child supervision state.

        Only the driver Core of a multi-process deployment carries a
        :class:`~repro.cluster.supervisor.Supervisor`; with no argument,
        every Core is asked and the first non-empty answer is shown.
        """
        if args:
            candidates = [args[0]]
        else:
            candidates = self.cluster.core_names()
        state: dict = {}
        seat = ""
        for name in candidates:
            try:
                state = self.admin(name).supervisor_state()
            except FarGoError:
                continue
            if state:
                seat = name
                break
        if not state:
            return "(no supervisor attached)"
        policy = state.get("policy", {})
        lines = [
            f"supervisor at {seat}: "
            f"{'running' if state.get('running') else 'stopped'}, "
            f"budget {policy.get('max_restarts')}/{policy.get('window', 0):.0f}s, "
            f"healthy after {policy.get('healthy_after', 0):.0f}s"
        ]
        for child, view in sorted(state.get("children", {}).items()):
            mttr = view.get("last_mttr")
            lines.append(
                f"  {child:<12} {view['status']:<12} "
                f"restarts {view['restarts']} "
                f"(window {view['recent_restarts']}, streak {view['streak']}) "
                f"next backoff {view['next_backoff']:.2f}s"
                + (f"  mttr {mttr:.2f}s" if mttr is not None else "")
                + (f"  last exit: {view['last_exit']}" if view.get("last_exit") else "")
            )
        return "\n".join(lines)

    def _cmd_help(self, args: list[str]) -> str:
        return _HELP.strip("\n")


def _render_store_backend(snapshot: dict) -> list[str]:
    stats = snapshot["stats"]
    lines = [
        f"{snapshot['backend']} store: {len(snapshot['entries'])} entries, "
        f"{stats['puts']} puts ({stats['dedup_puts']} dedup), "
        f"{stats['gets']} gets, {stats['misses']} misses, "
        f"{stats['evictions']} evictions, "
        f"{stats['bytes_put']}B in / {stats['bytes_served']}B out"
    ]
    for entry in snapshot["entries"]:
        lines.append(
            f"  {entry['digest'][:10]}  {entry['size']:>10}B  "
            f"refs={entry['refcount']}  hits={entry['hits']}"
        )
    return lines


def _render_store_client(client: dict) -> str:
    return (
        f"threshold={client['threshold']}B offloads={client['offloads']} "
        f"saved={client['bytes_saved']}B resolves={client['resolves']} "
        f"(cache {client['cache_hits']} / store {client['store_hits']} / "
        f"miss {client['misses']})"
    )


def _parse_params(tokens: list[str]) -> dict:
    params = {}
    for token in tokens:
        key, _, value = token.partition("=")
        if not value:
            raise ValueError(f"expected key=value, got {token!r}")
        params[key] = value
    return params
