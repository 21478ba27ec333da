"""The FarGo shell *complet*: a movable administration console.

Figure 1 places the shell among the "system complets, which are outside
the Core either because they need to be able to move (recall that the
Core is stationary), or because they are directly pointed by complets".
:class:`FarGoShell <repro.shell.shell.FarGoShell>` is the driver-side
REPL; this module is the paper's actual design — an administration
console that is *itself a complet*: it executes commands against
whatever Core currently hosts it, and it can relocate (or be relocated)
like any other complet, keeping its command history with it.
"""

from __future__ import annotations

import shlex

from repro.complet.anchor import Anchor
from repro.complet.stub import compile_complet
from repro.core.admin import CoreAdmin
from repro.errors import FarGoError


class ShellComplet_(Anchor):
    """A mobile administration console.

    Commands (a complet-safe subset of the driver shell)::

        whereami                      name of the hosting Core
        complets [<core>]             list hosted complets
        snapshot <core>               layout snapshot of one Core
        move <complet-id> <core>      relocate a complet
        refs <core> <complet-id>      outgoing references
        retype <core> <complet-id> <target-id> <type>
        profile <core> <service> [key=value...]
        services [<core>]             profiling services
        collect [<core>]              tracker GC
        goto <core>                   move this shell itself
        history                       commands executed so far
    """

    def __init__(self) -> None:
        self.history: list[str] = []

    # -- command dispatch ---------------------------------------------------------

    def execute(self, line: str) -> str:
        """Run one command at the Core currently hosting this shell."""
        line = line.strip()
        if not line:
            return ""
        self.history.append(line)
        try:
            parts = shlex.split(line)
        except ValueError as exc:
            return f"error: {exc}"
        command, args = parts[0], parts[1:]
        handler = getattr(self, f"_cmd_{command}", None)
        if handler is None:
            return f"error: unknown command {command!r}"
        try:
            return handler(args)
        except FarGoError as exc:
            return f"error: {exc}"
        except (IndexError, ValueError):
            return f"error: bad arguments for {command!r}"

    def get_history(self) -> list[str]:
        return self.history

    # -- commands -----------------------------------------------------------------------

    def _cmd_whereami(self, args: list[str]) -> str:
        return self.core.name

    def _cmd_history(self, args: list[str]) -> str:
        return "\n".join(self.history[:-1]) or "(empty)"

    def _cmd_complets(self, args: list[str]) -> str:
        core_name = args[0] if args else self.core.name
        listed = CoreAdmin(self.core, core_name).complets()
        return "\n".join(listed) or "(none)"

    def _cmd_snapshot(self, args: list[str]) -> str:
        core_name = args[0] if args else self.core.name
        snap = CoreAdmin(self.core, core_name).snapshot()
        complets = ", ".join(c["id"] for c in snap["complets"]) or "(none)"
        return (
            f"core {snap['core']}: {len(snap['complets'])} complets "
            f"[{complets}], {snap['tracker_count']} trackers"
        )

    def _cmd_move(self, args: list[str]) -> str:
        complet_id, destination = args[0], args[1]
        host = self._find_host(complet_id)
        if host is None:
            return f"error: no reachable Core hosts {complet_id!r}"
        CoreAdmin(self.core, host).move(complet_id, destination)
        return f"moved {complet_id} to {destination}"

    def _cmd_refs(self, args: list[str]) -> str:
        rows = CoreAdmin(self.core, args[0]).references(args[1])
        if not rows:
            return "(none)"
        return "\n".join(
            f"{row['target']}  {row['type']}  {row['invocations']} invocations"
            for row in rows
        )

    def _cmd_retype(self, args: list[str]) -> str:
        core_name, complet_id, target_id, type_name = args[:4]
        CoreAdmin(self.core, core_name).retype(complet_id, target_id, type_name)
        return f"{complet_id} -> {target_id} is now {type_name}"

    def _cmd_profile(self, args: list[str]) -> str:
        core_name, service = args[0], args[1]
        params = dict(part.split("=", 1) for part in args[2:])
        value = CoreAdmin(self.core, core_name).profile_instant(service, **params)
        return f"{service}@{core_name} = {value:g}"

    def _cmd_services(self, args: list[str]) -> str:
        core_name = args[0] if args else self.core.name
        return "\n".join(CoreAdmin(self.core, core_name).services())

    def _cmd_collect(self, args: list[str]) -> str:
        core_name = args[0] if args else self.core.name
        collected = CoreAdmin(self.core, core_name).collect_trackers()
        return f"collected {collected} trackers at {core_name}"

    def _cmd_goto(self, args: list[str]) -> str:
        from repro.core.carrier import Carrier

        destination = args[0]
        Carrier.move(self, destination)
        return f"shell moving to {destination}"

    # -- helpers ----------------------------------------------------------------------------

    def _find_host(self, complet_id: str) -> str | None:
        peer = self.core.peer
        if complet_id in CoreAdmin(self.core).complets():
            return self.core.name
        for core_name in peer.peers():
            if core_name == self.core.name or not peer.is_peer_up(core_name):
                continue
            try:
                if complet_id in CoreAdmin(self.core, core_name).complets():
                    return core_name
            except FarGoError:
                continue
        return None


ShellComplet = compile_complet(ShellComplet_)
