"""What Linux ``/proc`` says about a process (launcher tests)."""

from __future__ import annotations

import os


def status_field(pid: int, field: str) -> str:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field + ":"):
                return line.split(":", 1)[1].strip()
    raise AssertionError(f"/proc/{pid}/status has no {field}")


def parent_of(pid: int) -> int:
    return int(status_field(pid, "PPid"))


def children_of(pid: int) -> set[int]:
    """The processes whose parent is ``pid``, those waiting to be reaped included."""
    children = set()
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                if parent_of(int(entry)) == pid:
                    children.add(int(entry))
            except (FileNotFoundError, ProcessLookupError):
                continue  # gone while listing
    return children


def is_running(pid: int) -> bool:
    """False once ``pid`` is gone or only waits to be reaped."""
    try:
        return not status_field(pid, "State").startswith("Z")
    except (FileNotFoundError, ProcessLookupError):
        return False  # reaped, also while its status was being read


def open_files(pid: int, kind: str) -> set[str]:
    """The ``pipe:[inode]`` or ``socket:[inode]`` targets ``pid`` holds open."""
    targets = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            target = os.readlink(f"/proc/{pid}/fd/{fd}")
        except FileNotFoundError:
            continue  # closed while listing
        if target.startswith(kind + ":"):
            targets.add(target)
    return targets


def catches(pid: int, signum: int) -> bool:
    """Whether ``pid`` has a handler installed for ``signum`` (``SigCgt``)."""
    return bool(int(status_field(pid, "SigCgt"), 16) & (1 << (signum - 1)))
