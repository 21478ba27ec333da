"""A fork server: children forked from one imported image, their exits reported.

The **template** is one process per driver *process*, and its only
``exec``: the first spawn starts it (:func:`shared_template`), every
later one uses it, and it stays until the driver exits.  It has imported
what its children run, runs one thread, and for each request read from
its control socket ``fork()``s one child that calls the entry point
given to :func:`run_template` (:func:`_fork_child`), after importing the
modules the request names (:class:`_Preloads`).  It is the children's
parent: it reaps them and reports every exit back, it terminates the
ones a request names, and when the control socket reaches end of file —
the driver is gone, however it went — it terminates them all.  A child
sees the template's environment, working directory and imported code (a
module edited since is not read again), and the driver's ``sys.path``.

This module imports no part of the runtime it forks: the entry point and
the modules to preload come from its caller.
"""

from __future__ import annotations

# Every child inherits what the template imports, and the template imports
# this module: what the driver alone uses (subprocess) is imported in the
# functions that use it.
import atexit
import contextlib
import gc
import importlib
import json
import logging
import os
import queue
import select
import selectors
import signal
import socket
import sys
import threading
import time
import traceback

from repro.errors import CoreError

logger = logging.getLogger(__name__)

#: How long the template lets its children die of SIGTERM before SIGKILL.
_TERMINATE_GRACE = 2.0

#: The :attr:`ChildProcess.returncode` of a child that exited after its
#: template: the status died with the process that would have reaped it.
#: Neither an exit status (0-255) nor a signal (negative).
UNREPORTED_EXIT = 256


def file_of(module) -> str | None:
    """The absolute path ``module`` was loaded from; None for one without a file."""
    file = getattr(module, "__file__", None)
    return os.path.abspath(file) if file else None


# -- the template: one import, one fork per child -----------------------------


def _trim_heap() -> None:
    """Collect what the imports left behind and hand the freed heap back to the
    system, so that a child is not forked with it resident (glibc only)."""
    import ctypes  # the template's alone: drivers import this module too

    gc.collect()
    with contextlib.suppress(OSError, AttributeError):  # no libc, or not glibc's
        ctypes.CDLL(None).malloc_trim(0)


class _Preloads:
    """The template's imports of the modules requests name (:meth:`load`)."""

    def __init__(self) -> None:
        #: ``(module, file)`` pairs that failed, or came from another file:
        #: not tried again (each try costs an import and a heap trim).
        self.missed: set[tuple[str, str]] = set()
        #: The module whose import started a thread, once one has: the
        #: template forks no more then (see :func:`_fork_child`).
        self.threaded: str | None = None

    def load(self, modules, path) -> bool:
        """Import the modules a request names, so its child need not.

        ``modules`` is ``[module, file]`` pairs, imported with what
        ``path`` (the requester's ``sys.path``) has in front of the
        template's own, as the child would.  A module stays loaded only if
        it came from that file: one of the same name from another file is
        dropped, so that the child imports the right one itself.  One that
        fails to import is skipped, and its child fails as it would have.
        A module whose import starts a thread is kept in :attr:`threaded`,
        and nothing more is imported.  Returns whether one has: the
        template may fork no more.
        """
        if self.threaded is not None:
            return True
        wanted = []
        for name, file in modules:
            if file_of(sys.modules.get(name)) != file:
                sys.modules.pop(name, None)  # another file's: the child imports its own
                if (name, file) not in self.missed:
                    wanted.append((name, file))
        if not wanted:
            return False
        imported = False
        saved = sys.path[:]
        sys.path[:0] = [entry for entry in path if entry not in sys.path]
        importlib.invalidate_caches()
        try:
            for name, file in wanted:
                threads = threading.active_count()
                try:
                    loaded = importlib.import_module(name)
                except Exception:  # noqa: BLE001 - the child meets it again, and says so
                    logger.debug("preloading %s failed", name, exc_info=True)
                    self.missed.add((name, file))
                    continue
                imported = True
                if threading.active_count() != threads:
                    self.threaded = name
                    return True
                if file_of(loaded) != file:
                    del sys.modules[name]
                    self.missed.add((name, file))
        finally:
            sys.path[:] = saved
            if imported:
                _trim_heap()
        return False


def _fork_child(target, spec: dict, stdout_fd: int, stderr_fd: int, inherited, path=()) -> int:
    """Fork one child that runs ``target(**spec)``; its pid, in the template.

    The child writes to the two pipes it was sent instead of the
    template's stdout and stderr, and closes ``inherited`` — whatever of
    the template's it must not hold open: the control socket (or the
    driver would not see the template go) and the wake-up pair.  It puts
    what ``path`` (the requester's ``sys.path``) has and its own lacks in
    front of its own.  It never returns into the template's loop: it
    leaves through ``os._exit``.
    """
    if threading.active_count() != 1:
        # fork() copies the calling thread alone; a lock another thread
        # holds at that instant stays locked in the child for ever.
        raise CoreError(
            f"the template runs {threading.active_count()} threads and "
            "forks only while it runs one"
        )
    pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGCHLD, signal.SIG_DFL)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        for resource in inherited:
            resource.close()
        os.dup2(stdout_fd, 1)
        os.dup2(stderr_fd, 2)
        os.close(stdout_fd)
        os.close(stderr_fd)
        sys.path[:0] = [entry for entry in path if entry not in sys.path]
        target(**spec)
        status = 0
    except BaseException:  # noqa: BLE001 - the process ends here, saying why
        traceback.print_exc()
    finally:
        with contextlib.suppress(OSError, ValueError):
            sys.stdout.flush()
            sys.stderr.flush()
        os._exit(status)


def _report(control: socket.socket, message: dict) -> None:
    """Send one line to the driver; a driver that is gone is found by the read."""
    with contextlib.suppress(OSError):
        control.sendall(json.dumps(message).encode() + b"\n")


def _answer_request(
    control: socket.socket, children: set[int], inherited, preloads: _Preloads, target
) -> bool:
    """Read one request and answer it; False at end of file.

    A request is one JSON line.  ``{"spec", "path", "preload", "fds"}`` asks
    for a fork after the preload, and comes with the write ends of the
    child's stdout and stderr pipes, then a descriptor for each spec keyword
    ``fds`` names; the template closes its copies at once, so that no later
    sibling inherits them and a dead child's pipes reach end of file.
    ``{"terminate": pids}`` is answered once those children are reaped.  A
    template whose preload started a thread refuses every fork, naming the
    module, and still reaps, reports and terminates the children it has.
    """
    data, fds = b"", []
    while not data.endswith(b"\n"):
        # At most two pipes and one descriptor the child is handed.
        chunk, received, _flags, _address = socket.recv_fds(control, 65536, 3)
        if not chunk:
            return False
        data += chunk
        fds += received
    try:
        request = json.loads(data)
        if "terminate" in request:
            _terminate(request["terminate"], children, control)
            reply = {}
        elif preloads.load(request["preload"], request["path"]):
            reply = {
                "error": f"importing {preloads.threaded!r} started a thread, and a "
                "template that runs two forks no more",
                "threaded": preloads.threaded,
            }
        else:
            stdout_fd, stderr_fd, *handed = fds
            spec = {**request["spec"], **dict(zip(request["fds"], handed))}
            pid = _fork_child(target, spec, stdout_fd, stderr_fd, inherited, request["path"])
            children.add(pid)
            reply = {"pid": pid}
    except Exception as exc:  # noqa: BLE001 - the driver raises it; the template serves on
        reply = {"error": f"{type(exc).__name__}: {exc}"}
    finally:
        for fd in fds:
            os.close(fd)
    _report(control, reply)
    return True


def _reap(children: set[int], control: socket.socket, until_gone=frozenset()) -> None:
    """Collect the children that have exited and report each exit code; waits
    for an exit while one of ``until_gone`` is still a child."""
    while children:
        pid, status = os.waitpid(-1, 0 if until_gone & children else os.WNOHANG)
        if pid == 0:
            return
        children.discard(pid)
        _report(control, {"exit": pid, "status": os.waitstatus_to_exitcode(status)})


def _terminate(doomed, children: set[int], control: socket.socket) -> None:
    """SIGTERM the ``doomed`` children, SIGKILL what is left after the grace, reap them."""
    doomed = children.intersection(doomed)  # once reaped, a pid may be another process's
    for pid in doomed:
        os.kill(pid, signal.SIGTERM)
    deadline = time.monotonic() + _TERMINATE_GRACE
    while doomed & children and time.monotonic() < deadline:
        _reap(children, control)
        time.sleep(0.01)
    for pid in doomed & children:
        os.kill(pid, signal.SIGKILL)
    _reap(children, control, doomed)


def run_template(control_fd: int, target) -> int:
    """Fork a child that runs ``target`` for each request read from socket
    ``control_fd``, until it is hung up.

    Single-threaded on purpose (see :func:`_fork_child`): one selector
    waits for requests and for the signals' wake-up bytes.  SIGCHLD means
    there is an exit to report; SIGTERM and end of file on the control
    socket both mean the driver is done, and no child outlives it.
    """
    _trim_heap()  # of what importing the children's code cost
    control = socket.socket(fileno=control_fd)
    wake_in, wake_out = socket.socketpair()
    wake_in.setblocking(False)
    wake_out.setblocking(False)
    signal.set_wakeup_fd(wake_out.fileno())
    for signum in (signal.SIGCHLD, signal.SIGTERM):
        signal.signal(signum, lambda *_: None)  # the wake-up byte is the message
    children: set[int] = set()
    preloads = _Preloads()
    with selectors.DefaultSelector() as ready, control, wake_in, wake_out:
        ready.register(control, selectors.EVENT_READ)
        ready.register(wake_in, selectors.EVENT_READ)
        inherited = (ready, control, wake_in, wake_out)
        try:
            while True:
                for key, _events in ready.select():
                    if key.fileobj is wake_in:
                        if signal.SIGTERM in wake_in.recv(4096):
                            return 0
                        _reap(children, control)
                    elif not _answer_request(control, children, inherited, preloads, target):
                        return 0
        finally:
            _terminate(children, children, control)


# -- the driver's side --------------------------------------------------------


class ChildProcess:
    """The driver's handle on one forked child, shaped like ``subprocess``'s.

    The child's parent is the template, so nothing here can ``waitpid``:
    the exit code is whatever the template reported (negative for a
    signal, as ``subprocess`` has it).  Once the template is gone, the
    child's pidfd, opened with the handle, tells that it has exited, and
    the code is :data:`UNREPORTED_EXIT` (where there are no pidfds, such a
    child reads as alive).  ``stdout`` and ``stderr`` are the read ends of
    the child's pipes.
    """

    def __init__(self, template: "_Template", pid: int, stdout, stderr) -> None:
        self._template = template
        self.pid = pid
        self.stdout = stdout
        self.stderr = stderr
        self.returncode: int | None = None
        try:  # readable once the child has exited, whoever reaps it
            self._pidfd: int | None = os.pidfd_open(pid)
        except (AttributeError, OSError):
            # No pidfds here (ENOSYS, a seccomp EPERM), or the child is gone
            # and reaped already: then the template's report is on its way.
            self._pidfd = None

    def poll(self) -> int | None:
        return self._take(0.0)

    def wait(self, timeout: float | None = None) -> int:
        code = self._take(timeout)
        if code is None:
            import subprocess

            raise subprocess.TimeoutExpired(f"forked child (pid {self.pid})", timeout or 0.0)
        return code

    def _take(self, timeout: float | None) -> int | None:
        if self.returncode is None:
            deadline = None if timeout is None else time.monotonic() + timeout
            # The template's report is taken once: a thread that lost the
            # race to it must not write None over the winner's code.
            code = self._template.exit_code(self.pid, timeout)
            if code is None and self._pidfd is not None and self._template.dead:
                exited = select.poll()
                exited.register(self._pidfd, select.POLLIN)
                wait = None if deadline is None else max(0.0, deadline - time.monotonic()) * 1000
                if exited.poll(wait):
                    code = UNREPORTED_EXIT
            if code is not None and self.returncode is None:
                self.returncode = code
        return self.returncode

    def kill(self) -> None:
        if self.poll() is None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(self.pid, signal.SIGKILL)

    def close(self) -> None:
        self.stdout.close()
        self.stderr.close()
        if self._pidfd is not None:
            os.close(self._pidfd)
            self._pidfd = None


class _Template:
    """The driver's end of the fork server: its process and control socket.

    One request is in flight at a time.  A reader thread sorts what the
    template sends into replies and exit reports, so that ``poll()`` is a
    dictionary lookup and ``wait()`` sleeps on a condition.
    """

    def __init__(self, command: list[str], env: dict[str, str]) -> None:
        import subprocess

        #: The process that started it: a forked copy of that process holds
        #: copies of this handle's descriptors and must not speak through them.
        self.owner = os.getpid()
        self._control, theirs = socket.socketpair()
        with theirs:
            self.process = subprocess.Popen(
                [*command, "--template", str(theirs.fileno())],
                pass_fds=[theirs.fileno()],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        self._request = threading.Lock()
        self._replies: queue.SimpleQueue[dict] = queue.SimpleQueue()
        self._exited = threading.Condition()
        self._exit_codes: dict[int, int] = {}
        self._gone = ""  # why, once the template is
        #: Why the template forks no more, once a preload started a thread there;
        #: it still serves the children it has.
        self.retired = ""
        self._reader = threading.Thread(
            target=self._read, name="template-reader", daemon=True
        )
        self._reader.start()

    def _read(self) -> None:
        try:
            with self._control.makefile("rb") as lines:
                for line in lines:
                    message = json.loads(line)
                    if "exit" in message:
                        with self._exited:
                            self._exit_codes[message["exit"]] = message["status"]
                            self._exited.notify_all()
                    else:
                        self._replies.put(message)
        except OSError:
            pass  # a template killed with bytes unread resets the socket
        # End of file: the template is gone and nothing more will be reported.
        assert self.process.stderr is not None
        last_words = self.process.stderr.read().strip()
        with self._exited:
            self._gone = f"the template process is gone: {last_words}"
            self._exited.notify_all()
        self._replies.put({"error": self._gone})  # to the request in flight, if any

    @property
    def dead(self) -> bool:
        """Whether the next request needs another template."""
        return bool(self._gone) or self.process.poll() is not None

    def _ask(self, request: dict, fds: list[int], timeout: float) -> dict:
        """Send one request, with ``fds``; its reply, or the error there is instead."""
        with self._request:
            if self._gone:
                return {"error": self._gone}
            try:
                socket.send_fds(self._control, [json.dumps(request).encode() + b"\n"], fds)
            except OSError:
                pass  # the template hung up: the reader's last reply says why
            try:
                return self._replies.get(timeout=timeout)
            except queue.Empty:
                # A reply that came later would answer the wrong request.
                self.process.terminate()
                return {"error": f"no answer from the template within {timeout}s"}

    def spawn(
        self, spec: dict, fds: dict[str, int], preload, timeout: float
    ) -> ChildProcess | None:
        """Have the template fork a child running ``target(**spec)``, handed
        ``fds`` (spec keyword -> descriptor; the caller closes its copies) after
        importing ``preload``'s ``(module, file)`` pairs; None if it has
        retired instead (:attr:`retired`): another template must.
        """
        stdout, stdout_w = os.pipe()
        stderr, stderr_w = os.pipe()
        pipes = [
            open(fd, encoding="utf-8", errors="replace") for fd in (stdout, stderr)  # noqa: SIM115
        ]
        try:
            request = {
                "spec": spec,
                "path": [entry for entry in sys.path if entry],
                "preload": [pair for pair in preload if pair[0] not in _threaded_at_import],
                "fds": list(fds),
            }
            reply = self._ask(request, [stdout_w, stderr_w, *fds.values()], timeout)
        finally:
            os.close(stdout_w)
            os.close(stderr_w)
        if "error" in reply:
            for pipe in pipes:
                pipe.close()
            if "threaded" in reply:
                if reply["threaded"] not in _threaded_at_import:
                    logger.warning(
                        "%s starts a thread at import: its children import it themselves",
                        reply["threaded"],
                    )
                    _threaded_at_import.add(reply["threaded"])
                self.retired = reply["error"]
                return None
            raise CoreError(f"child {spec.get('name')!r} could not be forked: {reply['error']}")
        return ChildProcess(self, reply["pid"], *pipes)

    def exit_code(self, pid: int, timeout: float | None) -> int | None:
        """The exit code reported for ``pid``; None if none came in ``timeout``."""
        with self._exited:
            self._exited.wait_for(lambda: pid in self._exit_codes or self._gone, timeout)
            return self._exit_codes.pop(pid, None)

    def close(self, timeout: float) -> None:
        """Hang up: the template terminates the children left, reports and exits.

        In a forked copy of the owner only the copies of the descriptors
        are closed, which tells the owner's template nothing.
        """
        import subprocess

        if self.owner == os.getpid():
            with contextlib.suppress(OSError):
                self._control.shutdown(socket.SHUT_WR)
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            self._reader.join(timeout)
        self._control.close()
        assert self.process.stderr is not None
        self.process.stderr.close()


#: The process's template: started by its first request, used by every later
#: one, replaced once found dead or retired.  Nothing is started at import.
_shared: _Template | None = None
_shared_lock = threading.Lock()

#: Modules whose import started a thread in a template: never preloaded again.
_threaded_at_import: set[str] = set()


def shared_template(command: list[str]) -> _Template:
    """The process's template, started with ``command`` or replaced if need be."""
    global _shared
    with _shared_lock:
        if _shared is not None and _shared.owner != os.getpid():
            _shared.close(0.0)  # inherited over a fork: the parent's, which goes on using it
            _shared = None
        if _shared is not None and _shared.dead:
            logger.warning("starting another template: %s", _shared._gone or "it exited")
            _shared.close(_TERMINATE_GRACE + 1.0)
            _shared = None
        if _shared is not None and _shared.retired:
            _shared = None  # it serves its children until the driver exits (atexit)
        if _shared is None:
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
            _shared = _Template(command, env)
            # The hang-up of a driver that exits in good order: no Popen left un-waited.
            atexit.register(_shared.close, _TERMINATE_GRACE + 1.0)
        return _shared


def spawn(
    command: list[str], spec: dict, fds: dict[str, int], preload, timeout: float
) -> ChildProcess:
    """A child forked with ``spec`` (:meth:`_Template.spawn`) from the process's
    template, which ``command`` starts; a retired one hands the request on."""
    process: ChildProcess | None = None
    while process is None:  # each template that retires names one module fewer
        process = shared_template(command).spawn(spec, fds, preload, timeout)
    return process


def terminate(processes: list[ChildProcess], timeout: float) -> None:
    """Wait ``timeout`` for ``processes`` to exit, have each template end its own of
    the rest and no other child, SIGKILL those whose template is gone, close them all."""
    import subprocess

    for process in processes:
        with contextlib.suppress(subprocess.TimeoutExpired):
            process.wait(timeout=timeout)
    left = [process for process in processes if process.returncode is None]
    for template in {process._template for process in left}:
        pids = [process.pid for process in left if process._template is template]
        template._ask({"terminate": pids}, [], timeout + _TERMINATE_GRACE)  # once reaped
    deadline = time.monotonic() + timeout
    for process in processes:
        if process.poll() is None:  # its template is gone and ended nothing
            process.kill()
            with contextlib.suppress(subprocess.TimeoutExpired):
                process.wait(max(0.0, deadline - time.monotonic()))
        process.close()
