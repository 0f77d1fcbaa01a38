"""Work in a forked child process, beside the parent.

The one implementation of forking, used by ingest's byte-range workers.
A child is forked, not spawned: a fresh interpreter's imports take
0.24 s. It runs work(out, *args), out the write end of a pipe that the
parent reads, and ends in os._exit, so it never returns into the
parent's code nor runs its exit handlers. Should work raise, the child
just ends. On Linux the kernel kills a child whose parent ends first, so
a parent killed mid-run leaves none behind.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import pickle
import signal
import sys
import threading

_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>
# the children forked and not yet ended: their pipes' read ends are file
# descriptors of the process, which every later child closes
_live: list[Child] = []


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def can_fork(cpus: int) -> bool:
    """Whether work may run in a forked child beside the parent: with
    more than one CPU, with os.fork, and with no other thread running,
    since a forked child would find the locks they hold held for good."""
    return cpus > 1 and hasattr(os, "fork") and threading.active_count() == 1


class Child:
    """A forked child and the read end of its pipe. As a context manager
    it kills the child, should it still run, and reaps it on exit."""

    def __init__(self, pid: int, pipe):
        self.pid = pid
        self.pipe = pipe

    def load(self):
        """The next object the child pickled. Raises ChildProcessError
        where the child sent no further object: it ended, was killed, or
        work raised."""
        try:
            return pickle.load(self.pipe)
        except Exception:  # the pipe ended, or broke off mid-object
            raise ChildProcessError(
                f"forked child {self.pid} ended early") from None

    def __enter__(self) -> Child:
        return self

    def __exit__(self, *exc) -> None:
        _live.remove(self)
        self.pipe.close()
        with contextlib.suppress(ProcessLookupError):
            os.kill(self.pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(self.pid, 0)


def fork(work, *args) -> Child:
    """A Child running work(out, *args), out the binary write end of its
    pipe, to be entered at once (see Child). Raises OSError where no
    process or pipe is to be had."""
    prctl, parent = _prctl(), os.getpid()
    # a forked copy of a buffer is never written: the child ends in
    # os._exit, and the parent's copy is empty
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if not pid:
        _run(work, args, prctl, parent, read_fd, write_fd)
    os.close(write_fd)
    child = Child(pid, open(read_fd, "rb"))
    _live.append(child)
    return child


def _run(work, args, prctl, parent, read_fd, write_fd):
    """The child's life: never returns."""
    code = 1
    try:
        if prctl is not None:
            prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != parent:  # the parent ended before that
            return
        os.close(read_fd)
        for child in _live:  # a pipe ends only when no child holds it
            os.close(child.pipe.fileno())
        with open(write_fd, "wb") as out:
            work(out, *args)
        code = 0
    finally:
        os._exit(code)


@functools.cache
def _prctl():
    """libc's prctl, or None off Linux or where it is not to be found."""
    if not sys.platform.startswith("linux"):
        return None
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return None
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    return prctl

