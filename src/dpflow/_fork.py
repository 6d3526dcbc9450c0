"""Forked helper processes: when the library may fork, how a child runs
and how it is ended.

A forked child runs only the thread that called ``os.fork``, so a lock
another thread held at that moment would stay locked in it. The library
therefore forks only where ``os.fork`` exists and no other thread is alive.
"""

from __future__ import annotations

import os
import signal
import threading


def usable_processes() -> int:
    """Processes a run may keep busy at once: one per CPU this process may
    run on, or 1 (fork nothing) where ``os.fork`` is missing or another
    thread is alive."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def fork_child(run, close) -> int:
    """Fork a child that closes the descriptors ``close``, calls ``run()``
    and leaves through ``os._exit`` with the code ``run`` returns, or 1 if
    it raises, so it never runs this process's cleanup. Returns its pid."""
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        for fd in close:
            os.close(fd)
        code = run()
    finally:
        os._exit(code)


def reap(pids, fds, finished: bool) -> list:
    """End forked children: SIGKILL each of ``pids`` unless the run
    ``finished``, close this process's pipe ends ``fds``, then wait for
    every child. Closing first lets a finished child that waits on one of
    those pipes see its end and exit. Returns the children's exit codes
    (minus the signal number for a child a signal ended)."""
    if not finished:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
    for fd in fds:
        os.close(fd)
    return [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            for pid in pids]
