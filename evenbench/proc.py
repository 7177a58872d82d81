"""Child processes: forked workers that stream results, and timed subprocesses.

At most one child exists at a time.  Each is waited for, and each is
killed when it runs past its deadline, so no probe runs unbounded.
"""

from __future__ import annotations

import os
import pickle
import selectors
import signal
import struct
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional

_HEADER = struct.Struct("<Q")


@dataclass
class ChildResult:
    messages: list = field(default_factory=list)
    exit_code: int = 0
    killed: bool = False

    @property
    def error(self) -> Optional[str]:
        """The child's traceback, if it raised."""
        for msg in self.messages:
            if msg and msg[0] == "error":
                return msg[1]
        return None


def run_forked(target: Callable, *args, timeout_s: float) -> ChildResult:
    """Run target(send, *args) in a forked child.

    send(obj) pickles obj back to the parent.  The parent kills the child
    when no message arrives for timeout_s seconds.  Only this program's
    own children write to the pipe, so unpickling it is safe.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(read_fd)
        code = 0
        out = os.fdopen(write_fd, "wb")

        def send(obj) -> None:
            data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
            out.write(_HEADER.pack(len(data)))
            out.write(data)
            out.flush()

        try:
            target(send, *args)
        except BaseException:  # reported to the parent, which decides
            code = 1
            try:
                send(("error", traceback.format_exc()))
            except OSError:
                pass
        finally:
            try:
                out.flush()
            finally:
                os._exit(code)
    os.close(write_fd)
    result = ChildResult()
    buf = b""
    with selectors.DefaultSelector() as sel, os.fdopen(read_fd, "rb", buffering=0) as inp:
        sel.register(inp, selectors.EVENT_READ)
        while True:
            if not sel.select(timeout_s):
                os.kill(pid, signal.SIGKILL)
                result.killed = True
                break
            chunk = inp.read(1 << 16)
            if not chunk:
                break
            buf += chunk
            while len(buf) >= _HEADER.size:
                (size,) = _HEADER.unpack_from(buf)
                if len(buf) < _HEADER.size + size:
                    break
                result.messages.append(pickle.loads(buf[_HEADER.size : _HEADER.size + size]))
                buf = buf[_HEADER.size + size :]
    _, status = os.waitpid(pid, 0)
    result.exit_code = os.waitstatus_to_exitcode(status)
    return result


def run_process(argv: list[str], *, env: dict, cwd: str, timeout_s: float):
    """Run argv to completion; return (CompletedProcess, wall seconds from spawn to exit).

    The CompletedProcess is None when the process ran past timeout_s and
    was killed (and waited for).
    """
    start = time.perf_counter()
    try:
        done = subprocess.run(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                              capture_output=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        done = None
    return done, time.perf_counter() - start
