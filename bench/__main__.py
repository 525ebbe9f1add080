"""``python3 -m bench`` — runs ``bench/cli.py`` and outlives everything it starts.

The command line runs in a child interpreter; this process only waits,
as a Linux *child subreaper*.  Whatever a run leaves behind re-parents
to this process instead of to init and is waited for here, so nothing a
run started is alive once the command has returned.  The case that
always occurs: ``multiprocessing``'s resource tracker exits only after
the process that started it has, and stayed visible for up to 1.7 s
after a run.  The case that should not: an engine worker or the gateway
outliving a crashed harness; those are killed after ``LINGER_S``, and
the command then exits non-zero.
"""

import ctypes
import os
import signal
import subprocess
import sys
import time

PR_SET_CHILD_SUBREAPER = 36

#: How long leftovers of a finished run may take to end by themselves.
LINGER_S = 10.0


def _children() -> "list[int]":
    """Live processes whose parent is this one."""
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    ppid = handle.read().rsplit(")", 1)[1].split()[1]
            except OSError:
                continue
            if ppid == me:
                found.append(int(entry))
    return found


def reap_leftovers(linger_s: float = LINGER_S) -> bool:
    """Wait until this process has no child left -> whether any had to be killed."""
    deadline = time.monotonic() + linger_s
    killed = False
    while True:
        try:
            pid, _ = os.waitpid(-1, 0 if killed else os.WNOHANG)
        except ChildProcessError:
            return killed
        if pid:
            continue
        if time.monotonic() < deadline:
            time.sleep(0.005)
            continue
        for child in _children():
            try:
                os.kill(child, signal.SIGKILL)
            except ProcessLookupError:
                pass
        killed = True


def main() -> int:
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init, the run's own hygiene checks still hold
    worker = subprocess.Popen([sys.executable, "-m", "bench.cli", *sys.argv[1:]])
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda received, _frame: worker.send_signal(received))
    code = worker.wait()
    if reap_leftovers():
        print(f"bench: processes left by the run were killed after {LINGER_S:g}s",
              file=sys.stderr)
        code = code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
