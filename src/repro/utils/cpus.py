"""How many CPUs this process may use."""

from __future__ import annotations

import os


def available_cpus() -> int:
    """CPUs the calling process may run on.

    The affinity mask where the OS has one (``taskset``, a cgroup
    cpuset, a pinned worker), ``os.cpu_count()`` otherwise.  Every
    "is there a spare core?" decision reads this: ``os.cpu_count()``
    counts the host's CPUs, so under a one-CPU mask it would start
    threads or processes that can only take turns.
    """
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1
