"""Host context, single-core kernel rates and process accounting.

The two host probes use the same method as the repository's ``bench.py``
(first-touch speed of fresh THP-advised pages; 256x256 matmuls per second)
but are kept here so the benchmark does not depend on a file outside its
own directory. They are recorded next to every run and never waited on.
"""

from __future__ import annotations

import mmap
import os
import signal
import statistics
import time

import numpy as np


def fault_probe_mb_s(mb: int = 200) -> float:
    t0 = time.perf_counter()
    m = mmap.mmap(-1, mb * 1024 * 1024)
    try:
        m.madvise(mmap.MADV_HUGEPAGE)
    except (AttributeError, OSError):
        pass
    x = np.frombuffer(m, dtype=np.uint8)
    x[:] = 1
    dt = time.perf_counter() - t0
    del x
    m.close()
    return mb / dt


def cpu_probe_units_s(reps: int = 60) -> float:
    a = np.random.default_rng(0).standard_normal((256, 256))
    b = a @ a
    t0 = time.perf_counter()
    for _ in range(reps):
        b = a @ b
    return reps / (time.perf_counter() - t0)


#: series lengths of the kernel-rate probes; 2500 is the body of the
#: long-convs workload, 12000 its sharded conversation
RATE_LENGTHS = (512, 2500, 12000)


def kernel_rates(w: int, seed: int = 0) -> dict[str, float]:
    """Single-core p² window-pair units per second, median of a few calls."""
    from tsmp_ray.kernels.block_join import blocked_mp
    from tsmp_ray.kernels.mpx import mpx

    rng = np.random.default_rng(seed)

    def rate(fn, n: int, budget_s: float = 0.6) -> float:
        x = np.cumsum(rng.standard_normal(n))
        fn(x, w)  # first call pays allocation and first-touch
        times = []
        t_end = time.perf_counter() + budget_s
        while len(times) < 3 or (time.perf_counter() < t_end and len(times) < 50):
            t0 = time.perf_counter()
            fn(x, w)
            times.append(time.perf_counter() - t0)
        return (n - w + 1) ** 2 / statistics.median(times)

    out = {f"kernels.blocked_units_per_s.n{n}": rate(blocked_mp, n)
           for n in RATE_LENGTHS}
    out["kernels.mpx_units_per_s.n2500"] = rate(mpx, 2500)
    return out


def blocked_rate_at(rates: dict[str, float], n: np.ndarray) -> np.ndarray:
    """Blocked-kernel rate at length ``n``, log-linear between the probe
    lengths and clamped outside them."""
    xs = np.log(RATE_LENGTHS)
    ys = [rates[f"kernels.blocked_units_per_s.n{k}"] for k in RATE_LENGTHS]
    return np.interp(np.log(np.maximum(n, 1)), xs, ys)


# ------------------------------------------------------------ processes

def _ppid_map() -> dict[int, int]:
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name is parenthesised and may hold spaces
        out[int(d)] = int(stat.rsplit(")", 1)[1].split()[1])
    return out


def descendants(root: int | None = None) -> list[int]:
    root = os.getpid() if root is None else root
    kids: dict[int, list[int]] = {}
    for pid, ppid in _ppid_map().items():
        kids.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def ray_worker_pids() -> list[int]:
    """Ray worker processes (task workers and actors), which retitle
    themselves ``ray::<task or actor>``."""
    return [p for p in descendants() if _cmdline(p).startswith("ray::")]


def reset_peak_rss(pids: list[int]) -> None:
    """Restart VmHWM accounting (``clear_refs`` 5) so the peak covers the
    timed loop only, not the benchmark's own set-up and oracles."""
    for pid in pids:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as f:
                f.write("5")
        except OSError:
            pass


def vm_hwm_mb(pids: list[int]) -> float:
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            pass
    return total_kb / 1024.0


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def wait_gone(pids: list[int], timeout_s: float = 30.0) -> None:
    """Wait for every pid to end; SIGKILL what outlives ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.1)
    for p in pids:
        if _alive(p):
            try:
                os.kill(p, signal.SIGKILL)
            except OSError:
                pass
    deadline = time.monotonic() + 10.0
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.1)
    while True:  # collect our own exited children
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break
        if pid == 0:
            break
