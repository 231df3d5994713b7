"""Fixed calibration kernels: how fast the host runs right now.

On a shared host the same call can take 1.5x longer for minutes at a
time, and CPU time grows with it (README.md, "Spread"). Each timed call
is therefore divided by the time of a fixed kernel run next to it, and
multiplied by that kernel's reference time. The result reads as seconds
on the reference host at its usual speed, and a change to the program
still moves it in proportion.

The slow phases do not slow every kind of code by the same factor, so
each workload uses the kernel closest to where its time goes: numpy and
BLAS arithmetic (``numeric``), or interpreted float formatting, as in the
CSV writers (``format``).
"""

from __future__ import annotations

import time

import numpy as np

_X = np.linspace(0.0, 1.0, 100_000)
_A = np.exp(1j * np.outer(np.arange(192), np.arange(192)) / 192.0)


def _numeric() -> None:
    acc = 0
    for i in range(40_000):
        acc += i * i
    np.exp(1j * _X)
    _A @ _A


def _format() -> None:
    lines = [f"{float(i) * 0.1!r},{float(i) * 0.2!r}," for i in range(6000)]
    "\n".join(lines)
    np.exp(1j * _X)


# Kernel -> (function, its typical time in seconds on the reference host:
# 2-vCPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31 with
# 2 threads). The reference times only scale the results.
KERNELS = {
    "numeric": (_numeric, 0.0065),
    "format": (_format, 0.0110),
}


def kernel_seconds(kind: str, budget: float = 0.0) -> float:
    """Mean time of one kernel run, repeating it for about ``budget`` seconds.

    A long call averages the host's speed over its whole length; one
    short kernel run samples only an instant, so the kernel repeats for
    a time in proportion to the call it calibrates.
    """
    fn, _ = KERNELS[kind]
    runs, start = 0, time.perf_counter()
    while True:
        fn()
        runs += 1
        elapsed = time.perf_counter() - start
        if elapsed >= budget:
            return elapsed / runs


def to_reference(seconds: list[float], kernel: list[float], kind: str) -> list[float]:
    """Rescale each timing by the kernel times measured before and after it.

    ``kernel`` has one more entry than ``seconds``: kernel[i] ran just
    before timing i and kernel[i + 1] just after it.
    """
    ref = KERNELS[kind][1]
    return [s * ref / ((kernel[i] + kernel[i + 1]) / 2) for i, s in enumerate(seconds)]
