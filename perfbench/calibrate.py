"""Calibration helper of run.py: times a fixed kernel whenever asked.

Usage: python3 calibrate.py   (run.py starts it; set the BLAS thread count first)

Prints one JSON line with the numpy version and BLAS vendor, then, for each
line read on standard input, runs the kernel once and prints its CPU
seconds.  The kernel holds the kinds of work the pipeline does: a Python
loop, small numpy calls, a chain of (3072, 64) @ (64, 64) products, and
streaming over 8 MB.  It belongs to the benchmark, so no change to the
program moves it.  It runs in its own process so that run.py, which starts
every measured command, never imports numpy and stays small: a child's max
RSS, which counts its parent's at the time it was started, is then its own.
"""

import json
import sys
import time

import numpy as np


def blas_vendor() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def main() -> None:
    rng = np.random.default_rng(0)
    a0 = rng.normal(size=(3072, 64))
    w = rng.normal(size=(64, 64)) / 8
    x0 = np.ones(1_000_000)
    print(json.dumps({"numpy": np.__version__, "blas": blas_vendor()}), flush=True)
    for _ in sys.stdin:
        t0 = time.process_time()
        acc = 0.0
        for i in range(150_000):
            acc += (i * 0.5) % 7.0
        v = np.arange(64.0)
        for _ in range(3000):
            v = np.sqrt(v + 1.0) * 0.999
        a = a0
        for _ in range(15):
            a = np.tanh(a @ w)
        x = x0
        for _ in range(15):
            x = x * 1.000001 + 1e-9
        print(repr(time.process_time() - t0), flush=True)


if __name__ == "__main__":
    main()
