"""Reference computation that measures how fast the machine runs right now.

On a shared virtual machine the same execution's time swings by 30-45 %
within seconds to minutes, as the host's other tenants come and go. The
benchmark runs this fixed kernel between executions and divides each
execution's wall time by the kernel's time around it, which takes most of
that swing out (see README.md, "Steadiness").

The kernel does the kinds of work a dsmimo trial does, in four parts of
about equal time: dense 64x64 complex Hermitian eigendecompositions (the
CME outer stage), many small complex SVDs and products (numpy call
overhead, as in the inner stage), projections and column norms over a
64x256 complex array (SPS and channel synthesis), and a pure-Python loop
(the harness). Its inputs are fixed: it measures the
machine, not the workload, so it takes no seed and uses no dsmimo code.
"""

from __future__ import annotations

import time

import numpy as np

# The reference machine runs the kernel in exactly this time. A wall time
# t measured next to a kernel time c counts as t * CAL_REF_S / c reference
# seconds. 0.1 s is about the kernel's time on an unloaded 2-vCPU Intel
# Xeon virtual machine, so reference seconds are close to seconds there.
CAL_REF_S = 0.1

_rng = np.random.default_rng(20190720)
_g = _rng.standard_normal((64, 64)) + 1j * _rng.standard_normal((64, 64))
_HERMITIAN = _g @ _g.conj().T
_SMALL = _rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16))
_WIDE = _rng.standard_normal((64, 256)) + 1j * _rng.standard_normal((64, 256))
_DIRECTION = _WIDE[:, 0] / np.linalg.norm(_WIDE[:, 0])


def _kernel() -> int:
    for _ in range(40):
        np.linalg.eigh(_HERMITIAN)
    for _ in range(400):
        np.linalg.svd(_SMALL)
        _SMALL @ _SMALL
    for _ in range(280):
        residual = _WIDE - np.outer(_DIRECTION, _DIRECTION.conj() @ _WIDE)
        np.sum(np.abs(residual) ** 2, axis=0)
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return acc


def calibrate() -> float:
    """Wall time of one run of the kernel, in seconds."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
