"""Fused physics kernels behind the backend registry (DESIGN.md §15).

The batched optimizer/thermal profile is dominated by chains of small
elementwise ufuncs — ``threshold_voltage`` (Eq 9), ``static_power``
(Eq 8) and the Eq 6-9 thermal fixed point — each allocating fresh
temporaries on every call inside the (vdd, vbb, B, n) sweeps.  This
module collapses those chains into three named kernels resolved through
:meth:`repro.backend.ArrayBackend.kernel`:

``vt_and_static_power``
    Eq 9 + Eq 8 in one pass: effective threshold voltage and the
    leakage power it implies (optionally scaled by a power factor).
``thermal_step``
    ``steps`` fixed-point iterations of Eq 6-9 (default one): both
    power terms, the clamped temperature update, and (optionally) the
    per-lane convergence delta of the last iteration.  Accepts an
    ``out=`` buffer, which may be ``temp`` itself, so a caller can run a
    whole fixed point in place in one call.
``timing_error_cdf``
    Eq 4's per-stage error rate ``rho * Q((1/f - m) / s)`` via the
    backend's ``ndtr``.

Every kernel ships multiple *implementations*:

``reference``
    The exact seed composition of the leaf functions — the parity
    oracle and the benchmark baseline.
``numpy``
    Hand-fused: identical operations in the identical order, but
    written through ``out=`` parameters into buffers borrowed from a
    per-thread :class:`WorkspacePool`, so the only steady-state
    allocations are the results themselves.
``c``
    ``thermal_step`` only: two loops compiled from C source embedded
    here (built once per machine with the system compiler, see
    :mod:`repro.cbuild`) around numpy's ``exp``.  The transcendental
    stays in numpy, the C is compiled without floating-point
    contraction or fast-math, and each loop performs the numpy
    implementation's operations in its order, so bit-identity holds by
    construction rather than by hoping two libm builds agree.

The bit-identity contract: every implementation performs the same IEEE
double operations in the same association order as the seed leaf
functions, so results are *bitwise* equal, not merely close.  Selection
is ``EVAL_REPRO_KERNELS`` ∈ {``auto`` (default: ``c`` where the library
builds and loads, else ``numpy``), ``reference``, ``numpy``, ``c``}.
``c`` applies to the kernels that have a C implementation; the others
run their ``numpy`` one.  Forcing ``c`` where the library cannot build
is a ``RuntimeError``, never a silent fallback.  :func:`use_impl`
forces one for a scope (tests and benchmarks), and
:func:`repro.backend.reset_backend` re-reads the environment.

Each resolved kernel is wrapped with per-kernel observability:
``kernel.<name>.calls`` / ``kernel.<name>.ns`` counters feed the
``benchmarks/bench_kernels.py`` breakdown and cost one boolean check
when metrics are disabled.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.util
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

import numpy as np
from scipy.special import ndtr as _scipy_ndtr

from . import cbuild, obs
from .circuits.knobs import VtSensitivities, threshold_voltage
from .circuits.leakage import IDEALITY_FACTOR, static_power
from .numerics import norm_sf
from .units import Q_OVER_K

#: Whether numba is importable (recorded by the benchmark's
#: configuration report; no implementation uses it).
NUMBA_AVAILABLE = importlib.util.find_spec("numba") is not None

_ENV_VAR = "EVAL_REPRO_KERNELS"

#: Temperature cap (kelvin) of the Eq 6-9 iteration; a subsystem held at
#: it has run away thermally.
T_RUNAWAY = 500.0


# ----------------------------------------------------------------------
# Workspace pool: per-thread scratch buffers keyed on (shape, dtype).
# ----------------------------------------------------------------------
class WorkspacePool:
    """A per-thread free list of preallocated scratch arrays.

    The fused numpy kernels write every intermediate into a borrowed
    buffer instead of allocating it, which is where most of their win
    comes from: grid-sized temporaries exceed the allocator's mmap
    threshold, so a fresh one costs a kernel round-trip plus first-touch
    page faults on every ufunc of the chain.  Buffers are keyed on
    ``(shape, dtype)`` and the free list per key is bounded, so the pool
    cannot grow past ``max_per_key`` grid-sized buffers per shape.

    Buffers come back uninitialised (``np.empty`` semantics); borrowers
    must fully overwrite them.  The pool is thread-local — concurrent
    kernel calls from different threads never share scratch space — and
    re-entrant: nested borrows of the same key pop distinct buffers.
    """

    def __init__(self, max_per_key: int = 8):
        self.max_per_key = max_per_key
        self._local = threading.local()

    def _free_lists(self) -> Dict[Tuple[tuple, str], list]:
        free = getattr(self._local, "free", None)
        if free is None:
            free = {}
            self._local.free = free
        return free

    @contextmanager
    def borrow(
        self, shape, count: int = 1, dtype=np.float64
    ) -> Iterator[Tuple[np.ndarray, ...]]:
        """Borrow ``count`` uninitialised ``shape``-shaped scratch arrays."""
        key = (tuple(shape), np.dtype(dtype).str)
        stack = self._free_lists().setdefault(key, [])
        buffers = tuple(
            stack.pop() if stack else np.empty(shape, dtype=dtype)
            for _ in range(count)
        )
        try:
            yield buffers
        finally:
            stack = self._free_lists().setdefault(key, [])
            for buffer in buffers:
                if len(stack) < self.max_per_key:
                    stack.append(buffer)

    def clear(self) -> None:
        """Drop this thread's cached buffers."""
        self._local.free = {}

    def cached_bytes(self) -> int:
        """Bytes currently cached for this thread (introspection/tests)."""
        return sum(
            buffer.nbytes
            for stack in self._free_lists().values()
            for buffer in stack
        )


_POOL = WorkspacePool()


def workspace_pool() -> WorkspacePool:
    """The process-wide (per-thread) scratch pool the fused kernels use."""
    return _POOL


# ----------------------------------------------------------------------
# Reference implementations: the exact seed leaf-function compositions.
# ----------------------------------------------------------------------
def _reference_vt_and_static_power(
    vt0,
    vdd,
    vbb,
    temp,
    ksta,
    sens: VtSensitivities,
    ideality: float = IDEALITY_FACTOR,
    power_factor=None,
):
    vt = threshold_voltage(vt0, temp, vdd, vbb, sens)
    p_sta = static_power(ksta, vdd, temp, vt, ideality)
    if power_factor is not None:
        p_sta = p_sta * power_factor
    return vt, p_sta


def _check_steps(steps: int) -> None:
    if steps < 1:
        raise ValueError(f"thermal_step needs steps >= 1, got {steps}")


def _check_out(out: Optional[np.ndarray], shape: tuple) -> None:
    if out is not None and out.shape != shape:
        raise ValueError(
            f"thermal_step out buffer has shape {out.shape}, expected {shape}"
        )


def _step_shape(*operands) -> tuple:
    """The broadcast shape of the ``thermal_step`` operands (None skipped)."""
    return np.broadcast_shapes(
        *(np.shape(a) for a in operands if a is not None)
    )


def _reference_thermal_step(
    vt0_leak,
    vdd,
    vbb,
    temp,
    ksta,
    rth,
    p_dyn,
    t_heatsink,
    sens: VtSensitivities,
    ideality: float = IDEALITY_FACTOR,
    power_factor=None,
    t_runaway: float = T_RUNAWAY,
    compute_delta: bool = False,
    out: Optional[np.ndarray] = None,
    steps: int = 1,
):
    _check_steps(steps)
    _check_out(
        out,
        _step_shape(vt0_leak, vdd, vbb, temp, ksta, rth, p_dyn, power_factor),
    )
    new_temp = np.asarray(temp, dtype=float)
    for _ in range(steps):
        temp = new_temp
        _, p_sta = _reference_vt_and_static_power(
            vt0_leak, vdd, vbb, temp, ksta, sens, ideality, power_factor
        )
        new_temp = np.minimum(t_heatsink + rth * (p_dyn + p_sta), t_runaway)
    delta = None
    if compute_delta:
        delta = np.max(np.abs(new_temp - temp), axis=-1)
    if out is not None:
        np.copyto(out, new_temp)
        new_temp = out
    return new_temp, delta


def _reference_timing_error_cdf(freq, mean, sigma, rho):
    freq = np.asarray(freq, dtype=float)
    period = 1.0 / freq
    z = (period - np.asarray(mean, dtype=float)) / np.asarray(
        sigma, dtype=float
    )
    return np.asarray(rho, dtype=float) * norm_sf(z)


# ----------------------------------------------------------------------
# Hand-fused numpy implementations: same ops, same order, zero
# steady-state temporaries.  Bitwise equalities relied on here (all
# asserted by tests/test_kernels.py): ``x**2 == x*x``, scalar
# multiplication commutes (``k*a == a*k``), and ufunc ``out=`` writes
# are exact.
# ----------------------------------------------------------------------
def _fill_vt(vt0, vdd, vbb, temp_b, sens, shape, vt):
    """Eq 9 into ``vt``, preserving the seed's association order."""
    np.subtract(temp_b, sens.t_ref, out=vt)
    np.multiply(vt, sens.k1, out=vt)
    np.add(np.broadcast_to(vt0, shape), vt, out=vt)
    np.add(vt, np.broadcast_to(sens.k2 * (vdd - sens.vdd_ref), shape), out=vt)
    np.add(vt, np.broadcast_to(sens.k3 * vbb, shape), out=vt)


def _fill_psta(vt, vdd, temp_b, ksta, ideality, power_factor, shape, p, ws, ws2):
    """Eq 8 (optionally * power_factor) into ``p``.

    ``p`` may alias ``vt``: the first operation consumes ``vt`` into
    ``ws`` and nothing reads it afterwards.
    """
    np.multiply(vt, -Q_OVER_K, out=ws)
    np.multiply(temp_b, ideality, out=ws2)
    np.divide(ws, ws2, out=ws)
    np.exp(ws, out=ws)
    np.multiply(temp_b, temp_b, out=ws2)
    np.multiply(np.broadcast_to(ksta * vdd, shape), ws2, out=p)
    np.multiply(p, ws, out=p)
    if power_factor is not None:
        np.multiply(p, np.broadcast_to(power_factor, shape), out=p)


def _numpy_vt_and_static_power(
    vt0,
    vdd,
    vbb,
    temp,
    ksta,
    sens: VtSensitivities,
    ideality: float = IDEALITY_FACTOR,
    power_factor=None,
):
    vt0 = np.asarray(vt0, dtype=float)
    vdd = np.asarray(vdd, dtype=float)
    vbb = np.asarray(vbb, dtype=float)
    temp = np.asarray(temp, dtype=float)
    ksta = np.asarray(ksta, dtype=float)
    shapes = [vt0.shape, vdd.shape, vbb.shape, temp.shape, ksta.shape]
    if power_factor is not None:
        power_factor = np.asarray(power_factor, dtype=float)
        shapes.append(power_factor.shape)
    shape = np.broadcast_shapes(*shapes)
    temp_b = np.broadcast_to(temp, shape)
    vt = np.empty(shape)
    p_sta = np.empty(shape)
    _fill_vt(vt0, vdd, vbb, temp_b, sens, shape, vt)
    with _POOL.borrow(shape, 2) as (ws, ws2):
        _fill_psta(
            vt, vdd, temp_b, ksta, ideality, power_factor, shape, p_sta, ws, ws2
        )
    return vt, p_sta


def _numpy_thermal_step(
    vt0_leak,
    vdd,
    vbb,
    temp,
    ksta,
    rth,
    p_dyn,
    t_heatsink,
    sens: VtSensitivities,
    ideality: float = IDEALITY_FACTOR,
    power_factor=None,
    t_runaway: float = T_RUNAWAY,
    compute_delta: bool = False,
    out: Optional[np.ndarray] = None,
    steps: int = 1,
):
    _check_steps(steps)
    vt0_leak = np.asarray(vt0_leak, dtype=float)
    vdd = np.asarray(vdd, dtype=float)
    vbb = np.asarray(vbb, dtype=float)
    temp = np.asarray(temp, dtype=float)
    ksta = np.asarray(ksta, dtype=float)
    rth = np.asarray(rth, dtype=float)
    p_dyn = np.asarray(p_dyn, dtype=float)
    if power_factor is not None:
        power_factor = np.asarray(power_factor, dtype=float)
    shape = _step_shape(
        vt0_leak, vdd, vbb, temp, ksta, rth, p_dyn, power_factor
    )
    _check_out(out, shape)
    if out is None:
        out = np.empty(shape)
    delta = None
    with _POOL.borrow(shape, 3) as (p, ws, ws2):
        for step in range(steps):
            temp_b = np.broadcast_to(temp, shape)
            _fill_vt(vt0_leak, vdd, vbb, temp_b, sens, shape, p)
            _fill_psta(
                p, vdd, temp_b, ksta, ideality, power_factor, shape, p, ws, ws2
            )
            np.add(np.broadcast_to(p_dyn, shape), p, out=p)
            np.multiply(np.broadcast_to(rth, shape), p, out=p)
            np.add(p, t_heatsink, out=p)
            if compute_delta and step == steps - 1:
                # ``out`` may be ``temp``: take the delta before writing it.
                np.minimum(p, t_runaway, out=p)
                np.subtract(p, temp_b, out=ws)
                np.abs(ws, out=ws)
                delta = ws.max(axis=-1)
                np.copyto(out, p)
            else:
                np.minimum(p, t_runaway, out=out)
            temp = out
    return out, delta


def _numpy_timing_error_cdf(freq, mean, sigma, rho):
    freq = np.asarray(freq, dtype=float)
    mean = np.asarray(mean, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    rho = np.asarray(rho, dtype=float)
    shape = np.broadcast_shapes(
        freq.shape, mean.shape, sigma.shape, rho.shape
    )
    pe = np.empty(shape)
    np.divide(1.0, np.broadcast_to(freq, shape), out=pe)
    np.subtract(pe, np.broadcast_to(mean, shape), out=pe)
    np.divide(pe, np.broadcast_to(sigma, shape), out=pe)
    np.negative(pe, out=pe)
    _scipy_ndtr(pe, out=pe)
    np.multiply(np.broadcast_to(rho, shape), pe, out=pe)
    return pe


# ----------------------------------------------------------------------
# C implementation of ``thermal_step`` (built with the system compiler
# through :mod:`repro.cbuild`).  Two C passes per step bracket numpy's
# ``exp``: the first writes Eq 8's exponent argument (through Eq 9),
# ``np.exp`` runs in place on it, and the second applies Eq 8, Eq 6 and
# the runaway clamp.  Each pass performs the numpy implementation's IEEE
# operations in its order, compiled without contraction or fast-math,
# so results are bitwise identical.  Operands stay at their own shapes:
# a 4-deep loop nest addresses each through its own element strides,
# zero along the axes it broadcasts over.
# ----------------------------------------------------------------------
_C_SOURCE = r"""
#include <stdint.h>

/* Operand k of a pass sits at op[k] + i0*st[4k] + ... + i3*st[4k+3]
   over the n[0] x n[1] x n[2] x n[3] loop nest. */
#define ROW(k) (op[k] + i0 * st[4 * (k)] + i1 * st[4 * (k) + 1] \
                + i2 * st[4 * (k) + 2])
#define NEST for (int64_t i0 = 0; i0 < n[0]; ++i0) \
             for (int64_t i1 = 0; i1 < n[1]; ++i1) \
             for (int64_t i2 = 0; i2 < n[2]; ++i2)

/* Eq 9, then Eq 8's exponent -q/k * Vt / (n * T), into the contiguous
   arg.  op: vt0, temp, vdd, vbb.  c: k1, t_ref, k2, vdd_ref, k3,
   -q/k, ideality. */
void thermal_exponent(const int64_t *n, const double *const *op,
                      const int64_t *st, const double *c, double *arg)
{
    const double k1 = c[0], t_ref = c[1], k2 = c[2], vdd_ref = c[3];
    const double k3 = c[4], neg_q_over_k = c[5], ideality = c[6];
    const int64_t s0 = st[3], s1 = st[7], s2 = st[11], s3 = st[15];
    /* The sweeps' common case: knobs constant along the inner axis,
       everything else contiguous along it. */
    const int rows = s0 == 1 && s1 == 1 && s2 == 0 && s3 == 0;
    NEST {
        const double *vt0 = ROW(0), *temp = ROW(1);
        const double *vdd = ROW(2), *vbb = ROW(3);
        if (rows) {
            const double dv = k2 * (vdd[0] - vdd_ref), db = k3 * vbb[0];
            for (int64_t i = 0; i < n[3]; ++i) {
                const double t = temp[i];
                double vt = (t - t_ref) * k1;
                vt = vt0[i] + vt;
                vt = vt + dv;
                vt = vt + db;
                arg[i] = (vt * neg_q_over_k) / (t * ideality);
            }
        } else {
            for (int64_t i = 0; i < n[3]; ++i) {
                const double t = temp[i * s1];
                double vt = (t - t_ref) * k1;
                vt = vt0[i * s0] + vt;
                vt = vt + k2 * (vdd[i * s2] - vdd_ref);
                vt = vt + k3 * vbb[i * s3];
                arg[i] = (vt * neg_q_over_k) / (t * ideality);
            }
        }
        arg += n[3];
    }
}

/* Eq 8 from exp(arg), times the power factor when op[4] is non-null,
   then Eq 6 and the runaway clamp into op[7] (which may be temp itself:
   each cell reads its temperature before writing it).  The clamp
   propagates NaN like np.minimum.  op: ksta, vdd, temp, exp(arg),
   power factor, p_dyn, rth, out.  c: t_heatsink, t_runaway. */
#define UPDATE(ksta_i, vdd_i, temp_i, e_i, pf_i, p_dyn_i, rth_i, out_i) \
    {                                                                    \
        const double t = temp_i;                                         \
        double p = ksta_i * vdd_i;                                       \
        p = p * (t * t);                                                 \
        p = p * e_i;                                                     \
        if (scaled)                                                      \
            p = p * pf_i;                                                \
        p = p_dyn_i + p;                                                 \
        p = rth_i * p;                                                   \
        p = p + t_heatsink;                                              \
        out_i = (p <= t_runaway || p != p) ? p : t_runaway;              \
    }

void thermal_update(const int64_t *n, double *const *op, const int64_t *st,
                    const double *c)
{
    const double t_heatsink = c[0], t_runaway = c[1];
    const int64_t s0 = st[3], s1 = st[7], s2 = st[11], s3 = st[15];
    const int64_t s4 = st[19], s5 = st[23], s6 = st[27], s7 = st[31];
    const int scaled = op[4] != 0;
    const int rows = s0 == 1 && s1 == 0 && s2 == 1 && s3 == 1
                     && (!scaled || s4 == 1) && s5 == 1 && s6 == 1
                     && s7 == 1;
    NEST {
        const double *ksta = ROW(0), *vdd = ROW(1), *temp = ROW(2);
        const double *e = ROW(3), *pf = scaled ? ROW(4) : 0;
        const double *p_dyn = ROW(5), *rth = ROW(6);
        double *out = ROW(7);
        if (rows) {
            const double v = vdd[0];
            /* out may be temp itself, element for element: no
               dependence crosses iterations. */
            if (scaled) {
#pragma GCC ivdep
                for (int64_t i = 0; i < n[3]; ++i)
                    UPDATE(ksta[i], v, temp[i], e[i], pf[i], p_dyn[i],
                           rth[i], out[i])
            } else {
#pragma GCC ivdep
                for (int64_t i = 0; i < n[3]; ++i)
                    UPDATE(ksta[i], v, temp[i], e[i], 1.0, p_dyn[i],
                           rth[i], out[i])
            }
        } else {
            for (int64_t i = 0; i < n[3]; ++i)
                UPDATE(ksta[i * s0], vdd[i * s1], temp[i * s2], e[i * s3],
                       pf[i * s4], p_dyn[i * s5], rth[i * s6], out[i * s7])
        }
    }
}
"""

#: The pointer/stride vectors each pass takes (argtypes, restype None).
_C_SIGNATURES = {
    "thermal_exponent": [ctypes.c_void_p] * 5,
    "thermal_update": [ctypes.c_void_p] * 4,
}


@functools.lru_cache(maxsize=None)
def _c_library_for(compiler: str, flags: tuple) -> ctypes.CDLL:
    """The loaded thermal library, its two passes typed (per toolchain)."""
    lib = cbuild.load("thermal_step", _C_SOURCE)
    for name, argtypes in _C_SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = None
    return lib


def c_library() -> ctypes.CDLL:
    """The compiled ``thermal_step`` passes, built on first use.

    Raises :class:`repro.cbuild.BuildError` when this machine cannot
    build or load them.
    """
    return _c_library_for(cbuild.COMPILER, cbuild.FLAGS)


def c_available() -> bool:
    """Whether :func:`c_library` builds and loads on this machine."""
    try:
        c_library()
    except cbuild.BuildError:
        return False
    return True


def _loop_nest(shape, arrays):
    """The broadcast loop nest of ``arrays`` over ``shape``, coalesced.

    Size-1 axes are dropped and adjacent axes merged wherever every
    operand's strides allow, then the nest is padded to 4 levels.
    Returns ``(dims, strides)`` — int64 vectors, ``strides`` holding 4
    element strides per operand — or None when more than 4 levels
    remain.
    """
    views = [np.broadcast_to(a, shape) for a in arrays]
    dims: list = []
    strides: list = [[] for _ in views]
    for axis, size in enumerate(shape):
        if size == 1:
            continue
        step = [view.strides[axis] // view.itemsize for view in views]
        if dims and all(s[-1] == t * size for s, t in zip(strides, step)):
            dims[-1] *= size
            for s, t in zip(strides, step):
                s[-1] = t
        else:
            dims.append(size)
            for s, t in zip(strides, step):
                s.append(t)
    if len(dims) > 4:
        return None
    pad = 4 - len(dims)
    return (
        np.array([1] * pad + dims, dtype=np.int64),
        np.array([[0] * pad + s for s in strides], dtype=np.int64),
    )


def _as_operand(array) -> np.ndarray:
    """``array`` as float64 whose strides are whole elements."""
    array = np.asarray(array, dtype=float)
    if any(stride % array.itemsize for stride in array.strides):
        array = np.ascontiguousarray(array)
    return array


def _pointers(*arrays) -> np.ndarray:
    return np.array(
        [0 if a is None else a.ctypes.data for a in arrays], dtype=np.uintp
    )


def _c_target(out, temp, shape, inputs) -> np.ndarray:
    """``out`` when the C passes can write it directly, else a new array.

    Directly means float64, C-contiguous, writeable, and overlapping no
    input except ``temp`` itself laid out identically (each cell reads
    its temperature before writing it).
    """
    if (
        out is not None
        and out.dtype == np.float64
        and out.flags.c_contiguous
        and out.flags.writeable
        and not any(
            a is not None and np.may_share_memory(out, a) for a in inputs
        )
        and (
            not np.may_share_memory(out, temp)
            or (
                temp.shape == shape
                and temp.strides == out.strides
                and temp.ctypes.data == out.ctypes.data
            )
        )
    ):
        return out
    return np.empty(shape)


def _c_thermal_step(
    vt0_leak,
    vdd,
    vbb,
    temp,
    ksta,
    rth,
    p_dyn,
    t_heatsink,
    sens: VtSensitivities,
    ideality: float = IDEALITY_FACTOR,
    power_factor=None,
    t_runaway: float = T_RUNAWAY,
    compute_delta: bool = False,
    out: Optional[np.ndarray] = None,
    steps: int = 1,
):
    _check_steps(steps)
    vt0_leak, vdd, vbb, temp, ksta, rth, p_dyn = (
        _as_operand(a) for a in (vt0_leak, vdd, vbb, temp, ksta, rth, p_dyn)
    )
    if power_factor is not None:
        power_factor = _as_operand(power_factor)
    shape = _step_shape(
        vt0_leak, vdd, vbb, temp, ksta, rth, p_dyn, power_factor
    )
    _check_out(out, shape)
    target = _c_target(
        out, temp, shape, (vt0_leak, vdd, vbb, ksta, rth, p_dyn, power_factor)
    )
    operands = (vt0_leak, vdd, vbb, ksta, rth, p_dyn, temp, target)
    if power_factor is not None:
        operands += (power_factor,)
    nest = _loop_nest(shape, operands)
    if nest is None or np.ndim(t_heatsink) or np.ndim(t_runaway):
        return _numpy_thermal_step(
            vt0_leak, vdd, vbb, temp, ksta, rth, p_dyn, t_heatsink, sens,
            ideality, power_factor, t_runaway, compute_delta, out, steps,
        )
    dims, st = nest
    vt0_s, vdd_s, vbb_s, ksta_s, rth_s, p_dyn_s, temp_s, full_s = st[:8]
    pf_s = st[8] if power_factor is not None else full_s
    lib = c_library()
    delta = None
    with _POOL.borrow(shape, 2 if compute_delta else 1) as buffers:
        # ``arg`` (and ``buffers[1]``) are contiguous and full-shape like
        # ``target``, so ``full_s`` addresses all three; the exponent
        # pass writes ``arg`` sequentially, which is the nest's order.
        arg = buffers[0]
        exponent_ptrs = _pointers(vt0_leak, temp, vdd, vbb)
        exponent_st = np.concatenate([vt0_s, temp_s, vdd_s, vbb_s])
        exponent_consts = np.array([
            sens.k1, sens.t_ref, sens.k2, sens.vdd_ref, sens.k3, -Q_OVER_K,
            ideality,
        ])
        update_ptrs = _pointers(
            ksta, vdd, temp, arg, power_factor, p_dyn, rth, target
        )
        update_st = np.concatenate([
            ksta_s, vdd_s, temp_s, full_s, pf_s, p_dyn_s, rth_s, full_s,
        ])
        update_consts = np.array([float(t_heatsink), float(t_runaway)])
        exponent_args = (
            dims.ctypes.data, exponent_ptrs.ctypes.data,
            exponent_st.ctypes.data, exponent_consts.ctypes.data,
            arg.ctypes.data,
        )
        update_args = (
            dims.ctypes.data, update_ptrs.ctypes.data,
            update_st.ctypes.data, update_consts.ctypes.data,
        )
        for step in range(steps):
            if compute_delta and step == steps - 1:
                # The last step leaves its input intact for the delta.
                update_ptrs[7] = buffers[1].ctypes.data
            lib.thermal_exponent(*exponent_args)
            np.exp(arg, out=arg)
            lib.thermal_update(*update_args)
            if step == 0:
                # Later steps read the previous step's result.
                exponent_ptrs[1] = update_ptrs[2] = target.ctypes.data
                exponent_st[4:8] = update_st[8:12] = full_s
        if compute_delta:
            new = buffers[1]
            previous = temp if steps == 1 else target
            np.subtract(new, np.broadcast_to(previous, shape), out=arg)
            np.abs(arg, out=arg)
            delta = arg.max(axis=-1)
            np.copyto(target, new)
    if out is not None and target is not out:
        np.copyto(out, target)
        target = out
    return target, delta


# ----------------------------------------------------------------------
# Registry, selection and per-kernel instrumentation.
# ----------------------------------------------------------------------
_IMPLS: Dict[str, Dict[str, Callable[..., Any]]] = {}
_CACHE: Dict[Tuple[str, str, str], Callable[..., Any]] = {}
_FORCED: Optional[str] = None


def register_kernel_impl(
    kernel: str, impl: str, fn: Callable[..., Any]
) -> None:
    """Register implementation ``impl`` of ``kernel`` (used at import)."""
    _IMPLS.setdefault(kernel, {})[impl] = fn
    _CACHE.clear()


def available_kernels() -> tuple:
    """Kernel names resolvable through ``ArrayBackend.kernel``."""
    return tuple(sorted(_IMPLS))


def available_impls(kernel: str) -> tuple:
    """Implementation names registered for ``kernel``."""
    if kernel not in _IMPLS:
        raise ValueError(
            f"unknown kernel {kernel!r}; "
            f"available: {', '.join(available_kernels())}"
        )
    return tuple(sorted(_IMPLS[kernel]))


def _selector() -> str:
    if _FORCED is not None:
        return _FORCED
    return os.environ.get(_ENV_VAR, "auto").lower()


def _pick_impl(kernel: str, backend: str, choice: str) -> str:
    impls = _IMPLS.get(kernel)
    if impls is None:
        raise ValueError(
            f"unknown kernel {kernel!r}; "
            f"available: {', '.join(available_kernels())}"
        )
    if choice == "auto":
        # The fused implementations are numpy/scipy programs; any other
        # array backend falls back to the reference composition, which
        # routes its special functions through the active backend.
        if backend != "numpy":
            return "reference"
        if "c" in impls and c_available():
            return "c"
        if "numpy" in impls:
            return "numpy"
        return "reference"
    if choice == "c":
        try:
            c_library()
        except cbuild.BuildError as exc:
            raise RuntimeError(
                f"kernel impl 'c' requested but the C library cannot be "
                f"built or loaded here ({exc}); select "
                f"EVAL_REPRO_KERNELS=auto or numpy"
            ) from exc
        # The C tier covers the kernels that have a C implementation;
        # the others run their fused numpy one.
        return "c" if "c" in impls else "numpy"
    if choice not in impls:
        raise ValueError(
            f"unknown kernel impl {choice!r} for {kernel!r}; "
            f"available: {', '.join(available_impls(kernel))}"
        )
    return choice


def active_impl(kernel: str, backend: str = "numpy") -> str:
    """The implementation name :func:`resolve` would pick right now."""
    return _pick_impl(kernel, backend, _selector())


def _instrument(
    kernel: str, impl: str, fn: Callable[..., Any]
) -> Callable[..., Any]:
    calls_metric = f"kernel.{kernel}.calls"
    ns_metric = f"kernel.{kernel}.ns"

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not obs.enabled():
            return fn(*args, **kwargs)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            obs.inc(calls_metric)
            obs.inc(ns_metric, float(time.perf_counter_ns() - start))

    wrapper.kernel_name = kernel  # type: ignore[attr-defined]
    wrapper.impl_name = impl  # type: ignore[attr-defined]
    return wrapper


def resolve(kernel: str, backend: str = "numpy") -> Callable[..., Any]:
    """The instrumented callable for ``kernel`` under the current policy.

    Callers normally go through ``get_backend().kernel(name)``; the
    cache key includes the selection policy, so forcing or re-reading
    ``EVAL_REPRO_KERNELS`` never serves a stale resolution.
    """
    choice = _selector()
    key = (kernel, backend, choice)
    fn = _CACHE.get(key)
    if fn is None:
        impl = _pick_impl(kernel, backend, choice)
        fn = _instrument(kernel, impl, _IMPLS[kernel][impl])
        _CACHE[key] = fn
    return fn


@contextmanager
def use_impl(impl: str) -> Iterator[None]:
    """Force one implementation for a scope (tests and benchmarks)."""
    global _FORCED
    previous = _FORCED
    _FORCED = impl
    try:
        yield
    finally:
        _FORCED = previous


def reset() -> None:
    """Drop forced/cached selections; the next resolve re-reads the env."""
    global _FORCED
    _FORCED = None
    _CACHE.clear()


register_kernel_impl(
    "vt_and_static_power", "reference", _reference_vt_and_static_power
)
register_kernel_impl("vt_and_static_power", "numpy", _numpy_vt_and_static_power)
register_kernel_impl("thermal_step", "reference", _reference_thermal_step)
register_kernel_impl("thermal_step", "numpy", _numpy_thermal_step)
register_kernel_impl("thermal_step", "c", _c_thermal_step)
register_kernel_impl("timing_error_cdf", "reference", _reference_timing_error_cdf)
register_kernel_impl("timing_error_cdf", "numpy", _numpy_timing_error_cdf)
