"""Array forms of the device model, bit-identical to the scalar model.

:func:`currents` evaluates :func:`repro.technology.mosfet.drain_current_per_width`
and :func:`repro.technology.leakage.off_current_per_width` over broadcast
``(vdd, vth)`` arrays, and :func:`slope_coefficients` evaluates
:func:`repro.timing.delay_model.slope_coefficient`. Every element is
``==`` to the scalar call on that element, and invalid input raises the
scalar model's labeled errors.

numpy's own ``exp``/``expm1``/``log1p``/``power`` differ from Python's
``math`` (which calls the C library's libm) in the last bit on a few
percent of inputs, so the transcendental part cannot be a numpy
expression. It is a ~25-line C loop (:data:`C_SOURCE`) that mirrors the
scalar model operation for operation and calls the same libm. The loop
is compiled with ``gcc`` on first use into a cache directory
(``$XDG_CACHE_HOME/repro`` or ``~/.cache/repro``; the file name carries
the sha256 of the source and flags) and loaded with ``ctypes``. Each
cached library ends in the sha256 of its own bytes; a file that fails
that check is rebuilt, since loading a truncated shared object kills the
process. An unwritable cache directory builds into a per-process
temporary directory instead. A freshly loaded library must also
reproduce the scalar model on a fixed probe set.

Without a compiler, or when any of that fails, the fallback evaluates
the scalar model once per distinct ``(vdd, vth)`` pair and scatters the
results, which gives the same doubles more slowly. :func:`helper_status`
says which path is in use.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Callable, Optional, Tuple

import numpy as np

from repro.errors import TechnologyError, TimingError
from repro.technology import leakage, mosfet
from repro.technology.process import Technology

#: The device loop. ``p`` holds, in order: the alpha-power factor ``B``,
#: the threshold shift, the softplus blend voltage, ``alpha``, ``vT``,
#: ``i0``, the subthreshold slope ``S`` and the junction leakage.
C_SOURCE = r"""
#include <math.h>

static double softplus(double x)
{
    if (x > 40.0)
        return x;
    if (x < -40.0)
        return exp(x);
    return log1p(exp(x));
}

void device_currents(long n, const double *vdd, const double *vth,
                     const double *p, double *drain, double *off)
{
    for (long i = 0; i < n; i++) {
        double vgs = vdd[i], t = vth[i];
        double overdrive = p[2] * softplus((vgs - t + p[1]) / p[2]);
        double current = p[0] * pow(overdrive, p[3]);
        drain[i] = current * (vgs <= 0.0 ? 0.0 : -expm1(-vgs / p[4]));
        off[i] = p[5] * pow(10.0, -t / p[6]) * -expm1(-vgs / p[4]) + p[7];
    }
}
"""

#: ``-fno-builtin`` keeps every libm call a call (no constant folding or
#: ``pow`` rewriting); ``-ffp-contract=off`` forbids fused multiply-adds.
CFLAGS = ("-O2", "-fno-builtin", "-ffp-contract=off", "-shared", "-fPIC")

_KEY = hashlib.sha256(
    (C_SOURCE + "\0" + " ".join(CFLAGS)).encode()).hexdigest()[:16]
_LIBRARY = f"device-model-{_KEY}.so"
_DIGEST = 32  # bytes of the sha256 trailer

_Helper = Callable[..., None]
_FAILURES = (OSError, subprocess.SubprocessError, AttributeError)
_lock = threading.Lock()
_state: Optional[Tuple[Optional[_Helper], str]] = None


def cache_dir() -> Path:
    """Where compiled helpers are cached."""
    root = os.environ.get("XDG_CACHE_HOME") or ""
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root) / "repro"


def _compiler() -> Optional[str]:
    return shutil.which("gcc")


def _build(cc: str, target: Path) -> None:
    """Compile into a temporary file beside ``target``, append the
    sha256 of the library, and move it into place atomically."""
    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so",
                               dir=target.parent)
    os.close(fd)
    try:
        subprocess.run([cc, *CFLAGS, "-x", "c", "-", "-o", tmp, "-lm"],
                       input=C_SOURCE, text=True, capture_output=True,
                       check=True, timeout=120)
        body = Path(tmp).read_bytes()
        with open(tmp, "ab") as handle:
            handle.write(hashlib.sha256(body).digest())
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _intact(path: Path) -> bool:
    """True when ``path`` ends in the sha256 of the bytes before it."""
    try:
        data = path.read_bytes()
    except OSError:
        return False
    body, digest = data[:-_DIGEST], data[-_DIGEST:]
    return len(data) > _DIGEST and hashlib.sha256(body).digest() == digest


def _open(path: Path) -> _Helper:
    function = ctypes.CDLL(str(path)).device_currents
    function.restype = None
    function.argtypes = [ctypes.c_long] + [ctypes.c_void_p] * 5
    return function


def _probe_matches(function: _Helper) -> bool:
    """The helper reproduces the scalar model on a fixed probe grid,
    which spans both softplus clamps and an underflowing softplus."""
    tech = Technology.default()
    vdd, vth = np.meshgrid([0.0, 0.05, 0.3, 0.7, 1.2, 3.3, 7.0],
                           [0.02, 0.2, 0.45, 0.9, 3.0, 60.0])
    drain, off = _compiled(function, tech, vdd.ravel(), vth.ravel())
    return all(
        drain[k] == mosfet.drain_current_per_width(tech, v, t)
        and off[k] == leakage.off_current_per_width(tech, t, vds=v)
        for k, (v, t) in enumerate(zip(vdd.ravel().tolist(),
                                       vth.ravel().tolist())))


def _load(root: Path) -> Tuple[Optional[_Helper], str]:
    """Find, build or give up on the helper under cache root ``root``:
    ``(function or None, status)``. Never raises."""
    cc = _compiler()
    path = root / _LIBRARY
    try:
        if not _intact(path):
            if cc is None:
                return None, "fallback: no C compiler (gcc) on PATH"
            root.mkdir(parents=True, exist_ok=True)
            _build(cc, path)
        function, where = _open(path), str(path)
    except _FAILURES:
        if cc is None:
            return None, "fallback: the cached helper does not load"
        try:
            with tempfile.TemporaryDirectory(prefix="repro-device-") as tmp:
                target = Path(tmp) / _LIBRARY
                _build(cc, target)
                # The mapping outlives the deleted file.
                function = _open(target)
            where = "a per-process temporary directory"
        except _FAILURES as exc:
            return None, f"fallback: building the helper failed ({exc})"
    if not _probe_matches(function):
        return None, f"fallback: the helper at {where} disagrees with math"
    return function, f"compiled: {where}"


def _loaded() -> Tuple[Optional[_Helper], str]:
    """The process's ``_load`` outcome, computed on first use."""
    global _state
    if _state is None:
        with _lock:
            if _state is None:
                _state = _load(cache_dir())
    return _state


def _helper() -> Optional[_Helper]:
    """The compiled loop, or None for the fallback."""
    return _loaded()[0]


def helper_status() -> str:
    """How the array model runs: ``compiled: <where>`` or
    ``fallback: <why>`` (loads the helper if nothing has yet)."""
    return _loaded()[1]


def _parameters(tech: Technology):
    b_factor, shift, blend = mosfet._transregional_params(tech)
    return (ctypes.c_double * 8)(
        b_factor, shift, blend, tech.alpha, tech.thermal_voltage,
        tech.subthreshold_i0, tech.subthreshold_slope,
        leakage.junction_leakage_per_width(tech))


def _compiled(function: _Helper, tech: Technology, vdd: np.ndarray,
              vth: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    shape = np.broadcast_shapes(vdd.shape, vth.shape)
    vdd_full = np.ascontiguousarray(np.broadcast_to(vdd, shape),
                                    dtype=np.float64)
    vth_full = np.ascontiguousarray(np.broadcast_to(vth, shape),
                                    dtype=np.float64)
    parameters = _parameters(tech)
    drain = np.empty(shape)
    off = np.empty(shape)
    function(drain.size, vdd_full.ctypes.data, vth_full.ctypes.data,
             ctypes.addressof(parameters), drain.ctypes.data,
             off.ctypes.data)
    return drain, off


def _per_pair(tech: Technology, vdd: np.ndarray,
              vth: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The fallback: the scalar model once per distinct pair, scattered."""
    shape = np.broadcast_shapes(vdd.shape, vth.shape)
    pairs = np.stack([np.broadcast_to(vdd, shape).ravel(),
                      np.broadcast_to(vth, shape).ravel()], axis=1)
    unique, inverse = np.unique(pairs, axis=0, return_inverse=True)
    drain = np.empty(len(unique))
    off = np.empty(len(unique))
    for k, (pair_vdd, pair_vth) in enumerate(unique.tolist()):
        drain[k] = mosfet.drain_current_per_width(tech, pair_vdd, pair_vth)
        off[k] = leakage.off_current_per_width(tech, pair_vth, vds=pair_vdd)
    inverse = inverse.reshape(-1)
    return drain[inverse].reshape(shape), off[inverse].reshape(shape)


def _first(values: np.ndarray, mask: np.ndarray) -> float:
    return float(values[mask][0])


def currents(tech: Technology, vdd, vth) -> Tuple[np.ndarray, np.ndarray]:
    """``(drain, off)`` per unit width over the broadcast of ``vdd`` and
    ``vth``: ``drain_current_per_width(tech, vdd, vth)`` and
    ``off_current_per_width(tech, vth, vds=vdd)`` elementwise."""
    vdd = np.asarray(vdd, dtype=float)
    vth = np.asarray(vth, dtype=float)
    for name, values in (("vgs", vdd), ("vth", vth)):
        finite = np.isfinite(values)
        if not finite.all():
            raise TechnologyError(
                f"{name} must be finite, got {_first(values, ~finite)}")
    if (vdd < 0.0).any():
        raise TechnologyError(
            f"vgs must be >= 0, got {_first(vdd, vdd < 0.0)}")
    if (vth <= 0.0).any():
        raise TechnologyError(
            f"vth must be > 0, got {_first(vth, vth <= 0.0)}")
    function = _helper()
    if function is not None:
        drain, off = _compiled(function, tech, vdd, vth)
        if np.isfinite(drain).all():
            return drain, off
        # A drain current too large for a double: the scalar model
        # decides what that is (a labeled error).
    return _per_pair(tech, vdd, vth)


def slope_coefficients(tech: Technology, vdd, vth) -> np.ndarray:
    """``slope_coefficient`` elementwise. Pure IEEE arithmetic plus
    clamping, so numpy reproduces the scalar function exactly."""
    vdd_values = np.asarray(vdd)
    if bool(np.any(vdd_values <= 0.0)):
        raise TimingError(
            f"vdd must be > 0, got {_first(vdd_values, vdd_values <= 0.0)}")
    with np.errstate(over="ignore"):  # a tiny vdd: inf, as in Python
        raw = 0.5 - (1.0 - vth / vdd) / (1.0 + tech.alpha)
    return np.clip(raw, 0.0, 0.5)
