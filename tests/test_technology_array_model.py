"""The array device model is ``==`` to the scalar model, compiled or not.

Every test of the model runs twice: on the compiled libm helper and on
the per-pair fallback (the helper forced off). The cache tests drive the
compile-and-load path against temporary cache roots.
"""

import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TechnologyError, TimingError
from repro.technology import array_model, leakage, mosfet
from repro.technology.mosfet import _transregional_params
from repro.technology.process import Technology
from repro.timing.delay_model import slope_coefficient

TECH = Technology.default()
MODES = ("compiled", "fallback")


@contextmanager
def helper_mode(mode):
    """Run the body on the compiled helper or with it forced off."""
    with pytest.MonkeyPatch.context() as patch:
        if mode == "fallback":
            patch.setattr(array_model, "_helper", lambda: None)
        elif array_model._helper() is None:
            pytest.skip(array_model.helper_status())
        yield


def _at_softplus_argument(x):
    """A valid ``(vgs, vth)`` whose softplus argument is exactly ``x``."""
    _, shift, blend = _transregional_params(TECH)
    for vgs in (0.3, 0.7, 1.2, 2.0, 2.5, 3.3):
        lo = hi = vgs + shift - x * blend
        for _ in range(64):
            for vth in (lo, hi):
                if vth > 0.0 and (vgs - vth + shift) / blend == x:
                    return vgs, vth
            lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
    raise AssertionError(f"no voltage pair puts the softplus at {x}")


CLAMP_PAIRS = [_at_softplus_argument(t)
               for x in (-40.0, 40.0)
               for t in (math.nextafter(x, -math.inf), x,
                         math.nextafter(x, math.inf))]
#: Softplus underflows to 0.0, so the drain current is exactly 0.0.
UNDERFLOW_PAIRS = [(0.0, 50.0), (1.0, 60.0), (3.3, 1e3)]
SPECIAL_PAIRS = CLAMP_PAIRS + UNDERFLOW_PAIRS + [
    (0.0, 0.3), (0.0, 1e-9), (5e-324, 0.2), (1e-9, 0.45)]

pairs = st.one_of(
    st.tuples(st.floats(0.0, 3.5), st.floats(1e-6, 3.0)),
    st.sampled_from(SPECIAL_PAIRS))

#: How the drawn ``(B, n)`` grid is passed: per-row ``(B, 1)``, per-gate
#: ``(1, n)`` or ``(B, n)``, a scalar, and mixes of those.
LAYOUTS = [("B1", "B1"), ("1n", "1n"), ("Bn", "Bn"), ("B1", "Bn"),
           ("scalar", "Bn"), ("Bn", "1n"), ("1n", "B1")]


def _layout(grid, kind):
    return {"B1": grid[:, :1], "1n": grid[:1], "Bn": grid,
            "scalar": float(grid[0, 0])}[kind]


def _same_bits(actual, expected):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data(), layout=st.sampled_from(LAYOUTS))
@settings(max_examples=150, deadline=None)
def test_array_model_matches_scalar_model_bit_for_bit(mode, data, layout):
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 5))
    drawn = data.draw(st.lists(pairs, min_size=rows * cols,
                               max_size=rows * cols))
    grid = np.array(drawn, dtype=float).reshape(rows, cols, 2)
    vdd = _layout(grid[..., 0], layout[0])
    vth = _layout(grid[..., 1], layout[1])
    full_vdd, full_vth = np.broadcast_arrays(vdd, vth)
    elements = list(zip(full_vdd.ravel().tolist(), full_vth.ravel().tolist()))

    with helper_mode(mode):
        drain, off = array_model.currents(TECH, vdd, vth)
        _same_bits(drain, np.reshape(
            [mosfet.drain_current_per_width(TECH, v, t) for v, t in elements],
            full_vdd.shape))
        _same_bits(off, np.reshape(
            [leakage.off_current_per_width(TECH, t, vds=v)
             for v, t in elements], full_vdd.shape))
        if any(v <= 0.0 for v, _ in elements):
            with pytest.raises(TimingError, match="vdd must be > 0"):
                array_model.slope_coefficients(TECH, vdd, vth)
        else:
            _same_bits(array_model.slope_coefficients(TECH, vdd, vth),
                       np.reshape([slope_coefficient(TECH, v, t)
                                   for v, t in elements], full_vdd.shape))


@pytest.mark.parametrize("mode", MODES)
def test_boundary_pairs_hit_the_clamps_and_the_underflow(mode):
    """The special pairs really are what the property claims to cover."""
    _, shift, blend = _transregional_params(TECH)
    arguments = [(v - t + shift) / blend for v, t in CLAMP_PAIRS]
    assert sorted(arguments) == sorted(
        math.nextafter(x, d) if d else x for x in (-40.0, 40.0)
        for d in (-math.inf, 0, math.inf))
    vdd, vth = (np.array(column) for column in zip(*SPECIAL_PAIRS))
    with helper_mode(mode):
        drain, off = array_model.currents(TECH, vdd, vth)
    for k, (v, t) in enumerate(SPECIAL_PAIRS):
        assert drain[k] == mosfet.drain_current_per_width(TECH, v, t)
        assert off[k] == leakage.off_current_per_width(TECH, t, vds=v)
    assert all(drain[SPECIAL_PAIRS.index(p)] == 0.0 for p in UNDERFLOW_PAIRS)


INVALID = [
    (math.nan, 0.3, "vgs must be finite"),
    (math.inf, 0.3, "vgs must be finite"),
    (1.0, math.nan, "vth must be finite"),
    (1.0, math.inf, "vth must be finite"),
    (1.0, -math.inf, "vth must be finite"),
    (-0.1, 0.3, "vgs must be >= 0"),
    (1.0, 0.0, "vth must be > 0"),
    (1.0, -0.2, "vth must be > 0"),
    (1e300, 0.3, "overflows the drain-current model"),
]


@pytest.mark.parametrize("vgs, vth, message", INVALID)
@pytest.mark.parametrize("mode", MODES)
def test_invalid_voltages_raise_the_scalar_models_labeled_error(
        mode, vgs, vth, message):
    with pytest.raises(TechnologyError, match=message):
        mosfet.drain_current_per_width(TECH, vgs, vth)
    vdd = np.array([[1.0, vgs, 0.5]])
    thresholds = np.array([[0.3], [vth]])
    with helper_mode(mode), pytest.raises(TechnologyError, match=message):
        array_model.currents(TECH, vdd, thresholds)


def test_scalar_model_rejects_non_finite_voltages():
    with pytest.raises(TechnologyError, match="vgs must be finite"):
        mosfet.drain_current_per_width(TECH, math.nan, 0.3)
    with pytest.raises(TechnologyError, match="vds must be finite"):
        mosfet.drain_current_per_width(TECH, 1.0, 0.3, vds=math.nan)
    with pytest.raises(TechnologyError, match="vth must be finite"):
        leakage.off_current_per_width(TECH, math.nan, vds=1.0)
    with pytest.raises(TechnologyError, match="vth must be finite"):
        leakage.off_current_per_width(TECH, math.inf)
    with pytest.raises(TechnologyError, match="vds must be finite"):
        leakage.off_current_per_width(TECH, 0.3, vds=math.inf)


def test_slope_rejects_non_positive_vdd_with_its_value():
    with pytest.raises(TimingError, match=r"vdd must be > 0, got -0\.5"):
        array_model.slope_coefficients(TECH, np.array([[1.0], [-0.5]]), 0.3)


# -- compile cache ---------------------------------------------------------

needs_gcc = pytest.mark.skipif(array_model._compiler() is None,
                               reason="no gcc on PATH")
GRID_VDD = np.linspace(0.0, 3.3, 23).reshape(-1, 1)
GRID_VTH = np.linspace(0.05, 2.5, 17).reshape(1, -1)


def _reference():
    with helper_mode("fallback"):
        return array_model.currents(TECH, GRID_VDD, GRID_VTH)


def _assert_reproduces(function):
    drain, off = array_model._compiled(function, TECH, GRID_VDD, GRID_VTH)
    expected_drain, expected_off = _reference()
    _same_bits(drain, expected_drain)
    _same_bits(off, expected_off)


@needs_gcc
def test_concurrent_builds_into_an_empty_cache_all_load(tmp_path):
    script = (
        "import json, numpy as np\n"
        "from repro.technology import array_model as m\n"
        "from repro.technology.process import Technology\n"
        "d, o = m.currents(Technology.default(),"
        " np.linspace(0.0, 3.3, 23).reshape(-1, 1),"
        " np.linspace(0.05, 2.5, 17).reshape(1, -1))\n"
        "print(json.dumps([m.helper_status(),"
        " d.tobytes().hex(), o.tobytes().hex()]))\n")
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
               PYTHONPATH=os.pathsep.join(sys.path))
    # More builders than a 2-core runner has cores, so builds overlap.
    workers = [subprocess.Popen([sys.executable, "-c", script], env=env,
                                stdout=subprocess.PIPE, text=True)
               for _ in range(4)]
    outputs = [json.loads(worker.communicate(timeout=300)[0])
               for worker in workers]
    expected_drain, expected_off = _reference()
    for status, drain, off in outputs:
        assert status.startswith("compiled: "), status
        assert drain == expected_drain.tobytes().hex()
        assert off == expected_off.tobytes().hex()
    library = tmp_path / "repro" / array_model._LIBRARY
    assert array_model._intact(library)
    assert not [p for p in library.parent.iterdir() if p != library]


def test_threads_share_one_load(tmp_path, monkeypatch):
    loads = []
    real_load = array_model._load

    def load(root):
        loads.append(root)
        return real_load(root)

    monkeypatch.setattr(array_model, "_state", None)
    monkeypatch.setattr(array_model, "_load", load)
    monkeypatch.setattr(array_model, "cache_dir", lambda: tmp_path)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            helpers = list(pool.map(lambda _: array_model._helper(),
                                    range(32), timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert loads == [tmp_path]
    assert all(helper is helpers[0] for helper in helpers)


def _corrupt(path: Path, kind: str) -> None:
    data = path.read_bytes()
    path.write_bytes({"truncated": data[:len(data) // 2],
                      "flipped": data[:-40] + bytes([data[-40] ^ 1])
                      + data[-39:],
                      "garbage": b"not a shared object",
                      "empty": b""}[kind])


@needs_gcc
@pytest.mark.parametrize("kind", ["truncated", "flipped", "garbage", "empty"])
def test_corrupt_cached_library_is_rebuilt(tmp_path, kind):
    library = tmp_path / array_model._LIBRARY
    array_model._build(array_model._compiler(), library)
    _corrupt(library, kind)
    assert not array_model._intact(library)
    function, status = array_model._load(tmp_path)
    assert status == f"compiled: {library}"
    assert array_model._intact(library)
    _assert_reproduces(function)


@needs_gcc
def test_corrupt_cached_library_without_compiler_falls_back(tmp_path,
                                                            monkeypatch):
    library = tmp_path / array_model._LIBRARY
    array_model._build(array_model._compiler(), library)
    _corrupt(library, "truncated")
    monkeypatch.setattr(array_model, "_compiler", lambda: None)
    function, status = array_model._load(tmp_path)
    assert function is None
    assert status.startswith("fallback: ")


@needs_gcc
def test_unwritable_cache_builds_in_a_per_process_directory(tmp_path):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    function, status = array_model._load(blocker / "repro")
    assert status == "compiled: a per-process temporary directory"
    _assert_reproduces(function)


def test_no_compiler_and_empty_cache_falls_back(tmp_path, monkeypatch):
    monkeypatch.setattr(array_model, "_compiler", lambda: None)
    function, status = array_model._load(tmp_path)
    assert function is None
    assert status == "fallback: no C compiler (gcc) on PATH"
    assert list(tmp_path.iterdir()) == []


def test_cache_dir_follows_xdg(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert array_model.cache_dir() == tmp_path / "repro"
    monkeypatch.setenv("XDG_CACHE_HOME", "relative/is/ignored")
    assert array_model.cache_dir() == \
        Path(os.path.expanduser("~")) / ".cache" / "repro"
