"""The SVG line-plot writer over arbitrary series: well-formed XML, every
polyline point inside the plot frame, "nothing to plot" exactly when
no point is plottable, the bytes of the list-based reference writer from
lists and arrays alike, memory that does not grow with Python objects per
point, and an import that loads no network stack."""

import math
import subprocess
import sys
import tempfile
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eoslab
from eoslab._svg import write_line_plot

from _oracles import write_line_plot_lists

NS = {"svg": "http://www.w3.org/2000/svg"}
SLACK = 1.0  # the writer keeps ticks within 1 px of the frame

values = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, -1.0, 1.0, 1e-310, 1e300, 1e301, math.nan, math.inf, -math.inf]))
series = st.lists(st.tuples(st.text("ab", max_size=3),
                            st.lists(st.tuples(values, values), max_size=12)),
                  min_size=1, max_size=4)


def plottable(v: float, log: bool) -> bool:
    """The writer's rule: within +/-1e300, and at or above 1e-300 on a log axis."""
    return (1e-300 if log else -1e300) <= v <= 1e300


def write(curves, logx, logy) -> ET.Element:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "plot.svg"
        write_line_plot(path, curves, title="t & <T>", xlabel="x", ylabel="y",
                        logx=logx, logy=logy)
        return ET.fromstring(path.read_bytes())


@settings(max_examples=200, deadline=None)
@given(series, st.booleans(), st.booleans())
def test_points_inside_frame(raw, logx, logy):
    curves = [(label, [x for x, _ in pts], [y for _, y in pts]) for label, pts in raw]
    kept = [sum(plottable(x, logx) and plottable(y, logy) for x, y in pts)
            for _, pts in raw]
    if not any(kept):
        with pytest.raises(ValueError, match="nothing to plot"):
            write(curves, logx, logy)
        return
    root = write(curves, logx, logy)
    frame = root.findall("svg:rect", NS)[1]
    x0, y0 = float(frame.get("x")), float(frame.get("y"))
    x1, y1 = x0 + float(frame.get("width")), y0 + float(frame.get("height"))
    lines = root.findall("svg:polyline", NS)
    assert [len(line.get("points").split()) for line in lines] == kept
    for line in lines:
        for point in line.get("points").split():
            px, py = map(float, point.split(","))
            assert x0 - SLACK <= px <= x1 + SLACK and y0 - SLACK <= py <= y1 + SLACK


@pytest.mark.parametrize("xs,ys", [
    ([1.0, 1.0 + 2.0 ** -52], [1.0, 2.0]),   # an extent of one ulp
    ([1e16, 1e16 + 2.0], [1.0, 2.0]),       # a step that does not advance 1e16
    ([3e16, 3e16], [1.0, 2.0]),             # x + 1 == x
    ([0.0, 5e-324], [1.0, 2.0]),            # a subnormal extent
    ([-1e300, 1e300], [1.0, 2.0]),          # the widest plotted extent
])
def test_degenerate_extents_plot_inside_frame(xs, ys):
    root = write([("s", xs, ys)], False, False)
    [line] = root.findall("svg:polyline", NS)
    px = [float(p.split(",")[0]) for p in line.get("points").split()]
    assert all(70 - SLACK <= v <= 740 + SLACK for v in px)


def _plot_bytes(write, curves, tmp: Path, name: str, **kw):
    """The bytes ``write`` puts in a file, or the ValueError it raises."""
    try:
        write(tmp / name, curves, title="t & <T> > &amp;", xlabel="x < y",
              ylabel="y & z", **kw)
    except ValueError as exc:
        return str(exc)
    return (tmp / name).read_bytes()


int_xs = st.lists(st.integers(-10 ** 12, 10 ** 12), max_size=12)
any_series = st.lists(st.one_of(
    st.tuples(st.text("ab&<>", max_size=3), st.lists(st.tuples(values, values), max_size=12)),
    st.tuples(st.text("ab", max_size=3), int_xs.flatmap(
        lambda xs: st.lists(values, min_size=len(xs), max_size=len(xs)).map(
            lambda ys: list(zip(xs, ys)))))), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(any_series, st.booleans(), st.booleans(), st.lists(st.booleans(), min_size=4,
                                                          max_size=4))
def test_same_bytes_as_list_writer(raw, logx, logy, as_array):
    # each series as lists of Python numbers (the reference's input) and,
    # for the writer, as lists or numpy arrays: float64, or int64 for
    # integer x
    lists = [(label, [x for x, _ in pts], [y for _, y in pts]) for label, pts in raw]
    passed = [(label, np.array(xs), np.array(ys, dtype=np.float64)) if arr else (label, xs, ys)
              for (label, xs, ys), arr in zip(lists, as_array)]
    with tempfile.TemporaryDirectory() as tmp:
        ref = _plot_bytes(write_line_plot_lists, lists, Path(tmp), "ref.svg",
                          logx=logx, logy=logy)
        got = _plot_bytes(write_line_plot, passed, Path(tmp), "got.svg",
                          logx=logx, logy=logy)
    assert got == ref


@pytest.mark.parametrize("logx", [False, True])
@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049])
def test_same_bytes_as_list_writer_over_blocks(tmp_path, n, logx):
    steps = np.arange(1, n + 1, dtype=np.int64)
    loss = np.exp(-np.linspace(0.0, 30.0, n)) * (1.5 + np.sin(steps))
    loss[::97] = 0.0  # not plottable on the log axis
    curves = [("a", steps, loss), ("b & c", steps[::2], loss[::2] * 3.0), ("empty", [], [])]
    lists = [(label, np.asarray(xs).tolist(), np.asarray(ys).tolist())
             for label, xs, ys in curves]
    assert (_plot_bytes(write_line_plot, curves, tmp_path, "got.svg", logx=logx, logy=True)
            == _plot_bytes(write_line_plot_lists, lists, tmp_path, "ref.svg", logx=logx,
                           logy=True))


def test_plot_memory_does_not_grow_with_python_objects(tmp_path):
    # three series of 200,001 points as a run command passes them: the
    # list-based writer held a tuple of Python floats per point and the
    # whole text (about 91 MB); this writer holds the arrays' filtered
    # copies and one block's text
    steps = np.arange(200_001, dtype=np.int64)
    curves = [(f"eta={k}", steps, np.exp(-steps / (1000.0 * k)) + 1e-3 * k)
              for k in (1, 2, 3)]
    curves[0][2][::1000] = 0.0  # a point the log axis leaves out
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_line_plot(tmp_path / "big.svg", curves, xlabel="step", logy=True)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak


def test_import_loads_no_network_stack():
    # xml.sax.saxutils loads urllib.request, http.client, email and ssl
    # (with OpenSSL); the program needs none of them
    src = str(Path(eoslab.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import eoslab, eoslab.cli; "
            "print(' '.join(sorted(m for m in ('ssl', 'http.client', 'email', "
            "'urllib.request', 'xml.sax') if m in sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         timeout=60, check=True).stdout
    assert out.split() == []
