"""The SVG line-plot writer over arbitrary series: well-formed XML, every
polyline point inside the plot frame, and "nothing to plot" exactly when
no point is plottable."""

import math
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eoslab._svg import write_line_plot

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
