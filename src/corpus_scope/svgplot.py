"""Tiny hand-rolled SVG charts.

No plotting dependency: output must be byte-stable across runs and library
versions, so coordinates are formatted with a fixed precision and elements
are emitted in a fixed order. Only what the reports need: a line chart with
an optional fitted curve and forecast markers, and a labelled 2-D scatter.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ConfigError

WIDTH, HEIGHT = 840, 520
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 70, 20, 40, 50


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


class _Frame:
    """Maps data coordinates onto the pixel plot area."""

    def __init__(self, xs: Sequence[float], ys: Sequence[float]):
        x_min, x_max = min(xs), max(xs)
        y_min, y_max = min(ys), max(ys)
        if x_max == x_min:
            x_min, x_max = x_min - 1.0, x_max + 1.0
        if y_max == y_min:
            y_min, y_max = y_min - 1.0, y_max + 1.0
        x_pad = 0.02 * (x_max - x_min)
        y_pad = 0.05 * (y_max - y_min)
        self.x_min, self.x_max = x_min - x_pad, x_max + x_pad
        self.y_min, self.y_max = y_min - y_pad, y_max + y_pad
        self.px_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
        self.px_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def x(self, v: float) -> float:
        return MARGIN_LEFT + (v - self.x_min) / (self.x_max - self.x_min) * self.px_w

    def y(self, v: float) -> float:
        return HEIGHT - MARGIN_BOTTOM - (v - self.y_min) / (self.y_max - self.y_min) * self.px_h


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / n
    mag = 10.0 ** int(f"{raw:e}".split("e")[1])
    step = next((m * mag for m in (1, 2, 5, 10) if m * mag >= raw), 10 * mag)
    first = int(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        if t >= lo - 1e-9 * span:
            ticks.append(t)
        t += step
    return ticks


def _tick_label(v: float) -> str:
    return str(int(v)) if abs(v - round(v)) < 1e-9 else f"{v:g}"


def _axes(frame: _Frame, title: str, x_label: str, y_label: str) -> list[str]:
    parts = [
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{frame.px_w}" '
        f'height="{frame.px_h}" fill="white" stroke="#444" stroke-width="1"/>'
    ]
    for t in _ticks(frame.x_min, frame.x_max):
        px = _fmt(frame.x(t))
        y0, y1 = HEIGHT - MARGIN_BOTTOM, HEIGHT - MARGIN_BOTTOM + 5
        parts.append(f'<line x1="{px}" y1="{y0}" x2="{px}" y2="{y1}" stroke="#444"/>')
        parts.append(
            f'<text x="{px}" y="{y1 + 14}" font-size="12" text-anchor="middle">'
            f"{_tick_label(t)}</text>"
        )
    for t in _ticks(frame.y_min, frame.y_max):
        py = _fmt(frame.y(t))
        x0, x1 = MARGIN_LEFT - 5, MARGIN_LEFT
        parts.append(f'<line x1="{x0}" y1="{py}" x2="{x1}" y2="{py}" stroke="#444"/>')
        parts.append(
            f'<text x="{x0 - 4}" y="{py}" font-size="12" text-anchor="end" '
            f'dominant-baseline="middle">{_tick_label(t)}</text>'
        )
    parts.append(
        f'<text x="{WIDTH // 2}" y="{MARGIN_TOP - 14}" font-size="16" '
        f'text-anchor="middle">{_escape(title)}</text>'
    )
    parts.append(
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 10}" font-size="13" '
        f'text-anchor="middle">{_escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="18" y="{HEIGHT // 2}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 18 {HEIGHT // 2})">{_escape(y_label)}</text>'
    )
    return parts


def _document(body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def line_chart(
    observed: Sequence[tuple[float, float]],
    fitted: Sequence[tuple[float, float]] = (),
    forecast: Sequence[tuple[float, float]] = (),
    title: str = "",
    x_label: str = "year",
    y_label: str = "documents",
) -> str:
    """Line chart of observed points with optional fitted curve and forecast
    markers (drawn as open diamonds)."""
    if not observed:
        raise ConfigError("need at least one observed point")
    xs = [p[0] for p in (*observed, *fitted, *forecast)]
    ys = [p[1] for p in (*observed, *fitted, *forecast)]
    frame = _Frame(xs, ys)
    body = _axes(frame, title, x_label, y_label)
    if fitted:
        pts = " ".join(f"{_fmt(frame.x(x))},{_fmt(frame.y(y))}" for x, y in fitted)
        body.append(
            f'<polyline points="{pts}" fill="none" stroke="#cc4422" '
            f'stroke-width="2" stroke-dasharray="6 3"/>'
        )
    pts = " ".join(f"{_fmt(frame.x(x))},{_fmt(frame.y(y))}" for x, y in observed)
    body.append(f'<polyline points="{pts}" fill="none" stroke="#225599" stroke-width="2"/>')
    for x, y in observed:
        body.append(
            f'<circle cx="{_fmt(frame.x(x))}" cy="{_fmt(frame.y(y))}" r="3.5" '
            f'fill="#225599"/>'
        )
    for x, y in forecast:
        px, py = frame.x(x), frame.y(y)
        d = 6.0
        path = (
            f"M {_fmt(px)} {_fmt(py - d)} L {_fmt(px + d)} {_fmt(py)} "
            f"L {_fmt(px)} {_fmt(py + d)} L {_fmt(px - d)} {_fmt(py)} Z"
        )
        body.append(f'<path d="{path}" fill="none" stroke="#cc4422" stroke-width="2"/>')
    return _document(body)


def empty_chart(title: str = "", x_label: str = "year", y_label: str = "documents") -> str:
    """The axes of a :func:`line_chart` with no series, over the unit square:
    the chart of a series with no observed point."""
    return _document(_axes(_Frame((0.0, 1.0), (0.0, 1.0)), title, x_label, y_label))


def scatter_2d(
    groups: Sequence[tuple[str, str, Sequence[tuple[float, float]]]],
    labels: Sequence[tuple[float, float, str]] = (),
    title: str = "",
    x_label: str = "dim 1",
    y_label: str = "dim 2",
) -> str:
    """Scatter of ``(name, color, points)`` groups with optional text labels."""
    xs = [p[0] for _, _, pts in groups for p in pts] + [x for x, _, _ in labels]
    ys = [p[1] for _, _, pts in groups for p in pts] + [y for _, y, _ in labels]
    if not xs:
        raise ConfigError("nothing to plot")
    frame = _Frame(xs, ys)
    body = _axes(frame, title, x_label, y_label)
    if frame.x_min < 0 < frame.x_max:
        px = _fmt(frame.x(0.0))
        body.append(
            f'<line x1="{px}" y1="{MARGIN_TOP}" x2="{px}" '
            f'y2="{HEIGHT - MARGIN_BOTTOM}" stroke="#aaa" stroke-dasharray="3 3"/>'
        )
    if frame.y_min < 0 < frame.y_max:
        py = _fmt(frame.y(0.0))
        body.append(
            f'<line x1="{MARGIN_LEFT}" y1="{py}" x2="{WIDTH - MARGIN_RIGHT}" '
            f'y2="{py}" stroke="#aaa" stroke-dasharray="3 3"/>'
        )
    legend_y = MARGIN_TOP + 16
    for name, color, pts in groups:
        for x, y in pts:
            body.append(
                f'<circle cx="{_fmt(frame.x(x))}" cy="{_fmt(frame.y(y))}" '
                f'r="3" fill="{color}" fill-opacity="0.75"/>'
            )
        body.append(
            f'<circle cx="{WIDTH - MARGIN_RIGHT - 130}" cy="{legend_y}" r="4" fill="{color}"/>'
        )
        body.append(
            f'<text x="{WIDTH - MARGIN_RIGHT - 120}" y="{legend_y + 4}" '
            f'font-size="12">{_escape(name)}</text>'
        )
        legend_y += 16
    for x, y, text in labels:
        body.append(
            f'<text x="{_fmt(frame.x(x) + 5)}" y="{_fmt(frame.y(y) - 5)}" '
            f'font-size="11" fill="#222">{_escape(text)}</text>'
        )
    return _document(body)
