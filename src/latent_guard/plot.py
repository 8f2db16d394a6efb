"""Static SVG scatter of reconstruction error vs latent distance.

Hand-rolled SVG keeps the output deterministic byte-for-byte and free of
library-injected metadata; the result is strict XML.
"""

from __future__ import annotations

import numpy as np

WIDTH, HEIGHT = 720, 540
MARGIN_LEFT, MARGIN_RIGHT = 70, 20
MARGIN_TOP, MARGIN_BOTTOM = 20, 55

INLIER_COLOR = "#7fc97f"   # light green inliers
OOD_COLOR = "#386cb0"      # blue OOD samples

X_LABEL = "reconstruction error"
Y_LABEL = "latent distance"


def _axis_range(values):
    """[min, max] expanded by 5% on each side; degenerate spans widen by 0.5."""
    lo, hi = float(np.min(values)), float(np.max(values))
    if hi == lo:
        return lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def scatter_svg(re, ld, is_inlier) -> str:
    """Returns the SVG document as a string."""
    re = np.asarray(re, dtype=np.float64)
    ld = np.asarray(ld, dtype=np.float64)
    is_inlier = np.asarray(is_inlier, dtype=bool)
    if not (len(re) == len(ld) == len(is_inlier)) or len(re) == 0:
        raise ValueError("scatter requires equal-length, non-empty columns")

    x0, x1 = _axis_range(re)
    y0, y1 = _axis_range(ld)
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x):
        return MARGIN_LEFT + (x - x0) / (x1 - x0) * plot_w

    def py(y):
        return MARGIN_TOP + (y1 - y) / (y1 - y0) * plot_h

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        # axes
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{HEIGHT - MARGIN_BOTTOM}" stroke="black" stroke-width="1"/>',
        f'<line x1="{MARGIN_LEFT}" y1="{HEIGHT - MARGIN_BOTTOM}" '
        f'x2="{WIDTH - MARGIN_RIGHT}" y2="{HEIGHT - MARGIN_BOTTOM}" '
        f'stroke="black" stroke-width="1"/>',
    ]
    # min/max tick labels
    ty = HEIGHT - MARGIN_BOTTOM + 18
    lines.append(
        f'<text x="{MARGIN_LEFT}" y="{ty}" font-size="12" text-anchor="middle">'
        f'{_fmt(x0)}</text>'
    )
    lines.append(
        f'<text x="{WIDTH - MARGIN_RIGHT}" y="{ty}" font-size="12" '
        f'text-anchor="middle">{_fmt(x1)}</text>'
    )
    lines.append(
        f'<text x="{MARGIN_LEFT - 8}" y="{HEIGHT - MARGIN_BOTTOM}" font-size="12" '
        f'text-anchor="end">{_fmt(y0)}</text>'
    )
    lines.append(
        f'<text x="{MARGIN_LEFT - 8}" y="{MARGIN_TOP + 10}" font-size="12" '
        f'text-anchor="end">{_fmt(y1)}</text>'
    )
    # axis titles
    lines.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2}" y="{HEIGHT - 12}" font-size="14" '
        f'text-anchor="middle">{X_LABEL}</text>'
    )
    lines.append(
        f'<text x="18" y="{MARGIN_TOP + plot_h / 2}" font-size="14" '
        f'text-anchor="middle" transform="rotate(-90 18 {MARGIN_TOP + plot_h / 2})">'
        f'{Y_LABEL}</text>'
    )
    # legend
    lines.append(
        f'<circle cx="{WIDTH - 130}" cy="{MARGIN_TOP + 12}" r="4" fill="{INLIER_COLOR}"/>'
        f'<text x="{WIDTH - 120}" y="{MARGIN_TOP + 16}" font-size="12">inlier</text>'
    )
    lines.append(
        f'<circle cx="{WIDTH - 130}" cy="{MARGIN_TOP + 30}" r="4" fill="{OOD_COLOR}"/>'
        f'<text x="{WIDTH - 120}" y="{MARGIN_TOP + 34}" font-size="12">OOD</text>'
    )
    # points (inliers first so OOD stays visible on top)
    for mask, color in ((is_inlier, INLIER_COLOR), (~is_inlier, OOD_COLOR)):
        for x, y in zip(re[mask], ld[mask]):
            lines.append(
                f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="2.5" '
                f'fill="{color}" fill-opacity="0.7"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def write_scatter_svg(path, re, ld, is_inlier) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(scatter_svg(re, ld, is_inlier))
