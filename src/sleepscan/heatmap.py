"""SVG network heat map: sector wedges shaded by sleeping-cell score.

Cells are drawn as wedges at their site positions, oriented by azimuth;
darker fill means a higher normalized score.  Output is deterministic
(no timestamps) so reruns are byte-identical.
"""

from __future__ import annotations

import math

import numpy as np

from .simgen.layout import NetworkLayout

_WEDGE_HALF_ANGLE_DEG = 58.0
_ARC_POINTS = 12


def _wedge_points(sx: float, sy: float, azimuth_deg: float | None, radius: float):
    if azimuth_deg is None:
        azimuth_deg, half = 0.0, 180.0
    else:
        half = _WEDGE_HALF_ANGLE_DEG
    pts = [(sx, sy)]
    for i in range(_ARC_POINTS + 1):
        ang = math.radians(azimuth_deg - half + 2 * half * i / _ARC_POINTS)
        pts.append((sx + radius * math.cos(ang), sy + radius * math.sin(ang)))
    return pts


def _grey(score: float, max_score: float) -> str:
    frac = 0.0 if max_score <= 0 else min(score / max_score, 1.0)
    level = int(round(235 - 195 * frac))
    return f"#{level:02x}{level:02x}{level:02x}"


def render_heatmap(layout: NetworkLayout, scores_by_cell: dict[int, float], title: str) -> str:
    """Render one histogram, with its title on top, as an SVG string."""
    max_score = max(scores_by_cell.values(), default=0.0)
    radius = 0.3 * layout.inter_site_distance
    pad = layout.inter_site_distance * 0.9
    xs = [c.site_x for c in layout.cells]
    ys = [c.site_y for c in layout.cells]
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
    width = 640
    height = int(round(width * (y1 - y0) / (x1 - x0)))
    sx = width / (x1 - x0)
    sy = height / (y1 - y0)

    def to_svg(x: float, y: float):
        return (x - x0) * sx, (y1 - y) * sy  # flip y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    # wedges first, labels on top
    labels = []
    for cell in layout.cells:
        score = float(scores_by_cell.get(cell.cell_id, 0.0))
        pts = [to_svg(x, y) for x, y in _wedge_points(cell.site_x, cell.site_y, cell.azimuth_deg, radius)]
        d = "M" + " L".join(f"{x:.1f},{y:.1f}" for x, y in pts) + " Z"
        parts.append(f'<path d="{d}" fill="{_grey(score, max_score)}" stroke="#777" stroke-width="0.6"/>')
        if cell.azimuth_deg is None:
            lx, ly = to_svg(cell.site_x, cell.site_y)
        else:
            ang = math.radians(cell.azimuth_deg)
            lx, ly = to_svg(
                cell.site_x + 0.55 * radius * math.cos(ang),
                cell.site_y + 0.55 * radius * math.sin(ang),
            )
        dark = max_score > 0 and score / max_score > 0.55
        colour = "#eee" if dark else "#222"
        labels.append(
            f'<text x="{lx:.1f}" y="{ly:.1f}" text-anchor="middle" dominant-baseline="middle" '
            f'font-family="sans-serif" font-size="11" fill="{colour}">{cell.cell_id}</text>'
        )
    parts.extend(labels)
    parts.append(
        f'<text x="8" y="{height - 8}" font-family="sans-serif" font-size="10" fill="#555">'
        f"max score {max_score:.2f}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_heatmap(layout: NetworkLayout, scores, cell_ids, path, title: str) -> None:
    by_cell = {int(c): float(s) for c, s in zip(cell_ids, np.asarray(scores))}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_heatmap(layout, by_cell, title=title))
