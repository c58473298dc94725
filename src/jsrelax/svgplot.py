"""SVG rendering of norm unit spheres.

The path's coordinates are format(v, ".6f") of each point, written by the
decimal kernel in `_decimal` for whole arrays at once.
"""

from __future__ import annotations

import numpy as np

from .norms import AngularNorm, _grid

__all__ = ["unit_sphere_points", "render_unit_sphere"]


def unit_sphere_points(nm: AngularNorm) -> np.ndarray:
    """The N vertices u_j / h_j of the unit sphere {x : |x| = 1}, shape (N, 2):
    the norm is the gauge of their polygon, which is that sphere exactly.

    Antipodal points negate exactly (the grid halves negate exactly and the
    profile halves are bit-equal).
    """
    return np.column_stack(_coordinates(nm))


def _coordinates(nm: AngularNorm) -> tuple[np.ndarray, np.ndarray]:
    """The x and the y coordinates of unit_sphere_points(nm)."""
    g = _grid(nm.node_count)
    r = 1.0 / nm.values
    return g.ux * r, g.uy * r


def render_unit_sphere(nm: AngularNorm, size_px: int = 512) -> str:
    """The unit sphere as a closed polyline, with the Euclidean unit circle as
    a guide, centered and scaled to fit with a 5% margin.  Deterministic."""
    size_px = int(size_px)
    if size_px < 64:
        raise ValueError(f"size must be at least 64 px, got {size_px}")
    px, py = _coordinates(nm)
    # the lower half of the points is the exact negation of the upper half
    half = nm.node_count // 2
    reach = max(1.0, float(np.hypot(px[half:], py[half:]).max()))
    center = 0.5 * size_px
    scale = (center - 0.05 * size_px) / reach

    def fmt(v: float) -> str:
        return format(v, ".6f")

    # imported here, not with the package: building its tables costs about
    # 1 MB of RSS, which a process that writes no norm or SVG need not pay
    from . import _decimal

    # the same IEEE multiply and add per coordinate as a scalar loop; each
    # point is written as "x y L ", and the last " L " becomes " Z"
    x = center + scale * px
    y = center - scale * py
    path = [
        _decimal.text(_decimal.cells(x[rows], "%.6f", b" "),
                      _decimal.cells(y[rows], "%.6f", b" L ")).decode("ascii")
        for rows in _decimal.blocks(len(x))
    ]
    path[-1] = path[-1][:-3] + " Z"
    stroke = max(1.0, size_px / 512.0)
    return "".join([
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size_px}" height="{size_px}" viewBox="0 0 {size_px} {size_px}">\n'
        f'<circle cx="{fmt(center)}" cy="{fmt(center)}" r="{fmt(scale)}" '
        f'fill="none" stroke="#999999" stroke-width="{fmt(stroke)}"/>\n'
        '<path d="M ',
        *path,
        f'" fill="none" stroke="#000000" stroke-width="{fmt(stroke)}"/>\n'
        "</svg>\n",
    ])
