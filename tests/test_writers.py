"""The norm CSV and SVG path writers against the per-number loops they
replaced.

The references below format one number per call, as write_norm and
render_unit_sphere did before they formatted whole arrays, first with one
%-format and now with the decimal kernel.  The kernel writes the digits of
format(x, ".17g") and format(x, ".6f"), and the SVG coordinates are the same
IEEE multiply and add per point, so the outputs must agree byte for byte.
At size_px = 2**40 the coordinates are beyond the kernel's range and go
through its per-number fallback.
"""

import io
import os

import numpy as np
import pytest

from jsrelax import AngularNorm, MatrixSet, RelaxConfig, run, write_norm
from jsrelax.svgplot import render_unit_sphere, unit_sphere_points


def reference_write_norm(nm: AngularNorm) -> str:
    def fmt(x):
        return format(float(x), ".17g")

    lines = ["phi,h"]
    lines.extend(f"{fmt(phi)},{fmt(h)}" for phi, h in zip(nm.node_angles(), nm.values))
    return "\n".join(lines) + "\n"


def reference_svg_path(nm: AngularNorm, size_px: int) -> str:
    pts = unit_sphere_points(nm)
    reach = max(1.0, float(np.hypot(pts[:, 0], pts[:, 1]).max()))
    center = 0.5 * size_px
    scale = (center - 0.05 * size_px) / reach

    def fmt(v):
        return format(v, ".6f")

    coords = [f"{fmt(center + scale * x)} {fmt(center - scale * y)}" for x, y in pts]
    return "M " + coords[0] + " L " + " L ".join(coords[1:]) + " Z"


def mismatch(got: str, want: str):
    """None when the strings are equal, else both around their first difference
    (a short diff: pytest's own diff of two 1 MB strings takes minutes)."""
    if got == want:
        return None
    i = len(os.path.commonprefix([got, want]))
    return got[max(0, i - 60):i + 60], want[max(0, i - 60):i + 60]


def written_norm(nm: AngularNorm) -> str:
    sink = io.BytesIO()
    write_norm(nm, sink)
    return sink.getvalue().decode("ascii")


def svg_path(svg: str) -> str:
    return svg.split('<path d="', 1)[1].split('"', 1)[0]


FAMILIES = {
    "ex1": (((1.0, 1.0), (0.0, 1.0)), ((1.0, 0.0), (-1.0, 1.0))),
    "ex2": (((15 / 17, -16 / 17), (4 / 17, 15 / 17)), ((4 / 5, 3 / 5), (-3 / 5, 4 / 5))),
}
CONVERGED = [
    f"{name}-{algorithm}-{n}"
    for name in FAMILIES
    for algorithm in ("lr", "mr")
    for n in (8, 64, 3000, 30000)
]
LARGE = ["ex1-lr-300000", "ex2-mr-300000"]
SIZES = [64, 512, 1000, 2 ** 40]


@pytest.fixture(scope="module")
def converged():
    cache = {}

    def get(case):
        if case not in cache:
            name, algorithm, n = case.split("-")
            cfg = RelaxConfig(algorithm=algorithm, node_count=int(n), tol=1e-6, max_iters=500)
            cache[case] = run(MatrixSet(FAMILIES[name]), cfg).norm
        return cache[case]

    return get


def random_profile(seed: int, n: int) -> AngularNorm:
    """Positive profile with values spread over 1e-300 .. 1e300."""
    half = 10.0 ** np.random.default_rng(seed).uniform(-300.0, 300.0, n // 2)
    return AngularNorm(np.concatenate([half, half]))


RANDOM = [(1, 8), (2, 64), (3, 3000)]


class TestNormCsv:
    @pytest.mark.parametrize("case", CONVERGED + LARGE)
    def test_converged_norm_bytes(self, converged, case):
        nm = converged(case)
        assert mismatch(written_norm(nm), reference_write_norm(nm)) is None

    @pytest.mark.parametrize("seed,n", RANDOM)
    def test_random_profile_bytes(self, seed, n):
        nm = random_profile(seed, n)
        assert mismatch(written_norm(nm), reference_write_norm(nm)) is None


class TestSvgPath:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("case", CONVERGED)
    def test_converged_path_bytes(self, converged, case, size):
        nm = converged(case)
        assert mismatch(svg_path(render_unit_sphere(nm, size)), reference_svg_path(nm, size)) is None

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("seed,n", RANDOM)
    def test_random_profile_path_bytes(self, seed, n, size):
        nm = random_profile(seed, n)
        assert mismatch(svg_path(render_unit_sphere(nm, size)), reference_svg_path(nm, size)) is None
