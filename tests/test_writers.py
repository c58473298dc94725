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
import sys
import threading

import numpy as np
import pytest

from jsrelax import AngularNorm, MatrixSet, RelaxConfig, run, write_norm
from jsrelax import io as jio
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


def cold_norm(nm: AngularNorm) -> str:
    """write_norm with the kept angle cells emptied, and restored after."""
    kept = dict(jio._angle_cells)
    jio._angle_cells.clear()
    try:
        return written_norm(nm)
    finally:
        jio._angle_cells.clear()
        jio._angle_cells.update(kept)


def kept_count():
    """The node count whose angle cells write_norm keeps, or None."""
    slot = jio._angle_cells.get(jio._ANGLES_KEY)
    return None if slot is None else slot[0]


class TestAngleCells:
    """write_norm keeps the angle cells of the last node count it wrote, up to 4 MiB."""

    def test_writes_in_turn_match_the_reference_and_a_cold_write(self, converged):
        # each count's first write follows one of another count, and its second reuses the cells
        jio._angle_cells.clear()
        for n in (8, 3000, 30000, 8, 3000):
            nm = converged(f"ex2-mr-{n}")
            first = written_norm(nm)
            assert kept_count() == n
            again = written_norm(nm)
            assert first == again == cold_norm(nm)
            assert mismatch(first, reference_write_norm(nm)) is None

    @pytest.mark.parametrize("n, kept", [(87380, True), (87382, False)])
    def test_cells_are_kept_only_up_to_4_mib(self, n, kept):
        jio._angle_cells.clear()
        small = random_profile(4, 8)
        written_norm(small)
        nm = AngularNorm(np.random.default_rng(n).uniform(0.5, 3.0, n))
        first = written_norm(nm)
        if kept:
            n_, cells = jio._angle_cells[jio._ANGLES_KEY]
            arrays = [c for pair in cells for c in pair]
            assert n_ == n and sum(c.nbytes for c in arrays) == 48 * n <= jio._ANGLES_MAX_BYTES
            assert not any(c.flags.writeable for c in arrays)
        else:
            assert 48 * n > jio._ANGLES_MAX_BYTES
            assert kept_count() == 8  # a write over the cap leaves the kept cells as they are
        assert written_norm(nm) == first == cold_norm(nm)
        assert mismatch(first, reference_write_norm(nm)) is None
        assert written_norm(small) == cold_norm(small)

    def test_threads_writing_counts_in_turn_get_the_reference_bytes(self, converged):
        # more threads than cores, switching often, each replacing the kept
        # cells with those of its next node count
        cases = [f"ex1-lr-{n}" for n in (8, 64, 3000, 30000)]
        want = {case: reference_write_norm(converged(case)) for case in cases}
        workers, results = 4, {t: [] for t in range(4)}

        def work(t: int):
            for case in (cases[t:] + cases[:t]) * 3:
                results[t].append((case, written_norm(converged(case))))

        threads = [threading.Thread(target=work, args=(t,)) for t in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for t in range(workers):
            assert len(results[t]) == 3 * len(cases)
            assert all(got == want[case] for case, got in results[t])


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
