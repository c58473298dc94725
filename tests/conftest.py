import math

import numpy as np
import pytest

from jsrelax import MatrixSet


@pytest.fixture(scope="session")
def example1() -> MatrixSet:
    return MatrixSet(([[1.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [-1.0, 1.0]]))


@pytest.fixture(scope="session")
def example2() -> MatrixSet:
    return MatrixSet((
        [[15 / 17, -16 / 17], [4 / 17, 15 / 17]],
        [[4 / 5, 3 / 5], [-3 / 5, 4 / 5]],
    ))


def rotation(angle: float, scale: float = 1.0) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return scale * np.array([[c, -s], [s, c]])


def random_irreducible_pair(rng) -> MatrixSet:
    """Uniform entries in [-2, 2], rejection-sampled for irreducibility."""
    from jsrelax import is_irreducible

    while True:
        a = rng.uniform(-2.0, 2.0, size=(2, 2))
        b = rng.uniform(-2.0, 2.0, size=(2, 2))
        try:
            fam = MatrixSet((a, b))
        except ValueError:
            continue
        if is_irreducible(fam):
            return fam


@pytest.fixture
def product_levels(monkeypatch):
    """Product counts of the depth levels the oracle builds, one per level build."""
    from jsrelax import oracle

    built = []
    extend = oracle._extend

    def counting_extend(mats, prods):
        out = extend(mats, prods)
        built.append(out.shape[-1])
        return out

    monkeypatch.setattr(oracle, "_extend", counting_extend)
    return built
