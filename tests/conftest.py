import numpy as np
import pytest

from compressed_metrology import adiabatic, circuit, cli, dense, ising, matchgate, metrology

PACKAGE_MODULES = (adiabatic, circuit, cli, dense, ising, matchgate, metrology)


def cached_functions() -> dict[str, object]:
    """Every function of the package that keeps results for the life of the process, by name."""
    return {f"{module.__name__.rsplit('.', 1)[-1]}.{name}": fn
            for module in PACKAGE_MODULES for name, fn in vars(module).items()
            if hasattr(fn, "cache_clear")}


def random_antisymmetric(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Exactly antisymmetric random generator (strict upper triangle minus its transpose)."""
    upper = np.triu(rng.uniform(-scale, scale, (dim, dim)), 1)
    return upper - upper.T


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)


@pytest.fixture
def clear_caches():
    """Empties every cache of ``cached_functions`` before the test and after it.

    A test that counts calls into cached code then sees what a fresh process
    builds, whatever ran before it, and one that patches what cached code
    calls leaves no result behind.  The value clears them again mid-test.
    """
    def clear() -> None:
        for fn in cached_functions().values():
            fn.cache_clear()

    clear()
    yield clear
    clear()
