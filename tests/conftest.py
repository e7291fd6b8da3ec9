import numpy as np
import pytest

from hyperrag.geometry import LorentzPoint, project_to_hyperboloid


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_lorentz(rng: np.random.Generator, n: int, scale: float = 1.0) -> LorentzPoint:
    """A random on-manifold point, lifted from a Gaussian spatial vector."""
    return project_to_hyperboloid(scale * rng.standard_normal(n))


def raw_point(coords) -> LorentzPoint:
    """Build a LorentzPoint bypassing constructor validation (for testing
    the defensive checks inside downstream operations)."""
    p = object.__new__(LorentzPoint)
    arr = np.asarray(coords, dtype=float)
    object.__setattr__(p, "coords", arr)
    return p


def set_field(path, lineno: int, column: int, value: str) -> None:
    """Replace one tab-separated field of one line of a bundle file."""
    lines = path.read_text().splitlines()
    fields = lines[lineno - 1].split("\t")
    fields[column] = value
    lines[lineno - 1] = "\t".join(fields)
    path.write_text("\n".join(lines) + "\n")
