import numpy as np
import pytest

from hyperrag.generation import origin_tangents
from hyperrag.geometry import LorentzPoint, exp_map, log_map, origin, project_to_hyperboloid
from hyperrag.spectral import hash_features


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


def assert_same_subgraph(got, want):
    """Every Subgraph field equal, floats bit for bit."""
    assert got.selected == want.selected
    assert np.array_equal(got.indicator, want.indicator)
    assert (got.eta, got.relevance_mass, got.objective, got.fallback_used) == (
        want.eta, want.relevance_mass, want.objective, want.fallback_used
    )


def scalar_triplet_rows(graph, table, triplets) -> np.ndarray:
    """Reference for ``spectral.embed_triplets``: each triplet embeds its
    head, relation and tail again, builds its point, and the points go
    through ``origin_tangents``."""

    def point(triplet):
        head, rel, tail = triplet
        graph_dim = table.input_dims["graph_triplet"]
        parts = [
            graph.vertices[graph.vertex_index(head)].features,
            hash_features(rel, graph_dim),
            graph.vertices[graph.vertex_index(tail)].features,
        ]
        base = origin(table.dim)
        tangents = [log_map(base, table.embed_features(f, "graph_triplet")) for f in parts]
        mean_components = np.mean([t.components for t in tangents], axis=0)
        return exp_map(base, type(tangents[0])(base, mean_components))

    return origin_tangents([point(trip) for trip in triplets], table.dim)
