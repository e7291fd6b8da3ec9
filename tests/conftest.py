from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from hyperrag.alignment import QUERY_KEY, KnowledgeItem, Query
from hyperrag.errors import ContractViolation, DataFormatError
from hyperrag.conformance import origin_tangents, scalar_lift
from hyperrag.geometry import LorentzPoint, exp_map, log_map, origin, project_to_hyperboloid
from hyperrag.spectral import GraphVertex, hash_features

# Every @given test draws the same examples on every run, so two runs of one
# tree test the same cases; a per-test @settings keeps its max_examples.
settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_lorentz(rng: np.random.Generator, n: int, scale: float = 1.0) -> LorentzPoint:
    """A random on-manifold point, lifted from a Gaussian spatial vector."""
    return project_to_hyperboloid(scale * rng.standard_normal(n))


def item_point(table, item: KnowledgeItem) -> LorentzPoint:
    """The item's scalar lift through its modality's map."""
    return scalar_lift(table, item.features, item.modality)


def query_point(table, query: Query) -> LorentzPoint:
    """The query's scalar lift through the query map."""
    return scalar_lift(table, query.combined_features, QUERY_KEY)


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


# Per record file: the record type, its float fields (column -> name in
# error messages) and the (kind, width) pairs whose widths must match the
# first line of the same kind.
PER_LINE_FILES = {
    "items.tsv": (KnowledgeItem, {2: "features"}, lambda f: [(f[1], f[2].size)]),
    "queries.tsv": (
        Query,
        {1: "visual features", 2: "text features"},
        lambda f: [("visual", f[1].size), ("text", f[2].size)],
    ),
    "vertices.tsv": (GraphVertex, {2: "features"}, lambda f: []),
}


def per_line_records(path) -> list:
    """The records of an items, queries or graph vertices file as the
    per-line reader built them: each line split, its float fields parsed
    one token at a time, its record built and its widths checked before
    the next line, so the first bad line raises.  The reference for the
    loaders that parse a whole column in one pass, errors included."""
    path = Path(path)
    cls, float_cols, widths = PER_LINE_FILES[path.name]
    records, first = [], {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line:
            raise DataFormatError(f"{path}:{lineno}: blank line")
        fields = line.split("\t")
        if len(fields) != 3:
            raise DataFormatError(
                f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
            )
        for col, what in float_cols.items():
            try:
                fields[col] = np.array([float(tok) for tok in fields[col].split(",")])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: bad {what}: {exc}") from exc
        try:
            records.append(cls(*fields))
        except ContractViolation as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
        for kind, width in widths(fields):
            line0, width0 = first.setdefault(kind, (lineno, width))
            if width != width0:
                raise DataFormatError(
                    f"{path}:{lineno}: {width} {kind} features, but line {line0} has {width0}"
                )
    return records


def assert_same_records(got, want):
    """Records of one type with equal fields; arrays equal bit for bit,
    float64, C-contiguous and read-only."""
    assert [type(r) for r in got] == [type(r) for r in want]
    for a, b in zip(got, want):
        assert vars(a).keys() == vars(b).keys()
        for key, value in vars(b).items():
            if isinstance(value, np.ndarray):
                got_value = getattr(a, key)
                assert got_value.dtype == value.dtype and np.array_equal(got_value, value), key
                assert got_value.flags.c_contiguous and not got_value.flags.writeable, key
            else:
                assert getattr(a, key) == value, key


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
        tangents = [log_map(base, scalar_lift(table, f, "graph_triplet")) for f in parts]
        mean_components = np.mean([t.components for t in tangents], axis=0)
        return exp_map(base, type(tangents[0])(base, mean_components))

    return origin_tangents([point(trip) for trip in triplets], table.dim)
