"""Round-trip, determinism, and malformed-input tests for the file formats."""

import math
import re

import numpy as np
import pytest

from hyperrag.alignment import EmbeddingTable, KnowledgeItem, Query
from hyperrag.errors import DataFormatError
from hyperrag.spectral import GraphVertex, KnowledgeGraph
from hyperrag import io as hio

from conftest import assert_same_records, per_line_records, set_field


def sample_items():
    return [
        KnowledgeItem("i0", "visual", np.array([1.0, -2.5, 0.125])),
        KnowledgeItem("i1", "textual", np.array([0.1, 0.2, 0.3])),
        KnowledgeItem("i2", "graph_triplet", np.array([3.0, 4.0, 5.0])),
    ]


def sample_queries():
    return [
        Query("q0", np.array([0.5, -0.5]), np.array([1.5, 2.5])),
        Query("q1", np.array([1e-9, 2e9]), np.array([-3.25, 0.0])),
    ]


def sample_graph():
    vertices = (
        GraphVertex("v0", "alpha", np.array([1.0, 0.0])),
        GraphVertex("v1", "beta", np.array([0.0, 1.0])),
        GraphVertex("v2", "gamma", np.array([1.0, 1.0])),
    )
    edges = (("v0", "v1", 1.25), ("v1", "v2", 0.5))
    triplets = (("v0", "linked_to", "v1"), ("v1", "linked_to", "v2"))
    return KnowledgeGraph(vertices, edges, triplets)


class TestTabularFormats:
    def test_items_round_trip(self, tmp_path):
        items = sample_items()
        path = tmp_path / "items.tsv"
        hio.save_items(path, items)
        back = hio.load_items(path)
        assert [(i.id, i.modality) for i in back] == [(i.id, i.modality) for i in items]
        for a, b in zip(items, back):
            assert np.array_equal(a.features, b.features)

    def test_items_wrong_columns(self, tmp_path):
        path = tmp_path / "items.tsv"
        path.write_text("i0\tvisual\n")
        with pytest.raises(DataFormatError, match=r"items\.tsv:1: expected 3"):
            hio.load_items(path)

    def test_blank_line_rejected(self, tmp_path):
        path = tmp_path / "items.tsv"
        path.write_text("i0\tvisual\t1.0\n\ni1\ttextual\t2.0\n")
        with pytest.raises(DataFormatError, match=":2: blank line"):
            hio.load_items(path)

    def test_queries_round_trip(self, tmp_path):
        queries = sample_queries()
        path = tmp_path / "queries.tsv"
        hio.save_queries(path, queries)
        back = hio.load_queries(path)
        for a, b in zip(queries, back):
            assert a.id == b.id
            assert np.array_equal(a.visual_features, b.visual_features)
            assert np.array_equal(a.text_features, b.text_features)

    def test_positives_round_trip(self, tmp_path):
        pairs = [("q0", "i0"), ("q0", "i1"), ("q1", "i2")]
        path = tmp_path / "positives.tsv"
        hio.save_positives(path, pairs)
        assert hio.load_positives(path) == pairs

    def test_labels_round_trip(self, tmp_path):
        labels = [("q0", "i0", True), ("q0", "i1", False)]
        path = tmp_path / "labels.tsv"
        hio.save_labels(path, labels)
        assert hio.load_labels(path) == labels
        assert "pos" in path.read_text() and "neg" in path.read_text()

    def test_labels_bad_token(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("q0\ti0\tmaybe\n")
        with pytest.raises(DataFormatError, match=r":1: label must be pos\|neg"):
            hio.load_labels(path)

    def test_gating_round_trip(self, tmp_path):
        gating = [("q0", False), ("q1", True)]
        path = tmp_path / "gating.tsv"
        hio.save_gating(path, gating)
        assert hio.load_gating(path) == gating
        text = path.read_text()
        assert "answerable" in text and "needs_retrieval" in text

    def test_gating_bad_token(self, tmp_path):
        path = tmp_path / "gating.tsv"
        path.write_text("q0\tmaybe\n")
        with pytest.raises(DataFormatError, match=":1: gating label"):
            hio.load_gating(path)

    def test_confidence_round_trip(self, tmp_path):
        scores = {"q0": np.array([0.5, 0.25, 0.25]), "q1": np.array([1.0])}
        path = tmp_path / "confidence.tsv"
        hio.save_confidence(path, scores)
        back = hio.load_confidence(path)
        assert set(back) == {"q0", "q1"}
        for qid in scores:
            assert np.array_equal(scores[qid], back[qid])

    def test_qa_round_trip(self, tmp_path):
        answers = {"q0": (3, 3, 3), "q1": (0, 1, 2)}
        path = tmp_path / "qa.tsv"
        hio.save_qa(path, answers)
        assert hio.load_qa(path, 4) == answers

    def test_qa_bad_token_id(self, tmp_path):
        path = tmp_path / "qa.tsv"
        path.write_text("q0\t1,two,3\n")
        with pytest.raises(DataFormatError, match=":1: bad token id"):
            hio.load_qa(path, 4)

    def test_vocab_round_trip(self, tmp_path):
        emb = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        path = tmp_path / "vocab.tsv"
        hio.save_vocab(path, emb)
        assert np.array_equal(hio.load_vocab(path), emb)

    def test_vocab_non_contiguous(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("0\t1.0\n2\t2.0\n")
        with pytest.raises(DataFormatError, match="contiguous"):
            hio.load_vocab(path)

    def test_clusters_round_trip(self, tmp_path):
        assignment = {("query", "q0"): 0, ("item", "i3"): 2, ("vertex", "v1"): -1}
        path = tmp_path / "clusters.tsv"
        hio.save_clusters(path, assignment)
        assert hio.load_clusters(path) == assignment


class TestGraphDir:
    def test_round_trip(self, tmp_path):
        graph = sample_graph()
        gdir = tmp_path / "graph"
        hio.save_graph(gdir, graph)
        back = hio.load_graph(gdir)
        assert [v.id for v in back.vertices] == [v.id for v in graph.vertices]
        assert [v.label for v in back.vertices] == [v.label for v in graph.vertices]
        for a, b in zip(graph.vertices, back.vertices):
            assert np.array_equal(a.features, b.features)
        assert back.edges == graph.edges
        assert back.triplets == graph.triplets

    def test_triplets_optional(self, tmp_path):
        graph = sample_graph()
        gdir = tmp_path / "graph"
        hio.save_graph(gdir, graph)
        (gdir / "triplets.tsv").unlink()
        back = hio.load_graph(gdir)
        assert back.triplets == ()
        assert back.edges == graph.edges

    def test_bad_weight(self, tmp_path):
        graph = sample_graph()
        gdir = tmp_path / "graph"
        hio.save_graph(gdir, graph)
        (gdir / "edges.tsv").write_text("v0\tv1\theavy\n")
        with pytest.raises(DataFormatError, match="bad weight"):
            hio.load_graph(gdir)


LOADERS = {
    "items.tsv": hio.load_items,
    "queries.tsv": hio.load_queries,
    "confidence.tsv": hio.load_confidence,
    "qa.tsv": lambda path: hio.load_qa(path, 4),
    "vocab.tsv": hio.load_vocab,
    "clusters.tsv": hio.load_clusters,
    "labels.tsv": hio.load_labels,
    "gating.tsv": hio.load_gating,
    "positives.tsv": hio.load_positives,
}


class TestRejectedRows:
    @pytest.mark.parametrize(
        "name, lineno, column, value, message",
        [
            ("items.tsv", 2, 1, "audio", "unknown modality 'audio'"),
            ("items.tsv", 1, 2, "1.0,nan,0.5", "features contains non-finite values"),
            ("items.tsv", 2, 0, "i0", "duplicate item id 'i0'"),
            ("queries.tsv", 2, 1, "nan,1.0", "visual_features contains non-finite values"),
            ("queries.tsv", 2, 0, "q0", "duplicate query id 'q0'"),
            ("confidence.tsv", 2, 2, "nan", "bad score: non-finite value"),
            ("qa.tsv", 1, 1, "3,99", "token 99 outside vocabulary of size 4"),
            ("qa.tsv", 2, 1, "-1", "token -1 outside vocabulary of size 4"),
            ("vocab.tsv", 2, 1, "1.0", "need 2 finite embedding values"),
            ("vocab.tsv", 3, 1, "1.0,-inf", "need 2 finite embedding values"),
            ("graph/vertices.tsv", 3, 2, "inf,0.0", "vertex 'v2' has invalid features"),
            ("graph/vertices.tsv", 2, 0, "v0", "duplicate vertex id 'v0'"),
            ("graph/edges.tsv", 2, 1, "vnope", "('v1', 'vnope') references unknown vertices"),
            ("graph/edges.tsv", 1, 2, "-0.5", "weight -0.5 on ('v0', 'v1') is not finite"),
            ("graph/edges.tsv", 2, 2, "nan", "weight nan on ('v1', 'v2') is not finite"),
            ("graph/edges.tsv", 1, 1, "v0", "self-loop on vertex 'v0'"),
            ("graph/edges.tsv", 2, 2, "1e308", "edge ('v1', 'v2') overflows the total vertex degree"),
            ("graph/triplets.tsv", 2, 0, "vnope", "('vnope', ..., 'v2') references unknown"),
            ("clusters.tsv", 2, 2, "1.0", "bad cluster index: invalid literal for int()"),
            ("clusters.tsv", 2, 1, "q0", "duplicate query id 'q0'"),
            ("labels.tsv", 2, 2, "yes", "label must be pos|neg, got 'yes'"),
            ("gating.tsv", 2, 1, "no",
             "gating label must be answerable|needs_retrieval, got 'no'"),
            ("gating.tsv", 2, 0, "q0", "duplicate query id 'q0'"),
            ("qa.tsv", 2, 0, "q0", "duplicate query id 'q0'"),
            ("confidence.tsv", 2, 1, "cand0", "duplicate query candidate id ('q0', 'cand0')"),
            ("positives.tsv", 2, 1, "i0", "duplicate positive item id 'i0'"),
        ],
    )
    def test_data_format_error_names_file_and_line(
        self, tmp_path, name, lineno, column, value, message
    ):
        hio.save_items(tmp_path / "items.tsv", sample_items())
        hio.save_queries(tmp_path / "queries.tsv", sample_queries())
        hio.save_confidence(tmp_path / "confidence.tsv", {"q0": np.array([0.5, 0.25])})
        hio.save_qa(tmp_path / "qa.tsv", {"q0": (3, 3), "q1": (0, 1)})
        hio.save_vocab(tmp_path / "vocab.tsv", np.ones((4, 2)))
        hio.save_graph(tmp_path / "graph", sample_graph())
        hio.save_clusters(tmp_path / "clusters.tsv", {("query", "q0"): 0, ("query", "q1"): 1})
        hio.save_labels(tmp_path / "labels.tsv", [("q0", "i0", True), ("q1", "i1", False)])
        hio.save_gating(tmp_path / "gating.tsv", [("q0", False), ("q1", True)])
        hio.save_positives(tmp_path / "positives.tsv", [("q0", "i0"), ("q0", "i1"), ("q1", "i0")])
        set_field(tmp_path / name, lineno, column, value)
        expected = re.escape(f"{tmp_path / name}:{lineno}: ") + ".*" + re.escape(message)
        with pytest.raises(DataFormatError, match=expected):
            if name.startswith("graph/"):
                hio.load_graph(tmp_path / "graph")
            else:
                LOADERS[name](tmp_path / name)


def mixed_width_files(tmp_path):
    """Five items (visual rows 3 wide, textual rows 2 wide), four queries
    and a four-vertex graph, as the writers write them."""
    items = [
        KnowledgeItem(f"i{k}", "visual" if k % 2 == 0 else "textual",
                      np.array([0.5 * k, -1.25, 3.0][: 3 - k % 2]))
        for k in range(5)
    ]
    hio.save_items(tmp_path / "items.tsv", items)
    queries = [Query(f"q{k}", np.array([k, 0.25]), np.array([1.5, -k, 1e-9])) for k in range(4)]
    hio.save_queries(tmp_path / "queries.tsv", queries)
    vertices = tuple(GraphVertex(f"v{k}", f"l{k}", np.array([k, 0.5])) for k in range(4))
    hio.save_graph(tmp_path / "graph", KnowledgeGraph(vertices, (("v0", "v1", 1.0),)))
    return items, queries, vertices


def load_one(path):
    if path.name == "vertices.tsv":
        return list(hio.load_graph(path.parent).vertices)
    return LOADERS[path.name](path)


class TestBlockParseErrors:
    """A loader that parses a float column in one pass raises what the
    per-line reader raised: same file, line and message."""

    def test_mixed_modality_widths_load(self, tmp_path):
        items, queries, vertices = mixed_width_files(tmp_path)
        for name, records in [("items.tsv", items), ("queries.tsv", queries),
                              ("graph/vertices.tsv", vertices)]:
            loaded = load_one(tmp_path / name)
            assert_same_records(loaded, per_line_records(tmp_path / name))
            assert_same_records(loaded, records)

    @pytest.mark.parametrize(
        "name, edits, lineno, message",
        [
            ("items.tsv", [(3, 2, "1.0,abc")], 3,
             "bad features: could not convert string to float: 'abc'"),
            ("items.tsv", [(2, 2, "")], 2, "bad features: could not convert string to float: ''"),
            ("items.tsv", [(3, 2, "1.0,2.0")], 3, "2 visual features, but line 1 has 3"),
            ("items.tsv", [(4, 2, "1.0,2.0,3.0")], 4, "3 textual features, but line 2 has 2"),
            ("items.tsv", [(3, 2, "1.0,nan,2.0")], 3, "features contains non-finite values"),
            ("items.tsv", [(2, 2, "-inf,1.0")], 2, "features contains non-finite values"),
            ("items.tsv", [(2, 2, "inf,1.0"), (4, 2, "1.0,x")], 2,
             "features contains non-finite values"),
            ("items.tsv", [(4, 2, "1.0,2.0,3.0"), (5, 2, "1.0,x")], 4,
             "3 textual features, but line 2 has 2"),
            ("items.tsv", [(2, 2, "1.0,x"), (4, 2, "1.0,2.0,3.0")], 2,
             "bad features: could not convert string to float: 'x'"),
            ("queries.tsv", [(2, 1, "1.0,abc")], 2, "bad visual features"),
            ("queries.tsv", [(3, 2, "1.0,,2.0")], 3, "bad text features"),
            ("queries.tsv", [(3, 1, "1.0")], 3, "1 visual features, but line 1 has 2"),
            ("queries.tsv", [(2, 2, "nan,1.0,2.0"), (3, 1, "abc")], 2,
             "text_features contains non-finite values"),
            ("queries.tsv", [(2, 1, "abc"), (2, 2, "def")], 2, "bad visual features"),
            ("queries.tsv", [(3, 1, "abc"), (2, 2, "def")], 2, "bad text features"),
            ("graph/vertices.tsv", [(2, 2, "1.0,abc")], 2, "bad features"),
            ("graph/vertices.tsv", [(3, 2, "inf,0.0")], 3, "vertex 'v2' has invalid features"),
            ("graph/vertices.tsv", [(2, 2, "nan"), (3, 2, "")], 2,
             "vertex 'v1' has invalid features"),
        ],
    )
    def test_error_is_the_per_line_readers(self, tmp_path, name, edits, lineno, message):
        mixed_width_files(tmp_path)
        path = tmp_path / name
        for edit in edits:
            set_field(path, *edit)
        with pytest.raises(DataFormatError) as want:
            per_line_records(path)
        with pytest.raises(DataFormatError) as got:
            load_one(path)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"{path}:{lineno}: ")
        assert message in str(got.value)


def split_lines(path):
    return enumerate((line.split("\t") for line in path.read_text().splitlines()), start=1)


def per_line_load(path):
    """The file at ``path`` as the per-line loaders read it: each field parsed
    with ``float``, ``int`` or a token lookup, and each line checked in full
    before the next, so the first bad line raises.  The reference for the
    loaders whose fields go through the one column reader, errors included."""
    name = path.name
    out, seen = [], set()

    def parse(convert, text, lineno, what):
        try:
            return convert(text)
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: bad {what}: {exc}") from exc

    def fail(lineno, message):
        raise DataFormatError(f"{path}:{lineno}: {message}")

    def check_new(key, kind, ident, lineno):
        if key in seen:
            fail(lineno, f"duplicate {kind} id {ident!r}")
        seen.add(key)

    for lineno, fields in split_lines(path):
        if name == "confidence.tsv":
            qid, cand, val = fields
            score = parse(float, val, lineno, "score")
            if not math.isfinite(score):
                fail(lineno, "bad score: non-finite value")
            check_new((qid, cand), "query candidate", (qid, cand), lineno)
            out.append((qid, score))
        elif name == "qa.tsv":
            qid, toks = fields
            tokens = parse(lambda t: tuple(int(x) for x in t.split(",")), toks, lineno, "token id")
            bad = next((t for t in tokens if not 0 <= t < 4), None)
            if bad is not None:
                fail(lineno, f"token {bad} outside vocabulary of size 4")
            check_new(qid, "query", qid, lineno)
            out.append((qid, tokens))
        elif name == "vocab.tsv":
            idx, feats = fields
            if parse(int, idx, lineno, "token id") != lineno - 1:
                fail(lineno, "token ids must be contiguous from 0")
            row = parse(lambda t: np.array([float(x) for x in t.split(",")]), feats, lineno,
                        "embedding")
            if out and row.size != out[0].size or not np.isfinite(row).all():
                fail(lineno, f"need {(out[0] if out else row).size} finite embedding values")
            out.append(row)
        elif name == "clusters.tsv":
            kind, ident, cluster = fields
            index = parse(int, cluster, lineno, "cluster index")
            check_new((kind, ident), kind, ident, lineno)
            out.append(((kind, ident), index))
        elif name == "edges.tsv":
            u, v, w = fields
            out.append((u, v, parse(float, w, lineno, "weight")))
        elif name == "labels.tsv":
            q, i, tok = fields
            if tok not in ("pos", "neg"):
                fail(lineno, f"label must be pos|neg, got {tok!r}")
            check_new((q, i), "labeled item", i, lineno)
            out.append((q, i, tok == "pos"))
        else:
            q, tok = fields
            if tok not in ("answerable", "needs_retrieval"):
                fail(lineno, f"gating label must be answerable|needs_retrieval, got {tok!r}")
            check_new(q, "query", q, lineno)
            out.append((q, tok == "needs_retrieval"))
    return out


def column_files(tmp_path):
    """One small file of each loader whose fields go through the column
    reader, as the writers write them."""
    hio.save_confidence(tmp_path / "confidence.tsv",
                        {"q0": np.array([0.5, 0.25, 0.125]), "q1": np.array([1.0, 2.0])})
    hio.save_qa(tmp_path / "qa.tsv", {"q0": (3, 3), "q1": (0, 1), "q2": (2,)})
    hio.save_vocab(tmp_path / "vocab.tsv", np.arange(8.0).reshape(4, 2))
    hio.save_clusters(tmp_path / "clusters.tsv", {("query", "q0"): 0, ("item", "i0"): 1,
                                                  ("vertex", "v0"): -1, ("query", "q1"): 1})
    hio.save_graph(tmp_path / "graph", sample_graph())
    hio.save_labels(tmp_path / "labels.tsv",
                    [("q0", "i0", True), ("q0", "i1", False), ("q1", "i0", True)])
    hio.save_gating(tmp_path / "gating.tsv", [("q0", False), ("q1", True), ("q2", False)])


def load_as_rows(path):
    """What the loader of ``path`` returns, in ``per_line_load``'s row form."""
    if path.name == "edges.tsv":
        return list(hio.load_graph(path.parent).edges)
    loaded = LOADERS[path.name](path)
    if path.name == "confidence.tsv":
        return [(qid, score) for qid, scores in loaded.items() for score in scores.tolist()]
    return list(loaded.items()) if isinstance(loaded, dict) else list(loaded)


COLUMN_FILES = ["confidence.tsv", "qa.tsv", "vocab.tsv", "clusters.tsv", "graph/edges.tsv",
                "labels.tsv", "gating.tsv"]


class TestColumnReaderErrors:
    """A loader whose fields go through the column reader loads and raises
    what the per-line loader did: same file, line and message, when two
    lines are bad in different ways or one line in two."""

    @pytest.mark.parametrize("name", COLUMN_FILES)
    def test_loads_what_the_per_line_reader_loads(self, tmp_path, name):
        column_files(tmp_path)
        got, want = load_as_rows(tmp_path / name), per_line_load(tmp_path / name)
        if name == "vocab.tsv":
            assert np.array_equal(np.vstack(got), np.vstack(want))
        else:
            assert got == want

    @pytest.mark.parametrize(
        "name, edits, lineno, message",
        [
            ("confidence.tsv", [(2, 2, "nan"), (4, 2, "x")], 2, "bad score: non-finite value"),
            ("confidence.tsv", [(2, 2, "x"), (4, 2, "inf")], 2,
             "bad score: could not convert string to float: 'x'"),
            ("confidence.tsv", [(3, 1, "cand1"), (4, 2, "x")], 3,
             "duplicate query candidate id ('q0', 'cand1')"),
            ("confidence.tsv", [(3, 1, "cand1"), (3, 2, "x")], 3, "bad score"),
            ("qa.tsv", [(1, 1, "3,99"), (2, 1, "0,x")], 1,
             "token 99 outside vocabulary of size 4"),
            ("qa.tsv", [(2, 1, "0,x"), (3, 1, "7")], 2,
             "bad token id: invalid literal for int() with base 10: 'x'"),
            ("qa.tsv", [(2, 1, "9,x")], 2, "bad token id"),
            ("qa.tsv", [(2, 0, "q0"), (3, 1, "x")], 2, "duplicate query id 'q0'"),
            ("vocab.tsv", [(2, 0, "x"), (2, 1, "y")], 2,
             "bad token id: invalid literal for int() with base 10: 'x'"),
            ("vocab.tsv", [(2, 0, "5"), (2, 1, "y")], 2, "token ids must be contiguous from 0"),
            ("vocab.tsv", [(3, 1, "y"), (2, 0, "7")], 2, "token ids must be contiguous from 0"),
            ("vocab.tsv", [(2, 1, "nan,1.0"), (3, 0, "x")], 2, "need 2 finite embedding values"),
            ("vocab.tsv", [(2, 1, "1.0"), (3, 1, "y")], 2, "need 2 finite embedding values"),
            ("vocab.tsv", [(3, 1, "1.0,y")], 3,
             "bad embedding: could not convert string to float: 'y'"),
            ("clusters.tsv", [(2, 2, "x"), (3, 2, "1.5")], 2,
             "bad cluster index: invalid literal for int() with base 10: 'x'"),
            ("clusters.tsv", [(4, 1, "q0"), (4, 2, "x")], 4, "bad cluster index"),
            ("clusters.tsv", [(2, 0, "query"), (2, 1, "q0"), (3, 2, "x")], 2,
             "duplicate query id 'q0'"),
            ("clusters.tsv", [(3, 0, "item"), (3, 1, "i0")], 3, "duplicate item id 'i0'"),
            # Weights are all parsed before the graph checks the edges.
            ("graph/edges.tsv", [(1, 2, "-0.5"), (2, 2, "heavy")], 2,
             "bad weight: could not convert string to float: 'heavy'"),
            ("labels.tsv", [(2, 2, "maybe"), (3, 2, "")], 2, "label must be pos|neg, got 'maybe'"),
            ("labels.tsv", [(3, 2, "Pos")], 3, "label must be pos|neg, got 'Pos'"),
            ("gating.tsv", [(2, 0, "q0"), (3, 1, "maybe")], 2, "duplicate query id 'q0'"),
            ("gating.tsv", [(2, 1, "maybe"), (3, 0, "q0")], 2,
             "gating label must be answerable|needs_retrieval, got 'maybe'"),
            ("gating.tsv", [(2, 0, "q0"), (2, 1, "yes")], 2, "gating label must be"),
            ("labels.tsv", [(2, 1, "i0"), (3, 2, "maybe")], 2, "duplicate labeled item id 'i0'"),
            ("labels.tsv", [(2, 1, "i0"), (2, 2, "maybe")], 2, "label must be pos|neg"),
        ],
    )
    def test_error_is_the_per_line_readers(self, tmp_path, name, edits, lineno, message):
        column_files(tmp_path)
        path = tmp_path / name
        for edit in edits:
            set_field(path, *edit)
        with pytest.raises(DataFormatError) as want:
            per_line_load(path)
        with pytest.raises(DataFormatError) as got:
            load_as_rows(path)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"{path}:{lineno}: ")
        assert message in str(got.value)


def put_byte(path, lineno: int, byte: bytes = b"\xff") -> None:
    """Put ``byte`` at the start of line ``lineno`` of ``path``."""
    lines = path.read_bytes().split(b"\n")
    lines[lineno - 1] = byte + lines[lineno - 1]
    path.write_bytes(b"\n".join(lines))


class TestNotUtf8:
    @pytest.mark.parametrize("name", COLUMN_FILES + ["items.tsv", "queries.tsv"])
    @pytest.mark.parametrize("lineno", [1, 2])
    def test_table_names_the_line_of_the_byte(self, tmp_path, name, lineno):
        column_files(tmp_path)
        hio.save_items(tmp_path / "items.tsv", sample_items())
        hio.save_queries(tmp_path / "queries.tsv", sample_queries())
        path = tmp_path / name
        put_byte(path, lineno)
        position = path.read_bytes().index(b"\xff")
        with pytest.raises(DataFormatError) as exc:
            load_as_rows(path)
        assert str(exc.value) == (
            f"{path}:{lineno}: not UTF-8: 'utf-8' codec can't decode byte 0xff "
            f"in position {position}: invalid start byte"
        )

    def test_json_names_the_line_of_the_byte(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{\n  "a": 1,\n  "b": "\xc3"\n}\n')
        with pytest.raises(DataFormatError, match=re.escape(f"{path}:3: not UTF-8: ")):
            hio.read_json(path)

    def test_utf8_text_round_trips(self, tmp_path):
        pairs = [("qé", "i一"), ("q1", "i\U0001f600")]
        path = tmp_path / "positives.tsv"
        hio.save_positives(path, pairs)
        assert path.read_bytes() == "qé\ti一\nq1\ti\U0001f600\n".encode("utf-8")
        assert hio.load_positives(path) == pairs


class TestLineEnds:
    """A line ends at ``\n``, as every writer ends it; a ``\r`` just before
    the ``\n`` is part of the line end."""

    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029", "\r"])
    def test_an_id_keeps_every_other_line_break(self, tmp_path, sep):
        items = [KnowledgeItem(f"i{sep}{k}", "visual", np.array([k, 0.5])) for k in range(3)]
        path = tmp_path / "items.tsv"
        hio.save_items(path, items)
        assert [item.id for item in hio.load_items(path)] == [item.id for item in items]

    @pytest.mark.parametrize("name", COLUMN_FILES)
    def test_crlf_file_loads_as_written(self, tmp_path, name):
        column_files(tmp_path)
        path = tmp_path / name
        want = load_as_rows(path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        got = load_as_rows(path)
        if name == "vocab.tsv":
            assert np.array_equal(np.vstack(got), np.vstack(want))
        else:
            assert got == want


class TestDeterminismAndJson:
    def test_writers_are_byte_deterministic(self, tmp_path, rng):
        items = sample_items()
        queries = sample_queries()
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        for d in (a, b):
            hio.save_items(d / "items.tsv", items)
            hio.save_queries(d / "queries.tsv", queries)
            hio.save_graph(d / "graph", sample_graph())
        assert (a / "items.tsv").read_bytes() == (b / "items.tsv").read_bytes()
        assert (a / "queries.tsv").read_bytes() == (b / "queries.tsv").read_bytes()
        for name in ("vertices.tsv", "edges.tsv", "triplets.tsv"):
            assert (a / "graph" / name).read_bytes() == (b / "graph" / name).read_bytes()

    def test_canonical_json_sorts_keys(self):
        blob = hio.canonical_json_bytes({"b": 1, "a": [1.5, 2]})
        assert blob == b'{"a":[1.5,2],"b":1}\n'

    def test_json_round_trip(self, tmp_path):
        obj = {"z": 3, "nested": {"k": [1, 2, 3]}, "f": 0.25}
        path = tmp_path / "meta.json"
        hio.write_json(path, obj)
        assert hio.read_json(path) == obj

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "meta.json"
        path.write_text("{not json")
        with pytest.raises(DataFormatError, match="invalid JSON"):
            hio.read_json(path)


class TestTableSerialization:
    def test_round_trip_preserves_embeddings(self, tmp_path, rng):
        table = EmbeddingTable(
            8, {"visual": 3, "textual": 4, "graph_triplet": 2, "query": 7}, seed=3
        )
        path = tmp_path / "table.npz"
        hio.save_table(path, table)
        back = hio.load_table(path)
        assert back.dim == table.dim
        assert back.input_dims == table.input_dims
        for (name_a, arr_a), (name_b, arr_b) in zip(
            table.named_params(), back.named_params()
        ):
            assert name_a == name_b
            assert np.array_equal(arr_a, arr_b)
        feats = rng.normal(size=3)
        pa = table.embed_features(feats, "visual")
        pb = back.embed_features(feats, "visual")
        assert np.array_equal(pa.coords, pb.coords)

    def test_missing_array(self, tmp_path):
        path = tmp_path / "table.npz"
        np.savez(path, dim=np.array([4]))
        with pytest.raises(DataFormatError):
            hio.load_table(path)

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "table.npz"
        path.write_text("not an npz archive")
        with pytest.raises(DataFormatError, match="cannot read table"):
            hio.load_table(path)
