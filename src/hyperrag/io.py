"""File formats: tab-separated corpus/label/graph files, the embedding
table archive, and canonical JSON used for reproducibility checks.

Text is UTF-8.  All writers emit byte-deterministic output (floats as
shortest round-trip decimals); all loaders raise DataFormatError naming the
file and 1-based line of the first offending record (a byte that is not
UTF-8, a field that does not parse, an id repeated in a one-row-per-id file,
a (query, item) pair repeated).  Lines end at ``\n``.  One column reader
parses each field column in one pass, and again line by line only to name a
bad field's line.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from itertools import accumulate
from pathlib import Path

import numpy as np

from .alignment import EmbeddingTable, KnowledgeItem, Query
from .errors import ConfigurationError, ContractViolation, DataFormatError
from .spectral import GraphRecordError, GraphVertex, KnowledgeGraph

GATING_TOKENS = {"answerable": False, "needs_retrieval": True}
LABEL_TOKENS = {"pos": True, "neg": False}


def _csv(values) -> str:
    """``repr(float(x))`` of each value, joined by commas."""
    return ",".join(map(repr, np.asarray(values, dtype=float).tolist()))


def _floats(texts) -> list[np.ndarray]:
    """Each comma-separated text as a float array, all parsed in one pass."""
    flat = np.array(list(map(float, ",".join(texts).split(","))))
    widths = [text.count(",") + 1 for text in texts]
    return [flat[end - width:end] for end, width in zip(accumulate(widths), widths)]


def _each(parse):
    """The column parser that applies ``parse`` to each text."""
    return lambda texts: list(map(parse, texts))


def _column(rows, col: int, parse, path, error: str):
    """``parse`` (texts -> values) of field ``col`` of all rows, in one pass.
    If a field is bad, each is parsed as the caller's loop reaches its line,
    so earlier lines are checked before the first bad one is named, with
    ``error.format(exc)``."""

    def per_line():
        for (lineno, _), text in zip(rows, texts):
            try:
                yield parse([text])[0]
            except (KeyError, ValueError) as exc:
                raise DataFormatError(f"{path}:{lineno}: {error.format(exc)}") from exc

    texts = [parts[col] for _, parts in rows]
    try:
        return parse(texts)
    except (KeyError, ValueError):
        return per_line()


def _tokens(rows, col: int, table: dict, path, what: str):
    """Field ``col`` of each row as its value in the token ``table``.  The
    text of a KeyError is the repr of its key."""
    error = f"{what} must be {'|'.join(table)}, got {{}}"
    return _column(rows, col, _each(table.__getitem__), path, error)


def _record(cls, path, lineno: int, *fields):
    """``cls(*fields)``, with a ContractViolation (a field the record
    type rejects) re-raised as DataFormatError naming the line."""
    try:
        return cls(*fields)
    except ContractViolation as exc:
        raise DataFormatError(f"{path}:{lineno}: {exc}") from exc


def _read_text(path) -> str:
    """The UTF-8 text of ``path``, its line ends as written; DataFormatError
    names the line of its first byte that is not UTF-8."""
    try:
        return path.read_bytes().decode("utf-8")
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise DataFormatError(f"{path}:{lineno}: not UTF-8: {exc}") from exc


def read_fields(path) -> list[list[str]]:
    """The tab-separated fields of each line of ``path``'s UTF-8 text.  A
    line ends at ``\n``, which every writer emits; a ``\r`` just before it
    is part of the line end, so CRLF files read the same."""
    lines = _read_text(Path(path)).replace("\r\n", "\n").split("\n")
    if lines[-1] == "":  # the end of the last line, or an empty file
        lines.pop()
    return [line.split("\t") for line in lines]


def _read_rows(path, n_cols: int):
    split = read_fields(path)
    # A blank line splits into one field, so it has too few (n_cols >= 2).
    if set(map(len, split)) - {n_cols}:
        for lineno, parts in enumerate(split, start=1):
            if parts == [""]:
                raise DataFormatError(f"{path}:{lineno}: blank line")
            if len(parts) != n_cols:
                raise DataFormatError(
                    f"{path}:{lineno}: expected {n_cols} tab-separated fields, got {len(parts)}"
                )
    return list(enumerate(split, start=1))


def _write_lines(path, lines) -> None:
    Path(path).write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")


def save_items(path, items: list[KnowledgeItem]) -> None:
    _write_lines(path, (f"{it.id}\t{it.modality}\t{_csv(it.features)}" for it in items))


def _check_width(first: dict, kind: str, width: int, path, lineno: int) -> None:
    """DataFormatError unless ``kind``'s features are as long as at ``first[kind]``."""
    line0, width0 = first.setdefault(kind, (lineno, width))
    if width != width0:
        raise DataFormatError(
            f"{path}:{lineno}: {width} {kind} features, but line {line0} has {width0}"
        )


def _check_new_id(seen: set, kind: str, ident, path, lineno: int, key=None) -> None:
    """DataFormatError if ``key`` (default ``ident``) is in ``seen``; else add it.
    A pair's key is one tab-joined str: a tuple, or a set per query, is a container
    the garbage collector tracks, and would move the collections after set-up."""
    key = ident if key is None else key
    if key in seen:
        raise DataFormatError(f"{path}:{lineno}: duplicate {kind} id {ident!r}")
    seen.add(key)


def load_items(path) -> list[KnowledgeItem]:
    rows = _read_rows(path, 3)
    features = _column(rows, 2, _floats, path, "bad features: {}")
    items, first, seen = [], {}, set()
    for (lineno, (iid, modality, _)), feats in zip(rows, features):
        items.append(_record(KnowledgeItem, path, lineno, iid, modality, feats))
        _check_width(first, modality, feats.size, path, lineno)
        _check_new_id(seen, "item", iid, path, lineno)
    return items


def save_queries(path, queries: list[Query]) -> None:
    _write_lines(
        path,
        (f"{q.id}\t{_csv(q.visual_features)}\t{_csv(q.text_features)}" for q in queries),
    )


def load_queries(path) -> list[Query]:
    rows = _read_rows(path, 3)
    visual_column = _column(rows, 1, _floats, path, "bad visual features: {}")
    text_column = _column(rows, 2, _floats, path, "bad text features: {}")
    queries, first, seen = [], {}, set()
    for (lineno, (qid, _, _)), visual, text in zip(rows, visual_column, text_column):
        queries.append(_record(Query, path, lineno, qid, visual, text))
        _check_width(first, "visual", visual.size, path, lineno)
        _check_width(first, "text", text.size, path, lineno)
        _check_new_id(seen, "query", qid, path, lineno)
    return queries


def save_positives(path, pairs: list[tuple[str, str]]) -> None:
    _write_lines(path, (f"{q}\t{i}" for q, i in pairs))


def load_positives(path) -> list[tuple[str, str]]:
    out, seen = [], set()
    for lineno, (q, i) in _read_rows(path, 2):
        _check_new_id(seen, "positive item", i, path, lineno, key=f"{q}\t{i}")
        out.append((q, i))
    return out


def save_labels(path, labels: list[tuple[str, str, bool]]) -> None:
    token = {flag: tok for tok, flag in LABEL_TOKENS.items()}
    _write_lines(path, (f"{q}\t{i}\t{token[flag]}" for q, i, flag in labels))


def load_labels(path) -> list[tuple[str, str, bool]]:
    rows = _read_rows(path, 3)
    out, seen = [], set()
    flags = _tokens(rows, 2, LABEL_TOKENS, path, "label")
    for (lineno, (q, i, _)), flag in zip(rows, flags):
        _check_new_id(seen, "labeled item", i, path, lineno, key=f"{q}\t{i}")
        out.append((q, i, flag))
    return out


def save_gating(path, gating: list[tuple[str, bool]]) -> None:
    token = {needs: tok for tok, needs in GATING_TOKENS.items()}
    _write_lines(path, (f"{q}\t{token[needs]}" for q, needs in gating))


def load_gating(path) -> list[tuple[str, bool]]:
    rows = _read_rows(path, 2)
    out, seen = [], set()
    flags = _tokens(rows, 1, GATING_TOKENS, path, "gating label")
    for (lineno, (q, _)), needs in zip(rows, flags):
        _check_new_id(seen, "query", q, path, lineno)
        out.append((q, needs))
    return out


def save_confidence(path, scores: dict[str, np.ndarray]) -> None:
    lines = []
    for qid in scores:
        for idx, val in enumerate(np.asarray(scores[qid], dtype=float).tolist()):
            lines.append(f"{qid}\tcand{idx}\t{val!r}")
    _write_lines(path, lines)


def load_confidence(path) -> dict[str, np.ndarray]:
    rows = _read_rows(path, 3)
    acc: dict[str, list[float]] = {}
    seen: set = set()
    scores = _column(rows, 2, _each(float), path, "bad score: {}")
    for (lineno, (qid, cand, _)), score in zip(rows, scores):
        if not math.isfinite(score):
            raise DataFormatError(f"{path}:{lineno}: bad score: non-finite value")
        _check_new_id(seen, "query candidate", (qid, cand), path, lineno)
        acc.setdefault(qid, []).append(score)
    return {qid: np.array(vals) for qid, vals in acc.items()}


def save_qa(path, answers: dict[str, tuple[int, ...]]) -> None:
    _write_lines(path, (f"{qid}\t{','.join(map(str, toks))}" for qid, toks in answers.items()))


def load_qa(path, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Gold answers; every token must index one of ``vocab_size`` rows."""
    rows = _read_rows(path, 2)
    out, seen = {}, set()
    parse = _each(lambda text: tuple(map(int, text.split(","))))
    column = _column(rows, 1, parse, path, "bad token id: {}")
    for (lineno, (qid, _)), tokens in zip(rows, column):
        bad = next((t for t in tokens if not 0 <= t < vocab_size), None)
        if bad is not None:
            raise DataFormatError(
                f"{path}:{lineno}: token {bad} outside vocabulary of size {vocab_size}"
            )
        _check_new_id(seen, "query", qid, path, lineno)
        out[qid] = tokens
    return out


def save_graph(graph_dir, graph: KnowledgeGraph) -> None:
    graph_dir = Path(graph_dir)
    graph_dir.mkdir(parents=True, exist_ok=True)
    _write_lines(
        graph_dir / "vertices.tsv",
        (f"{v.id}\t{v.label}\t{_csv(v.features)}" for v in graph.vertices),
    )
    weights = _csv([w for _, _, w in graph.edges]).split(",")
    _write_lines(
        graph_dir / "edges.tsv",
        (f"{u}\t{v}\t{w}" for (u, v, _), w in zip(graph.edges, weights)),
    )
    _write_lines(graph_dir / "triplets.tsv", (f"{h}\t{r}\t{t}" for h, r, t in graph.triplets))


def load_graph(graph_dir) -> KnowledgeGraph:
    graph_dir = Path(graph_dir)
    vertices_path = graph_dir / "vertices.tsv"
    rows = _read_rows(vertices_path, 3)
    features = _column(rows, 2, _floats, vertices_path, "bad features: {}")
    vertices = []
    for (lineno, (vid, label, _)), feats in zip(rows, features):
        vertices.append(_record(GraphVertex, vertices_path, lineno, vid, label, feats))
    edges_path = graph_dir / "edges.tsv"
    rows = _read_rows(edges_path, 3)
    weights = _column(rows, 2, _each(float), edges_path, "bad weight: {}")
    edges = [(u, v, w) for (_, (u, v, _)), w in zip(rows, weights)]
    triplets_path = graph_dir / "triplets.tsv"
    triplets = []
    if triplets_path.exists():
        triplets = [(h, r, t) for _, (h, r, t) in _read_rows(triplets_path, 3)]
    try:
        return KnowledgeGraph(tuple(vertices), tuple(edges), tuple(triplets))
    except GraphRecordError as exc:
        # Rows map one to one onto lines: _read_rows rejects blank lines.
        path = graph_dir / f"{exc.records}.tsv"
        raise DataFormatError(f"{path}:{exc.position + 1}: {exc}") from exc


def save_vocab(path, embeddings: np.ndarray) -> None:
    _write_lines(path, (f"{idx}\t{_csv(row)}" for idx, row in enumerate(embeddings)))


def load_vocab(path) -> np.ndarray:
    """Token embeddings.  A line's id is checked before its floats are parsed."""
    rows = _read_rows(path, 2)
    embeddings = iter(_column(rows, 1, _floats, path, "bad embedding: {}"))
    out = []
    for (lineno, _), idx in zip(rows, _column(rows, 0, _each(int), path, "bad token id: {}")):
        if idx != lineno - 1:
            raise DataFormatError(f"{path}:{lineno}: token ids must be contiguous from 0")
        out.append(next(embeddings))
        if out[-1].size != out[0].size or not np.isfinite(out[-1]).all():
            raise DataFormatError(f"{path}:{lineno}: need {out[0].size} finite embedding values")
    if not out:
        raise DataFormatError(f"{path}: empty vocabulary")
    return np.vstack(out)


def save_clusters(path, assignment: dict[tuple[str, str], int]) -> None:
    lines = (f"{kind}\t{ident}\t{cluster}" for (kind, ident), cluster in assignment.items())
    _write_lines(path, lines)


def load_clusters(path) -> dict[tuple[str, str], int]:
    rows = _read_rows(path, 3)
    out, seen = {}, defaultdict(set)
    clusters = _column(rows, 2, _each(int), path, "bad cluster index: {}")
    for (lineno, (kind, ident, _)), cluster in zip(rows, clusters):
        _check_new_id(seen[kind], kind, ident, path, lineno)
        out[(kind, ident)] = cluster
    return out


def canonical_json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


def write_json(path, obj) -> None:
    Path(path).write_bytes(canonical_json_bytes(obj))


def read_json(path):
    path = Path(path)
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc


def save_table(path, table) -> None:
    arrays = {"dim": np.array([table.dim])}
    for name, arr in table.named_params():
        arrays[name] = arr
    for key, d_in in table.input_dims.items():
        arrays[f"input_dim.{key}"] = np.array([d_in])
    np.savez(path, **arrays)


def load_table(path):
    try:
        data = np.load(path)
    except (OSError, ValueError) as exc:
        raise DataFormatError(f"{path}: cannot read table: {exc}") from exc

    def array(key, shape):
        if key not in data.files:
            raise DataFormatError(f"{path}: missing array {key!r}")
        arr = data[key]
        if arr.shape != shape or arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
            raise DataFormatError(
                f"{path}: array {key!r} is {arr.dtype} {arr.shape}, not finite numbers {shape}"
            )
        return arr

    try:
        prefix = "input_dim."
        dims = {k[len(prefix):]: int(array(k, (1,))[0]) for k in data.files if k.startswith(prefix)}
        table = EmbeddingTable(int(array("dim", (1,))[0]), dims, seed=0)
        for key, d_in in table.input_dims.items():
            table.weight[key] = array(f"weight.{key}", (table.dim, d_in))
            table.bias[key] = array(f"bias.{key}", (table.dim,))
    except (ConfigurationError, ValueError) as exc:  # ValueError: an object array
        raise DataFormatError(f"{path}: malformed table archive: {exc}") from exc
    return table
