"""File formats: tab-separated corpus/label/graph files, the embedding
table archive, and canonical JSON used for reproducibility checks.

All writers emit byte-deterministic output (floats as shortest
round-trip decimals); all loaders raise DataFormatError naming the file
and 1-based line number of the first offending record.  A float column is
parsed in one pass, and again line by line only to name a bad token's line.
"""

from __future__ import annotations

import json
import math
from itertools import accumulate
from pathlib import Path

import numpy as np

from .alignment import EmbeddingTable, KnowledgeItem, Query
from .errors import ConfigurationError, ContractViolation, DataFormatError
from .spectral import GraphRecordError, GraphVertex, KnowledgeGraph

GATING_TOKENS = {"answerable": False, "needs_retrieval": True}
LABEL_TOKENS = {"pos": True, "neg": False}


def _fmt(x: float) -> str:
    return repr(float(x))


def _csv(values) -> str:
    """``_fmt`` of each value, joined by commas."""
    return ",".join(map(repr, np.asarray(values, dtype=float).tolist()))


def _parse_floats(text: str, path, lineno: int, what: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",")])
    except ValueError as exc:
        raise DataFormatError(f"{path}:{lineno}: bad {what}: {exc}") from exc


def _float_column(rows, col: int, path, what: str):
    """Field ``col`` of each row as a float array, all parsed in one pass.  If a
    token is bad, each field is parsed as the caller's loop reaches its line, so
    earlier lines are checked before ``_parse_floats`` names the first bad one."""
    texts = [parts[col] for _, parts in rows]
    try:
        flat = np.array(list(map(float, ",".join(texts).split(","))))
    except ValueError:
        return (_parse_floats(text, path, lineno, what) for (lineno, _), text in zip(rows, texts))
    widths = [text.count(",") + 1 for text in texts]
    return [flat[end - width:end] for end, width in zip(accumulate(widths), widths)]


def _record(cls, path, lineno: int, *fields):
    """``cls(*fields)``, with a ContractViolation (a field the record
    type rejects) re-raised as DataFormatError naming the line."""
    try:
        return cls(*fields)
    except ContractViolation as exc:
        raise DataFormatError(f"{path}:{lineno}: {exc}") from exc


def _read_rows(path, n_cols: int):
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    split = [line.split("\t") for line in text.splitlines()]
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
    Path(path).write_text("".join(f"{line}\n" for line in lines))


def save_items(path, items: list[KnowledgeItem]) -> None:
    _write_lines(path, (f"{it.id}\t{it.modality}\t{_csv(it.features)}" for it in items))


def _check_width(first: dict, kind: str, width: int, path, lineno: int) -> None:
    """DataFormatError unless ``kind``'s features are as long as at ``first[kind]``."""
    line0, width0 = first.setdefault(kind, (lineno, width))
    if width != width0:
        raise DataFormatError(
            f"{path}:{lineno}: {width} {kind} features, but line {line0} has {width0}"
        )


def _check_new_id(seen: set, kind: str, ident: str, path, lineno: int) -> None:
    """DataFormatError if ``ident`` is in ``seen``; else add it."""
    if ident in seen:
        raise DataFormatError(f"{path}:{lineno}: duplicate {kind} id {ident!r}")
    seen.add(ident)


def load_items(path) -> list[KnowledgeItem]:
    rows = _read_rows(path, 3)
    features = _float_column(rows, 2, path, "features")
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
    visual_column = _float_column(rows, 1, path, "visual features")
    text_column = _float_column(rows, 2, path, "text features")
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
    return [(q, i) for _, (q, i) in _read_rows(path, 2)]


def save_labels(path, labels: list[tuple[str, str, bool]]) -> None:
    _write_lines(
        path,
        (f"{q}\t{i}\t{'pos' if flag else 'neg'}" for q, i, flag in labels),
    )


def load_labels(path) -> list[tuple[str, str, bool]]:
    out = []
    for lineno, (q, i, tok) in _read_rows(path, 3):
        if tok not in LABEL_TOKENS:
            raise DataFormatError(f"{path}:{lineno}: label must be pos|neg, got {tok!r}")
        out.append((q, i, LABEL_TOKENS[tok]))
    return out


def save_gating(path, gating: list[tuple[str, bool]]) -> None:
    _write_lines(
        path,
        (
            f"{q}\t{'needs_retrieval' if needs else 'answerable'}"
            for q, needs in gating
        ),
    )


def load_gating(path) -> list[tuple[str, bool]]:
    out = []
    for lineno, (q, tok) in _read_rows(path, 2):
        if tok not in GATING_TOKENS:
            raise DataFormatError(
                f"{path}:{lineno}: gating label must be answerable|needs_retrieval, got {tok!r}"
            )
        out.append((q, GATING_TOKENS[tok]))
    return out


def save_confidence(path, scores: dict[str, np.ndarray]) -> None:
    lines = []
    for qid in scores:
        for idx, val in enumerate(np.asarray(scores[qid], dtype=float).tolist()):
            lines.append(f"{qid}\tcand{idx}\t{val!r}")
    _write_lines(path, lines)


def load_confidence(path) -> dict[str, np.ndarray]:
    acc: dict[str, list[float]] = {}
    for lineno, (qid, _cand, val) in _read_rows(path, 3):
        try:
            score = float(val)
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: bad score: {exc}") from exc
        if not math.isfinite(score):
            raise DataFormatError(f"{path}:{lineno}: bad score: non-finite value")
        acc.setdefault(qid, []).append(score)
    return {qid: np.array(vals) for qid, vals in acc.items()}


def save_qa(path, answers: dict[str, tuple[int, ...]]) -> None:
    _write_lines(
        path,
        (f"{qid}\t{','.join(str(t) for t in toks)}" for qid, toks in answers.items()),
    )


def load_qa(path, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Gold answers; every token must index one of ``vocab_size`` rows."""
    out = {}
    for lineno, (qid, toks) in _read_rows(path, 2):
        try:
            tokens = tuple(int(t) for t in toks.split(","))
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: bad token id: {exc}") from exc
        bad = next((t for t in tokens if not 0 <= t < vocab_size), None)
        if bad is not None:
            raise DataFormatError(
                f"{path}:{lineno}: token {bad} outside vocabulary of size {vocab_size}"
            )
        out[qid] = tokens
    return out


def save_graph(graph_dir, graph: KnowledgeGraph) -> None:
    graph_dir = Path(graph_dir)
    graph_dir.mkdir(parents=True, exist_ok=True)
    _write_lines(
        graph_dir / "vertices.tsv",
        (f"{v.id}\t{v.label}\t{_csv(v.features)}" for v in graph.vertices),
    )
    _write_lines(
        graph_dir / "edges.tsv",
        (f"{u}\t{v}\t{_fmt(w)}" for u, v, w in graph.edges),
    )
    _write_lines(
        graph_dir / "triplets.tsv",
        (f"{h}\t{r}\t{t}" for h, r, t in graph.triplets),
    )


def load_graph(graph_dir) -> KnowledgeGraph:
    graph_dir = Path(graph_dir)
    vertices_path = graph_dir / "vertices.tsv"
    rows = _read_rows(vertices_path, 3)
    features = _float_column(rows, 2, vertices_path, "features")
    vertices = []
    for (lineno, (vid, label, _)), feats in zip(rows, features):
        vertices.append(_record(GraphVertex, vertices_path, lineno, vid, label, feats))
    edges = []
    edges_path = graph_dir / "edges.tsv"
    for lineno, (u, v, w) in _read_rows(edges_path, 3):
        try:
            edges.append((u, v, float(w)))
        except ValueError as exc:
            raise DataFormatError(f"{edges_path}:{lineno}: bad weight: {exc}") from exc
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
    _write_lines(
        path,
        (f"{idx}\t{_csv(row)}" for idx, row in enumerate(embeddings)),
    )


def load_vocab(path) -> np.ndarray:
    rows = []
    for lineno, (idx, feats) in _read_rows(path, 2):
        try:
            if int(idx) != lineno - 1:
                raise DataFormatError(
                    f"{path}:{lineno}: token ids must be contiguous from 0"
                )
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: bad token id: {exc}") from exc
        rows.append(_parse_floats(feats, path, lineno, "embedding"))
        if rows[-1].size != rows[0].size or not np.isfinite(rows[-1]).all():
            raise DataFormatError(f"{path}:{lineno}: need {rows[0].size} finite embedding values")
    if not rows:
        raise DataFormatError(f"{path}: empty vocabulary")
    return np.vstack(rows)


def save_clusters(path, assignment: dict[tuple[str, str], int]) -> None:
    _write_lines(
        path,
        (f"{kind}\t{ident}\t{cluster}" for (kind, ident), cluster in assignment.items()),
    )


def load_clusters(path) -> dict[tuple[str, str], int]:
    out = {}
    for lineno, (kind, ident, cluster) in _read_rows(path, 3):
        try:
            out[(kind, ident)] = int(cluster)
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: bad cluster index: {exc}") from exc
    return out


def canonical_json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


def write_json(path, obj) -> None:
    Path(path).write_bytes(canonical_json_bytes(obj))


def read_json(path):
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
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
    try:
        dim = int(data["dim"][0])
        input_dims = {
            key.split(".", 1)[1]: int(data[key][0])
            for key in data.files
            if key.startswith("input_dim.")
        }
        table = EmbeddingTable(dim, input_dims, seed=0)
        for name, _ in table.named_params():
            kind, key = name.split(".", 1)
            if kind == "weight":
                table.weight[key] = data[name]
            else:
                table.bias[key] = data[name]
    except KeyError as exc:
        raise DataFormatError(f"{path}: missing array {exc}") from exc
    except ConfigurationError as exc:
        raise DataFormatError(f"{path}: malformed table archive: {exc}") from exc
    return table
