"""Structure, determinism, and round-trip tests for the synthetic bundles."""

import hashlib
import json
import re

import numpy as np
import pytest

from hyperrag.errors import ConfigurationError, DataFormatError
from hyperrag.gate import fit_theta, max_softmax
from hyperrag.spectral import connected_components
from hyperrag.synth import (
    DISTRACTOR_CLUSTER,
    CorpusBundle,
    SynthSpec,
    load_bundle,
    synth_bundle,
    write_bundle,
)

from conftest import assert_same_records, per_line_records, set_field

SMALL = SynthSpec(
    num_queries=24, num_items=40, num_clusters=3, graph_size=30, seed=7
)
NOISY = SynthSpec(
    num_queries=24, num_items=40, num_clusters=3, graph_size=30,
    noise_frac=0.2, seed=7,
)


def distractor_ids(bundle: CorpusBundle) -> frozenset[str]:
    """The ids of the items the bundle planted as distractors."""
    return frozenset(
        ident for (kind, ident), c in bundle.clusters.items()
        if kind == "item" and c == DISTRACTOR_CLUSTER
    )


@pytest.fixture(scope="module")
def small():
    return synth_bundle(SMALL)


@pytest.fixture(scope="module")
def noisy():
    return synth_bundle(NOISY)


class TestStructure:
    def test_counts(self, small):
        assert len(small.queries) == 24
        assert len(small.items) == 40
        assert small.graph.size == 30
        assert small.token_embeddings.shape == (5, 4)
        assert not distractor_ids(small)

    def test_distractor_fraction(self, noisy):
        assert len(distractor_ids(noisy)) == 8
        assert len(noisy.items) == 40
        assert all(iid.startswith("d") for iid in distractor_ids(noisy))

    def test_every_query_has_positives_in_own_cluster(self, small):
        for q in small.queries:
            c = small.clusters[("query", q.id)]
            pos = small.positives[q.id]
            assert pos
            assert all(small.clusters[("item", iid)] == c for iid in pos)
            assert set(pos) <= small.relevance[q.id]

    def test_relevance_excludes_distractors(self, noisy):
        for q in noisy.queries:
            assert not (noisy.relevance[q.id] & distractor_ids(noisy))

    def test_labels_cover_both_classes(self, noisy):
        flags = {flag for _, _, flag in noisy.labels}
        assert flags == {True, False}
        neg_ids = {iid for _, iid, flag in noisy.labels if not flag}
        assert neg_ids & distractor_ids(noisy)

    def test_gating_pattern(self, small):
        for idx, (qid, needs) in enumerate(small.gating):
            assert qid == small.queries[idx].id
            assert needs == (idx % 3 != 2)

    def test_confidence_separates_gating_classes(self, small):
        sigmas = {qid: max_softmax(s) for qid, s in small.confidence.items()}
        pairs = [(sigmas[qid], needs) for qid, needs in small.gating]
        answerable = [s for s, needs in pairs if not needs]
        needing = [s for s, needs in pairs if needs]
        assert min(answerable) > 0.9
        assert max(needing) < 0.5
        _, accuracy = fit_theta(pairs)
        assert accuracy == 1.0

    def test_gold_answers_encode_cluster(self, small):
        for q in small.queries:
            c = small.clusters[("query", q.id)]
            toks = small.qa[q.id]
            assert toks == (c + 1,) * 3
            assert max(toks) < small.spec.vocab_size

    def test_graph_connected_with_planted_communities(self, small):
        assert connected_components(small.graph) == 1
        comm = {
            ident: c
            for (kind, ident), c in small.clusters.items()
            if kind == "vertex"
        }
        assert set(comm.values()) == {0, 1, 2}
        for h, r, t in small.graph.triplets:
            assert comm[h] == comm[t]
            assert r == f"rel_{comm[h]}"

    def test_planted_feature_geometry(self, small):
        # Query features should correlate with own-cluster item features
        # far more than with other clusters.
        by_id = small.item_by_id()
        for q in small.queries[:6]:
            c = small.clusters[("query", q.id)]
            own = np.mean([
                q.combined_features[: small.spec.feature_dim] @ by_id[iid].features
                for iid in small.positives[q.id]
            ])
            other_ids = [
                it.id for it in small.items
                if small.clusters[("item", it.id)] not in (c, DISTRACTOR_CLUSTER)
            ]
            other = np.mean([
                q.combined_features[: small.spec.feature_dim] @ by_id[iid].features
                for iid in other_ids
            ])
            assert own > other + 5.0


class TestValidation:
    def test_noise_frac_bounds(self):
        with pytest.raises(ConfigurationError, match="noise_frac"):
            SynthSpec(noise_frac=1.0).validate()

    def test_graph_smaller_than_clusters(self):
        with pytest.raises(ConfigurationError, match="graph_size"):
            SynthSpec(num_clusters=8, graph_size=4).validate()

    @pytest.mark.parametrize(
        "spec",
        [
            SynthSpec(num_items=4, num_clusters=5, graph_size=10),
            SynthSpec(num_items=10, num_clusters=5, noise_frac=0.6),
        ],
    )
    def test_non_distractor_items_must_cover_clusters(self, spec):
        with pytest.raises(ConfigurationError, match="non-distractor items cannot cover 5"):
            spec.validate()

    def test_zero_queries(self):
        with pytest.raises(ConfigurationError, match="sizes"):
            SynthSpec(num_queries=0).validate()

    def test_negative_seed(self):
        with pytest.raises(ConfigurationError, match="seed"):
            synth_bundle(SynthSpec(seed=-1))


def write_renamed(bundle, out, sep: str):
    """Write ``bundle`` to ``out`` with ``sep`` put into the id of the first
    positive of its first query, in every file; return the renaming."""
    old = bundle.positives[bundle.queries[0].id][0]
    new = old[:1] + sep + old[1:]
    write_bundle(bundle, out)
    for path in out.rglob("*.tsv"):
        fields = [line.split("\t") for line in path.read_text().split("\n")]
        path.write_text("\n".join("\t".join(new if f == old else f for f in fs) for fs in fields))
    return lambda ident: new if ident == old else ident


class TestSerialization:
    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        write_bundle(synth_bundle(NOISY), a)
        write_bundle(synth_bundle(NOISY), b)
        names = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        assert names == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        for rel in names:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_seed_changes_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        write_bundle(synth_bundle(SMALL), a)
        other = SynthSpec(**{**SMALL.__dict__, "seed": 8})
        write_bundle(synth_bundle(other), b)
        assert (a / "items.tsv").read_bytes() != (b / "items.tsv").read_bytes()

    def test_round_trip(self, tmp_path, noisy):
        out = tmp_path / "bundle"
        write_bundle(noisy, out)
        back = load_bundle(out)
        assert isinstance(back, CorpusBundle)
        assert back.spec == noisy.spec
        assert [q.id for q in back.queries] == [q.id for q in noisy.queries]
        assert [i.id for i in back.items] == [i.id for i in noisy.items]
        assert back.positives == noisy.positives
        assert back.relevance == noisy.relevance
        assert back.labels == noisy.labels
        assert back.gating == noisy.gating
        assert back.qa == noisy.qa
        assert back.clusters == noisy.clusters
        assert np.array_equal(back.token_embeddings, noisy.token_embeddings)
        for qid in noisy.confidence:
            assert np.array_equal(back.confidence[qid], noisy.confidence[qid])
        assert back.graph.edges == noisy.graph.edges
        assert back.graph.triplets == noisy.graph.triplets
        for va, vb in zip(noisy.graph.vertices, back.graph.vertices):
            assert va.id == vb.id and np.array_equal(va.features, vb.features)

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda meta: meta.pop("seed"), "seed"),
            (lambda meta: meta.update(num_items="40"), "num_items"),
            (lambda meta: meta.update(answer_len=True), "answer_len"),
            (lambda meta: meta.update(graph_size=30.0), "graph_size"),
            (lambda meta: meta.update(noise_frac=None), "noise_frac"),
        ],
    )
    def test_bad_meta_key_is_data_format_error(self, tmp_path, small, edit, key):
        out = tmp_path / "bundle"
        write_bundle(small, out)
        meta = json.loads((out / "meta.json").read_text())
        edit(meta)
        (out / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(DataFormatError, match=rf"meta\.json: .*'{key}'"):
            load_bundle(out)

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda meta: meta.update(num_clusters=0), "num_clusters"),
            (lambda meta: meta.update(noise_frac=1.5), "noise_frac"),
            (lambda meta: meta.update(graph_size=2), "graph_size"),
            (lambda meta: meta.update(seed=-1), "seed"),
        ],
    )
    def test_invalid_meta_value_is_data_format_error(self, tmp_path, small, edit, key):
        out = tmp_path / "bundle"
        write_bundle(small, out)
        meta = json.loads((out / "meta.json").read_text())
        edit(meta)
        (out / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(DataFormatError, match=rf"meta\.json: .*{key}"):
            load_bundle(out)

    def test_meta_not_an_object(self, tmp_path, small):
        out = tmp_path / "bundle"
        write_bundle(small, out)
        (out / "meta.json").write_text("[1, 2]")
        with pytest.raises(DataFormatError, match=r"meta\.json"):
            load_bundle(out)

    def test_integer_noise_frac_accepted(self, tmp_path, small):
        out = tmp_path / "bundle"
        write_bundle(small, out)
        meta = json.loads((out / "meta.json").read_text())
        meta["noise_frac"] = 0
        (out / "meta.json").write_text(json.dumps(meta))
        assert load_bundle(out).spec == small.spec

    @pytest.mark.parametrize("column, kind", [(0, "query"), (1, "item")])
    def test_unknown_label_id_is_data_format_error(self, tmp_path, small, column, kind):
        out = tmp_path / "bundle"
        write_bundle(small, out)
        lines = (out / "labels.tsv").read_text().splitlines()
        fields = lines[1].split("\t")
        fields[column] = "nope"
        lines[1] = "\t".join(fields)
        (out / "labels.tsv").write_text("\n".join(lines) + "\n")
        with pytest.raises(
            DataFormatError, match=rf"labels\.tsv:2: unknown {kind} id 'nope'"
        ):
            load_bundle(out)

    @pytest.mark.parametrize(
        "name, column, kind",
        [
            ("positives.tsv", 0, "query"),
            ("positives.tsv", 1, "item"),
            ("gating.tsv", 0, "query"),
            ("confidence.tsv", 0, "query"),
            ("qa.tsv", 0, "query"),
        ],
    )
    def test_unknown_row_id_is_data_format_error(self, tmp_path, small, name, column, kind):
        out = tmp_path / "bundle"
        write_bundle(small, out)
        lines = (out / name).read_text().splitlines()
        fields = lines[1].split("\t")
        fields[column] = "nope"
        lines[1] = "\t".join(fields)
        (out / name).write_text("\n".join(lines) + "\n")
        with pytest.raises(
            DataFormatError, match=re.escape(f"{name}:2: unknown {kind} id 'nope'")
        ):
            load_bundle(out)

    @pytest.mark.parametrize(
        "name, lineno, column, bad_line, kind",
        [
            # Items alternate visual, textual: line 3 is the second visual row.
            ("items.tsv", 3, 2, 3, "visual"),
            # A first row of another width is reported at the next row.
            ("items.tsv", 1, 2, 3, "visual"),
            ("queries.tsv", 2, 1, 2, "visual"),
            ("queries.tsv", 2, 2, 2, "text"),
        ],
    )
    def test_feature_width_mismatch_is_data_format_error(
        self, tmp_path, small, name, lineno, column, bad_line, kind
    ):
        out = tmp_path / "bundle"
        write_bundle(small, out)
        set_field(out / name, lineno, column, "1,2")
        with pytest.raises(
            DataFormatError, match=re.escape(f"{name}:{bad_line}: ") + rf"\d+ {kind} features"
        ):
            load_bundle(out)

    def test_graph_triplet_positive_is_data_format_error(self, tmp_path, small):
        out = tmp_path / "bundle"
        write_bundle(small, out)
        iid = small.positives[small.queries[1].id][0]
        items = [item.id for item in small.items]
        set_field(out / "items.tsv", items.index(iid) + 1, 1, "graph_triplet")
        pairs = (out / "positives.tsv").read_text().splitlines()
        lineno = next(k for k, line in enumerate(pairs, 1) if line.split("\t")[1] == iid)
        with pytest.raises(
            DataFormatError,
            match=re.escape(f"positives.tsv:{lineno}: positive {iid!r} is neither"),
        ):
            load_bundle(out)

    def test_query_without_qa_row_is_data_format_error(self, tmp_path, small):
        out = tmp_path / "bundle"
        write_bundle(small, out)
        lines = (out / "qa.tsv").read_text().splitlines()
        qid = lines[0].split("\t")[0]
        (out / "qa.tsv").write_text("\n".join(lines[1:]) + "\n")
        with pytest.raises(DataFormatError, match=rf"qa\.tsv: no row for query id '{qid}'"):
            load_bundle(out)

    def test_query_without_clusters_row_is_data_format_error(self, tmp_path, small):
        out = tmp_path / "bundle"
        write_bundle(small, out)
        lines = (out / "clusters.tsv").read_text().splitlines()
        kept = [line for line in lines if not line.startswith("query\tq0001\t")]
        assert len(kept) == len(lines) - 1
        (out / "clusters.tsv").write_text("".join(f"{line}\n" for line in kept))
        with pytest.raises(
            DataFormatError, match=r"clusters\.tsv: no row for query id 'q0001'"
        ):
            load_bundle(out)

    def test_byte_not_utf8_is_data_format_error(self, tmp_path, small):
        """A byte that is not UTF-8, in any file of the bundle, is named by
        its file and line."""
        clean = tmp_path / "clean"
        write_bundle(small, clean)
        names = sorted(p.relative_to(clean) for p in clean.rglob("*") if p.is_file())
        assert len(names) == 13
        for k, name in enumerate(names):
            out = tmp_path / f"bundle{k}"
            write_bundle(small, out)
            lines = (out / name).read_bytes().split(b"\n")
            lineno = min(2, len(lines) - 1)  # meta.json is one line
            lines[lineno - 1] = lines[lineno - 1][:3] + b"\xfe" + lines[lineno - 1][3:]
            (out / name).write_bytes(b"\n".join(lines))
            with pytest.raises(DataFormatError) as exc:
                load_bundle(out)
            assert str(exc.value).startswith(f"{out / name}:{lineno}: not UTF-8: "), name
            assert "can't decode byte 0xfe" in str(exc.value)

    @pytest.mark.parametrize("name", ["positives.tsv", "labels.tsv"])
    def test_repeated_pair_is_data_format_error(self, tmp_path, small, name):
        out = tmp_path / "bundle"
        write_bundle(small, out)
        text = (out / name).read_text()
        first = text.split("\n")[0]
        (out / name).write_text(f"{first}\n{text}")
        iid = first.split("\t")[1]
        kind = "positive" if name == "positives.tsv" else "labeled"
        with pytest.raises(
            DataFormatError, match=re.escape(f"{name}:2: duplicate {kind} item id {iid!r}")
        ):
            load_bundle(out)

    def test_crlf_bundle_loads_as_written(self, tmp_path, small):
        clean, crlf, again = tmp_path / "clean", tmp_path / "crlf", tmp_path / "again"
        write_bundle(small, clean)
        write_bundle(small, crlf)
        for path in crlf.rglob("*.tsv"):
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        write_bundle(load_bundle(crlf), again)
        assert file_digests(again) == file_digests(clean)

    @pytest.mark.parametrize("sep", ["\x0c", "\x85", "\u2028"])
    def test_an_item_id_with_another_line_break_round_trips(self, tmp_path, small, sep):
        out, again = tmp_path / "bundle", tmp_path / "again"
        renamed = write_renamed(small, out, sep)
        back = load_bundle(out)
        assert [item.id for item in back.items] == [renamed(item.id) for item in small.items]
        assert back.positives == {q: list(map(renamed, ids)) for q, ids in small.positives.items()}
        write_bundle(back, again)
        assert file_digests(again) == file_digests(out)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda line: line.split(b"\t")[0] + b"\tnope", "unknown item id 'nope'"),
            (lambda line: line + b"\tx", "expected 2 tab-separated fields, got 3"),
            (lambda line: b"\xfe" + line, "not UTF-8: "),
        ],
    )
    def test_every_error_counts_lines_at_newline(self, tmp_path, small, edit, message):
        """An id holding U+2028 on an earlier line moves no error's line."""
        out = tmp_path / "bundle"
        write_renamed(small, out, "\u2028")
        path = out / "positives.tsv"
        lines = path.read_bytes().split(b"\n")
        assert "\u2028".encode() in lines[0]
        lines[2] = edit(lines[2])
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(DataFormatError, match=re.escape(f"{path}:3: {message}")):
            load_bundle(out)

    def test_single_cluster_bundle_connected(self):
        bundle = synth_bundle(
            SynthSpec(num_queries=6, num_items=10, num_clusters=1, graph_size=12, seed=3)
        )
        assert connected_components(bundle.graph) == 1
        # Single-cluster bundles still need negative labels for training.
        assert any(not flag for _, _, flag in bundle.labels)


# The SHA-256 of every file write_bundle writes, as the per-value writers
# and the per-item noise draws made them: three default bundles, one with
# distractors and one single-cluster bundle (its "d_far" item).
PINNED_SPECS = {
    "seed42": SynthSpec(seed=42),
    "seed100042": SynthSpec(seed=100042),
    "seed200042": SynthSpec(seed=200042),
    "noisy": SynthSpec(noise_frac=0.2, seed=7),
    "one_cluster": SynthSpec(num_clusters=1, seed=3),
}
PINNED_SHA256 = {
    "seed42": {
        "clusters.tsv": "d1f8e0dd2de7845d897db16a0f8443b7a6d6086619a3f0aa95b8dfe54f362e61",
        "confidence.tsv": "ac8a467513284d9a19259f6dae10ab97a244709b4f53038d4e19ab7b8c17e5ba",
        "gating.tsv": "687b75eec8abbbad400addbd8c8c9e51e4482dde1bd98d6e8102eb388ccf6e71",
        "graph/edges.tsv": "af653992a9be913d5fd5b83e53111945e278efd97a2b82e22c1b0592bf844492",
        "graph/triplets.tsv": "1d3e327e7976b52bef586c047548547d2edcdbf5c1ed15941b8767648417e4b5",
        "graph/vertices.tsv": "bcfd387b76505f0d48037e233069850da64c3df73e3a713d076aa4a6bc0e24ea",
        "items.tsv": "9d9d49e33cca358d1e0cf451139ae7f53cf906e471a006ebf427f08fe1bb762d",
        "labels.tsv": "aa0a9b1bef5c7f538c33f09d4755ffe726c7c9be458b00eab8b650cb48cd0194",
        "meta.json": "d98990b523c3c72406dc6cf7253b08e782ace8f48c995cac7872e0a76967ff3f",
        "positives.tsv": "69603730b61288543977d4b41ae96c68274b3055a706eb4bda44388194e131be",
        "qa.tsv": "5ac7ffe0a165719e7196f8cd13aae39a9d1a6819b8ae5a75e524733d7695af2c",
        "queries.tsv": "d2cb0f0f7c1147c7adbe075e6d7b7a909dbf70a5d1b04c72f5ec4d9b26871981",
        "vocab.tsv": "3a0354dc5f2f8f3907c515ad00cee2d521e861fbd4ceeaa68e07e4b60d18439f",
    },
    "seed100042": {
        "clusters.tsv": "d1f8e0dd2de7845d897db16a0f8443b7a6d6086619a3f0aa95b8dfe54f362e61",
        "confidence.tsv": "13b893694fb71fdf1934ad48052dc9e64091557a5f32f7af3ba73b9d4973c1b3",
        "gating.tsv": "687b75eec8abbbad400addbd8c8c9e51e4482dde1bd98d6e8102eb388ccf6e71",
        "graph/edges.tsv": "7e44228cd011fde30d602ba3835bde4afbd881c402673dfef03330273014f7d4",
        "graph/triplets.tsv": "1d3e327e7976b52bef586c047548547d2edcdbf5c1ed15941b8767648417e4b5",
        "graph/vertices.tsv": "45eb23dec6e5b7d112fbb44db103fe5949d5c99e0109e9c385055ca00582c4ba",
        "items.tsv": "299f93bda136fe78f630c643f07b73f3b40caa67e3d02f80331659de9a9cb936",
        "labels.tsv": "54d079a9da5023fcdba68bf70ffd60397058b0a3d3496d4c13dcc2c7230bf030",
        "meta.json": "5c914497009f2df89d6b068c368ceb6f8d79f4654e8eb63a7847ca2cc2b3813c",
        "positives.tsv": "753368e9bf560e65d1f36a1cbf07a86e58410f850b907183be26d6e2aa4dbd7f",
        "qa.tsv": "5ac7ffe0a165719e7196f8cd13aae39a9d1a6819b8ae5a75e524733d7695af2c",
        "queries.tsv": "ff53d0dd321e9cebfddc44da544f0f7f260b16ce97269c6f29b90f8e7a4ddbc5",
        "vocab.tsv": "df08869241e029aa62d780d767bb0d78dd9c8817cbf4ce5745ec896833a9c6ca",
    },
    "seed200042": {
        "clusters.tsv": "d1f8e0dd2de7845d897db16a0f8443b7a6d6086619a3f0aa95b8dfe54f362e61",
        "confidence.tsv": "e658f9d2ff09289930714b69801fdccb4cc5f6215d501709e361115b0900b472",
        "gating.tsv": "687b75eec8abbbad400addbd8c8c9e51e4482dde1bd98d6e8102eb388ccf6e71",
        "graph/edges.tsv": "2f6df678742061789dc5806227aa55cbc8b16fe008789c50d801f088494d51c0",
        "graph/triplets.tsv": "1d3e327e7976b52bef586c047548547d2edcdbf5c1ed15941b8767648417e4b5",
        "graph/vertices.tsv": "31d493547b082f8efc82cd94fda625bacf1431178dba32da50392bc0baa52da9",
        "items.tsv": "0b499d1b8dc808919812de1dbce8ff0ae0d52857fd7faf08d58bbb745567a08c",
        "labels.tsv": "59cab6d943c47adde3a7bbfd286f22c75599ad1a3e0c59ab8d4cd318f34a0090",
        "meta.json": "1bcd3383320b884a9af3fa878e7627522ca966f9d903429e4b52924505109a9d",
        "positives.tsv": "b773487cb1381ef47b750e42a989333350b910b8d4afc2a30f9dda491535adf5",
        "qa.tsv": "5ac7ffe0a165719e7196f8cd13aae39a9d1a6819b8ae5a75e524733d7695af2c",
        "queries.tsv": "143dcbec65bc4263c9ce1f6eca9b4fd553f416d7a6341e4d035572a04741e03a",
        "vocab.tsv": "f3ff4ad17ad60ee2eea9e65068054ad61d93703e8c35fcd8831b33b1ee76cbe8",
    },
    "noisy": {
        "clusters.tsv": "848439e7dfa8b549e657071089effb0c21c62bdc58ab46f38366b07d3857d0fb",
        "confidence.tsv": "604b43135f4528e9f8c1424d38531149cea9439be153862fb56c0c8736e51768",
        "gating.tsv": "687b75eec8abbbad400addbd8c8c9e51e4482dde1bd98d6e8102eb388ccf6e71",
        "graph/edges.tsv": "45d551c6a198a9f22733cbb1342a726d2ffc30475f013e8ee2862419e0272ac5",
        "graph/triplets.tsv": "1d3e327e7976b52bef586c047548547d2edcdbf5c1ed15941b8767648417e4b5",
        "graph/vertices.tsv": "3d7adf269601e2ae016d0ece23104abe41fb8e3e174c423136e06f8dcb5df703",
        "items.tsv": "46015bea29e437d1b8eee88d70480974dba5c845a6d5bdda1737e2c46d663eb1",
        "labels.tsv": "68d5616c1ae4b10b6d2ffab26508006c0df7b574bbf2260567dc4abb735cf2c0",
        "meta.json": "7f877311f9221e8dc997649682251e8989f181eb63a1a6114131305a0a090096",
        "positives.tsv": "85cf99d6a5940839daf65274eb121ff9765b75123bb34954c9e545e89fb170d4",
        "qa.tsv": "5ac7ffe0a165719e7196f8cd13aae39a9d1a6819b8ae5a75e524733d7695af2c",
        "queries.tsv": "8f3c6921fb5c5bb559608ee710cbdcb0130bbf2ece624388fc915fba26cdf3e6",
        "vocab.tsv": "1e28b553f3fda29554e54e29185111c94eb7ccc4100cea29b06dcb13c549f29f",
    },
    "one_cluster": {
        "clusters.tsv": "a0fbcf7da53cc6aecdb5d16c2483faff0b25997ca3f72b1e3165c6428508ba45",
        "confidence.tsv": "26a73cbf870fff39879161f9972e3528cf82ad8dfac7858cf3c12975cfaa8202",
        "gating.tsv": "687b75eec8abbbad400addbd8c8c9e51e4482dde1bd98d6e8102eb388ccf6e71",
        "graph/edges.tsv": "2248bca474161deb7563fb28dc0b946abd1d3714afea9df864213024469a2431",
        "graph/triplets.tsv": "90f963d154335aa9f853d56e5d356eebe9948ebf8bf91dade8b353647df0adee",
        "graph/vertices.tsv": "bc2e5778aa4847eae9c8748f1aa16ea2e75bc536912d35643422872fe2cfd366",
        "items.tsv": "3340c288d3b891ce29f382d17fd0594c173969cd20a70d4811d7260be4a8afd4",
        "labels.tsv": "00fa5bc8bd5dffd4180d3f57f5f3df2f052acdbfdf335dda8fbb2ff7c28435ad",
        "meta.json": "f0ae9addbb925a76cabc94e270e59b1eea9dcc3641e8b2c3996d1c29786369cf",
        "positives.tsv": "8ee4d06224c1f711f59dd330a11a4556891f367db143042acaf81c21f9b64832",
        "qa.tsv": "77b680b4b3c3265817613374225b280e985e32d10a39d4093eaffcd27dcbb26c",
        "queries.tsv": "27002ec6bce9389fd9c386064517e8e93aa20c8f87ff4f99e1720818ffd0a1c9",
        "vocab.tsv": "9aef7f0eb0d0f55e5a12465c0f9ef8b4e50264b5a6ed55cc1978225b110566c1",
    },
}


def file_digests(out) -> dict[str, str]:
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


class TestPinnedBundles:
    @pytest.mark.parametrize("name", PINNED_SPECS)
    def test_written_files_keep_their_bytes(self, tmp_path, name):
        write_bundle(synth_bundle(PINNED_SPECS[name]), tmp_path)
        assert file_digests(tmp_path) == PINNED_SHA256[name]

    @pytest.mark.parametrize("name", PINNED_SPECS)
    def test_loaded_arrays_are_the_per_line_parse(self, tmp_path, name):
        bundle = synth_bundle(PINNED_SPECS[name])
        write_bundle(bundle, tmp_path)
        back = load_bundle(tmp_path)
        assert_same_records(back.items, per_line_records(tmp_path / "items.tsv"))
        assert_same_records(back.queries, per_line_records(tmp_path / "queries.tsv"))
        assert_same_records(
            back.graph.vertices, per_line_records(tmp_path / "graph" / "vertices.tsv")
        )
        # Shortest round-trip decimals read back as the synthesized bits.
        assert_same_records(back.items, bundle.items)
        assert_same_records(back.queries, bundle.queries)
        assert_same_records(back.graph.vertices, bundle.graph.vertices)
        assert back.confidence.keys() == bundle.confidence.keys()
        for qid, scores in bundle.confidence.items():
            assert np.array_equal(back.confidence[qid], scores)
        assert np.array_equal(back.token_embeddings, bundle.token_embeddings)
        assert back.graph.edges == bundle.graph.edges
        assert back.relevance == bundle.relevance
