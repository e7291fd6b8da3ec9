"""Structure, determinism, and round-trip tests for the synthetic bundles."""

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

from conftest import set_field

SMALL = SynthSpec(
    num_queries=24, num_items=40, num_clusters=3, graph_size=30, seed=7
)
NOISY = SynthSpec(
    num_queries=24, num_items=40, num_clusters=3, graph_size=30,
    noise_frac=0.2, seed=7,
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
        assert not small.distractor_ids

    def test_distractor_fraction(self, noisy):
        assert len(noisy.distractor_ids) == 8
        assert len(noisy.items) == 40
        assert all(iid.startswith("d") for iid in noisy.distractor_ids)

    def test_every_query_has_positives_in_own_cluster(self, small):
        for q in small.queries:
            c = small.clusters[("query", q.id)]
            pos = small.positives[q.id]
            assert pos
            assert all(small.clusters[("item", iid)] == c for iid in pos)
            assert set(pos) <= small.relevance[q.id]

    def test_relevance_excludes_distractors(self, noisy):
        for q in noisy.queries:
            assert not (noisy.relevance[q.id] & noisy.distractor_ids)

    def test_labels_cover_both_classes(self, noisy):
        flags = {flag for _, _, flag in noisy.labels}
        assert flags == {True, False}
        neg_ids = {iid for _, iid, flag in noisy.labels if not flag}
        assert neg_ids & noisy.distractor_ids

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

    def test_single_cluster_bundle_connected(self):
        bundle = synth_bundle(
            SynthSpec(num_queries=6, num_items=10, num_clusters=1, graph_size=12, seed=3)
        )
        assert connected_components(bundle.graph) == 1
        # Single-cluster bundles still need negative labels for training.
        assert any(not flag for _, _, flag in bundle.labels)
