"""End-to-end command-line checks: record streams, artifacts, exit codes,
and error categories."""

import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyperrag import spectral
from hyperrag.alignment import nearest_rows
from hyperrag.cli import load_config, main
from hyperrag.errors import ConfigurationError, HyperRagError
from hyperrag.geometry import distances_to_rows
from hyperrag.io import load_table
from hyperrag.pipeline import PipelineConfig, answer_query, run_training
from hyperrag.synth import load_bundle, write_bundle

from conftest import set_field
from test_pipeline import (
    DIVERGING_EVIDENCE_CONFIG,
    UNLIFTABLE_QUERY_CONFIG,
    diverging_evidence_bundle,
    unliftable_query_bundle,
)

TINY_CONFIG = {
    "dim": 8,
    "epochs": 3,
    "batch_size": 6,
    "seed": 2,
    "crm_epochs": 5,
    "crm_hidden": 8,
    "crm_batch_size": 4,
    "k": 3,
    "top_k": 4,
    "lr": 0.05,
}
SYNTH_ARGS = [
    "--queries", "12", "--items", "30", "--clusters", "3",
    "--graph-size", "18", "--seed", "9",
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert main(["synth", *SYNTH_ARGS, "--out", str(root / "bundle")]) == 0
    (root / "cfg.json").write_text(json.dumps(TINY_CONFIG))
    return root


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.strip().splitlines()]


def base_args(workdir) -> list[str]:
    return ["--bundle", str(workdir / "bundle"), "--config", str(workdir / "cfg.json")]


BUNDLE_TABLES = [
    "items.tsv",
    "queries.tsv",
    "positives.tsv",
    "labels.tsv",
    "gating.tsv",
    "confidence.tsv",
    "qa.tsv",
    "vocab.tsv",
    "clusters.tsv",
    "graph/vertices.tsv",
    "graph/edges.tsv",
    "graph/triplets.tsv",
]
# Values that are malformed, out of range, or valid ids of another row.
FUZZ_VALUES = [
    "", "nan", "inf", "-inf", "-1", "0", "99", "1e308", "-0.5", "1,2", "x",
    "audio", "pos", "needs_retrieval", "q0000", "q9999", "i0000", "i9999",
    "n0000", "n0001", "n9999", "textual", "graph_triplet",
]

CONFIG_KEYS = [f.name for f in fields(PipelineConfig)]
# Extreme floats, zeros, negatives and values of the wrong type.  Large
# integers are left out: a huge dim or epoch count is valid, only slow.
CONFIG_FUZZ_VALUES = [
    1e308, -1e308, 5e-324, -5e-324, 1e-300, math.inf, -math.inf, math.nan,
    0, 0.0, -0.0, -1, -1.0, -0.5, 0.5, 1, 1.0, 2, 0.999999, 1.000001,
    "x", "1", None, True, False, [], {}, [1.0],
]
EXIT_CODES = {
    cls.category: cls.exit_code for cls in [HyperRagError, *HyperRagError.__subclasses__()]
}


class TestConfigLoading:
    def test_defaults_without_file(self):
        assert load_config(None, None) == load_config(None, None)
        assert load_config(None, 7).seed == 7

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"learning_rate": 0.1}')
        with pytest.raises(ConfigurationError):
            load_config(str(path), None)

    def test_wrong_type_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"epochs": 2.5}')
        with pytest.raises(ConfigurationError):
            load_config(str(path), None)

    @pytest.mark.parametrize("text", ['{"rho": NaN}', '{"epsilon": Infinity}', '{"seed": -1}'])
    def test_non_finite_float_or_negative_seed_rejected(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ConfigurationError):
            load_config(str(path), None)

    def test_negative_seed_override_rejected(self):
        with pytest.raises(ConfigurationError):
            load_config(None, -1)

    def test_int_accepted_for_float_field(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text('{"rho": 2}')
        assert load_config(str(path), None).rho == 2.0


class TestConfigDocs:
    def test_readme_table_lists_every_key_with_its_default(self):
        text = (Path(__file__).parents[1] / "README.md").read_text()
        section = text.split("### Configuration schema", 1)[1].split("\n#", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \| ([^|\s]+) \|", section, re.M)
        assert [key for key, _ in rows] == [f.name for f in fields(PipelineConfig)]
        for (key, default), f in zip(rows, fields(PipelineConfig)):
            assert type(f.default)(default) == f.default, key


class TestSynth:
    def test_meta_record_and_reproducible_bytes(self, workdir, capsys):
        code, out, _ = run_cli(["synth", *SYNTH_ARGS, "--out", str(workdir / "again")], capsys)
        assert code == 0
        (meta,) = records(out)
        assert meta["num_queries"] == 12 and meta["num_items"] == 30

        first = workdir / "bundle"
        second = workdir / "again"
        names = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
        assert names == sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_missing_out_is_config_error(self, capsys):
        code, _, err = run_cli(["synth", *SYNTH_ARGS], capsys)
        assert code == 3
        assert json.loads(err)["category"] == "config"


class TestStageCommands:
    def test_align_one_record_per_epoch(self, workdir, capsys):
        code, out, _ = run_cli(["align", *base_args(workdir)], capsys)
        assert code == 0
        recs = records(out)
        assert [r["epoch"] for r in recs] == [1, 2, 3]
        assert all(r["geo_loss"] > 0 for r in recs)

    def test_align_saves_table(self, workdir, capsys):
        out_dir = workdir / "align_out"
        code, out, _ = run_cli(["align", *base_args(workdir), "--out", str(out_dir)], capsys)
        assert code == 0
        table = load_table(out_dir / "table.npz")
        assert table.dim == TINY_CONFIG["dim"]
        stream = (out_dir / "align.jsonl").read_text()
        assert stream == out

    def test_crm_epochs_then_theta(self, workdir, capsys):
        code, out, _ = run_cli(["crm", *base_args(workdir)], capsys)
        assert code == 0
        recs = records(out)
        assert len(recs) == TINY_CONFIG["crm_epochs"] + 1
        final = recs[-1]
        assert 0.0 <= final["theta"] <= 1.0
        assert final["theta_accuracy"] >= 0.99

    def test_refine_selects_feasible_subgraph(self, workdir, capsys):
        code, out, _ = run_cli(["refine", *base_args(workdir)], capsys)
        assert code == 0
        (rec,) = records(out)
        assert rec["selected"]
        assert rec["relevance_mass"] >= rec["eta"] - 1e-9
        assert rec["objective"] >= 0.0
        assert rec["fallback_used"] is False

    def test_refine_unknown_query_is_config_error(self, workdir, capsys):
        code, _, err = run_cli(
            ["refine", *base_args(workdir), "--query", "nope"], capsys
        )
        assert code == 3
        assert json.loads(err)["category"] == "config"

    def test_refine_matches_answer_subgraph(self, workdir, capsys):
        bundle = load_bundle(workdir / "bundle")
        components, _ = run_training(PipelineConfig(**TINY_CONFIG), bundle)
        query, result = next(
            (q, res) for q in bundle.queries if (res := answer_query(components, q)).delta == 1
        )
        code, out, _ = run_cli(["refine", *base_args(workdir), "--query", query.id], capsys)
        assert code == 0
        (rec,) = records(out)
        assert rec["selected"] == list(result.subgraph.selected)
        u, v, _ = bundle.graph.edge_arrays()
        inside = result.subgraph.indicator > 0
        assert rec["induced_edges"] == int(np.sum(inside[u] & inside[v])) > 0

    def test_cheeger_bound_holds(self, workdir, capsys):
        code, out, _ = run_cli(["cheeger", *base_args(workdir)], capsys)
        assert code == 0
        (rec,) = records(out)
        assert rec["bound_holds"] is True
        assert rec["sweep_conductance"] <= rec["bound"] + 1e-12

    @pytest.mark.parametrize("weight", [None, "1e17"])
    def test_cheeger_sweep_matches_conductance_of_each_prefix(
        self, workdir, tmp_path, capsys, weight
    ):
        # One heavy edge must not cancel the light ones in the sweep cuts.
        bundle = tmp_path / "bundle"
        shutil.copytree(workdir / "bundle", bundle)
        if weight is not None:
            set_field(bundle / "graph" / "edges.tsv", 1, 2, weight)
        code, out, _ = run_cli(["cheeger", "--bundle", str(bundle)], capsys)
        assert code == 0
        (rec,) = records(out)
        graph = load_bundle(bundle).graph
        _, vecs = spectral.smallest_eigenpairs(spectral.normalized_laplacian(graph), 2)
        y = vecs[:, 1] / np.sqrt(graph.degrees)
        order = spectral.SweepKeys(y[:, None]).orders(np.zeros(graph.size))[0]
        ids = [vert.id for vert in graph.vertices]
        best = min(
            spectral.conductance(graph, [ids[i] for i in order[:s]]) for s in range(1, graph.size)
        )
        assert rec["sweep_conductance"] == pytest.approx(best, rel=1e-9)
        if weight is None:
            assert rec["sweep_conductance"] == pytest.approx(0.0089639, rel=1e-5)

    def test_gen_memorizes_tiny_bundle(self, workdir, capsys):
        code, out, _ = run_cli(["gen", *base_args(workdir)], capsys)
        assert code == 0
        recs = records(out)
        assert recs[-1]["exact_match"] == 1.0
        epochs = [r for r in recs if "epoch" in r]
        assert epochs[-1]["blended"] < epochs[0]["blended"]


class TestEndToEndCommands:
    def test_train_all_records_and_artifact(self, workdir, capsys):
        out_dir = workdir / "train_out"
        code, out, _ = run_cli(["train-all", *base_args(workdir), "--out", str(out_dir)], capsys)
        assert code == 0
        recs = records(out)
        assert [r["step"] for r in recs] == [1, 2, 3]
        for rec in recs:
            expected = 0.3 * rec["l_crm"] + 0.3 * rec["l_geo"] + 0.4 * rec["l_gen"]
            assert rec["l_total"] == pytest.approx(expected, abs=1e-9)
        assert load_table(out_dir / "table.npz").dim == TINY_CONFIG["dim"]
        assert (out_dir / "train_all.jsonl").read_text() == out

    def test_train_all_deterministic(self, workdir, capsys):
        _, first, _ = run_cli(["train-all", *base_args(workdir)], capsys)
        _, second, _ = run_cli(["train-all", *base_args(workdir)], capsys)
        assert first == second

    def test_answer_gated_query(self, workdir, capsys):
        code, out, _ = run_cli(
            ["answer", *base_args(workdir), "--query", "q0002"], capsys
        )
        assert code == 0
        (rec,) = records(out)
        assert rec["delta"] in (0, 1)
        assert len(rec["tokens"]) == 3
        if rec["delta"] == 0:
            assert rec["retrieved"] == [] and rec["subgraph"] is None
        assert "gate" in rec["timings"] and "generate" in rec["timings"]

    def test_eval_reports_and_crm_toggle(self, workdir, capsys):
        code, out_on, _ = run_cli(["eval", *base_args(workdir)], capsys)
        assert code == 0
        code, out_off, _ = run_cli(["eval", *base_args(workdir), "--no-crm"], capsys)
        assert code == 0
        (on,), (off,) = records(out_on), records(out_off)
        assert on["crm_enabled"] is True and off["crm_enabled"] is False
        assert 0.0 <= on["accuracy"] <= 1.0
        assert on["retrieval_precision"] >= off["retrieval_precision"]

    def test_bench_emits_phase_records(self, workdir, capsys):
        code, out, _ = run_cli(["bench", *base_args(workdir)], capsys)
        assert code == 0
        recs = records(out)
        assert [r["phase"] for r in recs] == ["bundle", "train", "answer", "eval"]
        assert all(r["seconds"] >= 0 for r in recs)
        answer = recs[2]
        assert 0 < answer["retrieve_path_answers"] <= answer["queries"]
        assert 0 < answer["retrieve_path_p50_s"] <= answer["retrieve_path_p90_s"]
        stages = answer["stage_mean_s"]
        assert sorted(stages) == ["filter", "gate", "generate", "refine", "retrieve"]
        assert all(seconds >= 0 for seconds in stages.values())


class TestConformanceCommand:
    def test_filtered_run_prints_table(self, workdir, capsys):
        out_dir = workdir / "conf_out"
        code, out, _ = run_cli(
            ["conformance", "run", "--filter", "transport", "--out", str(out_dir)],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1].endswith("oracle cases passed")
        stream = [json.loads(l) for l in (out_dir / "conformance.jsonl").read_text().splitlines()]
        assert all(rec["passed"] for rec in stream)
        assert all("transport" in rec["case"] for rec in stream)

    def test_empty_filter_is_config_error(self, capsys):
        code, _, err = run_cli(["conformance", "run", "--filter", "zzz"], capsys)
        assert code == 3
        assert json.loads(err)["category"] == "config"


class TestErrorSurface:
    def test_missing_bundle_is_data_format_error(self, capsys):
        code, _, err = run_cli(["cheeger", "--bundle", "/no/such/dir"], capsys)
        assert code == 8
        assert json.loads(err)["category"] == "data_format"

    def test_bad_meta_is_data_format_error(self, workdir, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        shutil.copytree(workdir / "bundle", bundle)
        meta = json.loads((bundle / "meta.json").read_text())
        del meta["num_clusters"]
        (bundle / "meta.json").write_text(json.dumps(meta))
        code, _, err = run_cli(["cheeger", "--bundle", str(bundle)], capsys)
        assert code == 8
        record = json.loads(err)
        assert record["category"] == "data_format"
        assert "meta.json" in record["message"] and "num_clusters" in record["message"]

    def test_unknown_label_item_is_data_format_error(self, workdir, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        shutil.copytree(workdir / "bundle", bundle)
        lines = (bundle / "labels.tsv").read_text().splitlines()
        qid, _, flag = lines[0].split("\t")
        lines[0] = f"{qid}\tnope\t{flag}"
        (bundle / "labels.tsv").write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(
            ["crm", "--bundle", str(bundle), "--config", str(workdir / "cfg.json")], capsys
        )
        assert code == 8
        record = json.loads(err)
        assert record["category"] == "data_format"
        assert "labels.tsv:1" in record["message"] and "'nope'" in record["message"]

    def test_query_without_qa_row_is_data_format_error(self, workdir, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        shutil.copytree(workdir / "bundle", bundle)
        lines = (bundle / "qa.tsv").read_text().splitlines()
        qid = lines[0].split("\t")[0]
        (bundle / "qa.tsv").write_text("\n".join(lines[1:]) + "\n")
        code, _, err = run_cli(["cheeger", "--bundle", str(bundle)], capsys)
        assert code == 8
        record = json.loads(err)
        assert record["category"] == "data_format"
        assert "qa.tsv" in record["message"] and repr(qid) in record["message"]

    def test_query_without_clusters_row_is_data_format_error(self, workdir, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        shutil.copytree(workdir / "bundle", bundle)
        lines = (bundle / "clusters.tsv").read_text().splitlines()
        kept = [line for line in lines if not line.startswith("query\tq0003\t")]
        assert len(kept) == len(lines) - 1
        (bundle / "clusters.tsv").write_text("".join(f"{line}\n" for line in kept))
        code, _, err = run_cli(["cheeger", "--bundle", str(bundle)], capsys)
        assert code == 8
        record = json.loads(err)
        assert record["category"] == "data_format"
        assert "clusters.tsv" in record["message"] and "'q0003'" in record["message"]

    @pytest.mark.parametrize(
        "name, column, value",
        [
            ("graph/triplets.tsv", 0, "vnope"),
            ("graph/edges.tsv", 1, "vnope"),
            ("graph/edges.tsv", 2, "-1.0"),
            ("graph/edges.tsv", 2, "1e308"),
            ("graph/vertices.tsv", 2, "nan"),
            ("graph/vertices.tsv", 2, "1,2"),
            ("items.tsv", 1, "audio"),
            ("items.tsv", 2, "nan"),
            ("queries.tsv", 2, "nan"),
            ("queries.tsv", 1, "1,2"),
            ("qa.tsv", 1, "99"),
        ],
    )
    def test_bad_row_is_data_format_error_naming_line(
        self, workdir, tmp_path, capsys, name, column, value
    ):
        bundle = tmp_path / "bundle"
        shutil.copytree(workdir / "bundle", bundle)
        set_field(bundle / name, 2, column, value)
        code, _, err = run_cli(["cheeger", "--bundle", str(bundle)], capsys)
        assert code == 8
        record = json.loads(err)
        assert record["category"] == "data_format"
        assert f"{bundle / name}:2: " in record["message"]

    @pytest.mark.parametrize(
        "name, lineno, column, value",
        [
            # Line 3 holds the bundle's second visual item.
            ("items.tsv", 3, 2, "1e-320"),
            ("queries.tsv", 2, 1, "-0.5"),
        ],
    )
    def test_feature_width_under_eval_is_data_format_error(
        self, workdir, tmp_path, capsys, name, lineno, column, value
    ):
        bundle = tmp_path / "bundle"
        shutil.copytree(workdir / "bundle", bundle)
        set_field(bundle / name, lineno, column, value)
        code, _, err = run_cli(["eval", *self.eval_args(workdir, bundle)], capsys)
        assert code == 8, err
        record = json.loads(err)
        assert record["category"] == "data_format"
        assert f"{bundle / name}:{lineno}: " in record["message"]

    @pytest.mark.parametrize("name, kind", [("queries.tsv", "query"), ("items.tsv", "item")])
    def test_duplicate_id_under_eval_is_data_format_error(
        self, workdir, tmp_path, capsys, name, kind
    ):
        """Line 2 takes line 1's id, and every row naming its own id is
        dropped, so the repeated id is the only fault in the bundle."""
        bundle = tmp_path / "bundle"
        shutil.copytree(workdir / "bundle", bundle)
        lines = (bundle / name).read_text().splitlines()
        first, second = (line.split("\t")[0] for line in lines[:2])
        set_field(bundle / name, 2, 0, first)
        for other in ["positives.tsv", "labels.tsv", "gating.tsv", "confidence.tsv", "qa.tsv",
                      "clusters.tsv"]:
            lines = (bundle / other).read_text().splitlines()
            kept = [line for line in lines if second not in line.split("\t")]
            (bundle / other).write_text("".join(f"{line}\n" for line in kept))
        code, _, err = run_cli(["eval", *self.eval_args(workdir, bundle)], capsys)
        assert code == 8, err
        record = json.loads(err)
        assert record["category"] == "data_format"
        assert f"{bundle / name}:2: duplicate {kind} id {first!r}" in record["message"]

    @pytest.mark.parametrize(
        "name, key_columns",
        [("qa.tsv", [0]), ("gating.tsv", [0]), ("clusters.tsv", [0, 1]),
         ("confidence.tsv", [0, 1]), ("positives.tsv", [0, 1]), ("labels.tsv", [0, 1])],
    )
    def test_repeated_row_id_is_data_format_error(
        self, workdir, tmp_path, capsys, name, key_columns
    ):
        """Line 2 takes line 1's id (its query, (kind, id), (query,
        candidate) or (query, item)), so line 2 is the second row of that id."""
        bundle = tmp_path / "bundle"
        shutil.copytree(workdir / "bundle", bundle)
        first = (bundle / name).read_text().splitlines()[0].split("\t")
        for column in key_columns:
            set_field(bundle / name, 2, column, first[column])
        code, _, err = run_cli(["eval", *self.eval_args(workdir, bundle)], capsys)
        assert code == 8, err
        record = json.loads(err)
        assert record["category"] == "data_format"
        assert f"{bundle / name}:2: duplicate " in record["message"]

    @pytest.mark.parametrize(
        "command, name",
        [("cheeger", "labels.tsv"), ("eval", "labels.tsv"), ("eval", "graph/edges.tsv"),
         ("eval", "meta.json"), ("eval", "cfg.json")],
    )
    def test_byte_not_utf8_is_data_format_error(self, workdir, tmp_path, capsys, command, name):
        bundle = tmp_path / "bundle"
        shutil.copytree(workdir / "bundle", bundle)
        shutil.copy(workdir / "cfg.json", tmp_path / "cfg.json")
        path = tmp_path / name if name == "cfg.json" else bundle / name
        path.write_bytes(b"\xff" + path.read_bytes())
        argv = ["--bundle", str(bundle)]
        if command == "eval":
            argv += ["--config", str(tmp_path / "cfg.json")]
        code, _, err = run_cli([command, *argv], capsys)
        assert code == 8, err
        record = json.loads(err)
        assert record["category"] == "data_format"
        assert record["message"].startswith(f"{path}:1: not UTF-8: ")

    def test_graph_triplet_positive_under_eval_is_data_format_error(
        self, workdir, tmp_path, capsys
    ):
        bundle = tmp_path / "bundle"
        shutil.copytree(workdir / "bundle", bundle)
        iid = (bundle / "positives.tsv").read_text().splitlines()[0].split("\t")[1]
        ids = [line.split("\t")[0] for line in (bundle / "items.tsv").read_text().splitlines()]
        set_field(bundle / "items.tsv", ids.index(iid) + 1, 1, "graph_triplet")
        code, _, err = run_cli(["eval", *self.eval_args(workdir, bundle)], capsys)
        assert code == 8, err
        record = json.loads(err)
        assert record["category"] == "data_format"
        assert f"{bundle / 'positives.tsv'}:1: positive {iid!r}" in record["message"]

    def test_diverged_relevance_head_is_divergence_error(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "crm_lr": 1e300}))
        argv = ["eval", "--bundle", str(workdir / "bundle"), "--config", str(cfg)]
        code, _, err = run_cli(argv, capsys)
        assert code == 5, err
        record = json.loads(err)
        assert record["category"] == "divergence"
        assert "log clamp" in record["message"]

    def test_overflowing_crm_step_is_divergence_without_warnings(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "crm_lr": 1e308}))
        argv = ["crm", "--bundle", str(workdir / "bundle"), "--config", str(cfg)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(argv, capsys)
        assert code == 5, err
        assert json.loads(err)["category"] == "divergence"

    def test_diverged_phase2_step_is_divergence_error(self, workdir, tmp_path, capsys):
        """After a step with ``lr`` 1e308 the parameters are still finite, but
        the next embedding overflows: that is divergence, not a bad point."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "lr": 1e308}))
        argv = ["eval", "--bundle", str(workdir / "bundle"), "--config", str(cfg)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(argv, capsys)
        assert code == 5, err
        record = json.loads(err)
        assert record["category"] == "divergence"
        assert "phase 2 diverged in epoch 1" in record["message"]

    @pytest.mark.parametrize("command", ["train-all", "eval", "answer"])
    def test_diverged_final_table_is_divergence_error(self, workdir, tmp_path, capsys, command):
        """With ``lr`` 1e28 the last step leaves a table that no longer lifts:
        training's final index build reports it, before any answer."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "lr": 1e28}))
        argv = [command, "--bundle", str(workdir / "bundle"), "--config", str(cfg)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(argv, capsys)
        assert code == 5, err
        record = json.loads(err)
        assert record["category"] == "divergence"
        assert "phase 2 diverged in epoch 3" in record["message"]
        assert "[stage: phase2 epoch 3 index]" in record["message"]

    @pytest.mark.parametrize("command", ["train-all", "eval"])
    def test_query_that_no_longer_lifts_fails_training_not_its_answer(
        self, tmp_path, capsys, command
    ):
        write_bundle(unliftable_query_bundle(), tmp_path / "bundle")
        (tmp_path / "cfg.json").write_text(json.dumps(UNLIFTABLE_QUERY_CONFIG))
        argv = [command, "--bundle", str(tmp_path / "bundle"),
                "--config", str(tmp_path / "cfg.json")]
        code, _, err = run_cli(argv, capsys)
        assert code == 5, err
        record = json.loads(err)
        assert record["category"] == "divergence"
        assert "[stage: phase2 epoch 1 index]" in record["message"]

    def test_diverged_query_map_in_the_evidence_step_is_divergence(self, tmp_path, capsys):
        write_bundle(diverging_evidence_bundle(), tmp_path / "bundle")
        (tmp_path / "cfg.json").write_text(json.dumps(DIVERGING_EVIDENCE_CONFIG))
        argv = ["train-all", "--bundle", str(tmp_path / "bundle"),
                "--config", str(tmp_path / "cfg.json")]
        code, _, err = run_cli(argv, capsys)
        assert code == 5, err
        record = json.loads(err)
        assert record["category"] == "divergence"
        assert "[stage: phase2 epoch 2 evidence]" in record["message"]

    def test_diverged_finite_table_ranks_by_distance(self, workdir):
        """With ``lr`` 1e16 the table stays finite, but the excess s of every
        query-item distance passes the point where s * (s + 2) overflows:
        the distances stay finite and still rank the corpus."""
        bundle = load_bundle(workdir / "bundle")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            components, _ = run_training(PipelineConfig(**{**TINY_CONFIG, "lr": 1e16}), bundle)
            index = components.read_index()
            query = bundle.queries[0]
            point = components.rows_for(query).row
            dists = distances_to_rows(point, index.corpus_rows)
            order, _ = nearest_rows(
                point, index.corpus_rows, len(components.items), index.corpus_id_key
            )
        assert np.all(np.isfinite(dists)) and dists.min() > 356.0
        assert np.all(np.isfinite(index.corpus_tangents))
        ids = [components.items[i].id for i in order]
        assert ids != sorted(ids)
        assert dists[order].tolist() == sorted(dists.tolist())

    @pytest.mark.parametrize("command", ["train-all", "eval", "answer"])
    def test_diverged_finite_table_answers_without_warnings(
        self, workdir, tmp_path, capsys, command
    ):
        """With ``lr`` 1e16 the read index, corpus tangents included, is
        built from a finite table without a RuntimeWarning: each command
        that trains exits 0."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "lr": 1e16}))
        argv = [command, "--bundle", str(workdir / "bundle"), "--config", str(cfg)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        assert records(out)

    def test_rho_overflowing_edge_weight_is_config_error(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "rho": 1e308}))
        argv = ["eval", "--bundle", str(workdir / "bundle"), "--config", str(cfg)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(argv, capsys)
        assert code == 3, err
        record = json.loads(err)
        assert record["category"] == "config"
        assert "rho=1e+308" in record["message"]

    # Each exit-7 run stops within its first epoch; the exit-0 run trains
    # and evaluates in full (about 3 s).
    @pytest.mark.parametrize("epsilon, want", [(5e-324, 7), (1e-310, 7), (1e-307, 7), (1e-305, 0)])
    def test_tiny_epsilon_is_numerical_error(self, workdir, tmp_path, capsys, epsilon, want):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "epsilon": epsilon}))
        argv = ["eval", "--bundle", str(workdir / "bundle"), "--config", str(cfg)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(argv, capsys)
        assert code == want, err
        if want:
            record = json.loads(err)
            assert record["category"] == "numerical"
            assert f"epsilon {epsilon}" in record["message"]

    def test_solve_stopped_short_of_a_tiny_epsilon_is_numerical_error(
        self, workdir, tmp_path, capsys
    ):
        """With ``ot_max_iter`` 1 the solve stops before its ladder reaches
        epsilon 5e-324, so the solve's own guard never fires; the plan read
        at that epsilon overflows in epoch 3, which is reported, not logged
        as a NaN loss."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "epsilon": 5e-324, "ot_max_iter": 1}))
        argv = ["eval", "--bundle", str(workdir / "bundle"), "--config", str(cfg)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(argv, capsys)
        assert code == 7, err
        record = json.loads(err)
        assert record["category"] == "numerical"
        assert "entropic plan at epsilon 5e-324 is non-finite" in record["message"]
        assert record["message"].endswith("[stage: phase2 epoch 3 generation]")

    @staticmethod
    def eval_args(workdir, bundle) -> list[str]:
        return ["--bundle", str(bundle), "--config", str(workdir / "cfg.json")]

    @classmethod
    def run_fuzzed(cls, workdir, data, command: str) -> None:
        """Edit one field of one row of the bundle and run ``command`` on
        it: it either succeeds or fails as ``data_format`` (exit code 8)."""
        name = data.draw(st.sampled_from(BUNDLE_TABLES))
        lines = (workdir / "bundle" / name).read_text().splitlines()
        lineno = data.draw(st.integers(1, len(lines)))
        column = data.draw(st.integers(0, lines[lineno - 1].count("\t")))
        value = data.draw(
            st.one_of(st.sampled_from(FUZZ_VALUES), st.text("0123456789.,-einqv", max_size=6))
        )
        with tempfile.TemporaryDirectory() as tmp:
            bundle = Path(tmp) / "bundle"
            shutil.copytree(workdir / "bundle", bundle)
            set_field(bundle / name, lineno, column, value)
            argv = cls.eval_args(workdir, bundle) if command == "eval" else ["--bundle", str(bundle)]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, *argv])
        assert code in (0, 8), err.getvalue()
        if code == 8:
            assert json.loads(err.getvalue())["category"] == "data_format"

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_fuzzed_field_exits_cleanly(self, workdir, data):
        self.run_fuzzed(workdir, data, "cheeger")

    # Training and evaluating the tiny bundle takes about 0.15 s per example.
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_fuzzed_field_eval_exits_cleanly(self, workdir, data):
        self.run_fuzzed(workdir, data, "eval")

    # Training and evaluating the tiny bundle takes about 0.15 s per example.
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_fuzzed_config_field_eval_exits_cleanly(self, workdir, data):
        """Set one key of the tiny config (or an unknown one) to an extreme,
        zero, negative or mistyped value: ``eval`` succeeds or fails with a
        categorised error record and its exit code."""
        key = data.draw(st.sampled_from([*CONFIG_KEYS, "unknown_key"]))
        value = data.draw(st.sampled_from(CONFIG_FUZZ_VALUES))
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps({**TINY_CONFIG, key: value}))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["eval", "--bundle", str(workdir / "bundle"), "--config", str(cfg)])
        if code != 0:
            record = json.loads(err.getvalue())
            assert EXIT_CODES[record["category"]] == code, record
        assert "Traceback" not in err.getvalue()

    def test_bad_config_type_exit_code(self, workdir, capsys):
        path = workdir / "bad_cfg.json"
        path.write_text('{"lr": "fast"}')
        code, _, err = run_cli(["cheeger", *base_args(workdir)[:2], "--config", str(path)], capsys)
        assert code == 3
        assert json.loads(err)["category"] == "config"

    def test_invalid_config_values_exit_code(self, workdir, capsys):
        path = workdir / "bad_beta.json"
        path.write_text('{"beta": 0.6, "gamma": 0.6}')
        code, _, err = run_cli(["cheeger", *base_args(workdir)[:2], "--config", str(path)], capsys)
        assert code == 3


class TestConsoleScript:
    def test_python_dash_m_starts_the_cli(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-m", "hyperrag", "--help"], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: hyperrag")

    def test_installed_entry_point(self, tmp_path):
        exe = shutil.which("hyperrag")
        assert exe, "console script not installed"
        proc = subprocess.run(
            [exe, "synth", *SYNTH_ARGS, "--out", str(tmp_path / "b")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["num_queries"] == 12
