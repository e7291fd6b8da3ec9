"""Self-tests of the benchmark harness on a tiny bundle.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import math
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402
import speed  # noqa: E402
from tracing import Tracer  # noqa: E402

from hyperrag import generation, geometry, pipeline, spectral, transport  # noqa: E402

TINY = {"num_queries": 12, "num_items": 40, "num_clusters": 3, "graph_size": 30}
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(section):
    return {m["name"] for m in DECLARED[section]}


def _tiny_run(name, tmp_path, seed=3):
    return bench.Run(name, seed, tmp_path, overrides=TINY)


def test_workloads_match_benchmark_json():
    assert set(bench.WORKLOADS) == {w["name"] for w in DECLARED["workloads"]}


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_every_workload_runs_end_to_end(name, tmp_path):
    run = _tiny_run(name, tmp_path)
    run.timed(0.0)
    assert run.failures.by_category == {}
    assert all(inp.digest() for inp in run.inputs)
    metrics = bench.end_to_end_metrics(run)
    assert set(metrics) == _names("end_to_end")
    assert all(math.isfinite(m["value"]) for m in metrics.values())


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_traced_and_untraced_digests_are_identical(name, tmp_path):
    plain = _tiny_run(name, tmp_path)
    plain.unit(plain.inputs[0])

    traced = _tiny_run(name, tmp_path)
    tracer = Tracer()
    traced.tracer = tracer
    tracer.install(bench.OBSERVERS)
    try:
        traced.unit(traced.inputs[0])
    finally:
        tracer.restore()
    assert tracer.spans
    assert plain.failures.total == traced.failures.total == 0
    assert traced.inputs[0].digest() == plain.inputs[0].digest() is not None


def test_traced_run_reports_every_declared_per_layer_metric(tmp_path):
    run = _tiny_run("train-mixed", tmp_path)
    metrics, _ = bench.traced_run(run, 0.0, DECLARED["per_layer"])
    assert run.failures.total == 0
    assert set(metrics) == _names("per_layer")
    assert all(math.isfinite(m["value"]) for m in metrics.values())
    assert metrics["smallest_eigenpairs.calls"]["value"] == 1
    assert metrics["synth_bundle.calls"]["value"] == 3 * bench.SETUP_REPEATS
    assert metrics["entropic_terms.calls"]["value"] > 0
    assert metrics["transport.gold_atoms.mean"]["value"] > 1


def test_sampler_probes_beside_the_program_and_its_clock_skips_them():
    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler()
    sampler.start()
    try:
        t0, c0 = time.perf_counter(), sampler.clock()
        while time.perf_counter() - t0 < 1.0:
            pass
        wall, program = time.perf_counter() - t0, sampler.clock() - c0
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(sampler.seconds) >= 3
    assert program == pytest.approx(wall - sampler.spent, abs=1e-3)


def test_sampler_scales_by_the_median_probe_around_a_timing():
    sampler = speed.Sampler()
    sampler.starts = [0.0, 0.5, 1.5, 9.0]
    sampler.seconds = [0.006, 0.002, 0.006, 0.001]
    assert sampler.scale(1.0, 1.2) == pytest.approx(speed.REFERENCE_PROBE_S / 0.006)
    assert sampler.scale(20.0, 21.0) == 1.0


def test_untimed_run_metrics_are_raw(tmp_path):
    run = _tiny_run("train", tmp_path)
    run.unit(run.inputs[0])
    assert not run.sampler.seconds
    assert bench.end_to_end_metrics(run) == bench.end_to_end_metrics(run, scaled=False)


def test_functions_never_called_report_zero():
    metrics = bench.per_layer_metrics(Tracer(), 1, 0.0, DECLARED["per_layer"])
    assert set(metrics) == _names("per_layer")
    assert all(m["value"] == 0 for m in metrics.values())


def test_tracer_rebinds_imported_names_and_restores_them():
    originals = {
        (pipeline, "extract_triplets"): spectral.extract_triplets,
        (generation, "entropic_terms"): transport.entropic_terms,
        (spectral, "log_map"): geometry.log_map,
        (generation, "log_map"): geometry.log_map,
        (geometry, "log_map"): geometry.log_map,
    }
    tracer = Tracer()
    tracer.install()
    try:
        for (module, attr), fn in originals.items():
            assert getattr(module, attr) is not fn
            assert getattr(module, attr).__wrapped__ is fn
        geometry.log_map(geometry.origin(2), geometry.origin(2))
        assert tracer.counts["log_map.calls"] == 1
        assert tracer.counts["LorentzPoint.created"] == 2
    finally:
        tracer.restore()
    for (module, attr), fn in originals.items():
        assert getattr(module, attr) is fn


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans = [
        ["outer", 0.0, 10.0, -1, None, True],
        ["inner", 1.0, 4.0, 0, None, True],
        ["inner", 5.0, 6.0, 0, None, True],
    ]
    totals = tracer.function_totals()
    assert totals["outer"] == {"calls": 1, "busy_s": 10.0, "self_s": 6.0}
    assert totals["inner"] == {"calls": 2, "busy_s": 4.0, "self_s": 4.0}


def test_answer_invariants_reject_bad_answers():
    components = SimpleNamespace(token_embeddings=np.zeros((4, 1)), answer_len=2)
    sub = SimpleNamespace(relevance_mass=1.0, eta=0.5, selected=("v1",))

    def result(**kw):
        base = dict(tokens=SimpleNamespace(tokens=(1, 1)), sigma=0.5, delta=1,
                    retrieved_ids=("a", "b"), used_ids=("a",), subgraph=sub)
        return SimpleNamespace(**{**base, **kw})

    bench.check_answer(result(), components)
    bad = [
        result(tokens=SimpleNamespace(tokens=(1,))),
        result(tokens=SimpleNamespace(tokens=(1, 4))),
        result(used_ids=("c",)),
        result(delta=0, subgraph=None),
        result(subgraph=SimpleNamespace(relevance_mass=0.4, eta=0.5, selected=())),
    ]
    for res in bad:
        with pytest.raises(bench.InvariantError):
            bench.check_answer(res, components)


def test_loss_invariant_rejects_non_finite_records():
    good = SimpleNamespace(to_record=lambda: {"step": 1, "l_total": 1.0})
    bad = SimpleNamespace(to_record=lambda: {"step": 2, "l_total": float("nan")})
    bench.check_losses([good])
    with pytest.raises(bench.InvariantError):
        bench.check_losses([good, bad])


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "train",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
