"""The pinned seed-42 benchmark digest, checked in tier 1: one ``train``
unit of ``perfbench/bench.py`` on the first bundle must reproduce
``perfbench/digests.json`` bit for bit.  Both files are read as they are."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_seed42_train_unit_matches_pinned_digest(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench

    run = bench.Run("train", bench.PINNED_SEED, tmp_path, sample=False)
    inp = run.inputs[0]
    bundle = run.setup(inp)
    components = run.train(inp, bundle)
    run.evaluate(inp, components, bundle)
    assert run.failures.total == 0, run.failures.messages
    assert inp.digest() == bench.pinned_digests()["train"][0]
