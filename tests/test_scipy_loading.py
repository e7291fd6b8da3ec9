"""scipy loads only where a run reads it: a whole run on a graph of at most
``DENSE_EIG_CUTOFF`` vertices imports no scipy module, and the calls that
do need scipy still load it on first use.  Each check runs in a fresh
interpreter, since this one has scipy loaded already."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from hyperrag.spectral import DENSE_EIG_CUTOFF

from test_cli import SYNTH_ARGS, TINY_CONFIG

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(script: str, tmp_path) -> dict:
    """Run ``script`` in a new interpreter with ``src`` on the path and
    return the JSON object it prints last."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True, text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# Source of an expression listing the loaded scipy modules.
SCIPY_MODULES = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def test_small_graph_run_imports_no_scipy(tmp_path):
    """CLI import, synth/write/load, training, evaluation and answers with
    and without the gate, all on the 18-vertex CLI test bundle."""
    got = run_fresh(f"""
        import json, sys
        import hyperrag.cli
        from hyperrag.pipeline import PipelineConfig, answer_query, evaluate, run_training
        from hyperrag.synth import load_bundle

        assert hyperrag.cli.main(["synth", *{SYNTH_ARGS!r}, "--out", "bundle"]) == 0
        bundle = load_bundle("bundle")
        components, _ = run_training(PipelineConfig(**{TINY_CONFIG!r}), bundle)
        evaluate(components, bundle)
        ungated = components.with_crm(False)
        retrieved = 0
        for q in bundle.queries:
            answer_query(components, q)
            retrieved += answer_query(ungated, q).delta
        print(json.dumps({{"retrieved": retrieved, "scipy": {SCIPY_MODULES}}}))
    """, tmp_path)
    assert got["retrieved"] > 0
    assert got["scipy"] == []


# Every call that reads scipy, on the 30-vertex graph and, through the
# sparse Laplacian and eigensolver, on a 600-vertex one; run both here and
# in a fresh interpreter.
SCIPY_READERS = """
import numpy as np
from hyperrag.spectral import (
    cheeger_check, connected_components, laplacian, refine_subgraph, smallest_eigenpairs,
)
from hyperrag.synth import SynthSpec, synth_bundle
from hyperrag.transport import EmpiricalDistribution, wasserstein2_exact

small = synth_bundle(SynthSpec(num_queries=4, num_items=12, num_clusters=3, graph_size=30,
                               seed=1)).graph
big = synth_bundle(SynthSpec(graph_size=600, seed=0)).graph
p = EmpiricalDistribution(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.5, 0.5]))
q = EmpiricalDistribution(np.array([[0.0, 2.0]]), np.array([1.0]))
r = np.random.default_rng(1).uniform(size=big.size)
results = {
    "w2": wasserstein2_exact(p, q)[0],
    "cheeger": cheeger_check(small, seed=2).sweep_conductance,
    "components": int(connected_components(small)),
    "sparse_branch": smallest_eigenpairs(laplacian(small), 4, dense_cutoff=0)[0].tolist(),
    "big_size": big.size,
    "big_lap_is_sparse": hasattr(laplacian(big), "tocsr"),
    "big_vals": smallest_eigenpairs(laplacian(big), 5, seed=4)[0].tolist(),
    "big_selected": list(refine_subgraph(big, r, eta=0.2 * r.sum(), k=10, seed=4).selected),
}
"""


def test_scipy_readers_still_load_it(tmp_path):
    """The exact LP, the Cheeger check, component counts and the sparse
    eigensolver load their scipy modules and give what they give here."""
    got = run_fresh(
        "import json, sys\n" + SCIPY_READERS
        + f"print(json.dumps({{**results, 'scipy': {SCIPY_MODULES}}}))",
        tmp_path,
    )
    loaded = got.pop("scipy")
    for module in ("scipy.optimize", "scipy.sparse", "scipy.sparse.csgraph", "scipy.sparse.linalg"):
        assert module in loaded
    here: dict = {}
    exec(SCIPY_READERS, here)
    assert got == here["results"]
    assert got["big_size"] > DENSE_EIG_CUTOFF and got["big_lap_is_sparse"]
