"""Run one hyperrag benchmark workload and print its result.

    python3 perfbench/run.py --workload train --seed 42 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of
``BENCHMARK.json`` with ``--trace 1``.  Lines before it record the
environment, the raw (unscaled) end-to-end metrics and the speed probes,
the failures by category and the output digest.  The exit
code is 0 when every operation succeeded and its outputs were correct,
1 when any failed (the result is still printed), and 2 when the program
cannot be found or the arguments are invalid (no result is printed).
"""

import os

# One BLAS thread, pinned before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
# Scratch bundles and span files; inside the checkout, ignored by git.
OUT_DIR = ROOT / ".perfbench"


def git_commit(root: Path) -> str:
    """HEAD of the checkout; 'unknown' when it is not a git repository or
    git is missing."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int, epochs: int) -> dict:
    import numpy
    import scipy

    def blas_version(module) -> str:
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError):
            return "unknown"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "git_commit": git_commit(ROOT),
        "seed": seed,
        "epochs": epochs,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    # A run is at least one whole round over its bundles, so it can last
    # longer than --seconds.
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "hyperrag" / "__init__.py").is_file():
        print(f"no hyperrag sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import bench

    workload = args.workload
    if workload not in bench.WORKLOADS:
        print(f"unknown workload {workload!r}; choose from {sorted(bench.WORKLOADS)}",
              file=sys.stderr)
        return 2
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        run = bench.Run(workload, args.seed, workdir, sample=not args.trace)
        if args.trace:
            metrics, tracer = bench.traced_run(run, args.seconds, declared["per_layer"])
            tracer.write_spans(OUT_DIR / f"spans-{workload}.jsonl")
        else:
            run.timed(args.seconds)
            metrics = bench.end_to_end_metrics(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # The traced run uses the first bundle only.
    checked = run.inputs[:1] if args.trace else run.inputs
    pinned = bench.pinned_digests().get(workload, []) if args.seed == bench.PINNED_SEED else None
    digests = []
    for k, inp in enumerate(checked):
        run.attempted += 1  # each bundle's digest check is one more operation
        digests.append(inp.digest())
        if digests[-1] is None:
            run.failures.add("incomplete", f"bundle {inp.seed}: a training or evaluation failed")
        elif pinned is not None and digests[-1] != (pinned[k] if k < len(pinned) else None):
            run.failures.add("digest", f"bundle {inp.seed}: {digests[-1]} is not the pinned digest")
    failed = run.failures.total
    attempted = run.attempted

    print(json.dumps({"env": environment(args.seed, bench.EPOCHS)}, sort_keys=True))
    if not args.trace:
        print(json.dumps({
            "raw_metrics": bench.end_to_end_metrics(run, scaled=False),
            "probes": len(run.sampler.seconds),
            "probe_quartiles_s": statistics.quantiles(run.sampler.seconds, n=4),
            "probe_seconds": run.sampler.spent,
        }, sort_keys=True))
    print(json.dumps({"failures": run.failures.by_category, "error_rate": failed / attempted,
                      "messages": run.failures.messages}, sort_keys=True))
    print(json.dumps({
        "workload": workload,
        "bundles": [
            {"seed": inp.seed, "digest": d,
             "eval": inp.eval_report and inp.eval_report.to_record()}
            for inp, d in zip(checked, digests)
        ],
    }))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
