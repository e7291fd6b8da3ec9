"""hyperrag benchmark workloads: inputs, timed operations, invariants,
output digests and metrics.

Every workload drives the public API from one thread, one call at a
time (a closed loop with a single caller).  The seed ``S`` makes the
workload's synthetic bundles, seeded ``S``, ``S + BUNDLE_SEED_STEP``, ...;
a run works through them in whole rounds: one, then more while the next
is expected to end within ``seconds``.  One *unit* is, on one bundle:

1. set-up: ``synth_bundle`` -> ``write_bundle`` -> ``load_bundle`` (the
   CLI's path), ``SETUP_REPEATS`` times before training, before evaluation
   and after it;
2. one ``run_training``;
3. one ``evaluate``, whose ``answer_query`` calls are each timed and
   checked: these are the read path's answers.

Several bundles per run, because the cost of an answer depends on how
many graph communities its refined subgraph spans, which one bundle's five
clusters fix for all of its queries; pooling three or four bundles keeps
a seed's draw from moving the answer percentiles.  Training and evaluation
times are means over the run's bundles, set-up times a median, answer
latencies p90s.

The machine's speed drifts by tens of percent over seconds to minutes,
so while a run measures, ``speed.Sampler`` probes the speed five times a
second.  Each time excludes the probes made during it and is scaled by
the probes made around it (``speed.py``); the raw times are printed beside
the scaled ones.

The traced run warms up with one untraced unit on the first bundle, then
runs pairs of an untraced and a traced unit on it, alternating which goes
first.  Per-layer figures are totals per traced unit, and the wall-time
ratio of the pairs is the tracing overhead.  The traced run makes no
speed probes.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from hyperrag import pipeline, synth
from hyperrag.errors import HyperRagError
from hyperrag.io import canonical_json_bytes

import speed
from tracing import Tracer

# The CLI's default bundle seed; its digests are pinned in digests.json.
PINNED_SEED = 42
# Phase-2 epochs on every workload (the CLI default is 20), so that a run
# fits its time budget.
EPOCHS = 1
# The seed offset between the bundles of a run.
BUNDLE_SEED_STEP = 100_000
# Set-ups at each of the three points of a unit.  One takes well under
# 0.1 s, so it is repeated to give setup_s more samples, and the repeats
# are spread over the unit so that their median does not rest on the
# machine's speed at one moment.
SETUP_REPEATS = 4
# refine_subgraph accepts a subgraph whose mass is this far below eta.
MASS_ATOL = 1e-12


# Workload name -> (whether every second gold answer is rewritten to two
# distinct tokens (mix_answers), bundles per run).  train-mixed trains for
# twice as long per bundle, so it pools one bundle less to fit its run in
# the time budget.
WORKLOADS = {"train": (False, 4), "train-mixed": (True, 3)}


class Failures:
    """Failed operations by category; an operation that fails is counted
    and the run goes on."""

    def __init__(self):
        self.by_category: dict[str, int] = {}
        self.messages: list[str] = []

    def add(self, category: str, message: str) -> None:
        self.by_category[category] = self.by_category.get(category, 0) + 1
        if len(self.messages) < 20:
            self.messages.append(f"{category}: {message}")

    @property
    def total(self) -> int:
        return sum(self.by_category.values())


class InvariantError(Exception):
    category = "invariant"


# -- inputs -------------------------------------------------------------


def mix_answers(bundle, seed: int) -> None:
    """Rewrite every second query's gold answer (c, c, ..., c) to
    (c, ..., c, c') with c' != c drawn from the seed, so the generation
    loss sees two-atom gold distributions."""
    rng = np.random.default_rng([seed, 1])
    vocab = bundle.token_embeddings.shape[0]
    for idx, query in enumerate(bundle.queries):
        if idx % 2 == 1:
            gold = bundle.qa[query.id]
            other = int(rng.choice([t for t in range(vocab) if t != gold[0]]))
            bundle.qa[query.id] = gold[:-1] + (other,)


# -- invariants and canonical outputs -----------------------------------


def check_losses(reports) -> bytes:
    records = [r.to_record() for r in reports]
    for rec in records:
        bad = [k for k, v in rec.items() if not math.isfinite(v)]
        if bad:
            raise InvariantError(f"non-finite loss fields {bad} at step {rec['step']}")
    return canonical_json_bytes(records)


def check_answer(result, components) -> bytes:
    tokens = result.tokens.tokens
    vocab = components.token_embeddings.shape[0]
    if len(tokens) != components.answer_len or not all(0 <= t < vocab for t in tokens):
        raise InvariantError(f"tokens {tokens} not {components.answer_len} tokens in [0, {vocab})")
    if not set(result.used_ids) <= set(result.retrieved_ids):
        raise InvariantError("used_ids is not a subset of retrieved_ids")
    if result.delta == 0 and (result.retrieved_ids or result.subgraph is not None):
        raise InvariantError("delta == 0 but something was retrieved")
    if result.delta == 1:
        sub = result.subgraph
        if sub is None or not sub.relevance_mass >= sub.eta - MASS_ATOL:
            raise InvariantError("refined subgraph misses its relevance mass floor eta")
    return canonical_json_bytes(
        {
            "tokens": list(tokens),
            "sigma": result.sigma,
            "delta": result.delta,
            "retrieved": list(result.retrieved_ids),
            "used": list(result.used_ids),
            "selected": None if result.subgraph is None else list(result.subgraph.selected),
        }
    )


def pinned_digests() -> dict[str, str]:
    return json.loads((Path(__file__).parent / "digests.json").read_text())


# -- one run --------------------------------------------------------------


class Inputs:
    """One bundle's inputs, and the first canonical output of each kind,
    against which repeats are compared."""

    def __init__(self, mixed_answers: bool, seed: int, overrides: dict | None):
        self.mixed_answers = mixed_answers
        self.seed = seed
        self.spec = synth.SynthSpec(seed=seed, **(overrides or {}))
        self.config = pipeline.PipelineConfig(seed=seed, epochs=EPOCHS)
        self.losses: bytes | None = None
        self.answers: dict[str, bytes] = {}
        self.eval_bytes: bytes | None = None
        self.eval_report = None

    def same(self, slot: str, value: bytes, what: str) -> None:
        """Record the first output of a kind; later ones must match it."""
        first = getattr(self, slot)
        if first is None:
            setattr(self, slot, value)
        elif first != value:
            raise InvariantError(f"{what} differs between repeats of the same input")

    def make_bundle(self, path: Path, clock):
        """synth -> write -> load; returns the bundle and the seconds spent
        in the program by ``clock`` (the benchmark's own answer rewrite is
        not timed)."""
        t0 = clock()
        bundle = synth.synth_bundle(self.spec)
        elapsed = clock() - t0
        if self.mixed_answers:
            mix_answers(bundle, self.seed)
        t0 = clock()
        synth.write_bundle(bundle, path)
        bundle = synth.load_bundle(path)
        elapsed += clock() - t0
        shutil.rmtree(path)
        return bundle, elapsed

    def digest(self) -> str | None:
        """SHA-256 of the loss records, every answer and the EvalReport;
        None until each has been seen."""
        if self.losses is None or self.eval_bytes is None or not self.answers:
            return None
        h = hashlib.sha256()
        h.update(b"losses\n" + self.losses)
        for qid in sorted(self.answers):
            h.update(qid.encode() + b"\n" + self.answers[qid])
        h.update(b"eval\n" + self.eval_bytes)
        return h.hexdigest()


class Run:
    """State of one benchmark process: its bundles, timings and failures."""

    def __init__(self, workload: str, seed: int, workdir: Path, overrides=None, sample=True):
        mixed_answers, bundles = WORKLOADS[workload]
        self.inputs = [
            Inputs(mixed_answers, seed + k * BUNDLE_SEED_STEP, overrides)
            for k in range(bundles)
        ]
        self.workdir = workdir
        self.failures = Failures()
        self.attempted = 0
        self.tracer: Tracer | None = None
        # Speed probes while timed() runs; the traced run makes none.
        self.sampler = speed.Sampler() if sample else None
        self.clock = self.sampler.clock if sample else time.perf_counter
        # Kind -> (wall time at the start, at the end, seconds less probes).
        self.times: dict[str, list[tuple[float, float, float]]] = {
            "setup": [], "train": [], "answer_retrieve": [], "answer_direct": [], "eval": []
        }

    def record(self, kind: str, start: float, seconds: float) -> None:
        """Keep one timing of a kind that began at wall time ``start``."""
        self.times[kind].append((start, time.perf_counter(), seconds))

    def _request(self, rid: str) -> None:
        if self.tracer is not None:
            self.tracer.request = rid

    def _attempt(self, what: str, fn):
        """Run one operation; count a HyperRagError or invariant breach as
        a failure of its category and return None."""
        self.attempted += 1
        try:
            return fn()
        except (HyperRagError, InvariantError) as exc:
            self.failures.add(exc.category, f"{what}: {exc}")
            return None

    # -- operations -----------------------------------------------------

    def setup(self, inp: Inputs):
        def op():
            self._request("setup")
            start = time.perf_counter()
            bundle, elapsed = inp.make_bundle(self.workdir / "bundle", self.clock)
            self.record("setup", start, elapsed)
            return bundle

        return self._attempt("setup", op)

    def train(self, inp: Inputs, bundle):
        def op():
            self._request("train")
            start, t0 = time.perf_counter(), self.clock()
            components, reports = pipeline.run_training(inp.config, bundle)
            self.record("train", start, self.clock() - t0)
            inp.same("losses", check_losses(reports), "loss records")
            return components

        return self._attempt("run_training", op)

    def _record_answer(self, inp: Inputs, components, query, result, timing) -> None:
        canon = check_answer(result, components)
        if inp.answers.setdefault(query.id, canon) != canon:
            raise InvariantError(f"answer to {query.id} differs between repeats")
        self.times["answer_retrieve" if result.delta == 1 else "answer_direct"].append(timing)

    def evaluate(self, inp: Inputs, components, bundle) -> None:
        """One evaluate call; each answer_query call it makes is timed and
        checked as one answer."""
        answered = []
        answer_query = pipeline.answer_query

        def timed_answer(*args, **kwargs):
            start, t0 = time.perf_counter(), self.clock()
            result = answer_query(*args, **kwargs)
            elapsed = self.clock() - t0
            answered.append((args[1], result, (start, time.perf_counter(), elapsed)))
            return result

        def op():
            self._request("evaluate")
            pipeline.answer_query = timed_answer
            try:
                start, t0 = time.perf_counter(), self.clock()
                report = pipeline.evaluate(components, bundle)
                self.record("eval", start, self.clock() - t0)
            finally:
                pipeline.answer_query = answer_query
            inp.same("eval_bytes", report.canonical_bytes(), "EvalReport")
            inp.eval_report = report

        self._attempt("evaluate", op)
        for query, result, timing in answered:
            self._attempt(
                f"answer_query {query.id} in evaluate",
                lambda: self._record_answer(inp, components, query, result, timing),
            )

    # -- phases -----------------------------------------------------------

    def setups(self, inp: Inputs):
        """SETUP_REPEATS set-ups; the last bundle made, or None."""
        bundle = None
        for _ in range(SETUP_REPEATS):
            bundle = self.setup(inp) or bundle
        return bundle

    def unit(self, inp: Inputs) -> None:
        bundle = self.setups(inp)
        if bundle is None:
            return
        components = self.train(inp, bundle)
        self.setups(inp)
        if components is not None:
            self.evaluate(inp, components, bundle)
        self.setups(inp)

    def timed(self, seconds: float) -> None:
        """Whole rounds over the bundles: one, then more while the next is
        expected to end within ``seconds``.  The speed sampler runs
        throughout."""
        if self.sampler is not None:
            self.sampler.start()
        try:
            start = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                for inp in self.inputs:
                    self.unit(inp)
                elapsed = time.perf_counter() - start
                if elapsed + (time.perf_counter() - t0) > seconds:
                    return
        finally:
            if self.sampler is not None:
                self.sampler.stop()


def end_to_end_metrics(run: Run, scaled: bool = True) -> dict[str, dict]:
    """The declared end-to-end metrics; each time is scaled to the
    reference speed by the probes around it unless ``scaled`` is false."""

    def factor(start: float, end: float) -> float:
        return run.sampler.scale(start, end) if scaled and run.sampler else 1.0

    t = {kind: [s * factor(a, b) for a, b, s in xs] for kind, xs in run.times.items()}
    metrics: dict[str, tuple[float, str]] = {}
    if t["setup"]:
        metrics["setup_s"] = (statistics.median(t["setup"]), "s")
    # Means, not medians: each bundle's cost differs with its inputs, and
    # a mean pools all of them.
    if t["train"]:
        metrics["train_s"] = (statistics.mean(t["train"]), "s")
    # Latency percentiles are taken per path: over the mix, the median falls
    # where gate-direct answers meet the cheapest retrieve answers and jumps
    # between the two from run to run.  They are p90s, whose run-to-run
    # spread measured smaller than the medians' (README.md, "Noise").
    for path in ("retrieve", "direct"):
        if t[f"answer_{path}"]:
            ms = float(np.percentile(t[f"answer_{path}"], 90)) * 1e3
            metrics[f"answer_{path}_p90_ms"] = (ms, "ms")
    answers = t["answer_retrieve"] + t["answer_direct"]
    if answers:
        metrics["answer_qps"] = (len(answers) / float(np.sum(answers)), "1/s")
    if t["eval"]:
        metrics["eval_s"] = (statistics.mean(t["eval"]), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


# -- tracing --------------------------------------------------------------


def _observe_sinkhorn(counts, args, kwargs, result):
    if not result[2]:  # (f, g, converged, violation)
        counts["transport.nonconverged"] += 1


def _observe_entropic(counts, args, kwargs, result):
    q = args[1] if len(args) > 1 else kwargs["q"]
    counts["entropic.solves"] += 1
    counts["entropic.gold_atoms"] += q.size


def _observe_answer(counts, args, kwargs, result):
    counts["answers"] += 1
    counts["answers.retrieved"] += result.delta


def _observe_filter(counts, args, kwargs, result):
    docs = args[2] if len(args) > 2 else kwargs["docs"]
    counts["filter.in"] += len(docs)
    counts["filter.kept"] += len(result)


def _observe_extract(counts, args, kwargs, result):
    counts["spectral.triplets_embedded"] += sum(rec.point is not None for rec in result)


def _observe_refine(counts, args, kwargs, result):
    counts["refine.calls"] += 1
    counts["refine.fallbacks"] += int(result.fallback_used)
    counts["refine.selected"] += len(result.selected)


OBSERVERS = {
    "sinkhorn_potentials": _observe_sinkhorn,
    "entropic_terms": _observe_entropic,
    "answer_query": _observe_answer,
    "filter_relevant": _observe_filter,
    "extract_triplets": _observe_extract,
    "refine_subgraph": _observe_refine,
}

RATIOS = {
    "transport.gold_atoms.mean": ("entropic.gold_atoms", "entropic.solves"),
    "gate.retrieve_rate": ("answers.retrieved", "answers"),
    "gate.filter_keep_rate": ("filter.kept", "filter.in"),
    "spectral.refine_fallback_rate": ("refine.fallbacks", "refine.calls"),
    "spectral.subgraph_size.mean": ("refine.selected", "refine.calls"),
}


def per_layer_metrics(tracer: Tracer, units: int, overhead: float, declared) -> dict:
    """Every declared per-layer metric, per traced unit; a function that
    was never called reports 0."""
    totals = tracer.function_totals()
    counts = tracer.counts
    out = {}
    for spec in declared:
        name = spec["name"]
        fn, _, stat = name.rpartition(".")
        if name == "trace.overhead":
            value = overhead
        elif name in RATIOS:
            num, den = RATIOS[name]
            value = counts[num] / counts[den] if counts[den] else 0.0
        elif fn in tracer.spanned:
            value = totals.get(fn, {}).get(stat, 0.0) / units
        else:
            value = counts.get(name, 0.0) / units
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


def traced_run(run: Run, seconds: float, declared) -> tuple[dict, Tracer]:
    """One discarded untraced unit on the first bundle, then pairs of an
    untraced and a traced unit on it, the two orders alternating, until
    ``seconds`` have passed.
    The traced unit's outputs are checked against the untraced one's, so a
    wrapper that changed behaviour shows as a failure."""
    tracer = Tracer()
    walls: dict[str, list[float]] = {"plain": [], "traced": []}
    start = time.perf_counter()
    run.unit(run.inputs[0])  # warm-up: the first unit starts with cold caches
    orders = (("plain", "traced"), ("traced", "plain"))
    while not walls["traced"] or time.perf_counter() - start < seconds:
        for mode in orders[len(walls["traced"]) % 2]:
            if mode == "traced":
                run.tracer = tracer
                tracer.install(OBSERVERS)
            t0 = time.perf_counter()
            try:
                run.unit(run.inputs[0])
            finally:
                walls[mode].append(time.perf_counter() - t0)
                tracer.restore()
                run.tracer = None
    overhead = statistics.median(walls["traced"]) / statistics.median(walls["plain"]) - 1.0
    return per_layer_metrics(tracer, len(walls["traced"]), overhead, declared), tracer
