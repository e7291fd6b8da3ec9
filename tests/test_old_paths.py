"""Old-path oracles for training's two inner loops: test-only copies of the
lock-step Sinkhorn solve (``transport._sinkhorn_rows``) and of the phase-1
loop (``gate.train_crm``) as they were before their per-iteration calls
were cut, run on the inputs that ``run_training`` hands the production
code on the default bundles, plain and with the benchmark's mixed
answers.  Every output must keep its bits."""

import functools
import math
import operator
from pathlib import Path

import numpy as np
import pytest

from hyperrag import pipeline, transport
from hyperrag.errors import NumericalError
from hyperrag.gate import LOG_CLAMP, RelevanceHead, fit_theta, sigmoid_array
from hyperrag.pipeline import PipelineConfig, run_training
from hyperrag.synth import SynthSpec, synth_bundle

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def old_logsumexp(a, axis=None):
    """``transport._logsumexp`` before its keepdims argument and column
    chains: every reduction is one ``reduce`` call."""
    n = a.size if axis is None else a.shape[axis]
    if n == 1:
        return (0.0 + np.squeeze(a, axis=axis))[()]
    if axis is None:
        axis = tuple(range(a.ndim))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.maximum.reduce(a, axis=axis, keepdims=True)
        i_max = a == a_max
        m = np.add.reduce(i_max, axis=axis, keepdims=True, dtype=float)
        s = np.add.reduce(
            np.exp(np.where(i_max, -np.inf, a) - a_max), axis=axis, keepdims=True
        )
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            out_inf = np.log(np.add.reduce(np.exp(a), axis=axis, keepdims=True))
            out = np.where(finite, out, out_inf)
    return np.squeeze(out, axis=axis)[()]


def old_sinkhorn_rows(cost, p_weights, q_weights, epsilon, max_iter, widths=None):
    """``transport._sinkhorn_rows`` with every per-stage value rebuilt on
    each iteration, f and g squeezed, and every padded one-atom row's
    column summed apart."""
    n = len(cost)
    f_out, g_out, violation = np.empty(p_weights.shape), np.empty(q_weights.shape), np.empty(n)
    ladder, stage = [epsilon], np.zeros(n, dtype=int)
    for b, c in enumerate(cost):
        scale = max(float(c.max(initial=0.0)), epsilon)
        while ladder[stage[b]] < scale / 10.0:
            stage[b] += 1
            if stage[b] == len(ladder):
                ladder.append(ladder[-1] * 2.0)
    ladder = np.array(ladder)
    rows, pw, g = np.arange(n), p_weights, np.zeros(q_weights.shape)
    log_p, log_q = transport._log_weights(pw), transport._log_weights(q_weights)
    padded = widths is not None and cost.shape[2] > 1
    one = np.asarray(widths) == 1 if padded else np.zeros(n, dtype=bool)
    with np.errstate(all="ignore"):
        for it in range(max_iter):
            eps = ladder[stage][:, None, None]
            f = -eps[:, 0] * old_logsumexp((g[:, None, :] - cost) / eps + log_q[:, None, :], axis=2)
            a = (f[:, :, None] - cost) / eps + log_p[:, :, None]
            g = -eps[:, 0] * old_logsumexp(a, axis=1)
            if one.any():
                g[one, :1] = -eps[one, 0] * old_logsumexp(a[one, :, :1], axis=1)
            scaled = (f[:, :, None] + g[:, None, :] - cost) / eps
            log_pi = scaled + log_p[:, :, None] + log_q[:, None, :]
            marginals = np.exp(old_logsumexp(log_pi, axis=2))
            viol = np.max(np.abs(marginals - pw), axis=1)
            if not np.isfinite(viol).all():
                raise NumericalError("non-finite marginal violation")
            advance = (viol < transport.SINKHORN_TARGET) | ((stage > 0) & (viol < 1e-3))
            done = (advance & (stage == 0)) | (it + 1 == max_iter)
            stage = stage - advance
            if done.any():
                idx, keep = rows[done], ~done
                f_out[idx], g_out[idx], violation[idx] = f[done], g[done], viol[done]
                rows, stage, g, cost, pw = rows[keep], stage[keep], g[keep], cost[keep], pw[keep]
                log_p, log_q, one = log_p[keep], log_q[keep], one[keep]
                if not rows.size:
                    break
    return f_out, g_out, violation < transport.SINKHORN_TARGET, violation


def old_affine_grads(up, x):
    g = np.einsum("ik,ij->kj", np.concatenate([x, np.ones((len(x), 1))], axis=1), up)
    return g[:-1].T, g[-1]


def old_crm_stacked(head, z, is_pos, want_grads):
    """``gate._crm_stacked`` on rows without the ones column, which each
    step appended, with the three ``[kept]`` gathers on every step."""
    h, raw = head.forward(z)
    r = sigmoid_array(raw)
    p = np.where(is_pos, r, 1.0 - r)
    total = functools.reduce(operator.sub, map(math.log, np.maximum(p, LOG_CLAMP).tolist()), 0.0)
    kept = p > LOG_CLAMP
    clamped = len(raw) - int(np.count_nonzero(kept))
    if not want_grads:
        return total, None, clamped
    if not kept.any():
        return total, {name: np.zeros_like(arr) for name, arr in head.named_params()}, clamped
    up = np.where(is_pos, r - 1.0, r)[kept, None]
    h = h[kept]
    w1, b1 = old_affine_grads(up * head.w2 * (1.0 - h * h), z[kept])
    w2, b2 = old_affine_grads(up, h)
    return total, {"w1": w1, "b1": b1, "w2": w2[0], "b2": b2}, clamped


def old_train_crm(labeled, gating_pairs, config, query_dim, item_dim):
    """The phase-1 loop over ``old_crm_stacked``; returns the head, theta
    and the epoch losses."""
    head = RelevanceHead(query_dim, item_dim, hidden=config.crm_hidden, seed=config.seed)
    rows, labels, spans = [], [], []
    for query, positives, negatives in labeled:
        start = len(labels)
        rows.append(head.input_rows(query, positives + negatives))
        labels += [True] * len(positives) + [False] * len(negatives)
        spans.append(np.arange(start, len(labels)))
    z, is_pos = np.concatenate(rows), np.array(labels)
    rng = np.random.default_rng(config.seed)
    losses, size = [], config.crm_batch_size
    with np.errstate(over="ignore", invalid="ignore"):
        for _epoch in range(config.crm_epochs):
            order = rng.permutation(len(labeled))
            epoch_loss = 0.0
            for s in range(0, len(labeled), size):
                step_rows = np.concatenate([spans[i] for i in order[s : s + size]])
                loss, grads, clamped = old_crm_stacked(head, z[step_rows], is_pos[step_rows], True)
                assert clamped == 0
                head.apply_grads(grads, config.crm_lr)
                epoch_loss += loss
            losses.append(epoch_loss)
        assert old_crm_stacked(head, z, is_pos, False)[2] == 0
    return head, fit_theta(gating_pairs)[0], losses


@pytest.fixture(scope="module", params=[42, 100042, 200042])
def seed(request):
    return request.param


@pytest.fixture(scope="module", params=[False, True], ids=["plain", "mixed"])
def training_calls(request, seed):
    """Each ``_sinkhorn_rows`` call (inputs and outputs) and the
    ``train_crm`` call (inputs and outputs) of one 1-epoch training run."""
    mp = pytest.MonkeyPatch()
    try:
        bundle = synth_bundle(SynthSpec(seed=seed))
        if request.param:
            mp.syspath_prepend(str(PERFBENCH))
            import bench

            bench.mix_answers(bundle, seed)
        solves, crm = [], []
        solve, train_crm = transport._sinkhorn_rows, pipeline.train_crm

        def spy_solve(*args):
            out = solve(*args)
            solves.append((args, out))
            return out

        def spy_crm(*args, **kwargs):
            head, theta, trace = train_crm(*args, **kwargs)
            # Phase 2 goes on training the head; keep its phase-1 state.
            params = [(name, arr.copy()) for name, arr in head.named_params()]
            crm.append((args, kwargs, (params, theta, trace)))
            return head, theta, trace

        mp.setattr(transport, "_sinkhorn_rows", spy_solve)
        mp.setattr(pipeline, "train_crm", spy_crm)
        run_training(PipelineConfig(seed=seed, epochs=1), bundle)
    finally:
        mp.undo()
    return request.param, solves, crm


def test_lock_step_solves_match_the_old_solver(training_calls):
    mixed, solves, _ = training_calls
    two_atom = 0
    for args, (f, g, converged, violation) in solves:
        want_f, want_g, want_conv, want_viol = old_sinkhorn_rows(*args)
        assert np.array_equal(f, want_f) and np.array_equal(g, want_g)
        assert np.array_equal(converged, want_conv)
        assert np.array_equal(violation, want_viol)
        two_atom += args[0].shape[2] > 1
    # The plain bundles solve one-atom rows only; the mixed ones pad.
    assert solves and (two_atom > 0) == mixed


def test_phase1_matches_the_old_loop(training_calls):
    _, _, [(args, kwargs, (params, theta, trace))] = training_calls
    want_head, want_theta, want_losses = old_train_crm(*args, **kwargs)
    for (name, got), (_, want) in zip(params, want_head.named_params(), strict=True):
        assert np.array_equal(got, want), name
    assert theta == want_theta
    assert np.array_equal(trace.epoch_losses, want_losses)
