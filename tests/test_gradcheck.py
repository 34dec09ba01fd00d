"""The audit suite itself: coverage, determinism, and bug detection."""

import numpy as np

import composite_oracle as oracle
from mulcom import gradcheck
from mulcom import numerics as nx
from mulcom.gradcheck import CHECKS, run_gradcheck


def test_all_components_covered_and_pass():
    results = run_gradcheck(max_coords=3)
    assert [r.name for r in results] == [name for name, _ in CHECKS]
    expected = {
        "message_mlp", "lstm_cell", "multi_head_attention",
        "word_stream", "sentence_stream", "relation_stream",
        "stream_attention", "predictor", "full_model",
    }
    assert {r.name for r in results} == expected
    for r in results:
        assert r.ok(), (r.name, r.max_err)


def test_component_checks_cover_every_parameter(monkeypatch):
    # grad_check on no tensors returns 0.0, so a check whose prefixes
    # match nothing after a rename would pass without probing anything.
    probed = []

    def record(f, params, **kwargs):
        probed.append(set(params))
        return 0.0

    monkeypatch.setattr(gradcheck, "grad_check", record)
    run_gradcheck()
    every = set(gradcheck._tiny_model(seed=9).named_parameters())
    *components, full = probed
    for (name, _), names in zip(CHECKS, components):
        assert names, name
    assert set().union(*components) == every
    assert full == every


def _run_doubling(monkeypatch, name=None):
    """Run the audit with one gradient doubled where `numerics._accum` delivers it.

    That is parameter `name`'s gradient, or with no name the gradient the
    loss record gives the logits of the latest `forward_logits` call.
    """
    model = gradcheck._tiny_model(seed=9)
    if name is not None:
        targets = [model.named_parameters()[name]]
    else:
        targets = []
        forward_logits = gradcheck.forward_logits

        def latest_logits(*args):
            targets[:] = [forward_logits(*args)]
            return targets[0]

        monkeypatch.setattr(gradcheck, "forward_logits", latest_logits)
    accum = nx._accum

    def doubled(leaf, grad, **kwargs):
        accum(leaf, 2.0 * grad if leaf in targets else grad, **kwargs)

    monkeypatch.setattr(nx, "_accum", doubled)
    monkeypatch.setattr(gradcheck, "_tiny_model", lambda seed: model)
    return {r.name: r for r in run_gradcheck()}


def test_a_wrong_fused_gradient_fails_under_its_component(monkeypatch):
    # Double the step attention's output-projection gradient inside the
    # fused reasoner record; only the checks that probe it may fail.
    results = _run_doubling(monkeypatch, "reasoner.step_attention.w_o")
    assert not results["multi_head_attention"].ok()
    assert not results["full_model"].ok()
    assert results["word_stream"].ok()


def test_a_wrong_head_gradient_fails_under_its_component(monkeypatch):
    # The head is one record, so a wrong stream-mix gradient must still
    # fail the checks that probe the stream mix, and no stream's check.
    results = _run_doubling(monkeypatch, "stream_attn.layer1.w")
    assert not results["stream_attention"].ok()
    assert not results["full_model"].ok()
    assert results["word_stream"].ok()


def test_a_wrong_predictor_gradient_fails_the_predictor_check(monkeypatch):
    results = _run_doubling(monkeypatch, "predictor.layer0.w")
    assert not results["predictor"].ok()
    assert results["word_stream"].ok()


def test_a_wrong_loss_gradient_fails_every_check(monkeypatch):
    # Every parameter's gradient flows through the loss record's logits
    # gradient, so doubling it must fail every check.
    results = _run_doubling(monkeypatch)
    assert [name for name, r in results.items() if r.ok()] == []


def test_errors_deterministic_in_seed():
    a = run_gradcheck(seed=4, max_coords=2)
    b = run_gradcheck(seed=4, max_coords=2)
    assert [r.max_err for r in a] == [r.max_err for r in b]


def test_checker_flags_a_wrong_gradient():
    # loss = sum(x * const(x)) has analytic gradient x but true
    # derivative 2x; the checker must see the factor-of-two gap.
    rng = np.random.default_rng(0)
    x = nx.param(rng.standard_normal(5) + 1.0)

    def f():
        return oracle.reduce_sum(nx.mul(x, nx.Tensor(x.data.copy())))

    err = nx.grad_check(f, {"x": x}, max_coords=5)
    assert err > 0.3
