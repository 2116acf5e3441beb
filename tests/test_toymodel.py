import copy

import numpy as np
import pytest

from vgmine.attention import AttentionError, AttentionMap, GlimpseStack, rank_correlation
from vgmine import toymodel
from vgmine.schedule import Schedule
from vgmine.toymodel import (
    MetricsRow,
    ToyConfig,
    ToyModelError,
    ToyModelParams,
    ToySample,
    forward,
    init_params,
    loss_and_grads,
    make_synthetic,
    read_params,
    train,
    write_metrics,
    write_params,
)

from oracles import finite_difference_check, random_toy_pair

CFG = ToyConfig()
FIXED_1 = Schedule(t_max=2000, mode="fixed", fixed_value=1.0)
FIXED_0 = Schedule(t_max=2000, mode="fixed", fixed_value=0.0)


def random_pair(rng, cfg=CFG, supervised=True):
    return random_toy_pair(rng, cfg, supervised)


class TestForward:
    def test_zero_attention_weights_give_uniform_glimpses(self):
        rng = np.random.default_rng(0)
        params, sample = random_pair(rng)
        params.w_attention[:] = 0.0
        result = forward(params, sample)
        for glimpse in result.attention.glimpses:
            assert np.allclose(glimpse.values, 1.0 / CFG.cells, atol=1e-15)

    def test_glimpses_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            params, sample = random_pair(rng)
            result = forward(params, sample)
            for glimpse in result.attention.glimpses:
                assert abs(glimpse.values.sum() - 1.0) <= 1e-9

    def test_constant_image_gives_constant_weighted_features(self):
        rng = np.random.default_rng(2)
        params, sample = random_pair(rng)
        feature = rng.normal(0, 1, CFG.image_channels)
        sample.img_feat = np.repeat(
            feature[:, None], CFG.cells, axis=1).reshape(
            CFG.image_channels, CFG.grid_h, CFG.grid_w)
        result = forward(params, sample)
        weighted = result.cache["attn"] @ sample.img_feat.reshape(
            CFG.image_channels, -1).T
        for g in range(CFG.glimpses):
            assert np.allclose(weighted[g], feature, atol=1e-12)

    def test_non_finite_input_names_layer(self):
        rng = np.random.default_rng(3)
        params, sample = random_pair(rng)
        sample.img_feat[0, 0, 0] = np.inf
        with pytest.raises(ToyModelError, match="fusion"):
            forward(params, sample)


class TestLossAndGrads:
    def test_unsupervised_equals_pure_ce(self):
        rng = np.random.default_rng(4)
        params, sample = random_pair(rng, supervised=True)
        bare = copy.deepcopy(sample)
        bare.supervision = None
        b_zero, g_zero = loss_and_grads(params, sample, FIXED_0, 0)
        b_none, g_none = loss_and_grads(params, bare, FIXED_1, 0)
        assert b_none.alpha == 0.0
        assert b_none.total == b_zero.ce
        for (_, a), (_, b) in zip(g_zero.named_arrays(), g_none.named_arrays()):
            assert np.array_equal(a, b)

    def test_kl_vanishes_at_matching_attention(self):
        # zero attention weights -> uniform prediction; uniform supervision
        rng = np.random.default_rng(5)
        params, sample = random_pair(rng)
        params.w_attention[:] = 0.0
        uniform = np.full((CFG.grid_h, CFG.grid_w), 1.0 / CFG.cells)
        sample.supervision = GlimpseStack(
            [AttentionMap(uniform.copy(), normalized=True)
             for _ in range(CFG.glimpses)], [True] * CFG.glimpses)
        supervised, g_sup = loss_and_grads(params, sample, FIXED_1, 0)
        assert supervised.kl == pytest.approx(0.0, abs=1e-12)
        plain = copy.deepcopy(sample)
        plain.supervision = None
        _, g_ce = loss_and_grads(params, plain, FIXED_1, 0)
        for (_, a), (_, b) in zip(g_sup.named_arrays(), g_ce.named_arrays()):
            assert np.allclose(a, b, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            params, sample = random_pair(rng)
            entry_rel, tensor_rel = finite_difference_check(
                params, sample, FIXED_1, 10)
            assert entry_rel < 1e-5
            assert tensor_rel < 1e-5

    def test_kl_gradient_finite_when_attention_underflows(self):
        # one image cell at attention logit 720: every other cell gets
        # attention exp(-720) ~ 2e-313, where target / attention overflows
        params = ToyModelParams(
            w_question=np.zeros((CFG.image_channels, CFG.question_dim)),
            fusion_bias=np.zeros(CFG.image_channels),
            w_attention=np.zeros((CFG.glimpses, CFG.image_channels)),
            w_classifier=np.zeros((CFG.num_answers,
                                   CFG.question_dim + CFG.glimpses * CFG.image_channels)))
        params.w_question[0, 0] = 1.0
        params.w_attention[:, 0] = 720.0
        img = np.zeros((CFG.image_channels, CFG.grid_h, CFG.grid_w))
        img[0, 0, 0] = 1.0
        q_feat = np.zeros(CFG.question_dim)
        q_feat[0] = 1.0
        uniform = np.full((CFG.grid_h, CFG.grid_w), 1.0 / CFG.cells)
        sample = ToySample(q_feat=q_feat, img_feat=img, answer=0, supervision=GlimpseStack(
            [AttentionMap(uniform.copy(), normalized=True) for _ in range(CFG.glimpses)],
            [True] * CFG.glimpses))
        attn = forward(params, sample).cache["attn"]
        assert 0.0 < attn[0, 1] < 1e-300
        with np.errstate(over="ignore"):  # the KL value itself overflows to inf
            _, grads = loss_and_grads(params, sample, FIXED_1, 0)
        for name, arr in grads.named_arrays():
            assert np.all(np.isfinite(arr)), name
        # a zero classifier leaves only the KL term: alpha * (attn - target)
        # at the hot cell, the only cell with a nonzero fused feature
        assert grads.w_attention[:, 0] == pytest.approx(1.0 - 1.0 / CFG.cells, abs=1e-12)

    def test_unnormalized_supervised_glimpse_rejected(self):
        rng = np.random.default_rng(8)
        params, sample = random_pair(rng)
        sample.supervision.glimpses[1].values *= 2.0
        with pytest.raises(AttentionError, match="must sum to 1"):
            loss_and_grads(params, sample, FIXED_1, 0)
        sample.supervision.supervision_mask[1] = False  # masked glimpses are not used
        loss_and_grads(params, sample, FIXED_1, 0)

    def test_invalid_answer_rejected(self):
        rng = np.random.default_rng(7)
        params, sample = random_pair(rng)
        sample.answer = CFG.num_answers
        with pytest.raises(ToyModelError, match="answer"):
            loss_and_grads(params, sample, FIXED_1, 0)


class TestMakeSynthetic:
    def test_supervision_sums_to_one(self):
        for sample in make_synthetic(CFG, 4, seed=3):
            for glimpse in sample.supervision.glimpses:
                assert abs(glimpse.values.sum() - 1.0) < 1e-12

    def test_full_grid_box_gives_uniform_supervision(self):
        sample = make_synthetic(CFG, 1, seed=3,
                                box=(0, 0, CFG.grid_w - 1, CFG.grid_h - 1))[0]
        assert np.allclose(sample.supervision.glimpses[0].values,
                           1.0 / CFG.cells, atol=1e-15)

    def test_same_seed_identical(self):
        first = make_synthetic(CFG, 5, seed=11)
        second = make_synthetic(CFG, 5, seed=11)
        for a, b in zip(first, second):
            assert np.array_equal(a.q_feat, b.q_feat)
            assert np.array_equal(a.img_feat, b.img_feat)
            assert a.answer == b.answer

    def test_class_signal_only_inside_box(self):
        sample = make_synthetic(CFG, 1, seed=5, box=(1, 1, 3, 3))[0]
        indicator = np.zeros((CFG.grid_h, CFG.grid_w))
        indicator[1:4, 1:4] = 1.0
        channel = sample.img_feat[1 + sample.answer]
        # the planted +1 signal shifts in-box cells far above the noise scale
        assert channel[indicator == 1].mean() > 0.5
        assert abs(channel[indicator == 0].mean()) < 0.5


@pytest.fixture(scope="module")
def committed_data():
    return make_synthetic(CFG, 8, seed=1)


@pytest.fixture(scope="module")
def run_supervised(committed_data):
    return train(committed_data, CFG, FIXED_1)


@pytest.fixture(scope="module")
def run_unsupervised(committed_data):
    return train(committed_data, CFG, FIXED_0)


@pytest.fixture(scope="module")
def run_cosine(committed_data):
    return train(committed_data, CFG, Schedule(t_max=CFG.steps, mode="cosine"))


class TestTrain:
    def test_overfits_without_supervision(self, run_unsupervised):
        _, metrics = run_unsupervised
        assert metrics[-1].accuracy == 1.0

    def test_supervision_drives_kl_down(self, run_supervised):
        _, metrics = run_supervised
        assert metrics[-1].kl < 0.1 * metrics[0].kl

    def test_deterministic_given_seed(self, run_supervised):
        _, first = run_supervised
        _, second = train(make_synthetic(CFG, 8, seed=1), CFG, FIXED_1)
        assert first == second

    def test_supervised_rank_correlation_beats_unsupervised(
            self, run_supervised, run_unsupervised):
        _, with_attn = run_supervised
        _, without = run_unsupervised
        assert with_attn[-1].rank_corr >= without[-1].rank_corr + 0.2

    def test_cosine_final_ce_not_worse_than_fixed(self, run_cosine, run_supervised):
        _, cosine = run_cosine
        _, fixed = run_supervised
        assert cosine[-1].ce <= fixed[-1].ce

    def test_zero_steps_gives_initial_metrics_only(self):
        cfg = ToyConfig(steps=0)
        data = make_synthetic(cfg, 4, seed=2)
        _, metrics = train(data, cfg, FIXED_1)
        assert len(metrics) == 1
        assert metrics[0].step == 0

    def test_empty_data_rejected(self):
        with pytest.raises(ToyModelError):
            train([], CFG, FIXED_1)

    def test_metric_errors_other_than_undefined_propagate(self, monkeypatch):
        def broken(a, b):
            raise RuntimeError("metric bug")

        monkeypatch.setattr(toymodel, "rank_correlations", broken)
        cfg = ToyConfig(steps=0)
        with pytest.raises(RuntimeError, match="metric bug"):
            train(make_synthetic(cfg, 2, seed=2), cfg, FIXED_1)


def _mixed_batch(cfg):
    """No supervision; glimpse 1 masked; a constant (uniform) target, on
    which rank correlation is undefined; a plain supervised sample."""
    data = make_synthetic(cfg, 4, seed=9)
    data[0].supervision = None
    data[1].supervision.supervision_mask[1] = False
    uniform = np.full((cfg.grid_h, cfg.grid_w), 1.0 / cfg.cells)
    data[2].supervision = GlimpseStack(
        [AttentionMap(uniform.copy(), normalized=True) for _ in range(cfg.glimpses)],
        [True] * cfg.glimpses)
    return data


def _train_one_sample_at_a_time(data, cfg, schedule):
    """train() spelled out as a loop of single-sample loss_and_grads calls."""
    params = init_params(cfg, np.random.default_rng(cfg.seed))
    rows = []
    for t in range(cfg.steps + 1):
        ce_sum = kl_sum = corr_sum = 0.0
        supervised = correct = corr_count = 0
        grad_sums = [np.zeros_like(arr) for _, arr in params.named_arrays()]
        for sample in data:
            breakdown, grads = loss_and_grads(params, sample, schedule, t)
            fwd = forward(params, sample)
            ce_sum += breakdown.ce
            correct += int(np.argmax(fwd.logits)) == sample.answer
            if sample.supervision is not None:
                kl_sum += breakdown.kl
                supervised += 1
                try:
                    corr_sum += rank_correlation(fwd.attention.glimpses[0],
                                                 sample.supervision.glimpses[0])
                    corr_count += 1
                except AttentionError:
                    pass
            for acc, (_, arr) in zip(grad_sums, grads.named_arrays()):
                acc += arr
        n = len(data)
        rows.append(MetricsRow(step=t, ce=ce_sum / n, kl=kl_sum / supervised,
                               alpha=schedule.alpha(t), accuracy=correct / n,
                               rank_corr=corr_sum / corr_count))
        if t < cfg.steps:
            for (_, arr), grad in zip(params.named_arrays(), grad_sums):
                arr -= cfg.learning_rate * (grad / n)
    return params, rows


def test_train_equals_single_sample_calls_on_mixed_batch():
    cfg = ToyConfig(steps=6)
    schedule = Schedule(t_max=4, mode="cosine")
    params, rows = train(_mixed_batch(cfg), cfg, schedule)
    ref_params, ref_rows = _train_one_sample_at_a_time(_mixed_batch(cfg), cfg, schedule)
    assert rows == ref_rows
    for (name, a), (_, b) in zip(params.named_arrays(), ref_params.named_arrays()):
        assert np.array_equal(a, b), name


class TestSerialization:
    def test_params_round_trip(self, tmp_path):
        params = init_params(CFG, np.random.default_rng(8))
        path = tmp_path / "params.ndjson"
        write_params(params, path)
        loaded = read_params(path)
        for (_, a), (_, b) in zip(params.named_arrays(), loaded.named_arrays()):
            assert np.allclose(a, b, atol=1e-9)  # 9 significant digits kept

    def test_metrics_csv_layout(self, tmp_path):
        rows = [MetricsRow(0, 1.5, 2.5, 1.0, 0.25, 0.125)]
        path = tmp_path / "metrics.csv"
        write_metrics(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,ce,kl,alpha,accuracy,rank_corr"
        assert lines[1] == "0,1.5,2.5,1,0.25,0.125"
