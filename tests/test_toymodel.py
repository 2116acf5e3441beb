import copy
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vgmine.attention import (
    AttentionError,
    AttentionMap,
    GlimpseStack,
    centred_ranks,
    kl_divergence,
    rank_correlation,
    rank_correlations,
)
from vgmine import toymodel
from vgmine.records import round9
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
    train,
    write_metrics,
    write_params,
)

from conftest import time_limit
from oracles import finite_difference_check, random_toy_pair, reference_params_lines

CFG = ToyConfig()
FIXED_1 = Schedule(t_max=2000, mode="fixed", fixed_value=1.0)
FIXED_0 = Schedule(t_max=2000, mode="fixed", fixed_value=0.0)


def random_pair(rng, cfg=CFG, supervised=True):
    return random_toy_pair(rng, cfg, supervised)


def _attention_rows(params, sample):
    """The sample's forward attention as (G, H*W) rows."""
    attention, _ = forward(params, sample)
    return attention.reshape(len(attention), -1)


def _uniform_supervision(cfg=CFG):
    """A supervision row of uniform glimpses, every one unmasked."""
    return (np.full((cfg.glimpses, cfg.grid_h, cfg.grid_w), 1.0 / cfg.cells),
            np.ones(cfg.glimpses, dtype=bool))


class TestForward:
    def test_zero_attention_weights_give_uniform_glimpses(self):
        rng = np.random.default_rng(0)
        params, sample = random_pair(rng)
        params.w_attention[:] = 0.0
        attention, _ = forward(params, sample)
        assert attention.shape == (CFG.glimpses, CFG.grid_h, CFG.grid_w)
        assert np.allclose(attention, 1.0 / CFG.cells, atol=1e-15)

    def test_glimpses_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            params, sample = random_pair(rng)
            attention, _ = forward(params, sample)
            for glimpse in attention:
                assert abs(glimpse.sum() - 1.0) <= 1e-9

    def test_constant_image_gives_constant_weighted_features(self):
        rng = np.random.default_rng(2)
        params, sample = random_pair(rng)
        feature = rng.normal(0, 1, CFG.image_channels)
        sample.img_feat = np.repeat(
            feature[:, None], CFG.cells, axis=1).reshape(
            CFG.image_channels, CFG.grid_h, CFG.grid_w)
        weighted = _attention_rows(params, sample) @ sample.img_feat.reshape(
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
        sample.supervision = _uniform_supervision()
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
        sample = ToySample(q_feat=q_feat, img_feat=img, answer=0,
                           supervision=_uniform_supervision())
        attn = _attention_rows(params, sample)
        assert 0.0 < attn[0, 1] < 1e-300
        with np.errstate(over="ignore"):  # the KL value itself overflows to inf
            _, grads = loss_and_grads(params, sample, FIXED_1, 0)
        for name, arr in grads.named_arrays():
            assert np.all(np.isfinite(arr)), name
        # a zero classifier leaves only the KL term: alpha * (attn - target)
        # at the hot cell, the only cell with a nonzero fused feature
        assert grads.w_attention[:, 0] == pytest.approx(1.0 - 1.0 / CFG.cells, abs=1e-12)

    def test_training_kl_equals_kl_divergence(self):
        # sparse targets (about 60 % zero cells), glimpse 1 masked on every
        # other sample: the KL training minimizes is kl_divergence's, bit for bit
        rng = np.random.default_rng(9)
        for i in range(300):
            params, sample = random_pair(rng)
            glimpses, mask = sample.supervision
            for glimpse in glimpses:
                keep = rng.random(glimpse.shape) >= 0.6
                keep[0, 0] = True
                glimpse *= keep
                glimpse /= glimpse.sum()
            mask[1] = i % 2 == 0
            breakdown, _ = loss_and_grads(params, sample, FIXED_1, 0)
            stack = GlimpseStack([AttentionMap(glimpse) for glimpse in glimpses], mask.tolist())
            attention, _ = forward(params, sample)
            predicted = GlimpseStack([AttentionMap(glimpse) for glimpse in attention],
                                     [True] * len(attention))
            assert breakdown.kl == kl_divergence(stack, predicted)

    def test_unnormalized_supervised_glimpse_rejected(self):
        rng = np.random.default_rng(8)
        params, sample = random_pair(rng)
        glimpses, mask = sample.supervision
        glimpses[1] *= 2.0
        with pytest.raises(AttentionError, match="must sum to 1"):
            loss_and_grads(params, sample, FIXED_1, 0)
        mask[1] = False  # masked glimpses are not used
        loss_and_grads(params, sample, FIXED_1, 0)

    def test_invalid_answer_rejected(self):
        rng = np.random.default_rng(7)
        params, sample = random_pair(rng)
        sample.answer = CFG.num_answers
        with pytest.raises(ToyModelError, match="answer"):
            loss_and_grads(params, sample, FIXED_1, 0)


def _narrow_image(params, sample):
    sample.img_feat = sample.img_feat[:8]


def _narrow_classifier(params, sample):
    params.w_classifier = params.w_classifier[:, :20]


def _short_bias(params, sample):
    params.fusion_bias = params.fusion_bias[:8]


def _flat_image(params, sample):
    sample.img_feat = sample.img_feat[0]


@pytest.mark.parametrize("mismatch, message", [
    (_narrow_image, "image has 8 channels, the attention weights 16"),
    (_narrow_classifier, "classifier shape mismatch"),
    (_short_bias, "fusion bias shape mismatch"),
    (_flat_image, r"features must be \(D,\) and \(C, H, W\) arrays"),
], ids=["image-channels", "classifier-width", "fusion-bias", "image-ndim"])
def test_shape_mismatch_raises_toy_model_error(mismatch, message):
    params, sample = random_pair(np.random.default_rng(12))
    mismatch(params, sample)
    with pytest.raises(ToyModelError, match=message):
        forward(params, sample)
    with pytest.raises(ToyModelError, match=message):
        loss_and_grads(params, sample, FIXED_1, 0)


def _cell(glimpse, value):
    """The row with one cell of ``glimpse`` set to ``value``."""
    def corrupt(glimpses, mask):
        glimpses[glimpse, 3, 4] = value
        return glimpses, mask
    return corrupt


def _off_by(delta):
    """The row with glimpse 1's sum moved by ``delta``."""
    def corrupt(glimpses, mask):
        glimpses[1, 0, 0] += delta
        return glimpses, mask
    return corrupt


_BAD_SHAPE = r"supervision must be \(2, 7, 7\) glimpses and a \(2,\) mask"


@pytest.mark.parametrize("corrupt, message", [
    (lambda g, m: (g[:1], m), _BAD_SHAPE),
    (lambda g, m: (g[:, :, :6], m), _BAD_SHAPE),
    (lambda g, m: (g[..., None], m), _BAD_SHAPE),
    (lambda g, m: (g, m[:1]), _BAD_SHAPE),
    (lambda g, m: (g, np.append(m, True)), _BAD_SHAPE),
    (_off_by(2e-9), "must sum to 1"),
    (_off_by(-2e-9), "must sum to 1"),
    (_cell(0, math.nan), "finite numbers >= 0"),
    (_cell(1, math.inf), "finite numbers >= 0"),
    (_cell(0, -1e-300), "finite numbers >= 0"),
    (lambda g, m: _cell(1, math.nan)(g, np.array([True, False])), "finite numbers >= 0"),
], ids=["glimpse-count", "grid-width", "grid-ndim", "short-mask", "long-mask", "sum-high",
        "sum-low", "nan", "inf", "negative", "nan-in-masked-glimpse"])
def test_batch_refuses_a_bad_supervision_row(corrupt, message):
    params, sample = random_pair(np.random.default_rng(13))
    loss_and_grads(params, sample, FIXED_1, 0)  # the row as drawn passes
    sample.supervision = corrupt(*sample.supervision)
    with pytest.raises(AttentionError, match=message):
        loss_and_grads(params, sample, FIXED_1, 0)
    with pytest.raises(AttentionError, match=message):
        train([sample], ToyConfig(steps=0), FIXED_1)


def test_batch_takes_a_glimpse_sum_off_by_at_most_the_tolerance():
    params, sample = random_pair(np.random.default_rng(13))
    sample.supervision[0][1, 0, 0] += 5e-10
    loss_and_grads(params, sample, FIXED_1, 0)


class TestParameterVector:
    def test_init_params_equals_one_draw_per_array(self):
        params = init_params(CFG, np.random.default_rng(21))
        rng = np.random.default_rng(21)
        for name, arr in params.named_arrays():
            assert np.array_equal(arr, rng.uniform(-0.1, 0.1, arr.shape)), name
        assert params.vector.size == sum(arr.size for _, arr in params.named_arrays())

    def test_gradients_survive_a_later_call(self):
        rng = np.random.default_rng(22)
        params, sample = random_pair(rng)
        _, first = loss_and_grads(params, sample, FIXED_1, 0)
        kept = [arr.copy() for _, arr in first.named_arrays()]
        _, other_sample = random_pair(rng)
        _, second = loss_and_grads(params, other_sample, FIXED_1, 0)
        assert not np.shares_memory(first.vector, second.vector)
        for (name, arr), copy_ in zip(first.named_arrays(), kept):
            assert np.array_equal(arr, copy_), name

    def test_trained_params_survive_another_training_run(self):
        cfg = ToyConfig(steps=5)
        data = make_synthetic(cfg, 3, seed=23)
        params, _ = train(data, cfg, FIXED_1)
        kept = [arr.copy() for _, arr in params.named_arrays()]
        again, _ = train(data, cfg, FIXED_1)
        assert not np.shares_memory(params.vector, again.vector)
        for (name, arr), copy_ in zip(params.named_arrays(), kept):
            assert np.array_equal(arr, copy_), name


class TestMakeSynthetic:
    def test_supervision_sums_to_one(self):
        for sample in make_synthetic(CFG, 4, seed=3):
            glimpses, mask = sample.supervision
            assert glimpses.shape == (CFG.glimpses, CFG.grid_h, CFG.grid_w) and mask.all()
            for glimpse in glimpses:
                assert abs(glimpse.sum() - 1.0) < 1e-12

    def test_same_seed_identical(self):
        first = make_synthetic(CFG, 5, seed=11)
        second = make_synthetic(CFG, 5, seed=11)
        for a, b in zip(first, second):
            assert np.array_equal(a.q_feat, b.q_feat)
            assert np.array_equal(a.img_feat, b.img_feat)
            assert a.answer == b.answer

    def test_class_signal_only_inside_box(self):
        sample = make_synthetic(CFG, 1, seed=5)[0]
        inside = sample.supervision[0][0] > 0  # the planted box
        channel = sample.img_feat[1 + sample.answer]
        # the planted +1 signal shifts in-box cells far above the noise scale
        assert channel[inside].mean() > 0.5
        assert abs(channel[~inside].mean()) < 0.5

    def test_single_cell_grid_rejected(self):
        """The one box of a 1x1 grid is the whole grid, so no proper sub-grid
        can be planted; a 1x2 grid has two."""
        with time_limit(10):
            with pytest.raises(ValueError, match=r"grid_h \* grid_w >= 2"):
                make_synthetic(dataclasses.replace(CFG, grid_h=1, grid_w=1), 1, seed=0)
            sample = make_synthetic(dataclasses.replace(CFG, grid_h=1, grid_w=2), 1, seed=0)[0]
        assert sorted(sample.supervision[0][0].ravel()) == [0.0, 1.0]


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

        monkeypatch.setattr(toymodel, "pearson_rows", broken)
        cfg = ToyConfig(steps=0)
        with pytest.raises(RuntimeError, match="metric bug"):
            train(make_synthetic(cfg, 2, seed=2), cfg, FIXED_1)


def _mixed_batch(cfg):
    """No supervision; glimpse 1 masked; a constant (uniform) target, on
    which rank correlation is undefined; a plain supervised sample."""
    data = make_synthetic(cfg, 4, seed=9)
    data[0].supervision = None
    data[1].supervision[1][1] = False
    data[2].supervision = _uniform_supervision(cfg)
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
            attention, logits = forward(params, sample)
            ce_sum += breakdown.ce
            correct += int(np.argmax(logits)) == sample.answer
            if sample.supervision is not None:
                kl_sum += breakdown.kl
                supervised += 1
                try:
                    corr_sum += rank_correlation(AttentionMap(attention[0]),
                                                 AttentionMap(sample.supervision[0][0]))
                    corr_count += 1
                except AttentionError:
                    pass
            for acc, (_, arr) in zip(grad_sums, grads.named_arrays()):
                acc += arr
        n = len(data)
        rows.append(MetricsRow(step=t, ce=ce_sum / n,
                               kl=kl_sum / supervised if supervised else 0.0,
                               alpha=schedule.alpha(t), accuracy=correct / n,
                               rank_corr=corr_sum / corr_count if corr_count else math.nan))
        if t < cfg.steps:
            for (_, arr), grad in zip(params.named_arrays(), grad_sums):
                arr -= cfg.learning_rate * (grad / n)
    return params, rows


def test_train_equals_single_sample_calls_on_mixed_batch():
    # 3 supervised samples: 64 // 3 = 21 steps per block, so 46 rows cross two
    cfg = ToyConfig(steps=45)
    schedule = Schedule(t_max=30, mode="cosine")
    params, rows = train(_mixed_batch(cfg), cfg, schedule)
    ref_params, ref_rows = _train_one_sample_at_a_time(_mixed_batch(cfg), cfg, schedule)
    assert rows == ref_rows
    for (name, a), (_, b) in zip(params.named_arrays(), ref_params.named_arrays()):
        assert np.array_equal(a, b), name


def _steps_of_pass(data, cfg, schedule, reuse_batch):
    """cfg.steps passes and updates on one batch or on a new batch each step;
    the params and each step's (ce, kl, attention, logits)."""
    params = init_params(cfg, np.random.default_rng(cfg.seed))
    batch = toymodel._batch(data, params)
    results = []
    for t in range(cfg.steps):
        if not reuse_batch:
            batch = toymodel._batch(data, params)
        results.append(toymodel._pass(params, batch, schedule.alpha(t)))
        params.vector -= cfg.learning_rate * (batch.grads.vector / len(data))
    return params, results


def test_reused_batch_buffers_equal_new_ones_every_step():
    # 3 samples and a rate that is no power of 2, so the order of the update's
    # division and multiplication shows in the bits
    cfg = ToyConfig(steps=30, learning_rate=0.3)
    schedule = Schedule(t_max=20, mode="cosine")
    data = _mixed_batch(cfg)[:3]
    reused, reused_steps = _steps_of_pass(data, cfg, schedule, True)
    fresh, fresh_steps = _steps_of_pass(data, cfg, schedule, False)
    assert reused.vector.tobytes() == fresh.vector.tobytes()
    for t, (ours, theirs) in enumerate(zip(reused_steps, fresh_steps)):
        for name, a, b in zip(("ce", "kl", "attention", "logits"), ours, theirs):
            assert np.array_equal(a, b), (t, name)
    # train's in-place update: the same bits as the update above
    trained, _ = train(data, cfg, schedule)
    assert trained.vector.tobytes() == fresh.vector.tobytes()


def test_pass_results_survive_the_next_pass_on_their_batch():
    cfg = ToyConfig()
    params = init_params(cfg, np.random.default_rng(24))
    batch = toymodel._batch(_mixed_batch(cfg), params)
    returned = toymodel._pass(params, batch, 1.0)
    kept = [arr.copy() for arr in returned]
    params.vector -= batch.grads.vector
    _, _, attn, _ = toymodel._pass(params, batch, 1.0)
    assert not np.array_equal(attn, kept[2])
    for name, arr, copy_ in zip(("ce", "kl", "attention", "logits"), returned, kept):
        assert np.array_equal(arr, copy_), name


def test_unsupervised_batch_over_three_blocks():
    # no supervised sample: 64 steps per block, so 131 rows make three blocks
    cfg = ToyConfig(steps=130)
    data = make_synthetic(cfg, 3, seed=4)
    for sample in data:
        sample.supervision = None
    _, rows = train(data, cfg, FIXED_1)
    _, ref_rows = _train_one_sample_at_a_time(data, cfg, FIXED_1)
    assert [row.step for row in rows] == list(range(131))
    assert all(math.isnan(row.rank_corr) and row.kl == 0.0 for row in rows)
    assert ([dataclasses.replace(row, rank_corr=0.0) for row in rows]
            == [dataclasses.replace(row, rank_corr=0.0) for row in ref_rows])


def test_metrics_made_once_per_block_of_steps(monkeypatch):
    # 8 supervised samples: 8 steps per block, 2001 rows in ceil(2001 / 8) blocks
    calls = []
    sample_metrics = toymodel._sample_metrics

    def counted(*args):
        calls.append(args[0].shape[0])
        return sample_metrics(*args)

    monkeypatch.setattr(toymodel, "_sample_metrics", counted)
    _, rows = train(make_synthetic(CFG, 8, seed=1), CFG, FIXED_1)
    assert len(rows) == 2001
    assert len(calls) == 251
    assert calls == [8] * 250 + [1]


_CELLS = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def _metric_block(draw):
    steps, m, cells = (draw(st.integers(1, 9)), draw(st.integers(0, 8)),
                       draw(st.integers(1, 20)))
    attn = draw(hnp.arrays(np.float64, (steps, m, cells), elements=_CELLS))
    targets = draw(hnp.arrays(np.float64, (m, cells), elements=_CELLS))
    if m and draw(st.booleans()):  # a constant attention row and target row
        attn[draw(st.integers(0, steps - 1)), draw(st.integers(0, m - 1))] = 0.5
        targets[draw(st.integers(0, m - 1))] = 0.25
    return attn, targets


@given(_metric_block())
@settings(max_examples=200, deadline=None)
def test_sample_metrics_equal_per_step_rank_correlations(block):
    attn, targets = block
    corr = toymodel._sample_metrics(attn, centred_ranks(targets))
    expected = np.array([rank_correlations(step, targets) for step in attn])
    assert np.array_equal(corr, expected.reshape(corr.shape), equal_nan=True)


class TestSerialization:
    def test_params_round_trip(self, tmp_path):
        params = init_params(CFG, np.random.default_rng(8))
        path = tmp_path / "params.ndjson"
        write_params(params, path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["name"] for r in records] == [name for name, _ in params.named_arrays()]
        for record, (_, arr) in zip(records, params.named_arrays()):
            assert record["shape"] == list(arr.shape)
            assert record["values"] == [round9(v) for v in arr.ravel().tolist()]

    def test_params_file_equals_reference_writer_byte_for_byte(self, tmp_path):
        params = init_params(CFG, np.random.default_rng(9))
        params.w_classifier.flat[:8] = [-0.0, 0.0, 1e300, -5e-324, 1 / 3, 0.1234567895, 1.0, -0.0]
        path = tmp_path / "params.ndjson"
        write_params(params, path)
        assert path.read_bytes() == reference_params_lines(params).encode()

    def test_metrics_csv_layout(self, tmp_path):
        rows = [MetricsRow(0, 1.5, 2.5, 1.0, 0.25, 0.125)]
        path = tmp_path / "metrics.csv"
        write_metrics(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,ce,kl,alpha,accuracy,rank_corr"
        assert lines[1] == "0,1.5,2.5,1,0.25,0.125"
