import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from vgmine.attention import (
    AttentionError,
    AttentionMap,
    GlimpseStack,
    build_supervision,
    centred_ranks,
    kl_divergence,
    l1_normalize,
    midranks,
    normalize_answer,
    pgm_bytes,
    rank_correlation,
    rank_correlations,
    rasterize,
    read_maps,
    round9_text,
    vqa_accuracy,
)
from vgmine.dataset import BoundingBox, QaTriplet
from vgmine.miner import GroundingLabel
from vgmine.records import InputError, round9

from oracles import (brute_force_rasterize, kl_summation, pgm_reference,
                     reference_fractional_ranks, reference_normalize_answer)


def _random_boxes(rng, img_w, img_h, max_boxes=6):
    boxes = []
    for _ in range(rng.integers(0, max_boxes + 1)):
        x0 = int(rng.integers(0, img_w))
        y0 = int(rng.integers(0, img_h))
        boxes.append(BoundingBox(
            x0, y0,
            x0 + int(rng.integers(1, img_w - x0 + 1)) - 1,
            y0 + int(rng.integers(1, img_h - y0 + 1)) - 1))
    return boxes


def _uniform_stack(h, w, glimpses=2):
    cell = np.full((h, w), 1.0 / (h * w))
    return GlimpseStack([AttentionMap(cell.copy(), normalized=True)
                         for _ in range(glimpses)], [True] * glimpses)


class TestRasterize:
    def test_full_image_box_covers_every_cell(self):
        amap = rasterize([BoundingBox(0, 0, 639, 479)], 640, 480, 14, 14)
        assert np.array_equal(amap.values, np.ones((14, 14)))

    def test_two_full_boxes_sum(self):
        box = BoundingBox(0, 0, 639, 479)
        amap = rasterize([box, box], 640, 480, 14, 14)
        assert np.array_equal(amap.values, 2 * np.ones((14, 14)))

    def test_empty_box_list_gives_zero_map(self):
        amap = rasterize([], 640, 480, 14, 14)
        assert amap.values.sum() == 0.0

    def test_matches_per_cell_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            img_w = int(rng.integers(20, 900))
            img_h = int(rng.integers(20, 900))
            boxes = _random_boxes(rng, img_w, img_h)
            ours = rasterize(boxes, img_w, img_h, 14, 14).values
            assert np.array_equal(ours, brute_force_rasterize(boxes, img_w, img_h, 14, 14))

    def test_additive_and_permutation_invariant(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            a = _random_boxes(rng, 300, 200)
            b = _random_boxes(rng, 300, 200)
            joint = rasterize(a + b, 300, 200, 10, 10).values
            split = (rasterize(a, 300, 200, 10, 10).values
                     + rasterize(b, 300, 200, 10, 10).values)
            shuffled = list(a + b)
            rng.shuffle(shuffled)
            assert np.array_equal(joint, split)
            assert np.array_equal(joint, rasterize(shuffled, 300, 200, 10, 10).values)

    def test_single_pixel_box_lands_in_one_cell(self):
        amap = rasterize([BoundingBox(0, 0, 0, 0)], 640, 480, 14, 14)
        assert amap.values.sum() == 1.0
        assert amap.values[0, 0] == 1.0


class TestL1Normalize:
    def test_uniform_map(self):
        amap = l1_normalize(AttentionMap(np.full((14, 14), 3.0)))
        assert np.allclose(amap.values, 1.0 / 196, atol=1e-15)

    def test_point_mass(self):
        values = np.zeros((4, 4))
        values[2, 1] = 7.0
        amap = l1_normalize(AttentionMap(values))
        assert amap.values[2, 1] == 1.0
        assert amap.values.sum() == 1.0

    def test_mixed_cells(self):
        values = np.zeros((2, 2))
        values[0, 0], values[0, 1], values[1, 0] = 1.0, 1.0, 2.0
        amap = l1_normalize(AttentionMap(values))
        assert amap.values[0, 0] == 0.25
        assert amap.values[0, 1] == 0.25
        assert amap.values[1, 0] == 0.5

    def test_zero_map_is_an_error(self):
        with pytest.raises(AttentionError, match="no grounding mass"):
            l1_normalize(AttentionMap(np.zeros((3, 3))))

    def test_cells_whose_total_overflows(self):
        # the total overflowed to inf: a RuntimeWarning, then "must sum to 1"
        amap = l1_normalize(AttentionMap([[1e308, 1e308, 0.0], [1.5e308, 5e307, 1e-300]]))
        assert amap.values.tolist() == [[0.25, 0.25, 0.0], [0.375, 0.125, 0.0]]

    def test_idempotent_and_scale_invariant(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            values = rng.uniform(0, 5, (6, 6))
            once = l1_normalize(AttentionMap(values))
            twice = l1_normalize(once)
            scaled = l1_normalize(AttentionMap(values * rng.uniform(0.1, 9.0)))
            assert np.allclose(once.values, twice.values, atol=1e-15)
            assert np.allclose(once.values, scaled.values, atol=1e-12)
            assert abs(once.values.sum() - 1.0) < 1e-12


class TestBuildSupervision:
    def _triplet(self):
        return QaTriplet("qa", 1, "q?", "a", 640, 480)

    def test_both_components_present(self):
        label = GroundingLabel("qa", [BoundingBox(0, 0, 300, 300)],
                               [BoundingBox(10, 10, 50, 50)], False, 2)
        stack = build_supervision(label, self._triplet())
        assert stack.supervision_mask == [True, True]
        for glimpse in stack.glimpses:
            assert abs(glimpse.values.sum() - 1.0) < 1e-9

    def test_counting_masks_region_glimpse(self):
        label = GroundingLabel("qa", [], [BoundingBox(10, 10, 50, 50)], True, 2)
        stack = build_supervision(label, self._triplet())
        assert stack.supervision_mask == [True, False]
        assert stack.glimpses[1].values.sum() == 0.0

    def test_objects_only_masks_region_glimpse(self):
        label = GroundingLabel("qa", [], [BoundingBox(10, 10, 50, 50)], False, 0)
        stack = build_supervision(label, self._triplet())
        assert stack.supervision_mask == [True, False]

    def test_no_boxes_is_an_error(self):
        label = GroundingLabel("qa", [], [], False, 0)
        with pytest.raises(AttentionError):
            build_supervision(label, self._triplet())


class TestKlDivergence:
    def test_identical_stacks_zero(self):
        rng = np.random.default_rng(14)
        values = rng.uniform(0.01, 1.0, (14, 14))
        p = GlimpseStack([l1_normalize(AttentionMap(values))], [True])
        assert kl_divergence(p, p) == 0.0

    def test_point_mass_vs_uniform_is_log_196(self):
        point = np.zeros((14, 14))
        point[3, 5] = 1.0
        p = GlimpseStack([AttentionMap(point, normalized=True)], [True])
        q = GlimpseStack([AttentionMap(np.full((14, 14), 1 / 196.0), normalized=True)],
                         [True])
        assert kl_divergence(p, q) == pytest.approx(math.log(196), abs=1e-9)

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            pv = rng.uniform(0, 1, (2, 7, 7))
            pv[rng.random((2, 7, 7)) < 0.3] = 0.0  # exercise 0*log0
            pv[:, 0, 0] += 0.01
            pv /= pv.sum(axis=(1, 2), keepdims=True)
            qv = rng.uniform(0.01, 1, (2, 7, 7))
            qv /= qv.sum(axis=(1, 2), keepdims=True)
            masks = [bool(rng.integers(2)), True]
            p = GlimpseStack([AttentionMap(pv[0], normalized=True),
                              AttentionMap(pv[1], normalized=True)], masks)
            q = GlimpseStack([AttentionMap(qv[0], normalized=True),
                              AttentionMap(qv[1], normalized=True)], [True, True])
            ours = kl_divergence(p, q)
            assert ours == pytest.approx(kl_summation(pv, masks, qv), abs=1e-12)
            assert ours >= 0.0

    def test_masked_glimpses_excluded(self):
        uniform = _uniform_stack(7, 7)
        point = np.zeros((7, 7))
        point[0, 0] = 1.0
        p = GlimpseStack([AttentionMap(point, normalized=True),
                          AttentionMap(point.copy(), normalized=True)], [True, False])
        expected = math.log(49)  # only glimpse 0 contributes
        assert kl_divergence(p, uniform) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("target", [[[0.3, 0.3]], [[2.0, 0.0]]],
                             ids=["sum-0.6", "sum-2"])
    def test_unnormalized_target_is_refused(self, target):
        # they gave -0.3065 and 2.7726, a negative KL and one above log 2
        uniform = GlimpseStack([AttentionMap([[0.5, 0.5]], normalized=True)], [True])
        with pytest.raises(AttentionError, match="supervised glimpses must sum to 1"):
            kl_divergence(GlimpseStack([AttentionMap(target)], [True]), uniform)
        # a masked glimpse enters no sum
        assert kl_divergence(GlimpseStack([AttentionMap(target)], [False]), uniform) == 0.0

    def test_shape_mismatch_is_an_error(self):
        with pytest.raises(AttentionError):
            kl_divergence(_uniform_stack(7, 7), _uniform_stack(7, 6))
        with pytest.raises(AttentionError):
            kl_divergence(_uniform_stack(7, 7, glimpses=2),
                          _uniform_stack(7, 7, glimpses=1))


class TestRankCorrelation:
    def test_identical_non_constant_maps(self):
        rng = np.random.default_rng(16)
        amap = AttentionMap(rng.uniform(0, 1, (14, 14)))
        assert rank_correlation(amap, amap) == pytest.approx(1.0, abs=1e-12)

    def test_reversed_ranks(self):
        rng = np.random.default_rng(17)
        values = rng.uniform(0, 1, (14, 14))
        flipped = AttentionMap(values.max() + 1.0 - values)
        assert rank_correlation(AttentionMap(values), flipped) == \
            pytest.approx(-1.0, abs=1e-12)

    def test_matches_scipy_reference(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            a = rng.uniform(0, 1, (14, 14))
            b = rng.uniform(0, 1, (14, 14))
            if rng.random() < 0.5:  # heavy ties, like rasterized maps
                a = np.round(a * 4)
                b = np.round(b * 4)
                if np.all(a == a.ravel()[0]) or np.all(b == b.ravel()[0]):
                    continue
            expected = stats.spearmanr(a.ravel(), b.ravel()).statistic
            ours = rank_correlation(AttentionMap(a), AttentionMap(b))
            assert ours == pytest.approx(expected, abs=1e-9)
            assert -1.0 <= ours <= 1.0

    def test_constant_map_is_an_error(self):
        constant = AttentionMap(np.full((5, 5), 2.0))
        varied = AttentionMap(np.arange(25, dtype=float).reshape(5, 5))
        with pytest.raises(AttentionError, match="undefined correlation"):
            rank_correlation(constant, varied)

    @given(scale=st.floats(0.1, 50.0), shift=st.floats(0.0, 20.0),
           power=st.sampled_from([1.0, 2.0, 3.0]))
    @settings(max_examples=40)
    def test_invariant_under_increasing_transforms(self, scale, shift, power):
        rng = np.random.default_rng(19)
        values = rng.uniform(0, 2, (8, 8))
        other = rng.uniform(0, 2, (8, 8))
        base = rank_correlation(AttentionMap(values), AttentionMap(other))
        transformed = AttentionMap((scale * values + shift) ** power)
        assert rank_correlation(transformed, AttentionMap(other)) == \
            pytest.approx(base, abs=1e-12)


def _assert_reference_ranks(values):
    """midranks of a block equal the oracle's row by row, bit for bit."""
    ranks = midranks(values)
    assert ranks.shape == values.shape and ranks.dtype == np.float64
    for row, expected in zip(ranks, values):
        assert row.tobytes() == reference_fractional_ranks(expected).tobytes()


class TestMidranks:
    @given(rows=st.integers(1, 40).flatmap(lambda n: st.lists(
        st.lists(st.sampled_from([0.0, -0.0, 1.0, 1.5, 2.0, -3.0, np.inf]),
                 min_size=n, max_size=n), min_size=1, max_size=5)))
    @settings(max_examples=200)
    def test_equals_reference_on_tie_heavy_rows(self, rows):
        values = np.array(rows)
        ranks = midranks(values)
        for row, expected in zip(ranks, values):
            assert np.array_equal(row, reference_fractional_ranks(expected))

    def test_equals_reference_on_rasterized_like_rows(self):
        rng = np.random.default_rng(20)
        values = np.round(rng.uniform(0, 4, (30, 196)))
        ranks = midranks(values)
        for row, expected in zip(ranks, values):
            assert np.array_equal(row, reference_fractional_ranks(expected))

    @pytest.mark.parametrize("shape", [(0, 196), (5, 0), (0, 0)])
    def test_empty_block_keeps_its_shape(self, shape):
        ranks = midranks(np.zeros(shape))
        assert ranks.shape == shape and ranks.dtype == np.float64
        assert centred_ranks(np.zeros(shape)).shape == shape

    def test_signed_zero_and_infinite_ties(self):
        rng = np.random.default_rng(23)
        pool = np.array([0.0, -0.0, -np.inf, np.inf, 0.5])
        _assert_reference_ranks(rng.choice(pool, (16, 196)))

    def test_maps_eval_block_of_tied_and_distinct_rows(self):
        # eval-rank ranks a block of rasterized maps (few distinct values)
        # together with their reference maps (all distinct)
        rng = np.random.default_rng(24)
        values = np.concatenate([np.round(rng.uniform(0, 4, (64, 196))),
                                 rng.uniform(0, 1, (64, 196))])
        _assert_reference_ranks(values[rng.permutation(128)])

    def test_centred_ranks_subtract_the_exact_mean(self):
        rng = np.random.default_rng(25)
        values = np.concatenate([np.round(rng.uniform(0, 3, (20, 49))),
                                 rng.uniform(0, 1, (20, 49))])
        mean = (49 + 1) / 2
        centred = centred_ranks(values)
        assert centred.tobytes() == (midranks(values) - mean).tobytes()
        for row, expected in zip(centred, values):
            ranks = reference_fractional_ranks(expected)
            assert row.tobytes() == (ranks - mean).tobytes()
            assert row.tobytes() == (ranks - ranks.mean()).tobytes()

    def test_rows_agree_with_single_map_correlation(self):
        rng = np.random.default_rng(21)
        a = np.round(rng.uniform(0, 3, (6, 49)))
        b = rng.uniform(0, 1, (6, 49))
        a[2] = 1.0  # constant row: undefined
        corr = rank_correlations(a, b)
        assert np.isnan(corr[2])
        for i in (0, 1, 3, 4, 5):
            assert corr[i] == rank_correlation(AttentionMap(a[i].reshape(7, 7)),
                                               AttentionMap(b[i].reshape(7, 7)))


class TestVqaAccuracy:
    def test_three_matches_is_full_credit(self):
        refs = ["cat"] * 3 + ["dog"] * 7
        assert vqa_accuracy("cat", refs) == 1.0

    def test_one_match_is_a_third(self):
        refs = ["cat"] + ["dog"] * 9
        assert vqa_accuracy("cat", refs) == pytest.approx(1 / 3)

    def test_no_match_is_zero(self):
        assert vqa_accuracy("bird", ["cat"] * 10) == 0.0

    def test_exhaustive_min_k_over_3(self):
        for k in range(11):
            refs = ["yes"] * k + [f"no{i}" for i in range(10 - k)]
            assert vqa_accuracy("yes", refs) == pytest.approx(min(k / 3.0, 1.0))

    def test_normalization(self):
        refs = ["Cat!"] * 3 + ["dog"] * 7
        assert vqa_accuracy(" cat ", refs) == 1.0

    @pytest.mark.parametrize("answer, normalized", [
        ("yes .", "yes"), ("two  dogs", "two dogs"), (" Two\tdogs! ", "two dogs"),
        ("a - b", "a b"), ("...", ""), ("", ""), ("1.5", "1.5"),
        ("1.5.", "1.5"), (".5", "5"), ("1 . 5", "1 5"), ("1,.5", "15"), ("a.b", "ab")])
    def test_punctuation_goes_before_whitespace_is_collapsed(self, answer, normalized):
        # ``normalized`` is the text after the punctuation and whitespace
        # steps; where it holds a number word or an article, the token step
        # changes it further
        assert normalize_answer(answer) == {"two dogs": "2 dogs", "a b": "b"}.get(normalized,
                                                                                   normalized)
        assert vqa_accuracy(normalized, [answer] * 3 + ["other"] * 7) == 1.0

    @pytest.mark.parametrize("pred, ref", [("2", "two"), ("dog", "a dog"), ("2", "Two"),
                                           ("0", "none")])
    def test_number_words_and_articles_count_as_vqa_eval_counts_them(self, pred, ref):
        assert vqa_accuracy(pred, [ref] * 10) == 1.0

    @given(answer=st.lists(st.sampled_from(
        ["two", "Two", "TEN", "none", "zero", "eleven", "a", "An", "the", "dog", "1", "5", ".",
         ",", "!", "'", "-", " ", "\t", "\n"]) | st.text(max_size=3), max_size=10).map("".join))
    def test_equals_the_token_loop_reference(self, answer):
        assert normalize_answer(answer) == reference_normalize_answer(answer)

    def test_decimal_answer_does_not_match_its_digits(self):
        assert vqa_accuracy("15", ["1.5"] * 3 + ["no"] * 7) == 0.0
        assert vqa_accuracy("1.5", ["1.5"] * 3 + ["no"] * 7) == 1.0

    def test_wrong_reference_count_is_an_error(self):
        with pytest.raises(AttentionError, match="10"):
            vqa_accuracy("cat", ["cat"] * 9)


_CELL_RULE = "values must be finite numbers >= 0"
_NAN_MAP = [[math.nan, 0.0], [1.0, 2.0]]


class TestCellRule:
    """Every cell of a map is a finite number >= 0, refused where a map
    enters: an ``AttentionMap`` or a maps row, masked or not."""

    @given(cells=st.lists(st.sampled_from([0.0, -0.0, 5e-324, 1.5, 1e308, -1, math.inf,
                                           -math.inf, math.nan]), min_size=1, max_size=6),
           mask=st.booleans())
    @settings(max_examples=300)
    def test_maps_reader_accepts_a_row_exactly_when_attention_map_does(self, cells, mask):
        lawful = all(0 <= v < math.inf for v in cells)  # False for NaN
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "maps.ndjson"
            path.write_text(json.dumps({"qa_id": 1, "glimpse": 0, "h": 1, "w": len(cells),
                                        "mask": mask, "values": cells}) + "\n")
            try:
                read = read_maps(path)[(1, 0)]["values"]
            except InputError as exc:
                assert str(exc) == f"{path}:1: {_CELL_RULE}"
                read = None
        try:
            built = AttentionMap([cells]).values
        except AttentionError as exc:
            assert str(exc) == _CELL_RULE
            built = None
        assert (read is not None) == (built is not None) == lawful
        if lawful:
            assert read.tobytes() == built.tobytes() == np.array([cells], float).tobytes()

    @pytest.mark.parametrize("cell", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
    def test_attention_map_refuses_the_cell(self, cell):
        with pytest.raises(AttentionError, match=_CELL_RULE):
            AttentionMap([[1.0, cell]])

    def test_empty_map_holds_no_cell_to_refuse(self):
        assert AttentionMap(np.zeros((0, 3))).shape == (0, 3)

    def test_rank_correlation_of_a_nan_map_is_refused(self):
        # the NaN was ranked as the largest value: 1.0 against [[3, 0], [1, 2]]
        with pytest.raises(AttentionError, match=_CELL_RULE):
            rank_correlation(AttentionMap(_NAN_MAP), AttentionMap([[3.0, 0.0], [1.0, 2.0]]))

    def test_l1_normalize_of_a_nan_map_is_refused(self):
        # it gave an all-NaN map marked normalized
        with pytest.raises(AttentionError, match=_CELL_RULE):
            l1_normalize(AttentionMap(_NAN_MAP))

    def test_kl_target_with_a_nan_cell_is_refused(self):
        # the NaN cell was dropped from the sum without an error
        uniform = GlimpseStack([AttentionMap(np.full((2, 2), 0.25), normalized=True)], [True])
        with pytest.raises(AttentionError, match=_CELL_RULE):
            kl_divergence(GlimpseStack([AttentionMap(_NAN_MAP)], [True]), uniform)

    def test_pgm_of_a_nan_map_is_refused(self):
        # the whole map rendered black
        with pytest.raises(AttentionError, match=_CELL_RULE):
            pgm_bytes(AttentionMap(_NAN_MAP).values)


class TestPgm:
    def test_uniform_map_renders_constant_white(self):
        data = pgm_bytes(np.full((4, 6), 0.25))
        assert data.startswith(b"P5\n6 4\n255\n")
        assert data[11:] == bytes([255]) * 24

    def test_point_mass_single_white_pixel(self):
        values = np.zeros((3, 3))
        values[1, 2] = 0.8
        data = pgm_bytes(values)
        body = data[len(b"P5\n3 3\n255\n"):]
        assert body.count(255) == 1
        assert body[1 * 3 + 2] == 255

    def test_matches_reference_encoder(self):
        rng = np.random.default_rng(21)
        values = rng.uniform(0, 2, (14, 14))
        assert pgm_bytes(values) == pgm_reference(values)

    def test_zero_map_renders_black(self):
        data = pgm_bytes(np.zeros((2, 2)))
        assert data[len(b"P5\n2 2\n255\n"):] == bytes(4)


def _bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


_SPECIAL = [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, -5e-324,
            2.2250738585072014e-308, 1e-310, 1e300, -1e300, 1.7976931348623157e308,
            1 / 3, 2 / 7, 0.1234567895, 1.0, 2.0]
_CELL_BITS = st.one_of(
    st.integers(0, 2**64 - 1),  # any pattern: NaN payloads, subnormals, huge values
    st.floats(width=64).map(_bits),
    st.sampled_from(_SPECIAL).map(_bits),
    st.sampled_from([0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001]),
)


@given(cells=st.lists(_CELL_BITS, min_size=1, max_size=60), rows=st.integers(1, 4))
@settings(max_examples=300)
def test_round9_text_equals_per_cell_json_of_round9(cells, rows):
    values = np.array(cells * rows, dtype=np.uint64).view(np.float64).reshape(rows, -1)
    got = round9_text(values)
    assert got.shape == values.shape
    assert got.ravel().tolist() == [json.dumps(round9(v)) for v in values.ravel().tolist()]
