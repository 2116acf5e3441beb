"""The paper's claim through all four stages, with labels the miner found:
attention trained toward mined supervision correlates better with the true
grounding than attention trained on the answers alone.

Corpus with planted truth → ``mine`` (fixture lexicon and aliases) →
``supervision_block`` on the toy model's 7x7 grid → ``train`` at fixed
alpha 1 and alpha 0, on features that carry the answer only inside the
truth box. The score is the mean Spearman coefficient of each sample's
glimpse-0 attention against the rasterized truth box."""

import dataclasses
import time

import numpy as np

from vgmine.attention import rank_correlations, rasterize, supervision_block
from vgmine.miner import mine
from vgmine.schedule import Schedule
from vgmine.toymodel import ToyConfig, _planted, forward, train

from corpusgen import planted_corpus

CFG = ToyConfig()
IMAGES = 8
SAME_NAME_SHARE = 0.3
GAP = 0.2  # the bound of acceptance criterion 6


def _truth_correlation(params, samples, truth):
    """Mean Spearman coefficient of each sample's glimpse-0 attention
    against its row of ``truth``."""
    attn = np.stack([forward(params, s)[0][0].ravel() for s in samples])
    return float(rank_correlations(attn, truth).mean())


def test_mined_supervision_raises_attention_correlation_with_the_truth(lexicon):
    start = time.perf_counter()
    dataset, boxes = planted_corpus(np.random.default_rng(31), IMAGES, SAME_NAME_SHARE)
    labels = mine(dataset, lexicon)
    assert [label.qa_id for label in labels] == [t.qa_id for t in dataset.triplets]
    glimpses, masks = supervision_block(labels, dataset.triplets, CFG.grid_h, CFG.grid_w)
    truth = np.stack([rasterize([box], t.image_width, t.image_height, CFG.grid_h, CFG.grid_w)
                      .values for box, t in zip(boxes, dataset.triplets)])
    flat_truth = truth.reshape(IMAGES, -1)
    mined = rank_correlations(glimpses[:, 0].reshape(IMAGES, -1), flat_truth)
    print(f"mined glimpse 0 against the truth: mean {mined.mean():.3f}, min {mined.min():.3f}")

    rng = np.random.default_rng(32)
    samples = [_planted(CFG, rng, int(rng.integers(CFG.num_answers)), box) for box in truth]
    rows = list(zip(glimpses, masks))

    def score(alpha, supervision):
        data = [dataclasses.replace(s, supervision=row) for s, row in zip(samples, supervision)]
        params, _ = train(data, CFG, Schedule(t_max=CFG.steps, mode="fixed", fixed_value=alpha))
        return _truth_correlation(params, data, flat_truth)

    unsupervised = score(0.0, rows)
    gap = score(1.0, rows) - unsupervised
    control = score(1.0, rows[1:] + rows[:1]) - unsupervised  # the next image's mined map
    print(f"alpha 0 against the truth: {unsupervised:.3f}; gap of alpha 1: {gap:.3f}; "
          f"gap of alpha 1 on the next image's map: {control:.3f}")
    assert gap >= GAP
    assert control < GAP
    assert time.perf_counter() - start < 5.0
