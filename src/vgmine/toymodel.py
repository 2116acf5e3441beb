"""Desk-scale differentiable attention VQA model.

Question features modulate image features through a Hadamard fusion with
relu; per-cell projections give one softmax attention distribution per
glimpse; attention-weighted image features concatenated with the question
features feed a linear classifier. Trained by full-batch gradient descent
on cross-entropy plus the schedule-weighted KL attention term, with exact
analytic gradients (float64 throughout so finite-difference checks are
reliable).

One batched core computes the forward pass, the losses and the gradients
for N samples at once on (N, C, H*W) arrays; ``forward`` and
``loss_and_grads`` run it on a batch of one, and ``train`` on the whole
training set at every step. Every matrix product is a stacked ``matmul``,
so each sample gets the same BLAS call it would get on its own.

A training step's state has one owner, ``_Batch``, built once per
training set. It holds what does not change from step to step (the
one-hot answers, the KL weights, the flat indices of the cells KL sums
and the target mass there) and the buffers every pass overwrites: the
fusion and relu (N, C, H*W) arrays, the classifier input (its question
columns filled once) and the gradient vector. The four weight arrays are
reshaped views of one flat vector, and so are the four gradient sums, so
a training step updates every weight in place with one array operation.
A pass returns only what it makes new (ce, kl, attention and logits),
because ``train`` keeps a block of steps of them for the metrics;
``forward`` and ``loss_and_grads`` build a batch per call, so what they
return is theirs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .attention import (BLOCK_SIZE, AttentionError, _check_targets, centred_ranks, kl_rows,
                        pearson_rows, round9_text)
# The per-sample scalar forms of the batched loss and metric below, importable
# from here because perfbench/tracing.py wraps them by this module's name.
from .attention import kl_divergence, rank_correlation  # noqa: F401
from .records import fmt9, write_csv, write_lines
from .schedule import LossBreakdown, Schedule, total_loss


class ToyModelError(Exception):
    """Shape mismatch, non-finite intermediate, or training divergence."""


@dataclass(frozen=True)
class ToyConfig:
    question_dim: int = 8          # D
    image_channels: int = 16       # C
    grid_h: int = 7
    grid_w: int = 7
    glimpses: int = 2              # G_v
    num_answers: int = 5           # K
    seed: int = 0
    steps: int = 2000
    learning_rate: float = 0.5

    def __post_init__(self) -> None:
        for name in ("question_dim", "image_channels", "grid_h", "grid_w",
                     "glimpses", "num_answers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0 < self.learning_rate < float("inf"):  # NaN fails too
            raise ValueError("learning_rate must be finite and positive")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")

    @property
    def cells(self) -> int:
        return self.grid_h * self.grid_w


@dataclass
class ToyModelParams:
    """All trainable weights; also used as the gradient container. Made by
    ``init_params`` or ``_batch``, the four arrays are reshaped views of one
    vector, ``vector``, in ``named_arrays`` order; built by hand they may
    be separate arrays, with ``vector`` None."""

    w_question: np.ndarray    # (C, D)
    fusion_bias: np.ndarray   # (C,)
    w_attention: np.ndarray   # (G, C)
    w_classifier: np.ndarray  # (K, D + G*C)
    vector: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def of_vector(cls, vector: np.ndarray, shapes: list[tuple[int, ...]]) -> ToyModelParams:
        """The four arrays of the given shapes as consecutive views of
        ``vector``, which must hold exactly their elements."""
        arrays, end = [], 0
        for shape in shapes:
            start, end = end, end + math.prod(shape)
            arrays.append(vector[start:end].reshape(shape))
        if end != vector.size:
            raise ToyModelError("parameter vector size mismatch")
        return cls(*arrays, vector=vector)

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        return [("w_question", self.w_question),
                ("fusion_bias", self.fusion_bias),
                ("w_attention", self.w_attention),
                ("w_classifier", self.w_classifier)]


@dataclass
class ToySample:
    q_feat: np.ndarray    # (D,)
    img_feat: np.ndarray  # (C, H, W)
    answer: int
    # one row of supervision_block: (G, H, W) float glimpses and their (G,) bool mask
    supervision: tuple[np.ndarray, np.ndarray] | None = None


@dataclass
class MetricsRow:
    step: int
    ce: float
    kl: float
    alpha: float
    accuracy: float
    rank_corr: float


def init_params(cfg: ToyConfig, rng: np.random.Generator) -> ToyModelParams:
    """Every weight uniform in [-0.1, 0.1), drawn in one call: the same
    numbers as one draw per array in ``named_arrays`` order."""
    c, d, g = cfg.image_channels, cfg.question_dim, cfg.glimpses
    shapes = [(c, d), (c,), (g, c), (cfg.num_answers, d + g * c)]
    return ToyModelParams.of_vector(rng.uniform(-0.1, 0.1, sum(map(math.prod, shapes))), shapes)


def _check_finite(name: str, arr: np.ndarray) -> None:
    """Raises ToyModelError unless every value is finite."""
    if not np.isfinite(arr).all():
        raise ToyModelError(f"non-finite values in {name}")


@dataclass(frozen=True)
class _Batch:
    """N samples as arrays, built once: features, answers, the KL targets
    with their weights and support, and the buffers a pass overwrites."""

    q_feat: np.ndarray        # (N, D)
    img: np.ndarray           # (N, C, H*W)
    answers: np.ndarray       # (N,)
    answer_cells: np.ndarray  # (N,) flat indices of the answers in an (N, K) array
    onehot: np.ndarray        # (N, K) float: 1 at each sample's answer
    supervised: np.ndarray    # (N,) bool: the sample has a supervision row
    kl_weight: np.ndarray     # (N, G, 1) float: 1 where the glimpse enters KL, else 0
    targets: np.ndarray       # (N, G, H*W), zero where kl_weight is 0
    kl_cells: np.ndarray      # flat indices of targets > 0, the cells KL sums
    kl_mass: np.ndarray       # targets at kl_cells
    pre_fusion: np.ndarray    # (N, C, H*W) buffers of _forward and _pass
    fused: np.ndarray         # (N, C, H*W)
    classifier_in: np.ndarray  # (N, D + G*C), the question columns filled here
    grads: ToyModelParams     # the gradient sums of _pass, views of one vector


def _batch(samples: list[ToySample], params: ToyModelParams) -> _Batch:
    """The samples as one batch, each checked against the model's shapes."""
    k = params.w_classifier.shape[0]
    g, c = params.w_attention.shape
    for sample in samples:
        if not 0 <= sample.answer < k:
            raise ToyModelError(f"answer {sample.answer} out of range")
    if len({(s.q_feat.shape, s.img_feat.shape) for s in samples}) > 1:
        raise ToyModelError("samples differ in feature shapes")
    if samples[0].q_feat.ndim != 1 or samples[0].img_feat.ndim != 3:
        raise ToyModelError("features must be (D,) and (C, H, W) arrays")
    channels, h, w = samples[0].img_feat.shape
    d = samples[0].q_feat.shape[0]
    if channels != c:
        raise ToyModelError(f"image has {channels} channels, the attention weights {c}")
    if params.w_question.shape != (c, d):
        raise ToyModelError("question projection shape mismatch")
    if params.fusion_bias.shape != (c,):
        raise ToyModelError("fusion bias shape mismatch")
    if params.w_classifier.shape != (k, d + g * c):
        raise ToyModelError("classifier shape mismatch")

    n = len(samples)
    supervised = np.array([s.supervision is not None for s in samples])
    kl_mask = np.zeros((n, g), dtype=bool)
    targets = np.zeros((n, g, h, w))
    rows = [s.supervision for s in samples if s.supervision is not None]
    if any(np.shape(glimpses) != (g, h, w) or np.shape(mask) != (g,) for glimpses, mask in rows):
        raise AttentionError(f"supervision must be ({g}, {h}, {w}) glimpses and a ({g},) mask")
    glimpses = np.array([gl for gl, _ in rows], dtype=np.float64).reshape(-1, g, h, w)
    masks = np.array([mask for _, mask in rows], dtype=bool).reshape(-1, g)
    _check_targets(glimpses, masks)  # the closed-form KL gradient in _pass needs normalized ones
    kl_mask[supervised] = masks
    targets[supervised] = np.where(masks[:, :, None, None], glimpses, 0.0)
    answers = np.array([s.answer for s in samples])
    answer_cells = np.arange(n) * k + answers
    onehot = np.zeros((n, k))
    onehot.put(answer_cells, 1.0)
    kl_cells = np.flatnonzero(targets > 0)
    q_feat = np.stack([s.q_feat for s in samples])
    classifier_in = np.empty((n, d + g * c))
    classifier_in[:, :d] = q_feat
    shapes = [arr.shape for _, arr in params.named_arrays()]
    fusion_shape = (n, c, h * w)
    return _Batch(
        q_feat=q_feat,
        img=np.stack([s.img_feat.reshape(-1, h * w) for s in samples]),
        answers=answers,
        answer_cells=answer_cells,
        onehot=onehot,
        supervised=supervised,
        kl_weight=kl_mask[:, :, None].astype(float),
        targets=targets.reshape(n, g, h * w),
        kl_cells=kl_cells,
        kl_mass=targets.take(kl_cells),
        pre_fusion=np.empty(fusion_shape),
        fused=np.empty(fusion_shape),
        classifier_in=classifier_in,
        grads=ToyModelParams.of_vector(np.empty(sum(map(math.prod, shapes))), shapes),
    )


def _forward(params: ToyModelParams, batch: _Batch) -> tuple[np.ndarray, np.ndarray]:
    """(N, G, H*W) attention, each row summing to 1, and (N, K) answer
    logits; the fusion, relu and classifier input are left in the batch."""
    img = batch.img
    qproj = (params.w_question @ batch.q_feat[:, :, None])[:, :, 0]      # (N, C)
    pre_fusion = np.multiply(qproj[:, :, None], img, out=batch.pre_fusion)
    pre_fusion += params.fusion_bias[:, None]
    _check_finite("fusion", pre_fusion)
    fused = np.maximum(pre_fusion, 0.0, out=batch.fused)
    attn = params.w_attention @ fused                                     # (N, G, HW)
    _check_finite("attention logits", attn)
    # the logits become the softmax in place, in a new array every step
    attn -= attn.max(axis=2, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=2, keepdims=True)
    weighted = attn @ img.transpose(0, 2, 1)                              # (N, G, C)
    _check_finite("weighted features", weighted)
    classifier_in = batch.classifier_in
    classifier_in[:, batch.q_feat.shape[1]:] = weighted.reshape(len(weighted), -1)
    logits = (params.w_classifier @ classifier_in[:, :, None])[:, :, 0]   # (N, K)
    _check_finite("classifier logits", logits)
    return attn, logits


def _pass(params: ToyModelParams, batch: _Batch, alpha: float
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Forward pass, per-sample cross-entropy and KL toward the supervised
    glimpses, and the exact analytic gradients of ce + alpha * kl, summed
    over the samples into the batch's gradient vector. Returns what the pass
    makes new: the (N,) ce, the (N,) kl (0 for samples without supervision),
    the (N, G, H*W) attention and the (N, K) logits."""
    attn, logits = _forward(params, batch)

    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    ce = log_z - shifted.take(batch.answer_cells)
    probs = np.exp(shifted - log_z[:, None])

    kl = kl_rows(batch.kl_mass, attn, batch.kl_cells)  # KL(target || attn)

    n, d = batch.q_feat.shape
    g, c = params.w_attention.shape
    d_logits = probs - batch.onehot
    g_classifier = d_logits[:, :, None] * batch.classifier_in[:, None, :]
    d_weighted = (params.w_classifier.T @ d_logits[:, :, None])[:, d:, 0].reshape(n, g, c)
    d_attn = d_weighted @ batch.img                                       # (N, G, HW)

    # softmax backward over the cells; the KL term's gradient at the logits
    # is alpha * (attn - target), exact because each target sums to 1
    inner = (d_attn * attn).sum(axis=2, keepdims=True)
    d_attn_logits = attn * (d_attn - inner)
    d_attn_logits += (alpha * batch.kl_weight) * (attn - batch.targets)
    g_attention = d_attn_logits @ batch.fused.transpose(0, 2, 1)          # (N, G, C)
    d_pre = params.w_attention.T @ d_attn_logits                          # (N, C, HW)
    d_pre *= batch.pre_fusion > 0.0
    g_bias = d_pre.sum(axis=2)
    d_pre *= batch.img  # d_pre is not read again: it takes the product
    d_qproj = d_pre.sum(axis=2)
    g_question = d_qproj[:, :, None] * batch.q_feat[:, None, :]

    grads = batch.grads
    g_question.sum(axis=0, out=grads.w_question)
    g_bias.sum(axis=0, out=grads.fusion_bias)
    g_attention.sum(axis=0, out=grads.w_attention)
    g_classifier.sum(axis=0, out=grads.w_classifier)
    return ce, kl, attn, logits


def forward(params: ToyModelParams, sample: ToySample) -> tuple[np.ndarray, np.ndarray]:
    """Fusion, per-glimpse softmax attention over the grid cells,
    attention-weighted feature pooling, and answer logits: the (G, H, W)
    attention, each glimpse summing to 1, and the (K,) logits."""
    (attn,), (logits,) = _forward(params, _batch([sample], params))
    return attn.reshape(len(attn), *sample.img_feat.shape[1:]), logits


def loss_and_grads(params: ToyModelParams, sample: ToySample,
                   schedule: Schedule, t: int) -> tuple[LossBreakdown, ToyModelParams]:
    """Loss breakdown and exact analytic gradients for one sample."""
    batch = _batch([sample], params)
    ce, kl, _, _ = _pass(params, batch, schedule.alpha(t))
    kl0 = float(kl[0]) if sample.supervision is not None else None
    return total_loss(float(ce[0]), kl0, schedule, t), batch.grads


def _sample_metrics(attn0: np.ndarray, target_ranks: np.ndarray) -> np.ndarray:
    """Rank correlation of each supervised sample's glimpse-0 attention with
    its glimpse-0 supervision over a block of steps: (steps, samples, cells)
    attention against the (samples, cells) ``target_ranks`` gives
    (steps, samples) coefficients, NaN where undefined (a constant map)."""
    steps, m, cells = attn0.shape
    ranks = centred_ranks(attn0.reshape(steps * m, cells))
    return pearson_rows(ranks, np.tile(target_ranks, (steps, 1))).reshape(steps, m)


def _row_means(values: np.ndarray, counts: int | np.ndarray, empty: float) -> np.ndarray:
    """Each row of a (steps, k) array summed left to right, as a running
    total adds, and divided by its count; ``empty`` where the count is 0."""
    steps, k = values.shape
    totals = np.cumsum(values, axis=1)[:, -1] if k else np.zeros(steps)
    return np.divide(totals, counts, out=np.full(steps, empty), where=counts > 0)


def _metrics_rows(first: int, pending: list[tuple], batch: _Batch,
                  target_ranks: np.ndarray) -> list[MetricsRow]:
    """The metrics rows of consecutive steps from ``first`` on, made in one
    batched pass from each step's (alpha, ce, kl, attention, logits)."""
    alphas, ce, kl, attn, logits = zip(*pending)
    supervised = batch.supervised
    kl = np.stack(kl)[:, supervised]
    corr = _sample_metrics(np.stack(attn)[:, supervised, 0], target_ranks)
    defined = ~np.isnan(corr)
    n, m = len(supervised), kl.shape[1]
    correct = np.count_nonzero(np.argmax(np.stack(logits), axis=2) == batch.answers, axis=1)
    columns = (
        _row_means(np.stack(ce), n, 0.0).tolist(),
        _row_means(kl, m, 0.0).tolist(),
        alphas,
        (correct / n).tolist(),
        # -0.0, not 0.0: adding it leaves every running total as it was, -0.0 too
        _row_means(np.where(defined, corr, -0.0), defined.sum(axis=1), float("nan")).tolist(),
    )
    return [MetricsRow(first + i, *row) for i, row in enumerate(zip(*columns))]


def train(data: list[ToySample], cfg: ToyConfig, schedule: Schedule
          ) -> tuple[ToyModelParams, list[MetricsRow]]:
    """Full-batch gradient descent for cfg.steps; one metrics row per step
    (evaluated before the update) plus a final row after the last update.
    The rows are made per block of steps, up to ``BLOCK_SIZE`` rank rows
    each, from the losses, attention and logits kept for the block.
    Deterministic given cfg.seed. A numeric failure at step t raises
    ToyModelError("training diverged at step t: <reason>"), without numpy
    warnings: the steps run under ``np.errstate``, and the finiteness checks
    turn every non-finite value into that error."""
    if not data:
        raise ToyModelError("training data must be nonempty")
    rng = np.random.default_rng(cfg.seed)
    params = init_params(cfg, rng)
    weights = params.vector  # the four arrays of params are views of it
    batch = _batch(data, params)
    grads = batch.grads.vector  # every pass sums its gradients into views of it
    n, cells = len(data), batch.img.shape[2]
    # the rank metric's side that does not change: each supervised sample's glimpse-0 map
    target_ranks = centred_ranks(np.array(
        [s.supervision[0][0].ravel() for s in data if s.supervision is not None], dtype=np.float64
    ).reshape(-1, cells))
    block = max(1, BLOCK_SIZE // max(len(target_ranks), 1))
    metrics: list[MetricsRow] = []
    pending: list[tuple] = []

    with np.errstate(all="ignore"):
        for t in range(cfg.steps + 1):
            alpha = schedule.alpha(t)
            try:
                ce, kl, attn, logits = _pass(params, batch, alpha)
                if not (np.isfinite(ce).all() and np.isfinite(kl).all()):
                    raise ToyModelError("non-finite loss")
            except (AttentionError, ToyModelError) as exc:
                raise ToyModelError(f"training diverged at step {t}: {exc}") from exc
            pending.append((alpha, ce, kl, attn, logits))
            if len(pending) == block or t == cfg.steps:
                metrics += _metrics_rows(len(metrics), pending, batch, target_ranks)
                pending = []
            if t == cfg.steps:
                break
            # the gradient buffer, scaled in place: the bits of lr * (g / n)
            grads /= n
            grads *= cfg.learning_rate
            weights -= grads
    return params, metrics


def _planted(cfg: ToyConfig, rng: np.random.Generator, answer: int, box: np.ndarray
             ) -> ToySample:
    """An unsupervised sample whose ``answer`` is decodable only inside ``box``, an (H, W) 0/1
    grid: over noise, channel 0 marks the box and channel 1+answer carries the class there."""
    img = rng.normal(0.0, 0.3, (cfg.image_channels, *box.shape))
    img[0] = box + rng.normal(0.0, 0.05, box.shape)
    img[1 + answer] += box
    return ToySample(q_feat=rng.normal(0.0, 1.0, cfg.question_dim), img_feat=img, answer=answer)


def make_synthetic(cfg: ToyConfig, n: int, seed: int) -> list[ToySample]:
    """Samples planted (``_planted``) in a random grid box, a proper
    sub-grid; each glimpse of the supervision is the box's normalized
    rasterization, all unmasked."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if cfg.image_channels < cfg.num_answers + 1:
        raise ValueError("need image_channels >= num_answers + 1 for the "
                         "planted class signal")
    if cfg.cells < 2:  # the one box of a 1x1 grid is the whole grid
        raise ValueError("need grid_h * grid_w >= 2 for a planted box that is "
                         "a proper sub-grid")
    rng = np.random.default_rng(seed)
    h, w = cfg.grid_h, cfg.grid_w
    samples = []
    for _ in range(n):
        answer = int(rng.integers(cfg.num_answers))
        while True:
            x0 = int(rng.integers(w))
            x1 = int(rng.integers(x0, w))
            y0 = int(rng.integers(h))
            y1 = int(rng.integers(y0, h))
            if not (x0 == 0 and y0 == 0 and x1 == w - 1 and y1 == h - 1):
                break
        box = np.zeros((h, w))
        box[y0:y1 + 1, x0:x1 + 1] = 1.0
        sample = _planted(cfg, rng, answer, box)
        sample.supervision = (np.repeat((box / box.sum())[None], cfg.glimpses, axis=0),
                              np.ones(cfg.glimpses, dtype=bool))
        samples.append(sample)
    return samples


# --- serialization -------------------------------------------------------

def write_metrics(rows: list[MetricsRow], path: str | Path) -> None:
    """CSV with columns step, ce, kl, alpha, accuracy, rank_corr."""
    header = ["step", "ce", "kl", "alpha", "accuracy", "rank_corr"]
    write_csv(path, [header] + [
        [row.step] + [fmt9(v) for v in (row.ce, row.kl, row.alpha, row.accuracy, row.rank_corr)]
        for row in rows])


def write_params(params: ToyModelParams, path: str | Path) -> None:
    """NDJSON of named flat arrays: {name, shape, values}."""
    write_lines(path, (f'{{"name": {json.dumps(name)}, "shape": {json.dumps(list(arr.shape))}, '
                       f'"values": [{", ".join(round9_text(arr).ravel().tolist())}]}}\n'
                       for name, arr in params.named_arrays()))
