"""Desk-scale differentiable attention VQA model.

Question features modulate image features through a Hadamard fusion with
relu; per-cell projections give one softmax attention distribution per
glimpse; attention-weighted image features concatenated with the question
features feed a linear classifier. Trained by full-batch gradient descent
on cross-entropy plus the schedule-weighted KL attention term, with exact
analytic gradients (float64 throughout so finite-difference checks are
reliable).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .attention import (AttentionError, AttentionMap, GlimpseStack, kl_divergence,
                        rank_correlation)
from .records import fmt9, read_ndjson, round9, write_csv, write_ndjson
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
    fusion_dim: int = 16           # O; Hadamard fusion requires O == C
    seed: int = 0
    steps: int = 2000
    learning_rate: float = 0.5

    def __post_init__(self) -> None:
        for name in ("question_dim", "image_channels", "grid_h", "grid_w",
                     "glimpses", "num_answers", "fusion_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.fusion_dim != self.image_channels:
            raise ValueError("Hadamard fusion requires fusion_dim == image_channels")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")

    @property
    def cells(self) -> int:
        return self.grid_h * self.grid_w


@dataclass
class ToyModelParams:
    """All trainable weights; also used as the gradient container."""

    w_question: np.ndarray    # (C, D)
    fusion_bias: np.ndarray   # (C,)
    w_attention: np.ndarray   # (G, C)
    w_classifier: np.ndarray  # (K, D + G*C)

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
    supervision: GlimpseStack | None = None


@dataclass
class ForwardResult:
    attention: GlimpseStack   # G_v glimpses, each summing to 1
    logits: np.ndarray        # (K,)
    cache: dict = field(default_factory=dict)


@dataclass
class MetricsRow:
    step: int
    ce: float
    kl: float
    alpha: float
    accuracy: float
    rank_corr: float


def init_params(cfg: ToyConfig, rng: np.random.Generator) -> ToyModelParams:
    def uniform(*shape: int) -> np.ndarray:
        return rng.uniform(-0.1, 0.1, shape)

    return ToyModelParams(
        w_question=uniform(cfg.image_channels, cfg.question_dim),
        fusion_bias=uniform(cfg.image_channels),
        w_attention=uniform(cfg.glimpses, cfg.image_channels),
        w_classifier=uniform(cfg.num_answers,
                             cfg.question_dim + cfg.glimpses * cfg.image_channels),
    )


def _check_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise ToyModelError(f"non-finite values in {name}")


def _softmax_rows(a: np.ndarray) -> np.ndarray:
    shifted = a - a.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def forward(params: ToyModelParams, sample: ToySample) -> ForwardResult:
    """Fusion, per-glimpse softmax attention over the grid cells,
    attention-weighted feature pooling, and answer logits."""
    c, h, w = sample.img_feat.shape
    g = params.w_attention.shape[0]
    d = sample.q_feat.shape[0]
    if params.w_question.shape != (c, d):
        raise ToyModelError("question projection shape mismatch")

    img2d = sample.img_feat.reshape(c, h * w)
    qproj = params.w_question @ sample.q_feat                      # (C,)
    pre_fusion = qproj[:, None] * img2d + params.fusion_bias[:, None]
    _check_finite("fusion", pre_fusion)
    fused = np.maximum(pre_fusion, 0.0)                            # (C, HW)
    attn_logits = params.w_attention @ fused                       # (G, HW)
    _check_finite("attention logits", attn_logits)
    attn = _softmax_rows(attn_logits)                              # rows sum to 1
    weighted = attn @ img2d.T                                      # (G, C)
    _check_finite("weighted features", weighted)
    classifier_in = np.concatenate([sample.q_feat, weighted.ravel()])
    logits = params.w_classifier @ classifier_in                   # (K,)
    _check_finite("classifier logits", logits)

    glimpse_maps = [AttentionMap(attn[i].reshape(h, w), normalized=True)
                    for i in range(g)]
    stack = GlimpseStack(glimpse_maps, [True] * g)
    cache = {
        "img2d": img2d,
        "pre_fusion": pre_fusion,
        "fused": fused,
        "attn": attn,
        "classifier_in": classifier_in,
    }
    return ForwardResult(attention=stack, logits=logits, cache=cache)


def _cross_entropy(logits: np.ndarray, answer: int) -> tuple[float, np.ndarray]:
    shifted = logits - logits.max()
    log_z = float(np.log(np.exp(shifted).sum()))
    ce = log_z - float(shifted[answer])
    probs = np.exp(shifted - log_z)
    return ce, probs


def loss_and_grads(params: ToyModelParams, sample: ToySample,
                   schedule: Schedule, t: int,
                   fwd: ForwardResult | None = None
                   ) -> tuple[LossBreakdown, ToyModelParams]:
    """Loss breakdown and exact analytic gradients for one sample."""
    if not 0 <= sample.answer < params.w_classifier.shape[0]:
        raise ToyModelError(f"answer {sample.answer} out of range")
    fwd = fwd or forward(params, sample)
    ce, probs = _cross_entropy(fwd.logits, sample.answer)
    kl = None
    if sample.supervision is not None:
        kl = kl_divergence(sample.supervision, fwd.attention)
    breakdown = total_loss(ce, kl, schedule, t)

    img2d = fwd.cache["img2d"]
    attn = fwd.cache["attn"]
    fused = fwd.cache["fused"]
    pre_fusion = fwd.cache["pre_fusion"]
    classifier_in = fwd.cache["classifier_in"]
    d = sample.q_feat.shape[0]
    g, c = params.w_attention.shape

    d_logits = probs.copy()
    d_logits[sample.answer] -= 1.0
    g_classifier = np.outer(d_logits, classifier_in)
    d_weighted = (params.w_classifier.T @ d_logits)[d:].reshape(g, c)
    d_attn = d_weighted @ img2d                                    # (G, HW)

    if sample.supervision is not None and breakdown.alpha != 0.0:
        for gi, supervised in enumerate(sample.supervision.supervision_mask):
            if not supervised:
                continue
            target = sample.supervision.glimpses[gi].values.ravel()
            d_attn[gi] += breakdown.alpha * (-(target / attn[gi]))

    # softmax backward, row-wise over cells
    inner = (d_attn * attn).sum(axis=1, keepdims=True)
    d_attn_logits = attn * (d_attn - inner)
    g_attention = d_attn_logits @ fused.T
    d_fused = params.w_attention.T @ d_attn_logits                 # (C, HW)
    d_pre = d_fused * (pre_fusion > 0)
    g_bias = d_pre.sum(axis=1)
    d_qproj = (d_pre * img2d).sum(axis=1)
    g_question = np.outer(d_qproj, sample.q_feat)

    grads = ToyModelParams(
        w_question=g_question,
        fusion_bias=g_bias,
        w_attention=g_attention,
        w_classifier=g_classifier,
    )
    return breakdown, grads


def _sample_metrics(fwd: ForwardResult, sample: ToySample) -> float | None:
    """Rank correlation against glimpse-0 supervision, when defined."""
    if sample.supervision is None:
        return None
    try:
        return rank_correlation(fwd.attention.glimpses[0],
                                sample.supervision.glimpses[0])
    except AttentionError:  # undefined on a constant map
        return None


def train(data: list[ToySample], cfg: ToyConfig, schedule: Schedule
          ) -> tuple[ToyModelParams, list[MetricsRow]]:
    """Full-batch gradient descent for cfg.steps; one metrics row per step
    (evaluated before the update) plus a final row after the last update.
    Deterministic given cfg.seed."""
    if not data:
        raise ToyModelError("training data must be nonempty")
    rng = np.random.default_rng(cfg.seed)
    params = init_params(cfg, rng)
    metrics: list[MetricsRow] = []

    for t in range(cfg.steps + 1):
        ce_sum = kl_sum = 0.0
        supervised = 0
        correct = 0
        corr_sum = 0.0
        corr_count = 0
        grad_sums = [np.zeros_like(arr) for _, arr in params.named_arrays()]

        for sample in data:
            fwd = forward(params, sample)
            breakdown, grads = loss_and_grads(params, sample, schedule, t, fwd=fwd)
            if not np.isfinite(breakdown.total):
                raise ToyModelError(f"training diverged at step {t}")
            ce_sum += breakdown.ce
            if sample.supervision is not None:
                kl_sum += breakdown.kl
                supervised += 1
            if int(np.argmax(fwd.logits)) == sample.answer:
                correct += 1
            corr = _sample_metrics(fwd, sample)
            if corr is not None:
                corr_sum += corr
                corr_count += 1
            for acc, (_, arr) in zip(grad_sums, grads.named_arrays()):
                acc += arr

        n = len(data)
        metrics.append(MetricsRow(
            step=t,
            ce=ce_sum / n,
            kl=kl_sum / supervised if supervised else 0.0,
            alpha=schedule.alpha(t),
            accuracy=correct / n,
            rank_corr=corr_sum / corr_count if corr_count else float("nan"),
        ))
        if t == cfg.steps:
            break
        for (_, arr), grad in zip(params.named_arrays(), grad_sums):
            arr -= cfg.learning_rate * (grad / n)
    return params, metrics


def make_synthetic(cfg: ToyConfig, n: int, seed: int,
                   box: tuple[int, int, int, int] | None = None) -> list[ToySample]:
    """Samples whose answer is decodable only from the image cells inside a
    planted grid box; supervision is the box's normalized rasterization.

    Channel 0 marks the box; channel 1+answer carries the class signal
    inside the box only. ``box`` (x0, y0, x1, y1 in grid cells) pins the
    same box for every sample; otherwise boxes are random proper sub-grids.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if cfg.image_channels < cfg.num_answers + 1:
        raise ValueError("need image_channels >= num_answers + 1 for the "
                         "planted class signal")
    rng = np.random.default_rng(seed)
    h, w = cfg.grid_h, cfg.grid_w
    samples = []
    for _ in range(n):
        answer = int(rng.integers(cfg.num_answers))
        if box is not None:
            x0, y0, x1, y1 = box
        else:
            while True:
                x0 = int(rng.integers(w))
                x1 = int(rng.integers(x0, w))
                y0 = int(rng.integers(h))
                y1 = int(rng.integers(y0, h))
                if not (x0 == 0 and y0 == 0 and x1 == w - 1 and y1 == h - 1):
                    break
        indicator = np.zeros((h, w))
        indicator[y0:y1 + 1, x0:x1 + 1] = 1.0

        img = rng.normal(0.0, 0.3, (cfg.image_channels, h, w))
        img[0] = indicator + rng.normal(0.0, 0.05, (h, w))
        img[1 + answer] += indicator
        q_feat = rng.normal(0.0, 1.0, cfg.question_dim)

        target = indicator / indicator.sum()
        stack = GlimpseStack(
            [AttentionMap(target.copy(), normalized=True)
             for _ in range(cfg.glimpses)],
            [True] * cfg.glimpses,
        )
        samples.append(ToySample(q_feat=q_feat, img_feat=img,
                                 answer=answer, supervision=stack))
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
    write_ndjson(path, ({"name": name, "shape": list(arr.shape),
                         "values": [round9(v) for v in arr.ravel().tolist()]}
                        for name, arr in params.named_arrays()))


def _param_from_record(record: dict) -> tuple[str, np.ndarray]:
    return record["name"], np.asarray(record["values"], dtype=np.float64).reshape(
        record["shape"])


def read_params(path: str | Path) -> ToyModelParams:
    arrays = dict(read_ndjson(path, _param_from_record))
    try:
        return ToyModelParams(**arrays)
    except TypeError as exc:
        raise ToyModelError(f"params file {path} is incomplete: {exc}") from exc
