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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .attention import AttentionError, AttentionMap, GlimpseStack, rank_correlations
# The per-sample scalar forms of the batched loss and metric below, importable
# from here because perfbench/tracing.py wraps them by this module's name.
from .attention import kl_divergence, rank_correlation  # noqa: F401
from .records import fmt9, read_ndjson, round9_array, write_csv, write_ndjson
from .schedule import LossBreakdown, Schedule
from .schedule import total_loss  # noqa: F401


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
    if not np.isfinite(arr).all():
        raise ToyModelError(f"non-finite values in {name}")


@dataclass(frozen=True)
class _Batch:
    """N samples as arrays, built once: features, answers, the KL targets
    with their mask, and the glimpse-0 maps the rank metric compares with."""

    q_feat: np.ndarray        # (N, D)
    img: np.ndarray           # (N, C, H*W)
    answers: np.ndarray       # (N,)
    supervised: np.ndarray    # (N,) bool: the sample has a supervision stack
    kl_mask: np.ndarray       # (N, G) bool: the glimpse enters KL
    targets: np.ndarray       # (N, G, H*W), zero where kl_mask is off
    support: np.ndarray       # (N, G, H*W) bool: targets > 0
    mass: np.ndarray          # targets[support]
    rank_targets: np.ndarray  # (supervised samples, H*W) their glimpse-0 maps


def _batch(samples: list[ToySample], params: ToyModelParams) -> _Batch:
    """The samples as one batch, each checked against the model's shapes."""
    k = params.w_classifier.shape[0]
    g, c = params.w_attention.shape
    for sample in samples:
        if not 0 <= sample.answer < k:
            raise ToyModelError(f"answer {sample.answer} out of range")
    if len({(s.q_feat.shape, s.img_feat.shape) for s in samples}) > 1:
        raise ToyModelError("samples differ in feature shapes")
    _, h, w = samples[0].img_feat.shape
    d = samples[0].q_feat.shape[0]
    if params.w_question.shape != (c, d):
        raise ToyModelError("question projection shape mismatch")

    n = len(samples)
    kl_mask = np.zeros((n, g), dtype=bool)
    targets = np.zeros((n, g, h * w))
    rank_targets = []
    for i, sample in enumerate(samples):
        stack = sample.supervision
        if stack is None:
            continue
        if len(stack.glimpses) != g:
            raise AttentionError("glimpse count mismatch")
        if stack.glimpses[0].shape != (h, w):
            raise AttentionError("glimpse shape mismatch")
        kl_mask[i] = stack.supervision_mask
        for gi in np.flatnonzero(kl_mask[i]):
            # the closed-form KL gradient in _pass needs targets summing to 1
            target = AttentionMap(stack.glimpses[gi].values, normalized=True)
            targets[i, gi] = target.values.ravel()
        rank_targets.append(stack.glimpses[0].values.ravel())
    support = targets > 0
    return _Batch(
        q_feat=np.stack([s.q_feat for s in samples]),
        img=np.stack([s.img_feat.reshape(-1, h * w) for s in samples]),
        answers=np.array([s.answer for s in samples]),
        supervised=np.array([s.supervision is not None for s in samples]),
        kl_mask=kl_mask,
        targets=targets,
        support=support,
        mass=targets[support],
        rank_targets=np.array(rank_targets).reshape(len(rank_targets), h * w),
    )


@dataclass
class _Activations:
    pre_fusion: np.ndarray     # (N, C, H*W)
    fused: np.ndarray          # (N, C, H*W)
    attn: np.ndarray           # (N, G, H*W), rows sum to 1
    classifier_in: np.ndarray  # (N, D + G*C)
    logits: np.ndarray         # (N, K)


def _forward(params: ToyModelParams, batch: _Batch) -> _Activations:
    img = batch.img
    qproj = (params.w_question @ batch.q_feat[:, :, None])[:, :, 0]      # (N, C)
    pre_fusion = qproj[:, :, None] * img + params.fusion_bias[:, None]
    _check_finite("fusion", pre_fusion)
    fused = np.maximum(pre_fusion, 0.0)
    attn_logits = params.w_attention @ fused                              # (N, G, HW)
    _check_finite("attention logits", attn_logits)
    shifted = attn_logits - attn_logits.max(axis=2, keepdims=True)
    e = np.exp(shifted)
    attn = e / e.sum(axis=2, keepdims=True)
    weighted = attn @ img.transpose(0, 2, 1)                              # (N, G, C)
    _check_finite("weighted features", weighted)
    classifier_in = np.concatenate(
        [batch.q_feat, weighted.reshape(len(weighted), -1)], axis=1)
    logits = (params.w_classifier @ classifier_in[:, :, None])[:, :, 0]   # (N, K)
    _check_finite("classifier logits", logits)
    return _Activations(pre_fusion, fused, attn, classifier_in, logits)


@dataclass
class _Pass:
    """Per-sample losses of one forward and backward pass, the forward
    activations, and the gradients summed over the samples."""

    ce: np.ndarray      # (N,)
    kl: np.ndarray      # (N,), 0 for samples without supervision
    alpha: np.ndarray   # (N,), 0 for samples without supervision
    total: np.ndarray   # (N,) ce + alpha * kl
    act: _Activations
    grads: ToyModelParams


def _pass(params: ToyModelParams, batch: _Batch, alpha: float) -> _Pass:
    """Forward pass, cross-entropy plus alpha-weighted KL toward the
    supervised glimpses, and exact analytic gradients."""
    act = _forward(params, batch)
    n = len(batch.answers)
    rows = np.arange(n)

    shifted = act.logits - act.logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    ce = log_z - shifted[rows, batch.answers]
    probs = np.exp(shifted - log_z[:, None])

    # KL(target || attn) over the supervised cells, 0 * log 0 = 0
    attn = act.attn
    predicted = attn[batch.support]
    if np.any(predicted <= 0):
        raise AttentionError("prediction has zero mass on supervised cells")
    cell_kl = np.zeros_like(attn)
    cell_kl[batch.support] = batch.mass * np.log(batch.mass / predicted)
    kl = cell_kl.sum(axis=2).sum(axis=1)

    if np.isnan(ce).any() or np.isnan(kl).any():
        raise ValueError("loss inputs must not be NaN")
    alphas = np.where(batch.supervised, alpha, 0.0)
    total = ce + alphas * kl

    d = batch.q_feat.shape[1]
    g, c = params.w_attention.shape
    d_logits = probs
    d_logits[rows, batch.answers] -= 1.0
    g_classifier = d_logits[:, :, None] * act.classifier_in[:, None, :]
    d_weighted = (params.w_classifier.T @ d_logits[:, :, None])[:, d:, 0].reshape(n, g, c)
    d_attn = d_weighted @ batch.img                                       # (N, G, HW)

    # softmax backward over the cells; the KL term's gradient at the logits
    # is alpha * (attn - target), exact because each target sums to 1
    inner = (d_attn * attn).sum(axis=2, keepdims=True)
    d_attn_logits = attn * (d_attn - inner)
    d_attn_logits += (alphas[:, None] * batch.kl_mask)[:, :, None] * (attn - batch.targets)
    g_attention = d_attn_logits @ act.fused.transpose(0, 2, 1)            # (N, G, C)
    d_fused = params.w_attention.T @ d_attn_logits                        # (N, C, HW)
    d_pre = d_fused * (act.pre_fusion > 0)
    g_bias = d_pre.sum(axis=2)
    d_qproj = (d_pre * batch.img).sum(axis=2)
    g_question = d_qproj[:, :, None] * batch.q_feat[:, None, :]

    grads = ToyModelParams(
        w_question=g_question.sum(axis=0),
        fusion_bias=g_bias.sum(axis=0),
        w_attention=g_attention.sum(axis=0),
        w_classifier=g_classifier.sum(axis=0),
    )
    return _Pass(ce=ce, kl=kl, alpha=alphas, total=total, act=act, grads=grads)


def forward(params: ToyModelParams, sample: ToySample) -> ForwardResult:
    """Fusion, per-glimpse softmax attention over the grid cells,
    attention-weighted feature pooling, and answer logits."""
    act = _forward(params, _batch([sample], params))
    _, h, w = sample.img_feat.shape
    attn = act.attn[0]
    stack = GlimpseStack([AttentionMap(row.reshape(h, w), normalized=True) for row in attn],
                         [True] * len(attn))
    cache = {"pre_fusion": act.pre_fusion[0], "fused": act.fused[0], "attn": attn,
             "classifier_in": act.classifier_in[0]}
    return ForwardResult(attention=stack, logits=act.logits[0], cache=cache)


def loss_and_grads(params: ToyModelParams, sample: ToySample,
                   schedule: Schedule, t: int) -> tuple[LossBreakdown, ToyModelParams]:
    """Loss breakdown and exact analytic gradients for one sample."""
    step = _pass(params, _batch([sample], params), schedule.alpha(t))
    breakdown = LossBreakdown(ce=float(step.ce[0]), kl=float(step.kl[0]),
                              alpha=float(step.alpha[0]), total=float(step.total[0]))
    return breakdown, step.grads


def _sample_metrics(attn: np.ndarray, batch: _Batch) -> np.ndarray:
    """Rank correlation of each supervised sample's glimpse-0 attention with
    its glimpse-0 supervision; NaN where undefined (a constant map)."""
    return rank_correlations(attn[batch.supervised, 0], batch.rank_targets)


def _mean_in_order(values: np.ndarray, empty: float) -> float:
    """Mean with the sum taken left to right, as a running total adds."""
    if len(values) == 0:
        return empty
    return float(np.cumsum(values)[-1] / len(values))


def train(data: list[ToySample], cfg: ToyConfig, schedule: Schedule
          ) -> tuple[ToyModelParams, list[MetricsRow]]:
    """Full-batch gradient descent for cfg.steps; one metrics row per step
    (evaluated before the update) plus a final row after the last update.
    Deterministic given cfg.seed. A numeric failure at step t raises
    ToyModelError("training diverged at step t: <reason>")."""
    if not data:
        raise ToyModelError("training data must be nonempty")
    rng = np.random.default_rng(cfg.seed)
    params = init_params(cfg, rng)
    batch = _batch(data, params)
    n = len(data)
    metrics: list[MetricsRow] = []

    for t in range(cfg.steps + 1):
        alpha = schedule.alpha(t)
        try:
            step = _pass(params, batch, alpha)
            if not np.isfinite(step.total).all():
                raise ToyModelError("non-finite loss")
        except (AttentionError, ToyModelError) as exc:
            raise ToyModelError(f"training diverged at step {t}: {exc}") from exc
        corr = _sample_metrics(step.act.attn, batch)
        predicted = np.argmax(step.act.logits, axis=1)
        metrics.append(MetricsRow(
            step=t,
            ce=_mean_in_order(step.ce, 0.0),
            kl=_mean_in_order(step.kl[batch.supervised], 0.0),
            alpha=alpha,
            accuracy=int(np.count_nonzero(predicted == batch.answers)) / n,
            rank_corr=_mean_in_order(corr[~np.isnan(corr)], float("nan")),
        ))
        if t == cfg.steps:
            break
        for (_, arr), (_, grad) in zip(params.named_arrays(), step.grads.named_arrays()):
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
                         "values": round9_array(arr).ravel().tolist()}
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
