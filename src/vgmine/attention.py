"""Grid attention maps and the metric kernel.

Mined pixel boxes are rasterized onto an H x W grid by summing per-box
coverage indicators; maps are spatially L1-normalized into probability
distributions and stacked into supervision glimpses (glimpse 0 objects,
glimpse 1 regions). Metrics: KL divergence between glimpse stacks,
Spearman rank correlation between maps, and the min(k/3, 1) answer
accuracy over ten reference answers.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import BoundingBox, QaTriplet
from .miner import GroundingLabel
from .records import qa_id_of, read_ndjson, round9_array

DEFAULT_GRID = 14

# Labels or map pairs per array block in rasterize and eval-rank. Fixed:
# larger blocks run no faster and raise the peak resident memory.
BLOCK_SIZE = 64

_SUM_TOL = 1e-9


class AttentionError(Exception):
    """Invalid map contents or incompatible shapes."""


@dataclass
class AttentionMap:
    """Non-negative H x W grid; a probability distribution when normalized."""

    values: np.ndarray  # float64, shape (H, W), indexed [y, x]
    normalized: bool = False

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise AttentionError("attention map must be 2-D")
        if np.any(self.values < 0):
            raise AttentionError("attention map entries must be non-negative")
        if self.normalized and abs(float(self.values.sum()) - 1.0) > _SUM_TOL:
            raise AttentionError("normalized map must sum to 1")

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape  # type: ignore[return-value]


@dataclass
class GlimpseStack:
    """A fixed number of same-shaped attention glimpses plus a supervision
    mask; masked-out glimpses are excluded from KL divergence."""

    glimpses: list[AttentionMap]
    supervision_mask: list[bool]

    def __post_init__(self) -> None:
        if len(self.glimpses) != len(self.supervision_mask):
            raise AttentionError("one mask entry per glimpse required")
        shapes = {g.shape for g in self.glimpses}
        if len(shapes) > 1:
            raise AttentionError("glimpses must share one shape")


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _add_boxes(view: np.ndarray, boxes: list[BoundingBox], img_w: int, img_h: int) -> None:
    """Add each box's cell-coverage indicator to an (H, W) view.

    A box covers cell column x iff x is within [floor(x_min*W/img_w),
    ceil((x_max+1)*W/img_w) - 1], clamped to the grid; rows likewise.
    Overlapping boxes accumulate.
    """
    grid_h, grid_w = view.shape
    for box in boxes:
        x_lo = min(max((box.x_min * grid_w) // img_w, 0), grid_w - 1)
        x_hi = min(max(_ceil_div((box.x_max + 1) * grid_w, img_w) - 1, 0), grid_w - 1)
        y_lo = min(max((box.y_min * grid_h) // img_h, 0), grid_h - 1)
        y_hi = min(max(_ceil_div((box.y_max + 1) * grid_h, img_h) - 1, 0), grid_h - 1)
        view[y_lo:y_hi + 1, x_lo:x_hi + 1] += 1.0


def _check_grid(grid_h: int, grid_w: int) -> None:
    if grid_h < 1 or grid_w < 1:
        raise AttentionError("grid dimensions must be >= 1")


def _check_image(img_w: int, img_h: int) -> None:
    if img_w < 1 or img_h < 1:
        raise AttentionError("image dimensions must be >= 1")


def rasterize(boxes: list[BoundingBox], img_w: int, img_h: int,
              grid_h: int = DEFAULT_GRID, grid_w: int = DEFAULT_GRID) -> AttentionMap:
    """Sum of per-box cell-coverage indicators on a grid_h x grid_w grid
    (see ``_add_boxes``). Empty box list gives the all-zero map."""
    _check_grid(grid_h, grid_w)
    _check_image(img_w, img_h)
    values = np.zeros((grid_h, grid_w), dtype=np.float64)
    _add_boxes(values, boxes, img_w, img_h)
    return AttentionMap(values, normalized=False)


def l1_normalize(amap: AttentionMap) -> AttentionMap:
    """Scale entries to sum to 1; errors on an all-zero map."""
    total = float(amap.values.sum())
    if total <= 0.0:
        raise AttentionError("no grounding mass: cannot normalize all-zero map")
    return AttentionMap(amap.values / total, normalized=True)


def supervision_block(labels: list[GroundingLabel], triplets: list[QaTriplet],
                      grid_h: int = DEFAULT_GRID, grid_w: int = DEFAULT_GRID
                      ) -> tuple[np.ndarray, np.ndarray]:
    """The supervision glimpses of each label as one (n, 2, grid_h, grid_w)
    float64 array (glimpse 0 objects, glimpse 1 regions) with its (n, 2)
    supervision mask.

    A glimpse is unmasked when its component has boxes covering some cell,
    except the region glimpse of a counting label. Unmasked glimpses are
    divided by their cell totals, which are exact integer sums; masked
    ones keep their raw counts (all zero for an empty component).
    """
    _check_grid(grid_h, grid_w)
    glimpses = np.zeros((len(labels), 2, grid_h, grid_w), dtype=np.float64)
    masks = np.zeros((len(labels), 2), dtype=bool)
    for i, (label, triplet) in enumerate(zip(labels, triplets)):
        if not label.object_boxes and not label.region_boxes:
            raise AttentionError(f"label {label.qa_id} has no boxes to rasterize")
        _check_image(triplet.image_width, triplet.image_height)
        _add_boxes(glimpses[i, 0], label.object_boxes, triplet.image_width,
                   triplet.image_height)
        _add_boxes(glimpses[i, 1], label.region_boxes, triplet.image_width,
                   triplet.image_height)
        masks[i] = bool(label.object_boxes), bool(label.region_boxes) and not label.is_counting
    totals = glimpses.sum(axis=(2, 3))
    masks &= totals > 0
    glimpses[masks] /= totals[masks][:, None, None]
    return glimpses, masks


def build_supervision(label: GroundingLabel, triplet: QaTriplet,
                      grid_h: int = DEFAULT_GRID, grid_w: int = DEFAULT_GRID
                      ) -> GlimpseStack:
    """The glimpse stack of one label, as ``supervision_block`` builds it."""
    glimpses, masks = supervision_block([label], [triplet], grid_h, grid_w)
    mask = masks[0].tolist()
    return GlimpseStack([AttentionMap(g, normalized=m) for g, m in zip(glimpses[0], mask)],
                        mask)


def kl_divergence(p: GlimpseStack, q: GlimpseStack) -> float:
    """Sum over p's unmasked glimpses of sum_cells p*log(p/q), 0*log0 = 0.

    q must be strictly positive wherever p is positive (softmax outputs);
    p glimpses must be normalized.
    """
    if len(p.glimpses) != len(q.glimpses):
        raise AttentionError("glimpse count mismatch")
    total = 0.0
    for g, (pg, qg) in enumerate(zip(p.glimpses, q.glimpses)):
        if pg.shape != qg.shape:
            raise AttentionError("glimpse shape mismatch")
        if not p.supervision_mask[g]:
            continue
        pv, qv = pg.values, qg.values
        support = pv > 0
        if np.any(qv[support] <= 0):
            raise AttentionError("prediction has zero mass on supervised cells")
        total += float(np.sum(pv[support] * np.log(pv[support] / qv[support])))
    return total


def midranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n along each row of a (rows, n) array, ties given their
    average (midrank). After a stable sort each run of equal values spans
    sorted positions start..end, found by running max/min over the run
    boundaries, and every member gets 0.5 * (start + end) + 1."""
    rows, n = values.shape
    order = np.argsort(values, axis=1, kind="stable")
    row = np.arange(rows)[:, None]
    ordered = values[row, order]
    run_start = np.ones((rows, n), dtype=bool)
    run_start[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    run_end = np.ones((rows, n), dtype=bool)
    run_end[:, :-1] = run_start[:, 1:]
    pos = np.arange(n)
    start = np.maximum.accumulate(np.where(run_start, pos, 0), axis=1)
    end = np.minimum.accumulate(np.where(run_end, pos, n - 1)[:, ::-1], axis=1)[:, ::-1]
    ranks = np.empty((rows, n), dtype=np.float64)
    ranks[row, order] = 0.5 * (start + end) + 1.0
    return ranks


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for every row i, each one BLAS dot as in a 1-D product."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def rank_correlations(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Spearman coefficient between the matching rows of two same-shaped
    (rows, cells) arrays: midranks, then Pearson correlation of the rank
    rows. NaN where either row is constant."""
    k = len(a)
    ranks = midranks(np.concatenate([a, b]))  # one kernel call for both sides
    ranks -= ranks.mean(axis=1, keepdims=True)
    var = _row_dots(ranks, ranks)
    var_a, var_b = var[:k], var[k:]
    return np.divide(_row_dots(ranks[:k], ranks[k:]), np.sqrt(var_a * var_b),
                     out=np.full(k, np.nan), where=(var_a != 0.0) & (var_b != 0.0))


def rank_correlation(a: AttentionMap, b: AttentionMap) -> float:
    """Spearman coefficient between the flattened cells of two maps."""
    if a.shape != b.shape:
        raise AttentionError("map shape mismatch")
    corr = float(rank_correlations(a.values.reshape(1, -1), b.values.reshape(1, -1))[0])
    if math.isnan(corr):
        raise AttentionError("undefined correlation: constant map")
    return corr


def downsample(source: np.ndarray, grid_h: int, grid_w: int) -> AttentionMap:
    """Block-mean pooling of an arbitrary-resolution heat map onto
    grid_h x grid_w; source dimensions must not be smaller than the grid."""
    source = np.asarray(source, dtype=np.float64)
    src_h, src_w = source.shape
    if src_h < grid_h or src_w < grid_w:
        raise AttentionError("source must be at least as large as the grid")
    values = np.zeros((grid_h, grid_w), dtype=np.float64)
    for i in range(grid_h):
        r0, r1 = (i * src_h) // grid_h, ((i + 1) * src_h) // grid_h
        for j in range(grid_w):
            c0, c1 = (j * src_w) // grid_w, ((j + 1) * src_w) // grid_w
            values[i, j] = source[r0:r1, c0:c1].mean()
    return AttentionMap(values, normalized=False)


_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def normalize_answer(answer: str) -> str:
    return answer.lower().strip().translate(_PUNCT_TABLE)


def vqa_accuracy(pred: str, refs: list[str]) -> float:
    """min(matches/3, 1) over exactly ten normalized reference answers."""
    if len(refs) != 10:
        raise AttentionError(f"expected 10 reference answers, got {len(refs)}")
    pred_n = normalize_answer(pred)
    hits = sum(1 for ref in refs if normalize_answer(ref) == pred_n)
    return min(hits / 3.0, 1.0)


# --- serialization -------------------------------------------------------

def stack_to_rows(qa_ids: list, glimpses: np.ndarray, masks: np.ndarray) -> list[dict]:
    """Maps records of a ``supervision_block``: one row per label and
    glimpse, values rounded to 9 significant digits."""
    n, count, h, w = glimpses.shape
    values = round9_array(glimpses).reshape(n, count, h * w).tolist()
    mask = masks.tolist()
    return [{"qa_id": qa_id, "glimpse": g, "h": h, "w": w, "mask": mask[i][g],
             "values": values[i][g]}
            for i, qa_id in enumerate(qa_ids) for g in range(count)]


def _whole(row: dict, key: str, least: int) -> int:
    value = row[key]
    if type(value) is not int or value < least:  # bools are rejected too
        raise ValueError(f"{key} must be an integer >= {least}, not {value!r}")
    return value


def _map_from_row(row: dict) -> dict:
    """The fields a command reads, each required but 'mask' (default True),
    with 'values' as an (h, w) float64 array."""
    glimpse, h, w = _whole(row, "glimpse", 0), _whole(row, "h", 1), _whole(row, "w", 1)
    return {"qa_id": qa_id_of(row), "glimpse": glimpse, "h": h, "w": w,
            "mask": row.get("mask", True),
            "values": np.asarray(row["values"], dtype=np.float64).reshape(h, w)}


def read_maps(path: str | Path) -> list[dict]:
    return read_ndjson(path, _map_from_row)


def pgm_bytes(amap: AttentionMap) -> bytes:
    """8-bit binary PGM (P5), scaled so the map maximum renders white."""
    h, w = amap.shape
    peak = float(amap.values.max())
    if peak > 0:
        scaled = np.rint(amap.values / peak * 255.0).astype(np.uint8)
    else:
        scaled = np.zeros((h, w), dtype=np.uint8)
    return f"P5\n{w} {h}\n255\n".encode("ascii") + scaled.tobytes()


def write_pgm(amap: AttentionMap, path: str | Path) -> None:
    Path(path).write_bytes(pgm_bytes(amap))
