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
from .records import read_ndjson, round9

DEFAULT_GRID = 14

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


def rasterize(boxes: list[BoundingBox], img_w: int, img_h: int,
              grid_h: int = DEFAULT_GRID, grid_w: int = DEFAULT_GRID) -> AttentionMap:
    """Sum of per-box cell-coverage indicators on a grid_h x grid_w grid.

    A box covers cell column x iff x is within [floor(x_min*W/img_w),
    ceil((x_max+1)*W/img_w) - 1], clamped to the grid; rows likewise.
    Overlapping boxes accumulate. Empty box list gives the all-zero map.
    """
    if grid_h < 1 or grid_w < 1:
        raise AttentionError("grid dimensions must be >= 1")
    if img_w < 1 or img_h < 1:
        raise AttentionError("image dimensions must be >= 1")
    values = np.zeros((grid_h, grid_w), dtype=np.float64)
    for box in boxes:
        x_lo = min(max((box.x_min * grid_w) // img_w, 0), grid_w - 1)
        x_hi = min(max(_ceil_div((box.x_max + 1) * grid_w, img_w) - 1, 0), grid_w - 1)
        y_lo = min(max((box.y_min * grid_h) // img_h, 0), grid_h - 1)
        y_hi = min(max(_ceil_div((box.y_max + 1) * grid_h, img_h) - 1, 0), grid_h - 1)
        values[y_lo:y_hi + 1, x_lo:x_hi + 1] += 1.0
    return AttentionMap(values, normalized=False)


def l1_normalize(amap: AttentionMap) -> AttentionMap:
    """Scale entries to sum to 1; errors on an all-zero map."""
    total = float(amap.values.sum())
    if total <= 0.0:
        raise AttentionError("no grounding mass: cannot normalize all-zero map")
    return AttentionMap(amap.values / total, normalized=True)


def build_supervision(label: GroundingLabel, triplet: QaTriplet,
                      grid_h: int = DEFAULT_GRID, grid_w: int = DEFAULT_GRID
                      ) -> GlimpseStack:
    """Glimpse 0: normalized object map; glimpse 1: normalized region map.

    An empty component yields an all-zero glimpse with its mask off;
    counting labels always mask the region glimpse.
    """
    if not label.object_boxes and not label.region_boxes:
        raise AttentionError(f"label {label.qa_id} has no boxes to rasterize")
    object_map = rasterize(label.object_boxes, triplet.image_width,
                           triplet.image_height, grid_h, grid_w)
    region_map = rasterize(label.region_boxes, triplet.image_width,
                           triplet.image_height, grid_h, grid_w)
    object_mask = bool(label.object_boxes) and float(object_map.values.sum()) > 0
    region_mask = (bool(label.region_boxes) and not label.is_counting
                   and float(region_map.values.sum()) > 0)
    glimpses = [
        l1_normalize(object_map) if object_mask else object_map,
        l1_normalize(region_map) if region_mask else region_map,
    ]
    return GlimpseStack(glimpses, [object_mask, region_mask])


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


def _fractional_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties assigned their average (midrank)."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.shape[0], dtype=np.float64)
    sorted_values = values[order]
    i = 0
    n = values.shape[0]
    while i < n:
        j = i
        while j + 1 < n and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def rank_correlation(a: AttentionMap, b: AttentionMap) -> float:
    """Spearman coefficient between the flattened cells of two maps:
    fractional ranks, then Pearson correlation of the rank vectors."""
    if a.shape != b.shape:
        raise AttentionError("map shape mismatch")
    ra = _fractional_ranks(a.values.ravel())
    rb = _fractional_ranks(b.values.ravel())
    ra -= ra.mean()
    rb -= rb.mean()
    var_a = float(ra @ ra)
    var_b = float(rb @ rb)
    if var_a == 0.0 or var_b == 0.0:
        raise AttentionError("undefined correlation: constant map")
    return float((ra @ rb) / math.sqrt(var_a * var_b))


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

def stack_to_rows(qa_id: int | str, stack: GlimpseStack) -> list[dict]:
    rows = []
    for g, amap in enumerate(stack.glimpses):
        h, w = amap.shape
        rows.append({
            "qa_id": qa_id,
            "glimpse": g,
            "h": h,
            "w": w,
            "mask": stack.supervision_mask[g],
            "values": [round9(v) for v in amap.values.ravel().tolist()],
        })
    return rows


def _map_from_row(row: dict) -> dict:
    """The fields a command reads, each required but 'mask' (default True),
    with 'values' as an (h, w) float64 array."""
    fields = {key: row[key] for key in ("qa_id", "glimpse", "h", "w")}
    fields["mask"] = row.get("mask", True)
    fields["values"] = np.asarray(row["values"], dtype=np.float64).reshape(row["h"], row["w"])
    return fields


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
