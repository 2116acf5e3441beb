"""Grid attention maps and the metric kernel.

Mined pixel boxes are rasterized onto an H x W grid by summing per-box
coverage indicators; maps are spatially L1-normalized into probability
distributions and stacked into supervision glimpses (glimpse 0 objects,
glimpse 1 regions). Metrics: KL divergence between glimpse stacks,
Spearman rank correlation between maps, and the min(k/3, 1) answer
accuracy over ten reference answers.

Ranks and KL need maps of finite cells >= 0: ``_check_cells`` alone refuses any
other, where a map enters (``AttentionMap``, every maps row), not in the kernels.
"""

from __future__ import annotations

import json
import math
import re
import string
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .dataset import BoundingBox, QaTriplet
from .miner import GroundingLabel
from .records import MAP_RECORD, fields, iter_keyed, round9

DEFAULT_GRID = 14

# Labels or map pairs per array block in rasterize and eval-rank. Fixed:
# larger blocks run no faster and raise the peak resident memory.
BLOCK_SIZE = 64

_SUM_TOL = 1e-9


class AttentionError(ValueError):
    """Invalid map contents or mismatched shapes; a ValueError, so a maps reader names its line."""


def _check_cells(values: np.ndarray) -> np.ndarray:
    """``values``, refused unless every cell is a finite number >= 0. NaN fails both tests;
    ``initial`` lets an empty map pass."""
    if not (0 <= values.min(initial=0.0) and values.max(initial=0.0) < math.inf):
        raise AttentionError("values must be finite numbers >= 0")
    return values


def _check_targets(glimpses: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """``glimpses``, the KL targets of shape ``masks.shape`` plus the cells,
    refused unless every cell passes ``_check_cells`` and each glimpse that
    its bool mask supervises sums to 1 within ``_SUM_TOL``: the KL is >= 0,
    and its closed-form gradient exact, only toward normalized targets."""
    sums = _check_cells(glimpses).sum(axis=tuple(range(masks.ndim, glimpses.ndim)))
    if (abs(sums[masks] - 1.0) > _SUM_TOL).any():
        raise AttentionError("supervised glimpses must sum to 1")
    return glimpses


@dataclass
class AttentionMap:
    """H x W grid of finite cells >= 0; a probability distribution when normalized."""

    values: np.ndarray  # float64, shape (H, W), indexed [y, x]
    normalized: bool = False

    def __post_init__(self) -> None:
        self.values = _check_cells(np.asarray(self.values, dtype=np.float64))
        if self.values.ndim != 2:
            raise AttentionError("attention map must be 2-D")
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
    """Scale entries to sum to 1; errors on an all-zero map. A map whose
    cell total overflows float64 is first divided by its largest cell."""
    values = amap.values
    with np.errstate(over="ignore"):
        total = float(values.sum())
    if total == math.inf:
        values = values / values.max()
        total = float(values.sum())
    if total <= 0.0:
        raise AttentionError("no grounding mass: cannot normalize all-zero map")
    return AttentionMap(values / total, normalized=True)


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
    p's unmasked glimpses must be normalized (``_check_targets``).
    """
    if len(p.glimpses) != len(q.glimpses):
        raise AttentionError("glimpse count mismatch")
    if any(pg.shape != qg.shape for pg, qg in zip(p.glimpses, q.glimpses)):
        raise AttentionError("glimpse shape mismatch")
    if not p.glimpses:
        return 0.0
    pv, qv = (np.stack([g.values.ravel() for g in s.glimpses])[None] for s in (p, q))
    mask = np.array(p.supervision_mask, dtype=bool)[None]
    cells = np.flatnonzero((_check_targets(pv, mask) > 0) & mask[:, :, None])
    return float(kl_rows(pv.take(cells), qv, cells)[0])


def kl_rows(mass: np.ndarray, q: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """The one KL kernel, used by ``kl_divergence`` and toy-model training:
    for each row i of an (n, G, cells) prediction q, the sum of p*log(p/q)
    over the support of p, the positive cells of its supervised glimpses
    (0*log0 = 0 elsewhere). The support comes as ascending flat indices
    into q, ``cells``, and p as its ``mass`` there. q must be positive on
    the support. The terms are scattered into zeros of q's shape and summed
    over the cells, then over the glimpses."""
    predicted = q.take(cells)
    if (predicted <= 0).any():
        raise AttentionError("prediction has zero mass on supervised cells")
    terms = np.zeros(q.shape)
    terms.put(cells, mass * np.log(mass / predicted))
    return terms.sum(axis=2).sum(axis=1)


def midranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n along each row of a (rows, n) array, ties given their
    average (midrank). The rows are sorted with numpy's default (unstable)
    argsort and read through flat indices; each run of equal values starts
    where a sorted value differs from its predecessor or a row begins, its
    length is the distance to the next start, and every member of a run of
    length L starting at row position s gets s + (L + 1) / 2, whatever the order of tied
    members (``_check_cells`` keeps out NaN, which ties with nothing)."""
    rows, n = values.shape
    if not values.size:
        return np.empty((rows, n))
    order = np.argsort(values, axis=1)
    order += np.arange(0, rows * n, n)[:, None]
    flat = order.ravel()
    ordered = values.ravel()[flat]
    start = np.empty(rows * n, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=start[1:])
    start[::n] = True
    first = np.flatnonzero(start)
    length = np.diff(first, append=rows * n)
    ranks = np.empty(rows * n)
    ranks[flat] = np.repeat(first % n + 0.5 * (length + 1), length)
    return ranks.reshape(rows, n)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for every row i, each one BLAS dot as in a 1-D product."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def centred_ranks(values: np.ndarray) -> np.ndarray:
    """The ranking step of the Spearman coefficient: the midranks of each
    row of a (rows, cells) array minus their row mean. The midranks of a row
    of n cells sum to n(n + 1)/2, a sum of halves that float64 holds
    exactly, so the mean is exactly (n + 1)/2 and is subtracted as that
    constant. Each row's result depends on that row alone."""
    ranks = midranks(values)
    ranks -= (values.shape[1] + 1) / 2
    return ranks


def pearson_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Pearson step of the Spearman coefficient: the correlation of the
    matching rows of two same-shaped arrays of ``centred_ranks``. NaN where
    either row is constant."""
    var_a, var_b = _row_dots(a, a), _row_dots(b, b)
    return np.divide(_row_dots(a, b), np.sqrt(var_a * var_b),
                     out=np.full(len(a), np.nan), where=(var_a != 0.0) & (var_b != 0.0))


def rank_correlations(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Spearman coefficient between the matching rows of two same-shaped
    (rows, cells) arrays: ``centred_ranks``, then ``pearson_rows``. NaN
    where either row is constant."""
    k = len(a)
    ranks = centred_ranks(np.concatenate([a, b]))  # one kernel call for both sides
    return pearson_rows(ranks[:k], ranks[k:])


def _doubled_midranks(maps: list[np.ndarray]) -> np.ndarray:
    """Twice the ``midranks`` of the flattened ``maps``, one row each: integers up to
    2 * cells, kept in the smallest unsigned type that holds that bound."""
    block = np.stack(maps).reshape(len(maps), -1)
    return (midranks(block) * 2).astype(np.min_scalar_type(2 * block.shape[1]))


def ranked_correlations(ranked_a: tuple[dict, dict], ranked_b: tuple[dict, dict],
                        keys: list) -> tuple[list[float], tuple[int, str] | None]:
    """Spearman coefficients of the pairs ``keys`` of two ``read_maps(..., ranked=True)``
    results, one ``pearson_rows`` call per map shape (usually one), and the index and text
    of the first faulty pair (a shape mismatch or a constant map), or None. Half a doubled
    midrank minus (cells + 1) / 2 is the float64 row ``centred_ranks`` gives."""
    (index_a, ranks_a), (index_b, ranks_b) = ranked_a, ranked_b
    pairs = [(index_a[key], index_b[key]) for key in keys]  # ((shape, row), (shape, row))
    corr = np.full(len(keys), np.nan)
    groups: dict[tuple, list[int]] = {}  # shape -> the pairs of two maps of that shape
    for i, (a, b) in enumerate(pairs):
        if a[0] == b[0]:
            groups.setdefault(a[0], []).append(i)
    for shape, group in groups.items():
        mean = (math.prod(shape) + 1) / 2
        corr[group] = pearson_rows(ranks_a[shape][[pairs[i][0][1] for i in group]] * 0.5 - mean,
                                   ranks_b[shape][[pairs[i][1][1] for i in group]] * 0.5 - mean)
    coefficients = corr.tolist()
    for i, (a, b) in enumerate(pairs):
        if a[0] != b[0]:
            return coefficients, (i, "map shape mismatch")
        if math.isnan(coefficients[i]):
            return coefficients, (i, "undefined correlation: constant map")
    return coefficients, None


def rank_correlation(a: AttentionMap, b: AttentionMap) -> float:
    """Spearman coefficient between the flattened cells of two maps."""
    if a.shape != b.shape:
        raise AttentionError("map shape mismatch")
    (corr,) = rank_correlations(a.values.reshape(1, -1), b.values.reshape(1, -1)).tolist()
    if math.isnan(corr):
        raise AttentionError("undefined correlation: constant map")
    return corr


_PUNCT_TABLE = str.maketrans("", "", string.punctuation)
_DECIMAL_POINT = re.compile(r"(?<=\d)\.(?=\d)")
# the token step of the VQA evaluation (Antol et al., ICCV 2015)
_NUMBER_WORDS = {word: str(i) for i, word in enumerate(
    "zero one two three four five six seven eight nine ten".split())} | {"none": "0"}
_ARTICLES = frozenset({"a", "an", "the"})


def normalize_answer(answer: str) -> str:
    """Lower case, punctuation removed but a period with a digit on each side
    ("1.5" is not "15"), then per whitespace-separated token: the number words
    "zero" to "ten" and "none" as digits, articles dropped; one space between."""
    parts = _DECIMAL_POINT.split(answer.lower())
    tokens = ".".join(part.translate(_PUNCT_TABLE) for part in parts).split()
    return " ".join(_NUMBER_WORDS.get(token, token) for token in tokens
                    if token not in _ARTICLES)


REFERENCE_ANSWERS = 10


def vqa_accuracy(pred: str, refs: list[str]) -> float:
    """min(matches/3, 1) over exactly ten normalized reference answers."""
    if len(refs) != REFERENCE_ANSWERS:
        raise AttentionError(f"expected {REFERENCE_ANSWERS} reference answers, got {len(refs)}")
    pred_n = normalize_answer(pred)
    hits = sum(1 for ref in refs if normalize_answer(ref) == pred_n)
    return min(hits / 3.0, 1.0)


# --- serialization -------------------------------------------------------

def round9_text(values: np.ndarray) -> np.ndarray:
    """``json.dumps(round9(v))`` of every element, as an object array of
    ``values``' shape, computed once per distinct float64 bit pattern (so
    -0.0 and each NaN payload keep their own results)."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    ordered = np.sort(bits, axis=None)  # not np.unique: it imports numpy.ma
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    rounded = [round9(v) for v in distinct.view(np.float64).tolist()]
    # one encoder call for all of them: no float's JSON text holds ", "
    text = np.array(json.dumps(rounded)[1:-1].split(", "), dtype=object)
    return text[np.searchsorted(distinct, bits)]


def stack_to_rows(qa_ids: list, glimpses: np.ndarray, masks: np.ndarray) -> list[str]:
    """Maps lines of a ``supervision_block``: one JSON object per label and
    glimpse, values rounded to 9 significant digits, laid out as
    ``json.dumps`` with ", " and ": " separators."""
    n, count, h, w = glimpses.shape
    values = round9_text(glimpses).reshape(n, count, h * w).tolist()
    middle = f', "h": {h}, "w": {w}, "mask": '
    rows = []
    for qa_id, mask_row, value_rows in zip(qa_ids, masks.tolist(), values):
        prefix = f'{{"qa_id": {json.dumps(qa_id)}, "glimpse": '
        rows += [f'{prefix}{g}{middle}{"true" if m else "false"}, '
                 f'"values": [{", ".join(cells)}]}}\n'
                 for g, (m, cells) in enumerate(zip(mask_row, value_rows))]
    return rows


def _map_from_row(row: dict) -> tuple[tuple, dict]:
    """The (qa_id, glimpse) key of a maps row and the row, its ``MAP_RECORD``
    fields checked ('mask' set to true when absent) and 'values' made an
    (h, w) float64 array that passes ``_check_cells``."""
    qa_id, glimpse, h, w, _, cells = fields(row, MAP_RECORD)
    try:
        values = np.fromiter(cells, np.float64, len(cells))
    except OverflowError:  # an integer beyond float64 overflows to infinity
        values = np.full(len(cells), math.inf)
    row["values"] = _check_cells(values).reshape(h, w)
    return (qa_id, glimpse), row


def _ranked(rows: Iterator[tuple[tuple, dict]]) -> tuple[dict, dict]:
    """The unmasked maps of ``rows`` as ``(index, ranks)``: ``index`` maps each key, in
    order, to its map's shape and row in ``ranks[shape]``, an array of the doubled
    midranks of the maps of that shape. Maps are ranked per ``BLOCK_SIZE`` of one shape
    as they arrive, so no more than one block of float64 maps per shape is held."""
    index, ranked = {}, {}  # ranked: shape -> (ranked blocks, maps waiting for a block)
    for key, row in rows:
        if row["mask"]:
            values = row["values"]
            shape = values.shape
            state = ranked.get(shape)
            if state is None:
                state = ranked[shape] = ([], [])
            done, waiting = state
            index[key] = shape, len(done) * BLOCK_SIZE + len(waiting)
            waiting.append(values)
            if len(waiting) == BLOCK_SIZE:
                done.append(_doubled_midranks(waiting))
                waiting.clear()
    return index, {shape: np.concatenate(done + [_doubled_midranks(waiting)] if waiting else done)
                   for shape, (done, waiting) in ranked.items()}


def read_maps(path: str | Path, printed: Callable[[tuple], Any] | None = None,
              ranked: bool = False) -> dict | tuple[dict, dict]:
    """Maps rows keyed by (qa_id, glimpse), in file order; ``printed`` as
    in ``read_keyed``. With ``ranked``, the unmasked maps alone, ranked as
    they are read (``_ranked``): masked glimpses carry no supervision signal
    and are not evaluated."""
    rows = iter_keyed(path, _map_from_row, printed)
    return _ranked(rows) if ranked else dict(rows)


def pgm_bytes(values: np.ndarray) -> bytes:
    """8-bit binary PGM (P5) of an (h, w) map, scaled so its maximum renders white."""
    h, w = values.shape
    peak = float(values.max())
    if peak > 0:
        scaled = np.rint(values / peak * 255.0).astype(np.uint8)
    else:
        scaled = np.zeros((h, w), dtype=np.uint8)
    return f"P5\n{w} {h}\n255\n".encode("ascii") + scaled.tobytes()

