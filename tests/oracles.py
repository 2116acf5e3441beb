"""Independent reference implementations used as test oracles.

Everything here recomputes results through a different route than the
library: per-cell coverage tests instead of array slicing, literal
pair-enumeration mining instead of the pipeline, plain summation loops
instead of vectorized math. The reference miner shares the Lexicon queries
with the code under test; the word-match predicate itself is checked
against ``reference_words_match``, which spells it out from morphy, synsets
and the alias table instead of the compiled word signatures.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from vgmine.attention import AttentionMap, GlimpseStack, rank_correlation
from vgmine.dataset import Dataset
from vgmine.lexicon import Lexicon, MatchCondition, Pos, normalize_token
from vgmine.miner import MinerConfig
from vgmine.toymodel import ToyConfig, ToyModelParams, ToySample, loss_and_grads


def brute_force_rasterize(boxes, img_w: int, img_h: int,
                          grid_h: int, grid_w: int) -> np.ndarray:
    """Cell-by-cell coverage count using exact integer interval overlap.

    Cell column cx spans pixel interval [cx*img_w/W, (cx+1)*img_w/W) and a
    box spans [x_min, x_max+1); they overlap iff x_min*W < (cx+1)*img_w and
    (x_max+1)*W > cx*img_w. Rows likewise.
    """
    grid = np.zeros((grid_h, grid_w))
    for cy in range(grid_h):
        for cx in range(grid_w):
            for box in boxes:
                covers_x = (box.x_min * grid_w < (cx + 1) * img_w
                            and (box.x_max + 1) * grid_w > cx * img_w)
                covers_y = (box.y_min * grid_h < (cy + 1) * img_h
                            and (box.y_max + 1) * grid_h > cy * img_h)
                if covers_x and covers_y:
                    grid[cy, cx] += 1.0
    return grid


def kl_summation(p_glimpses, p_masks, q_glimpses) -> float:
    """Plain double-loop KL over unmasked glimpses, 0*log0 = 0."""
    total = 0.0
    for mask, pg, qg in zip(p_masks, p_glimpses, q_glimpses):
        if not mask:
            continue
        for pv, qv in zip(pg.ravel().tolist(), qg.ravel().tolist()):
            if pv > 0.0:
                total += pv * math.log(pv / qv)
    return total


def reference_fractional_ranks(values: np.ndarray) -> np.ndarray:
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


def reference_eval_rank(rows_a: list[dict], rows_b: list[dict]) -> str:
    """The text of ``eval-rank``'s CSV, one ``rank_correlation`` call per
    pair: every (qa_id, glimpse) unmasked in both map lists, ordered by
    (str(qa_id), glimpse), then the mean of the coefficients summed in
    that order. Rows carry 'values' as (h, w) arrays."""
    maps_a = {(r["qa_id"], r["glimpse"]): r["values"] for r in rows_a if r["mask"]}
    maps_b = {(r["qa_id"], r["glimpse"]): r["values"] for r in rows_b if r["mask"]}
    lines = [["qa_id", "glimpse", "rank_corr"]]
    total = 0.0
    common = sorted(set(maps_a) & set(maps_b), key=lambda k: (str(k[0]), k[1]))
    for key in common:
        corr = rank_correlation(AttentionMap(maps_a[key]), AttentionMap(maps_b[key]))
        total += corr
        lines.append([str(key[0]), str(key[1]), format(corr, ".9g")])
    lines.append(["mean", "", format(total / len(common), ".9g")])
    text = io.StringIO()
    csv.writer(text).writerows(lines)
    return text.getvalue()


def block_mean(source: np.ndarray, grid_h: int, grid_w: int) -> np.ndarray:
    """Per-cell mean over the same row/column partition, one cell at a time."""
    src_h, src_w = source.shape
    out = np.zeros((grid_h, grid_w))
    for i in range(grid_h):
        for j in range(grid_w):
            r0, r1 = i * src_h // grid_h, (i + 1) * src_h // grid_h
            c0, c1 = j * src_w // grid_w, (j + 1) * src_w // grid_w
            acc = 0.0
            for r in range(r0, r1):
                for c in range(c0, c1):
                    acc += source[r, c]
            out[i, j] = acc / ((r1 - r0) * (c1 - c0))
    return out


def pgm_reference(values: np.ndarray) -> bytes:
    """Independent P5 encoder: loop, round, emit."""
    h, w = values.shape
    peak = values.max()
    body = bytearray()
    for r in range(h):
        for c in range(w):
            level = int(round(values[r, c] / peak * 255)) if peak > 0 else 0
            body.append(level)
    return ("P5\n%d %d\n255\n" % (w, h)).encode() + bytes(body)


# --- finite-difference gradient oracle -------------------------------------

# Central differences at h=1e-6 on an O(1) float64 loss cannot resolve
# derivative components below ~ulp(L)/2h ~ 1e-9; differences under this
# floor mean the oracle, not the gradient, ran out of precision.
FD_STEP = 1e-6
FD_NOISE_FLOOR = 1e-8


def random_toy_pair(rng: np.random.Generator, cfg: ToyConfig,
                    supervised: bool = True):
    """A random (params, sample) pair in a healthy-gradient regime."""
    params = ToyModelParams(
        w_question=rng.normal(0, 0.6, (cfg.image_channels, cfg.question_dim)),
        fusion_bias=rng.normal(0, 0.6, cfg.image_channels),
        w_attention=rng.normal(0, 0.6, (cfg.glimpses, cfg.image_channels)),
        w_classifier=rng.normal(0, 0.6, (cfg.num_answers,
                                         cfg.question_dim
                                         + cfg.glimpses * cfg.image_channels)),
    )
    supervision = None
    if supervised:
        raw = rng.uniform(0.1, 1.0, (cfg.glimpses, cfg.grid_h, cfg.grid_w))
        raw /= raw.sum(axis=(1, 2), keepdims=True)
        supervision = GlimpseStack(
            [AttentionMap(raw[g], normalized=True) for g in range(cfg.glimpses)],
            [True] * cfg.glimpses)
    sample = ToySample(
        q_feat=rng.normal(0, 1, cfg.question_dim),
        img_feat=rng.normal(0, 1, (cfg.image_channels, cfg.grid_h, cfg.grid_w)),
        answer=int(rng.integers(cfg.num_answers)),
        supervision=supervision,
    )
    return params, sample


def finite_difference_check(params, sample, schedule, t):
    """Max guarded per-entry relative error and per-tensor norm error
    between analytic gradients and central differences."""
    _, grads = loss_and_grads(params, sample, schedule, t)

    def loss_at():
        breakdown, _ = loss_and_grads(params, sample, schedule, t)
        return breakdown.total

    max_entry_rel = 0.0
    max_tensor_rel = 0.0
    for (_, arr), (_, grad) in zip(params.named_arrays(), grads.named_arrays()):
        flat, gflat = arr.ravel(), grad.ravel()
        numeric = np.empty_like(gflat)
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + FD_STEP
            plus = loss_at()
            flat[idx] = original - FD_STEP
            minus = loss_at()
            flat[idx] = original
            numeric[idx] = (plus - minus) / (2 * FD_STEP)
            diff = abs(numeric[idx] - gflat[idx])
            if diff > FD_NOISE_FLOOR:
                rel = diff / max(abs(numeric[idx]), abs(gflat[idx]), 1e-8)
                max_entry_rel = max(max_entry_rel, rel)
        norm_rel = np.linalg.norm(numeric - gflat) / max(
            np.linalg.norm(numeric), np.linalg.norm(gflat), 1e-8)
        max_tensor_rel = max(max_tensor_rel, norm_rel)
    return max_entry_rel, max_tensor_rel


# --- four-condition word match ---------------------------------------------

def reference_words_match(lex: Lexicon, w1: str, w2: str) -> MatchCondition:
    """The first rule that holds, in the order RAW < LEMMA < SYNSET < ALIAS,
    with every lemma, synset set and alias set looked up afresh."""
    n1, n2 = normalize_token(w1), normalize_token(w2)
    if not n1 or not n2:
        return MatchCondition.NONE
    if n1 == n2:
        return MatchCondition.RAW
    poses = (Pos.NOUN, Pos.VERB)
    lemmas1 = [lex.morphy(n1, p) for p in poses]
    lemmas2 = [lex.morphy(n2, p) for p in poses]
    if any(a is not None and a == b for a, b in zip(lemmas1, lemmas2)):
        return MatchCondition.LEMMA
    syns1 = set().union(*(lex.synsets(n1, p) for p in poses))
    syns2 = set().union(*(lex.synsets(n2, p) for p in poses))
    if syns1 & syns2:
        return MatchCondition.SYNSET
    forms1 = {n1} | {lemma for lemma in lemmas1 if lemma is not None}
    forms2 = {n2} | {lemma for lemma in lemmas2 if lemma is not None}
    for form in forms1:
        if lex.aliases.get(form, set()) & forms2:
            return MatchCondition.ALIAS
    return MatchCondition.NONE


# --- literal reference miner ----------------------------------------------

_STRIP = "\"'`.,:;!?()[]{}<>/\\|~*+=#&%$@^"
_WORD_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789")
_JOINERS = frozenset("'_-")


def _ref_tokens(text: str) -> list[str]:
    """The documented token rule, scanned one character at a time: a
    token is a maximal run of ASCII letters and digits in the lowercased
    text, where a single apostrophe, underscore or hyphen with a letter or
    digit on both sides joins two runs into one token."""
    text = text.lower()
    tokens = []
    i = 0
    while i < len(text):
        if text[i] not in _WORD_CHARS:
            i += 1
            continue
        end = i
        while end < len(text) and text[end] in _WORD_CHARS:
            end += 1
            if (end + 1 < len(text) and text[end] in _JOINERS
                    and text[end + 1] in _WORD_CHARS):
                end += 1
        tokens.append(text[i:end])
        i = end
    return tokens


def _ref_informative(text: str, lex: Lexicon, cfg: MinerConfig,
                     nouns_only: bool = False) -> list[str]:
    words = []
    for token in _ref_tokens(text):
        if token in words or token in cfg.stopwords:
            continue
        if nouns_only:
            known = lex.morphy(token, Pos.NOUN) is not None
        else:
            known = (lex.morphy(token, Pos.NOUN) is not None
                     or lex.morphy(token, Pos.VERB) is not None)
        if known:
            words.append(token)
    return words


def _ref_query(triplet, lex, cfg, nouns_only=False):
    words = _ref_informative(triplet.question, lex, cfg, nouns_only)
    for w in _ref_informative(triplet.answer, lex, cfg, nouns_only):
        if w not in words:
            words.append(w)
    return words


def _ref_iou(a, b) -> float:
    ix0, ix1 = max(a.x_min, b.x_min), min(a.x_max, b.x_max)
    iy0, iy1 = max(a.y_min, b.y_min), min(a.y_max, b.y_max)
    if ix1 < ix0 or iy1 < iy0:
        return 0.0
    inter = (ix1 - ix0 + 1) * (iy1 - iy0 + 1)
    area_a = (a.x_max - a.x_min + 1) * (a.y_max - a.y_min + 1)
    area_b = (b.x_max - b.x_min + 1) * (b.y_max - b.y_min + 1)
    return inter / (area_a + area_b - inter)


def reference_mine(dataset: Dataset, lex: Lexicon, cfg: MinerConfig) -> list[dict]:
    """Enumerate every (annotation word x query word) pair and apply the
    selection, containment, IoU, and counting rules literally."""
    out = []
    for triplet in dataset.triplets:
        regions = dataset.regions_by_image.get(triplet.image_id, [])
        objects = dataset.objects_by_image.get(triplet.image_id, [])
        query = _ref_query(triplet, lex, cfg)

        region_results = []
        for region in regions:
            matches = []
            for ann_word in _ref_informative(region.phrase, lex, cfg):
                for q_word in query:
                    res = lex.words_match(q_word, ann_word)
                    if res.matched:
                        matches.append((q_word, ann_word, res.condition.name.lower()))
                        break
            region_results.append((region, matches))
        best = max((len(m) for _, m in region_results), default=0)
        if best >= cfg.min_region_matches:
            selected = [(r, m) for r, m in region_results if len(m) == best]
        else:
            selected = []

        query_nouns = _ref_query(triplet, lex, cfg, nouns_only=True)
        candidates = []
        for obj in objects:
            best_cond = None
            best_match = None
            for name in obj.names:
                name_n = " ".join(name.lower().strip().strip(_STRIP).split())
                for q_word in query_nouns:
                    res = lex.words_match(q_word, name_n)
                    if res.matched and (best_cond is None
                                        or res.condition.value < best_cond):
                        best_cond = res.condition.value
                        best_match = (q_word, name_n, res.condition.name.lower())
            if best_cond is None:
                continue
            if selected:
                cx = (obj.box.x_min + obj.box.x_max) / 2.0
                cy = (obj.box.y_min + obj.box.y_max) / 2.0
                if cfg.center_containment:
                    inside = any(r.box.x_min <= cx <= r.box.x_max
                                 and r.box.y_min <= cy <= r.box.y_max
                                 for r, _ in selected)
                else:
                    inside = any(r.box.x_min <= obj.box.x_min
                                 and r.box.y_min <= obj.box.y_min
                                 and obj.box.x_max <= r.box.x_max
                                 and obj.box.y_max <= r.box.y_max
                                 for r, _ in selected)
                if not inside:
                    continue
            candidates.append((obj, best_cond, best_match))

        candidates.sort(key=lambda item: (
            item[1],
            -(item[0].box.x_max - item[0].box.x_min + 1)
            * (item[0].box.y_max - item[0].box.y_min + 1)))
        kept = []
        kept_matches = []
        for obj, _, match in candidates:
            if all(_ref_iou(obj.box, k.box) < cfg.iou_threshold for k in kept):
                kept.append(obj)
                kept_matches.append(match)

        counting = " ".join(triplet.question.lower().split()).startswith(
            tuple(cfg.counting_prefixes))
        region_boxes = [] if counting else [r.box.as_list() for r, _ in selected]
        object_boxes = [o.box.as_list() for o in kept]
        if not region_boxes and not object_boxes:
            continue
        matched = []
        for _, matches in selected:
            for m in matches:
                if m not in matched:
                    matched.append(m)
        for m in kept_matches:
            if m not in matched:
                matched.append(m)
        out.append({
            "qa_id": triplet.qa_id,
            "region_boxes": region_boxes,
            "object_boxes": object_boxes,
            "is_counting": counting,
            "region_match_count": best,
            "matched_words": [list(m) for m in matched],
        })
    return out
