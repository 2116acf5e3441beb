"""Independent reference implementations used as test oracles.

Everything here recomputes results through a different route than the
library: per-cell coverage tests instead of array slicing, literal
pair-enumeration mining instead of the pipeline, plain summation loops
instead of vectorized math. The word-match predicate is checked against
``reference_words_match``, which spells it out from morphy, synsets and the
alias table instead of the compiled word signatures, and each compiled
signature against ``reference_signature``, which reads the stored synset
offsets, exception lists and alias table itself. The reference miner shares
only the Lexicon's tables with the code under test: it reads each word
through ``reference_signature`` and applies the match rules to those tuples.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import string

import numpy as np

from vgmine.attention import AttentionMap, rank_correlation
from vgmine.dataset import BoundingBox, Dataset
from vgmine.lexicon import Lexicon, MatchCondition, Pos, normalize_token
from vgmine.miner import MinerConfig
from vgmine.records import InputError
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


def _ndjson_line(record: dict) -> str:
    return json.dumps(record, separators=(", ", ": ")) + "\n"


def reference_maps_lines(labels: list[dict], qa: list[dict], grid_h: int, grid_w: int) -> str:
    """The text of the maps file ``rasterize`` writes for label and QA
    records: per-cell coverage counts, unmasked glimpses divided by their
    totals, every cell rounded to 9 significant digits one at a time, and one
    ``json.dumps`` per row."""
    sizes = {rec["qa_id"]: (rec["image_width"], rec["image_height"]) for rec in qa}
    lines = []
    for label in labels:
        for glimpse, key in enumerate(("object_boxes", "region_boxes")):
            counts = brute_force_rasterize([BoundingBox(*b) for b in label[key]],
                                           *sizes[label["qa_id"]], grid_h, grid_w)
            total = sum(counts.ravel().tolist())
            mask = bool(label[key]) and total > 0 and not (glimpse and label["is_counting"])
            values = [float(format(c / total if mask else c, ".9g"))
                      for c in counts.ravel().tolist()]
            lines.append(_ndjson_line({"qa_id": label["qa_id"], "glimpse": glimpse,
                                       "h": grid_h, "w": grid_w, "mask": mask,
                                       "values": values}))
    return "".join(lines)


def reference_params_lines(params: ToyModelParams) -> str:
    """The text of a ``--params-out`` file: one ``json.dumps`` per array, its
    cells rounded to 9 significant digits one at a time."""
    return "".join(_ndjson_line({"name": name, "shape": list(arr.shape),
                                 "values": [float(format(v, ".9g"))
                                            for v in arr.ravel().tolist()]})
                   for name, arr in params.named_arrays())


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
        supervision = raw, np.ones(cfg.glimpses, dtype=bool)
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


# --- eager WNDB index parser ------------------------------------------------

def reference_index_file(path, pos: Pos) -> tuple[dict[str, list[str]], int]:
    """Parse an index file eagerly: lowercase lemma -> its synset ids, and the
    number of skipped lines. A line is skipped when it has fewer than four
    fields, a count is not an int, the pointer count is negative, it has no
    synset or not as many offsets as it says, or ``int()`` rejects an
    offset; a later line of the same lemma replaces an earlier one. A header
    line with one leading space raises InputError."""
    index: dict[str, list[str]] = {}
    skipped = 0
    with open(path, encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            if not line.strip():
                continue
            if line.startswith("  "):
                continue  # license header
            if line.startswith(" "):
                raise InputError(
                    f"{path}: malformed header at line {lineno} "
                    "(header lines must begin with two spaces)"
                )
            fields = line.split()
            try:
                lemma = fields[0]
                n_synsets = int(fields[2])
                n_pointers = int(fields[3])
                offsets = fields[6 + n_pointers:]
                if n_synsets < 1 or n_pointers < 0 or len(offsets) != n_synsets:
                    raise ValueError("synset or pointer count mismatch")
                ids = [f"{int(off):08d}-{pos.value}" for off in offsets]
            except (IndexError, ValueError):
                skipped += 1
                continue
            index[lemma.lower()] = ids
    return index, skipped


# --- annotation boxes -------------------------------------------------------

def reference_box(rec: dict, width_key: str, height_key: str,
                  size: tuple[int, int] | None) -> tuple[BoundingBox, bool]:
    """The box of an annotation record with valid fields and whether it was
    clamped, in two steps: first the inclusive corners (x_max = x + width - 1),
    then, when the image's (width, height) is known, the low corners raised
    to 0, the high corners raised to the low ones, and all four lowered to
    the last pixel. A box counts as clamped when that changes it."""
    x, y = rec["x"], rec["y"]
    box = BoundingBox(x, y, x + rec[width_key] - 1, y + rec[height_key] - 1)
    if size is None:
        return box, False
    width, height = size
    x_min, y_min = max(box.x_min, 0), max(box.y_min, 0)
    x_max, y_max = max(box.x_max, x_min), max(box.y_max, y_min)
    clamped = BoundingBox(min(x_min, width - 1), min(y_min, height - 1),
                          min(x_max, width - 1), min(y_max, height - 1))
    return clamped, clamped != box


# --- word normalization and four-condition word match ----------------------

_STRIP = "\"'`.,:;!?()[]{}<>/\\|~*+=#&%$@^"


def reference_normalize(token: str) -> str:
    """One pass of trim whitespace, lowercase, trim punctuation, collapse
    inner whitespace, repeated until a pass changes nothing."""
    while True:
        once = " ".join(token.strip().lower().strip(_STRIP).split())
        if once == token:
            return token
        token = once


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


# WNDB detachment rules (morphy(7WN)), tried in order.
_NOUN_RULES = [("s", ""), ("ses", "s"), ("ves", "f"), ("xes", "x"), ("zes", "z"),
               ("ches", "ch"), ("shes", "sh"), ("men", "man"), ("ies", "y")]
_VERB_RULES = [("s", ""), ("ies", "y"), ("es", "e"), ("es", ""), ("ed", "e"), ("ed", ""),
               ("ing", "e"), ("ing", "")]


def _ref_offsets(index: dict[str, str], word: str) -> str | None:
    if word in index:
        return index[word]
    return index.get("_".join(word.split(" ")))


def _ref_morphy(index: dict[str, str], exceptions: dict[str, str], rules, word: str):
    if word in exceptions:
        return exceptions[word]
    for suffix, replacement in rules:
        if word[-len(suffix):] == suffix:
            candidate = word[:-len(suffix)] + replacement
            if candidate != "" and _ref_offsets(index, candidate) is not None:
                return candidate
    return word if _ref_offsets(index, word) is not None else None


def _ref_ids(index: dict[str, str], word: str, pos: str) -> set[str]:
    offsets = _ref_offsets(index, word)
    if offsets is None:
        return set()
    return {"%08d-%s" % (int(offset), pos) for offset in offsets.split(" ")}


def reference_signature(lex: Lexicon, word: str) -> tuple:
    """``(norm, noun lemma, verb lemma, synset ids, alias-lookup forms,
    aliases)`` of ``word``, read from the lexicon's stored offsets, exception
    lists and alias table: the lemmas by morphy on the normalized word, the
    synset ids of the word and, when different, of each lemma, the forms
    the word and its lemmas, and the aliases the union of theirs."""
    norm = reference_normalize(word)
    if not norm:
        return "", None, None, frozenset(), (), frozenset()
    lemmas, ids = [], set()
    for index, exceptions, rules, pos in (
            (lex.noun_index, lex.noun_exceptions, _NOUN_RULES, "n"),
            (lex.verb_index, lex.verb_exceptions, _VERB_RULES, "v")):
        lemma = _ref_morphy(index, exceptions, rules, norm)
        lemmas.append(lemma)
        ids |= _ref_ids(index, norm, pos)
        if lemma is not None and lemma != norm:
            ids |= _ref_ids(index, lemma, pos)
    forms = tuple([norm] + [lemma for lemma in lemmas if lemma is not None])
    aliases = set()
    for form in forms:
        aliases |= lex.aliases.get(form, set())
    return norm, lemmas[0], lemmas[1], frozenset(ids), forms, frozenset(aliases)


def reference_aliases(texts: list[str]) -> dict[str, set[str]]:
    """The alias table after loading alias files of these texts in turn, pair
    by pair: each non-blank name of a line gets an entry, and each ordered
    pair of different names on one line makes the second an alias of the
    first."""
    aliases: dict[str, set[str]] = {}
    for text in texts:
        for line in text.splitlines():
            names = [reference_normalize(part) for part in line.split(",")]
            for name in names:
                if name:
                    aliases.setdefault(name, set())
                    for other in names:
                        if other and other != name:
                            aliases[name].add(other)
    return aliases


# --- VQA answer normalization -------------------------------------------------

_NUMBER_WORDS = ["zero", "one", "two", "three", "four", "five", "six", "seven", "eight",
                 "nine", "ten"]


def reference_normalize_answer(answer: str) -> str:
    """The VQA evaluation's answer normalization as loops: lower case; drop
    each punctuation character except a period between two decimal digits;
    then, token by token, a number word becomes its index in the list above,
    "none" becomes "0" and "a", "an" and "the" are dropped."""
    text = answer.lower()
    kept = ""
    for i, char in enumerate(text):
        decimal_point = (char == "." and 0 < i < len(text) - 1
                         and text[i - 1].isdecimal() and text[i + 1].isdecimal())
        if char not in string.punctuation or decimal_point:
            kept += char
    words = []
    for token in kept.split():
        if token in ("a", "an", "the"):
            continue
        if token == "none":
            token = "0"
        elif token in _NUMBER_WORDS:
            token = str(_NUMBER_WORDS.index(token))
        words.append(token)
    return " ".join(words)


# --- literal reference miner ----------------------------------------------

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


def _ref_condition(s1: tuple, s2: tuple) -> MatchCondition:
    """The first rule that holds between two ``reference_signature`` tuples,
    in the order RAW < LEMMA < SYNSET < ALIAS."""
    norm1, noun1, verb1, ids1, _, aliases1 = s1
    norm2, noun2, verb2, ids2, forms2, _ = s2
    if not norm1 or not norm2:
        return MatchCondition.NONE
    if norm1 == norm2:
        return MatchCondition.RAW
    if (noun1 is not None and noun1 == noun2) or (verb1 is not None and verb1 == verb2):
        return MatchCondition.LEMMA
    if ids1 & ids2:
        return MatchCondition.SYNSET
    if aliases1 & set(forms2):
        return MatchCondition.ALIAS
    return MatchCondition.NONE


def _ref_informative(text: str, sig, cfg: MinerConfig, nouns_only: bool = False) -> list[str]:
    words = []
    for token in _ref_tokens(text):
        if token in words or token in cfg.stopwords:
            continue
        _, noun, verb, *_ = sig(token)
        if noun is not None or (verb is not None and not nouns_only):
            words.append(token)
    return words


def _ref_query(triplet, sig, cfg, nouns_only=False):
    words = _ref_informative(triplet.question, sig, cfg, nouns_only)
    for w in _ref_informative(triplet.answer, sig, cfg, nouns_only):
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
    selection, containment, IoU, and counting rules literally. Words are
    read through ``reference_signature``, each distinct word once."""
    sig = functools.cache(lambda word: reference_signature(lex, word))
    out = []
    for triplet in dataset.triplets:
        regions = dataset.regions_by_image.get(triplet.image_id, [])
        objects = dataset.objects_by_image.get(triplet.image_id, [])
        query = _ref_query(triplet, sig, cfg)

        region_results = []
        for region in regions:
            matches = []
            for ann_word in _ref_informative(region.phrase, sig, cfg):
                for q_word in query:
                    condition = _ref_condition(sig(q_word), sig(ann_word))
                    if condition is not MatchCondition.NONE:
                        matches.append((q_word, ann_word, condition.name.lower()))
                        break
            region_results.append((region, matches))
        best = max((len(m) for _, m in region_results), default=0)
        if best >= cfg.min_region_matches:
            selected = [(r, m) for r, m in region_results if len(m) == best]
        else:
            selected = []

        query_nouns = _ref_query(triplet, sig, cfg, nouns_only=True)
        candidates = []
        for obj in objects:
            best_cond = None
            best_match = None
            for name in obj.names:
                name_n = reference_normalize(name)
                for q_word in query_nouns:
                    condition = _ref_condition(sig(q_word), sig(name_n))
                    if condition is not MatchCondition.NONE and (
                            best_cond is None or condition.value < best_cond):
                        best_cond = condition.value
                        best_match = (q_word, name_n, condition.name.lower())
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
