"""Grounding-label mining: score region descriptions and object annotations
against each (image, question, answer) triplet and emit the selected boxes.

Pipeline per triplet:
  1. extract informative words (nouns/verbs surviving the stopword filter)
     from the question and answer;
  2. keep the region descriptions sharing the most informative words
     (ties kept, at least ``min_region_matches`` required);
  3. keep objects whose name matches an informative noun, restricted to the
     selected regions when any exist, then deduplicate overlapping boxes
     with a greedy IoU filter;
  4. for counting questions, drop the region boxes after the object boxes
     have been extracted under their containment constraint.

Words are compared through their compiled ``WordSignature`` (see
``vgmine.lexicon``). The informative words of a region phrase are extracted
once per image, and each distinct annotation word or object name is matched
against the query words once per triplet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .dataset import BoundingBox, Dataset, ObjectAnnotation, QaTriplet, RegionAnnotation
from .lexicon import (Lexicon, MatchCondition, WordSignature, match_signatures,
                      normalize_token, tokenize)
from .records import qa_id_of, read_ndjson, write_ndjson

DEFAULT_STOPWORDS = frozenset({
    "a", "an", "the", "is", "are", "was", "were", "be", "been", "do", "does",
    "what", "which", "who", "how", "where", "there", "of", "on", "in", "to",
})

DEFAULT_COUNTING_PREFIXES = ("how many", "what number of", "count")

# (query word, annotation word, condition name)
MatchedWord = tuple[str, str, str]
# a word with its compiled signature
_Word = tuple[str, WordSignature]

_CONDITION_NAMES = {condition: condition.name.lower() for condition in MatchCondition}


@dataclass(frozen=True)
class MinerConfig:
    iou_threshold: float = 0.5
    min_region_matches: int = 2
    stopwords: frozenset[str] = DEFAULT_STOPWORDS
    counting_prefixes: tuple[str, ...] = DEFAULT_COUNTING_PREFIXES
    center_containment: bool = True  # False demands full box containment

    def __post_init__(self) -> None:
        if not 0.0 < self.iou_threshold <= 1.0:
            raise ValueError("iou_threshold must be in (0, 1]")
        if self.min_region_matches < 1:
            raise ValueError("min_region_matches must be >= 1")


@dataclass
class GroundingLabel:
    qa_id: int | str
    region_boxes: list[BoundingBox]
    object_boxes: list[BoundingBox]
    is_counting: bool
    region_match_count: int
    matched_words: list[MatchedWord] = field(default_factory=list)


def informative_words(text: str, lexicon: Lexicon,
                      stopwords: frozenset[str] = DEFAULT_STOPWORDS) -> list[str]:
    """Deduplicated tokens that pass the stopword filter and have a noun or
    verb lexicon entry (directly or via morphy); order of first appearance."""
    words: list[str] = []
    seen: set[str] = set()
    for token in tokenize(text):
        token = normalize_token(token)
        if not token or token in seen or token in stopwords:
            continue
        seen.add(token)
        # a regex token normalizes to itself, so these are morphy's lemmas
        sig = lexicon.signature(token)
        if sig.noun is not None or sig.verb is not None:
            words.append(token)
    return words


def is_counting_question(question: str, cfg: MinerConfig) -> bool:
    normalized = " ".join(question.lower().split())
    return normalized.startswith(cfg.counting_prefixes)


def _signed(words: list[str], lexicon: Lexicon) -> list[_Word]:
    return [(word, lexicon.signature(word)) for word in words]


def _query_words(triplet: QaTriplet, lexicon: Lexicon, cfg: MinerConfig) -> list[_Word]:
    """Informative words of the question, then those of the answer that the
    question lacks."""
    words = informative_words(triplet.question, lexicon, cfg.stopwords)
    for word in informative_words(triplet.answer, lexicon, cfg.stopwords):
        if word not in words:
            words.append(word)
    return _signed(words, lexicon)


def _score_regions(regions: list[RegionAnnotation], phrase_words: dict[str, list[_Word]],
                   query: list[_Word], lexicon: Lexicon, cfg: MinerConfig
                   ) -> tuple[list[RegionAnnotation], int, list[MatchedWord]]:
    """All regions achieving the maximum match count, when that count
    reaches ``min_region_matches``, with the count and their matched words.

    A region's count is the number of its distinct informative words that
    match some query word; each is paired with the first such query word.
    ``phrase_words`` memoizes the informative words of the image's phrases.
    """
    first_match: dict[str, MatchedWord | None] = {}
    best = 0
    scored: list[tuple[RegionAnnotation, list[MatchedWord]]] = []
    for region in regions:
        words = phrase_words.get(region.phrase)
        if words is None:
            words = phrase_words[region.phrase] = _signed(
                informative_words(region.phrase, lexicon, cfg.stopwords), lexicon)
        matches: list[MatchedWord] = []
        for ann_word, ann_sig in words:
            if ann_word in first_match:
                match = first_match[ann_word]
            else:
                match = first_match[ann_word] = _first_match(query, ann_word, ann_sig)
            if match is not None:
                matches.append(match)
        scored.append((region, matches))
        best = max(best, len(matches))
    if best < cfg.min_region_matches:
        return [], best, []
    selected = [region for region, matches in scored if len(matches) == best]
    matched = [m for _, matches in scored if len(matches) == best for m in matches]
    return selected, best, matched


def _first_match(query: list[_Word], ann_word: str, ann_sig: WordSignature
                 ) -> MatchedWord | None:
    for query_word, query_sig in query:
        condition = match_signatures(query_sig, ann_sig).condition
        if condition is not MatchCondition.NONE:
            return query_word, ann_word, _CONDITION_NAMES[condition]
    return None


def _score_objects(objects: list[ObjectAnnotation], selected_regions: list[RegionAnnotation],
                   query_nouns: list[_Word], lexicon: Lexicon, cfg: MinerConfig
                   ) -> tuple[list[ObjectAnnotation], list[MatchedWord]]:
    """Objects with a name matching a query noun (inside a selected region
    when there are any), best condition first, then larger boxes first,
    greedily deduplicated by IoU."""
    best_by_name: dict[str, tuple[int, MatchedWord] | None] = {}
    candidates: list[tuple[ObjectAnnotation, int, MatchedWord]] = []
    for obj in objects:
        best: tuple[int, MatchedWord] | None = None
        for name in obj.names:
            if name in best_by_name:
                found = best_by_name[name]
            else:
                found = best_by_name[name] = _best_noun_match(query_nouns, name, lexicon)
            if found is not None and (best is None or found[0] < best[0]):
                best = found
        if best is None:
            continue
        if selected_regions and not _inside_some_region(obj.box, selected_regions, cfg):
            continue
        candidates.append((obj, best[0], best[1]))

    candidates.sort(key=lambda item: (item[1], -item[0].box.area()))
    kept: list[ObjectAnnotation] = []
    matched: list[MatchedWord] = []
    for obj, _, match in candidates:
        if any(obj.box.iou(k.box) >= cfg.iou_threshold for k in kept):
            continue
        kept.append(obj)
        matched.append(match)
    return kept, matched


def _best_noun_match(query_nouns: list[_Word], name: str, lexicon: Lexicon
                     ) -> tuple[int, MatchedWord] | None:
    """The lowest match condition of an object name over the query nouns
    (the first query noun reaching it), as (condition rank, matched word)."""
    name = normalize_token(name)
    name_sig = lexicon.signature(name)
    best: tuple[int, MatchedWord] | None = None
    for query_word, query_sig in query_nouns:
        condition = match_signatures(query_sig, name_sig).condition
        if condition is not MatchCondition.NONE and (best is None or condition.value < best[0]):
            best = (condition.value, (query_word, name, _CONDITION_NAMES[condition]))
    return best


def _inside_some_region(box: BoundingBox, regions: list[RegionAnnotation],
                        cfg: MinerConfig) -> bool:
    if cfg.center_containment:
        cx, cy = box.center()
        return any(r.box.contains_point(cx, cy) for r in regions)
    return any(r.box.contains_box(box) for r in regions)


def mine(dataset: Dataset, lexicon: Lexicon, cfg: MinerConfig | None = None
         ) -> list[GroundingLabel]:
    """One GroundingLabel per triplet that yields region or object boxes,
    in input triplet order. Counting questions keep only object boxes."""
    cfg = cfg or MinerConfig()
    labels: list[GroundingLabel] = []
    image_id: object = object()
    phrase_words: dict[str, list[_Word]] = {}
    for triplet in dataset.triplets:
        if triplet.image_id != image_id:  # phrases are reused within an image
            image_id, phrase_words = triplet.image_id, {}
        regions = dataset.regions_by_image.get(triplet.image_id, [])
        objects = dataset.objects_by_image.get(triplet.image_id, [])
        query = _query_words(triplet, lexicon, cfg)
        query_nouns = [(word, sig) for word, sig in query if sig.noun is not None]
        selected_regions, best, region_matches = _score_regions(
            regions, phrase_words, query, lexicon, cfg)
        selected_objects, object_matches = _score_objects(
            objects, selected_regions, query_nouns, lexicon, cfg)
        counting = is_counting_question(triplet.question, cfg)
        region_boxes = [] if counting else [r.box for r in selected_regions]
        object_boxes = [o.box for o in selected_objects]
        if not region_boxes and not object_boxes:
            continue
        matched: list[MatchedWord] = []
        for m in region_matches + object_matches:
            if m not in matched:
                matched.append(m)
        labels.append(GroundingLabel(
            qa_id=triplet.qa_id,
            region_boxes=region_boxes,
            object_boxes=object_boxes,
            is_counting=counting,
            region_match_count=best,
            matched_words=matched,
        ))
    return labels


def label_to_dict(label: GroundingLabel) -> dict:
    return {
        "qa_id": label.qa_id,
        "region_boxes": [b.as_list() for b in label.region_boxes],
        "object_boxes": [b.as_list() for b in label.object_boxes],
        "is_counting": label.is_counting,
        "region_match_count": label.region_match_count,
        "matched_words": [list(m) for m in label.matched_words],
    }


def label_from_dict(data: dict) -> GroundingLabel:
    return GroundingLabel(
        qa_id=qa_id_of(data),
        region_boxes=[BoundingBox(*b) for b in data["region_boxes"]],
        object_boxes=[BoundingBox(*b) for b in data["object_boxes"]],
        is_counting=data["is_counting"],
        region_match_count=data["region_match_count"],
        matched_words=[tuple(m) for m in data["matched_words"]],
    )


def write_labels(labels: list[GroundingLabel], path: str | Path) -> None:
    """NDJSON, one label per line, stable field order."""
    write_ndjson(path, map(label_to_dict, labels))


def read_labels(path: str | Path) -> list[GroundingLabel]:
    return read_ndjson(path, label_from_dict)
