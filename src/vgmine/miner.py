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
``vgmine.lexicon``). ``mine`` takes one image run (the consecutive triplets
of one image) at a time and numbers the distinct informative words of its
phrases (each distinct phrase is read once), its distinct object names and
its distinct query words. ``_masks`` screens each numbered word once
against dicts from the keys of all the run's query words, which gives each
query word the mask of the words it matches. A triplet ORs the masks of its
query words (of its nouns for object names), a region's count is the
popcount of its mask AND that, and ``match_signatures`` runs only for the
passing words of selected regions and matching objects. Only the current
run's state is kept.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from pathlib import Path

from .dataset import BoundingBox, Dataset, ObjectAnnotation, QaTriplet, RegionAnnotation
from .lexicon import (Lexicon, MatchCondition, WordSignature, match_signatures,
                      normalize_token, tokenize)
from .records import LABEL_RECORD, fields, read_keyed, write_lines

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
    for token in tokenize(text):  # every token is already normalized
        if token in seen or token in stopwords:
            continue
        seen.add(token)
        sig = lexicon.signature(token)
        if sig.noun is not None or sig.verb is not None:
            words.append(token)
    return words


def is_counting_question(question: str, cfg: MinerConfig) -> bool:
    normalized = " ".join(question.lower().split())
    return normalized.startswith(cfg.counting_prefixes)


def _query_words(triplet: QaTriplet, lexicon: Lexicon, cfg: MinerConfig) -> list[str]:
    """Informative words of the question, then those of the answer that the
    question lacks."""
    return list(dict.fromkeys(informative_words(triplet.question, lexicon, cfg.stopwords)
                              + informative_words(triplet.answer, lexicon, cfg.stopwords)))


def _masks(query: list[_Word], *word_lists: list[_Word]) -> Iterator[list[int]]:
    """For each of ``word_lists``, the bitmask of its words that each query
    word matches, with ``match_signatures``' rules turned around: each word
    is screened once against the keys of the query words (normalized forms,
    noun and verb lemmas, synset ids, alias names), and only a word that
    passes is looked up in them."""
    # each key of a query word -> the bitmask of the query words holding it
    forms, nouns, verbs, synsets, aliases = {}, {}, {}, {}, {}
    for q, (_, sig) in enumerate(query):
        if sig.norm:  # a blank word matches nothing
            for table, keys in ((forms, (sig.norm,)), (nouns, (sig.noun,)), (verbs, (sig.verb,)),
                                (synsets, sig.synsets), (aliases, sig.aliases)):
                for key in keys:
                    table[key] = table.get(key, 0) | 1 << q
    nouns.pop(None, None)
    verbs.pop(None, None)
    synset_keys, alias_keys = synsets.keys(), aliases.keys()
    for words in word_lists:
        masks = [0] * len(query)
        # a blank word needs no test of its own: its signature has no keys
        for i, (_, sig) in enumerate(words):
            if not (sig.norm in forms or sig.noun in nouns or sig.verb in verbs
                    or not synset_keys.isdisjoint(sig.synsets)
                    or not alias_keys.isdisjoint(sig.forms)):
                continue
            hits = forms.get(sig.norm, 0) | nouns.get(sig.noun, 0) | verbs.get(sig.verb, 0)
            for key in sig.synsets:
                hits |= synsets.get(key, 0)
            for key in sig.forms:
                hits |= aliases.get(key, 0)
            while hits:
                q = hits.bit_length() - 1
                hits ^= 1 << q
                masks[q] |= 1 << i
        yield masks


def _numbered(texts: list, split: Callable[..., list[str]], lexicon: Lexicon
              ) -> tuple[list[_Word], list[tuple[int, list[int]]]]:
    """The distinct words of ``split(text)`` over ``texts`` with their
    signatures, numbered in order of first appearance, and for each text
    the bitmask and the numbers of its words. Each distinct text is split
    once."""
    numbers: dict[str, int] = {}
    words: list[_Word] = []
    by_text: dict = {}
    for text in texts:
        if text not in by_text:
            mask, indices = 0, []
            for word in split(text):
                if word not in numbers:
                    numbers[word] = len(words)
                    words.append((word, lexicon.signature(word)))
                indices.append(numbers[word])
                mask |= 1 << numbers[word]
            by_text[text] = mask, indices
    return words, [by_text[text] for text in texts]


def _score_regions(regions: list[RegionAnnotation], words: list[_Word],
                   region_words: list[tuple[int, list[int]]], query: list[_Word], passing: int,
                   cfg: MinerConfig) -> tuple[list[RegionAnnotation], int, list[MatchedWord]]:
    """All regions achieving the maximum match count, when that count
    reaches ``min_region_matches``, with the count and their matched words.

    A region's count is the number of its distinct informative words that
    match some query word: the bits its word mask shares with ``passing``.
    Each matched word of a selected region is paired with the first query
    word it matches.
    """
    counts = [(mask & passing).bit_count() for mask, _ in region_words]
    best = max(counts, default=0)
    if best < cfg.min_region_matches:
        return [], best, []
    first_match: dict[int, MatchedWord] = {}
    selected: list[RegionAnnotation] = []
    matches: list[MatchedWord] = []
    for region, (_, indices), count in zip(regions, region_words, counts):
        if count == best:
            selected.append(region)
            for i in indices:
                if passing >> i & 1:
                    if i not in first_match:
                        first_match[i] = _matches(query, *words[i])[0][1]
                    matches.append(first_match[i])
    return selected, best, matches


def _matches(query: list[_Word], word: str, sig: WordSignature
             ) -> list[tuple[int, MatchedWord]]:
    """(condition rank, matched word) for each query word that ``word``
    matches, in query order."""
    matches = []
    for query_word, query_sig in query:
        condition = match_signatures(query_sig, sig)
        if condition is not MatchCondition.NONE:
            matches.append((condition.value, (query_word, word, _CONDITION_NAMES[condition])))
    return matches


def _score_objects(objects: list[ObjectAnnotation], names: list[_Word],
                   object_names: list[tuple[int, list[int]]],
                   selected_regions: list[RegionAnnotation], query_nouns: list[_Word], passing: int,
                   cfg: MinerConfig) -> tuple[list[ObjectAnnotation], list[MatchedWord]]:
    """Objects with a name matching a query noun (the names in ``passing``),
    inside a selected region when there are any, best condition first,
    then larger boxes first, greedily deduplicated by IoU."""
    best_by_name: dict[int, tuple[int, MatchedWord]] = {}
    candidates: list[tuple[ObjectAnnotation, int, MatchedWord]] = []
    for obj, (mask, indices) in zip(objects, object_names):
        if not mask & passing:
            continue
        best: tuple[int, MatchedWord] | None = None
        for i in indices:
            if passing >> i & 1:
                if i not in best_by_name:  # the first query noun of the lowest rank
                    best_by_name[i] = min(_matches(query_nouns, *names[i]),
                                          key=lambda match: match[0])
                if best is None or best_by_name[i][0] < best[0]:
                    best = best_by_name[i]
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
    for image_id, run in groupby(dataset.triplets, key=attrgetter("image_id")):
        regions = dataset.regions_by_image.get(image_id, [])
        objects = dataset.objects_by_image.get(image_id, [])
        words, region_words = _numbered(
            [r.phrase for r in regions],
            lambda phrase: informative_words(phrase, lexicon, cfg.stopwords), lexicon)
        names, object_names = _numbered(
            [o.names for o in objects],
            lambda names: [normalize_token(name) for name in names], lexicon)
        run = list(run)
        query_words, queries = _numbered(
            run, lambda triplet: _query_words(triplet, lexicon, cfg), lexicon)
        word_masks, name_masks = _masks(query_words, words, names)
        name_masks = [mask if sig.noun is not None else 0
                      for mask, (_, sig) in zip(name_masks, query_words)]
        for triplet, (_, numbers) in zip(run, queries):
            query = [query_words[q] for q in numbers]
            query_nouns = [(word, sig) for word, sig in query if sig.noun is not None]
            word_passing = name_passing = 0
            for q in numbers:
                word_passing |= word_masks[q]
                name_passing |= name_masks[q]
            selected_regions, best, region_matches = _score_regions(
                regions, words, region_words, query, word_passing, cfg)
            selected_objects, object_matches = _score_objects(
                objects, names, object_names, selected_regions, query_nouns, name_passing, cfg)
            counting = is_counting_question(triplet.question, cfg)
            region_boxes = [] if counting else [r.box for r in selected_regions]
            object_boxes = [o.box for o in selected_objects]
            if not region_boxes and not object_boxes:
                continue
            labels.append(GroundingLabel(
                qa_id=triplet.qa_id,
                region_boxes=region_boxes,
                object_boxes=object_boxes,
                is_counting=counting,
                region_match_count=best,
                matched_words=list(dict.fromkeys(region_matches + object_matches)),
            ))
    return labels


def lookup_words(dataset: Dataset) -> set[str]:
    """The words ``mine`` may look up in the lexicon for ``dataset``, for
    ``load_wordnet``'s ``words``: the tokens of every phrase, question and
    answer, taken in one pass over their joined text, and every normalized
    object name."""
    texts = [r.phrase for regions in dataset.regions_by_image.values() for r in regions]
    texts += [text for t in dataset.triplets for text in (t.question, t.answer)]
    words = set(tokenize("\n".join(texts)))  # no token spans a newline
    names = {name for objects in dataset.objects_by_image.values() for o in objects
             for name in o.names}
    words.update(map(normalize_token, names))
    return words


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
    qa_id, region_boxes, object_boxes, is_counting, count, words = fields(data, LABEL_RECORD)
    return GroundingLabel(qa_id, [BoundingBox(*b) for b in region_boxes],
                          [BoundingBox(*b) for b in object_boxes], is_counting, count,
                          [tuple(m) for m in words])


def write_labels(labels: list[GroundingLabel], path: str | Path) -> None:
    """NDJSON, one label per line, stable field order."""
    write_lines(path, (json.dumps(label_to_dict(label)) + "\n" for label in labels))


def read_labels(path: str | Path) -> list[GroundingLabel]:
    """The labels of an NDJSON file in file order; a repeated qa_id is an
    ``InputError`` naming both lines."""
    return list(read_keyed(path, lambda data: ((label := label_from_dict(data)).qa_id,
                                               label)).values())
