"""Seeded random mini-corpus generator for miner/oracle equivalence tests.

Vocabulary is drawn from the committed WordNet fixture subset plus inflected
forms, stopwords, and out-of-vocabulary junk, so generated corpora exercise
raw/lemma/synset/alias matching, the counting prefixes, containment, and the
IoU filter.
"""

from __future__ import annotations

import numpy as np

from vgmine.dataset import BoundingBox, Dataset, ObjectAnnotation, QaTriplet, RegionAnnotation

NOUNS = [
    "man", "men", "person", "people", "woman", "women", "child", "children",
    "kid", "boy", "girl", "dog", "dogs", "cat", "cats", "horse", "bird",
    "fish", "car", "cars", "automobile", "auto", "bus", "train", "bicycle",
    "bike", "bench", "benches", "tree", "trees", "table", "chair", "street",
    "house", "ball", "book", "books", "water", "hand", "hands", "head",
    "shirt", "hat", "hats", "apple", "apples", "banana", "food", "plate",
    "cup", "glass", "window", "door", "sign", "light", "game", "player",
    "players", "phone", "telephone", "grass", "sky", "computer", "two",
]
VERBS = [
    "talk", "talking", "walk", "walking", "run", "ran", "eat", "ate",
    "eating", "drink", "drank", "play", "playing", "sit", "sat", "sitting",
    "stand", "stood", "ride", "riding", "rode", "hold", "held", "wear",
    "wearing", "wore", "look", "looking", "watch", "watching", "read",
    "throw", "threw", "catch", "caught", "jump", "jumping", "fly", "flying",
    "swim", "swam", "drive", "driving", "drove", "speak", "doing",
]
STOPS = ["a", "an", "the", "is", "are", "was", "were", "what", "how",
         "where", "there", "of", "on", "in", "to"]
JUNK = ["qzxv", "blorp", "zzyx", "grlb", "many"]


def _word(rng: np.random.Generator) -> str:
    roll = rng.random()
    if roll < 0.5:
        return NOUNS[rng.integers(len(NOUNS))]
    if roll < 0.7:
        return VERBS[rng.integers(len(VERBS))]
    if roll < 0.9:
        return STOPS[rng.integers(len(STOPS))]
    return JUNK[rng.integers(len(JUNK))]


def _phrase(rng: np.random.Generator, n_lo: int = 2, n_hi: int = 6) -> str:
    n = int(rng.integers(n_lo, n_hi + 1))
    return " ".join(_word(rng) for _ in range(n))


def _box(rng: np.random.Generator, width: int, height: int) -> BoundingBox:
    x0 = int(rng.integers(0, width))
    y0 = int(rng.integers(0, height))
    bw = int(rng.integers(1, width - x0 + 1))
    bh = int(rng.integers(1, height - y0 + 1))
    return BoundingBox(x0, y0, x0 + bw - 1, y0 + bh - 1)


def _question(rng: np.random.Generator) -> str:
    noun = NOUNS[rng.integers(len(NOUNS))]
    verb = VERBS[rng.integers(len(VERBS))]
    forms = [
        f"what is the {noun} doing?",
        f"how many {noun} are there?",
        f"what number of {noun}?",
        f"count the {noun}",
        f"where is the {noun}?",
        f"what are the {noun} {verb}?",
        _phrase(rng, 3, 7) + "?",
    ]
    return forms[rng.integers(len(forms))]


def random_corpus(rng: np.random.Generator) -> Dataset:
    """A dataset of 1-3 images with at most 20 annotations each."""
    dataset = Dataset()
    next_id = [1000]

    def fresh_id() -> int:
        next_id[0] += 1
        return next_id[0]

    n_images = int(rng.integers(1, 4))
    image_ids = []
    dims = {}
    for i in range(n_images):
        image_id = 10 + i
        image_ids.append(image_id)
        width = int(rng.integers(200, 801))
        height = int(rng.integers(200, 801))
        dims[image_id] = (width, height)
        n_regions = int(rng.integers(0, 9))
        n_objects = int(rng.integers(0, min(13, 21 - n_regions)))
        dataset.regions_by_image[image_id] = [
            RegionAnnotation(fresh_id(), _phrase(rng), _box(rng, width, height))
            for _ in range(n_regions)
        ]
        objects = []
        for _ in range(n_objects):
            n_names = int(rng.integers(1, 3))
            names = tuple(
                NOUNS[rng.integers(len(NOUNS))] if rng.random() < 0.85
                else JUNK[rng.integers(len(JUNK))]
                for _ in range(n_names)
            )
            objects.append(ObjectAnnotation(fresh_id(), names, _box(rng, width, height)))
        dataset.objects_by_image[image_id] = objects

    for _ in range(int(rng.integers(1, 5))):
        image_id = image_ids[rng.integers(len(image_ids))]
        width, height = dims[image_id]
        answer = _word(rng)
        dataset.triplets.append(QaTriplet(
            fresh_id(), image_id, _question(rng), answer, width, height))
    return dataset


def dense_corpus(rng: np.random.Generator) -> Dataset:
    """Two images annotated at Visual Genome density: phrases repeated
    across regions, object names repeated across objects and within one,
    a region without an informative word, and 10-20 triplets, most of them
    on image 1, in an order that leaves image 1 and comes back to it."""
    dataset = Dataset()
    ids = iter(range(2000, 3000))
    dims = {}
    for image_id in (1, 2):
        width, height = dims[image_id] = int(rng.integers(200, 801)), int(rng.integers(200, 801))
        phrases = [_phrase(rng, 4, 8) for _ in range(4)] + ["the a of"]
        names = [NOUNS[rng.integers(len(NOUNS))] for _ in range(5)] + ["grlb"]
        dataset.regions_by_image[image_id] = [
            RegionAnnotation(next(ids), phrases[i % 5 if i < 5 else rng.integers(5)],
                             _box(rng, width, height))
            for i in range(12)]
        dataset.objects_by_image[image_id] = [
            ObjectAnnotation(next(ids),
                             tuple(names[rng.integers(6)] for _ in range(rng.integers(1, 4))),
                             _box(rng, width, height))
            for _ in range(10)]
    n = int(rng.integers(10, 21))
    other = int(rng.integers(1, n - 1))  # image 2 between two runs of image 1
    for k in range(n):
        image_id = 2 if k == other or (k > 0 and rng.random() < 0.15) else 1
        width, height = dims[image_id]
        dataset.triplets.append(QaTriplet(next(ids), image_id, _question(rng), _word(rng),
                                          width, height))
    return dataset


# Fixture nouns and -ing verb forms that each match only themselves: no two
# share a lemma, synset or alias, and no noun has a verb sense.
PLANTED_NOUNS = ["dog", "cat", "horse", "bird", "ball", "bench", "book", "bus", "chair",
                 "cup", "door", "hat", "house", "plate", "shirt", "tree"]
PLANTED_VERBS = ["eating", "drinking", "holding", "jumping", "riding", "standing",
                 "throwing", "watching", "wearing", "reading", "looking", "playing"]


def _sized_box(rng: np.random.Generator, width: int, height: int,
               lo: float, hi: float) -> BoundingBox:
    """A box lo..hi of the image's width and of its height, anywhere inside it."""
    bw, bh = int(width * rng.uniform(lo, hi)), int(height * rng.uniform(lo, hi))
    x0, y0 = int(rng.integers(0, width - bw + 1)), int(rng.integers(0, height - bh + 1))
    return BoundingBox(x0, y0, x0 + bw - 1, y0 + bh - 1)


def planted_corpus(rng: np.random.Generator, n_images: int, same_name_share: float
                   ) -> tuple[Dataset, list[BoundingBox]]:
    """``n_images`` images of one question each whose true grounding is
    known: the box of a target object named by a noun. Each image holds
    - the target object, 15-40 % of the image's width and height;
    - the region "the {noun} {verb} near the {other}", the target's box
      grown by up to a tenth of the image on each side;
    - 3-8 distractor objects anywhere, each named {noun} with probability
      ``same_name_share`` and another noun otherwise;
    - 3-8 distractor regions "the {a} near the {b}" of two other nouns;
    - the question "what is the {noun} {verb}?", answered by a word that is
      not in the lexicon.
    Returns the dataset and the target boxes, in triplet order."""
    dataset = Dataset()
    ids = iter(range(5000, 10**6))
    truth = []
    for image_id in range(1, n_images + 1):
        width, height = int(rng.integers(300, 601)), int(rng.integers(300, 601))
        noun, other, *nouns = rng.permutation(PLANTED_NOUNS).tolist()
        verb = PLANTED_VERBS[rng.integers(len(PLANTED_VERBS))]
        target = _sized_box(rng, width, height, 0.15, 0.4)
        grow = rng.integers(0, [width // 10 + 1, height // 10 + 1], size=(2, 2))
        around = BoundingBox(max(target.x_min - int(grow[0, 0]), 0),
                             max(target.y_min - int(grow[0, 1]), 0),
                             min(target.x_max + int(grow[1, 0]), width - 1),
                             min(target.y_max + int(grow[1, 1]), height - 1))
        regions = [RegionAnnotation(next(ids), f"the {noun} {verb} near the {other}", around)]
        objects = [ObjectAnnotation(next(ids), (noun,), target)]
        for _ in range(int(rng.integers(3, 9))):
            name = noun if rng.random() < same_name_share else nouns[rng.integers(len(nouns))]
            objects.append(ObjectAnnotation(next(ids), (name,),
                                            _sized_box(rng, width, height, 0.1, 0.4)))
        for _ in range(int(rng.integers(3, 9))):
            a, b = rng.choice(nouns, 2, replace=False).tolist()
            regions.append(RegionAnnotation(next(ids), f"the {a} near the {b}",
                                            _sized_box(rng, width, height, 0.1, 0.5)))
        dataset.regions_by_image[image_id] = regions
        dataset.objects_by_image[image_id] = objects
        dataset.triplets.append(QaTriplet(next(ids), image_id, f"what is the {noun} {verb}?",
                                          "nothing", width, height))
        truth.append(target)
    return dataset, truth
