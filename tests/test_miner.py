import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vgmine.dataset import BoundingBox, Dataset, ObjectAnnotation, QaTriplet, RegionAnnotation
from vgmine.lexicon import Lexicon, MatchCondition, match_signatures, normalize_token, tokenize
from vgmine.miner import (
    MinerConfig,
    _masks,
    informative_words,
    is_counting_question,
    label_to_dict,
    mine,
    read_labels,
    write_labels,
)

from conftest import ALIASES
from corpusgen import JUNK, NOUNS, STOPS, VERBS, dense_corpus, random_corpus
from oracles import _ref_tokens, reference_mine, reference_words_match

CFG = MinerConfig()

ALIAS_NAMES = [name.strip() for line in ALIASES.read_text().splitlines()
               for name in line.split(",") if name.strip()]
# fixture words, alias names, blanks, and inflected, punctuated or
# upper-case forms of the fixture words
WORD = st.one_of(
    st.sampled_from(NOUNS + VERBS + STOPS + JUNK + ALIAS_NAMES + ["", "?"]),
    st.builds(lambda prefix, word, suffix, upper: prefix + (word.upper() if upper else word)
              + suffix,
              st.sampled_from(["", ". ", "' ", "( "]), st.sampled_from(NOUNS + VERBS),
              st.sampled_from(["", "s", "es", "ed", "ing", ".", " ?"]), st.booleans()),
)


def _triplet(question, answer, image_id=1, qa_id=900, width=640, height=480):
    return QaTriplet(qa_id, image_id, question, answer, width, height)


def _mine_one(lexicon, question, answer, regions=(), objects=(), cfg=CFG):
    """The labels mined for one triplet on an image with the given
    regions and objects (an empty list when the triplet yields no boxes)."""
    dataset = Dataset(triplets=[_triplet(question, answer)],
                      regions_by_image={1: list(regions)},
                      objects_by_image={1: list(objects)})
    return mine(dataset, lexicon, cfg)


def _region(region_id, phrase, box=BoundingBox(0, 0, 9, 9)):
    return RegionAnnotation(region_id, phrase, box)


class TestInformativeWords:
    def test_question_keeps_nouns_and_verbs(self, lexicon):
        assert informative_words("What are the people doing?", lexicon) == \
            ["people", "doing"]

    def test_empty_text(self, lexicon):
        assert informative_words("", lexicon) == []

    def test_stopwords_removed(self, lexicon):
        assert informative_words("a is the", lexicon) == []

    def test_duplicates_removed_order_preserved(self, lexicon):
        assert informative_words("dog cat dog bench cat", lexicon) == \
            ["dog", "cat", "bench"]

    def test_unknown_words_dropped(self, lexicon):
        assert informative_words("qzxv dog blorp", lexicon) == ["dog"]


class TestMatchCount:
    """A region's count: its distinct informative words matching a query word."""

    def test_fig3a_region_counts_two(self, lexicon):
        [label] = _mine_one(lexicon, "What are the people doing?", "Talking",
                            [_region(1, "men talking on a bench")])
        assert label.region_match_count == 2
        assert ("people", "men", "alias") in label.matched_words
        assert ("talking", "talking", "raw") in label.matched_words

    def test_annotation_equal_to_question(self, lexicon):
        question = "what are the people doing?"
        [label] = _mine_one(lexicon, question, "", [_region(1, question)],
                            cfg=MinerConfig(min_region_matches=1))
        assert label.region_match_count == len(informative_words(question, lexicon))

    def test_no_informative_words(self, lexicon):
        # the object keeps the label; the region contributes nothing
        [label] = _mine_one(lexicon, "What are the people doing?", "Talking",
                            [_region(1, "a is the")],
                            [ObjectAnnotation(2, ("man",), BoundingBox(0, 0, 9, 9))])
        assert label.region_match_count == 0 and label.region_boxes == []
        assert label.matched_words == [("people", "man", "alias")]

    def test_each_annotation_word_counted_once(self, lexicon):
        [label] = _mine_one(lexicon, "where is the dog?", "dog",
                            [_region(1, "dog dog dog")],
                            cfg=MinerConfig(min_region_matches=1))
        assert label.region_match_count == 1


# one query/probe pair per match rule, each matching by that rule alone
RULE_PAIRS = [
    ("raw", "zork", "zork", MatchCondition.RAW),  # no index entry
    ("noun-lemma", "children", "childs", MatchCondition.LEMMA),  # exceptions, base unindexed
    ("verb-lemma", "went", "gone", MatchCondition.LEMMA),
    ("synset", "car", "auto", MatchCondition.SYNSET),
    ("alias", "tv", "telly", MatchCondition.ALIAS),
]
RULE_LEXICON = Lexicon(
    noun_index={"car": "02958343", "auto": "02958343"},
    noun_exceptions={"children": "child", "childs": "child"},
    verb_exceptions={"went": "go", "gone": "go"},
    aliases={"tv": {"telly"}, "telly": {"tv"}},
)
# every rule's probe, then a blank, a punctuation-only and an unknown word
RULE_PROBES = [probe for _, _, probe, _ in RULE_PAIRS] + ["", "?", "qzxv"]


class TestKeyTest:
    @pytest.mark.parametrize("rule", range(len(RULE_PAIRS)),
                             ids=[name for name, *_ in RULE_PAIRS])
    def test_each_rule_alone_sets_its_probe_bit(self, rule):
        _, query, probe, condition = RULE_PAIRS[rule]
        sig = RULE_LEXICON.signature
        assert match_signatures(sig(query), sig(probe)) is condition
        [masks] = _masks([(query, sig(query))], [(p, sig(p)) for p in RULE_PROBES])
        assert masks == [1 << rule]

    @given(query=st.lists(WORD, max_size=6), probes=st.lists(WORD, max_size=6),
           names=st.lists(WORD, max_size=6))
    @settings(max_examples=400)
    def test_mask_of_a_query_word_holds_exactly_the_words_it_matches(self, lexicon, query,
                                                                     probes, names):
        signed = [(word, lexicon.signature(word)) for word in query]
        lists = [[(word, lexicon.signature(word)) for word in words] for words in (probes, names)]
        for words, masks in zip(lists, _masks(signed, *lists), strict=True):
            assert masks == [sum(1 << i for i, (word, _) in enumerate(words)
                                 if reference_words_match(lexicon, query_word, word)
                                 is not MatchCondition.NONE)
                             for query_word in query]


class TestSelectRegions:
    def test_fig3a_best_region_wins(self, lexicon, fig3_dataset):
        label = next(lab for lab in mine(fig3_dataset, lexicon, CFG) if lab.qa_id == "qa1")
        regions = fig3_dataset.regions_by_image[1]
        assert label.region_boxes == [next(r.box for r in regions if r.region_id == 101)]

    def test_all_below_threshold_gives_empty(self, lexicon):
        regions = [_region(1, "a man"), _region(2, "a tree")]
        assert _mine_one(lexicon, "What are the people doing?", "Talking", regions) == []

    def test_ties_all_kept(self, lexicon):
        regions = [_region(1, "men talking"),
                   _region(2, "people talk", BoundingBox(5, 5, 19, 19)),
                   _region(3, "a tree")]
        [label] = _mine_one(lexicon, "What are the people doing?", "Talking", regions)
        assert label.region_boxes == [regions[0].box, regions[1].box]


class TestIsCountingQuestion:
    @pytest.mark.parametrize("question, expected", [
        ("How many people are there?", True),
        ("What color is the cat?", False),
        ("how many", True),
        ("What number of dogs?", True),
        ("  Count the benches ", True),
        ("many how people?", False),
    ])
    def test_prefixes(self, question, expected):
        assert is_counting_question(question, CFG) is expected


class TestSelectObjects:
    def test_fig3b_person_boxes_with_duplicate_collapsed(self, lexicon, fig3_dataset):
        label = next(lab for lab in mine(fig3_dataset, lexicon, CFG) if lab.qa_id == "qa2")
        boxes = {o.object_id: o.box for o in fig3_dataset.objects_by_image[1]}
        assert label.object_boxes == [boxes[202], boxes[201]]

    def test_no_name_matches_gives_empty(self, lexicon):
        objects = [ObjectAnnotation(1, ("tree",), BoundingBox(0, 0, 9, 9))]
        assert _mine_one(lexicon, "Where is the dog?", "street", objects=objects) == []

    def test_names_match_query_nouns_only(self, lexicon):
        """A query word that is only a verb selects no object, not even one
        that it names."""
        dog = ObjectAnnotation(1, ("dog",), BoundingBox(0, 0, 9, 9))
        eating = ObjectAnnotation(2, ("eating",), BoundingBox(50, 50, 90, 90))
        [label] = _mine_one(lexicon, "Is the dog eating?", "yes", objects=[dog, eating])
        assert label.object_boxes == [dog.box]

    def test_identical_boxes_collapse_to_one(self, lexicon):
        box = BoundingBox(10, 10, 40, 40)
        objects = [ObjectAnnotation(1, ("dog",), box),
                   ObjectAnnotation(2, ("dog",), box)]
        [label] = _mine_one(lexicon, "Where is the dog?", "grass", objects=objects)
        assert len(label.object_boxes) == 1

    def test_center_containment_filters_outsiders(self, lexicon):
        region = _region(1, "men talking", BoundingBox(0, 0, 100, 100))
        inside = ObjectAnnotation(1, ("man",), BoundingBox(80, 80, 120, 120))
        outside = ObjectAnnotation(2, ("man",), BoundingBox(90, 90, 200, 200))
        [label] = _mine_one(lexicon, "What are the people doing?", "Talking",
                            [region], [inside, outside])
        assert label.object_boxes == [inside.box]

    def test_full_containment_flag_is_stricter(self, lexicon):
        cfg = MinerConfig(center_containment=False)
        region = _region(1, "men talking", BoundingBox(0, 0, 100, 100))
        straddling = ObjectAnnotation(1, ("man",), BoundingBox(80, 80, 120, 120))
        [label] = _mine_one(lexicon, "What are the people doing?", "Talking",
                            [region], [straddling], cfg)
        assert label.object_boxes == []


class TestMine:
    def test_fig3a_label(self, lexicon, fig3_dataset):
        labels = mine(fig3_dataset, lexicon, CFG)
        label = next(lab for lab in labels if lab.qa_id == "qa1")
        assert label.region_boxes == [BoundingBox(100, 150, 420, 360)]
        assert len(label.object_boxes) == 2
        assert label.is_counting is False
        assert label.region_match_count == 2

    def test_fig3b_counting_label(self, lexicon, fig3_dataset):
        labels = mine(fig3_dataset, lexicon, CFG)
        label = next(lab for lab in labels if lab.qa_id == "qa2")
        assert label.region_boxes == []
        assert len(label.object_boxes) == 2
        assert label.is_counting is True

    def test_triplet_without_matches_emits_nothing(self, lexicon):
        dataset = Dataset(
            triplets=[_triplet("qzxv?", "blorp")],
            regions_by_image={1: [RegionAnnotation(1, "zzyx", BoundingBox(0, 0, 9, 9))]},
            objects_by_image={1: [ObjectAnnotation(2, ("grlb",), BoundingBox(0, 0, 9, 9))]},
        )
        assert mine(dataset, lexicon, CFG) == []

    def test_deterministic_serialization(self, lexicon, fig3_dataset, tmp_path):
        first, second = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        write_labels(mine(fig3_dataset, lexicon, CFG), first)
        write_labels(mine(fig3_dataset, lexicon, CFG), second)
        assert first.read_bytes() == second.read_bytes()

    def test_labels_round_trip(self, lexicon, fig3_dataset, tmp_path):
        labels = mine(fig3_dataset, lexicon, CFG)
        path = tmp_path / "labels.ndjson"
        write_labels(labels, path)
        assert read_labels(path) == labels

    def test_monotonicity_weak_distractor_changes_nothing(self, lexicon, fig3_dataset):
        baseline = [label_to_dict(lab) for lab in mine(fig3_dataset, lexicon, CFG)]
        noisy = copy.deepcopy(fig3_dataset)
        noisy.regions_by_image[1].insert(0, RegionAnnotation(
            999, "a man with a phone", BoundingBox(0, 0, 639, 479)))  # count 1 < 2
        assert [label_to_dict(lab) for lab in mine(noisy, lexicon, CFG)] == baseline


class TestMineProperties:
    def test_object_centers_inside_regions(self, lexicon):
        rng = np.random.default_rng(7)
        for _ in range(40):
            dataset = random_corpus(rng)
            for label in mine(dataset, lexicon, CFG):
                if label.is_counting or not label.region_boxes:
                    continue
                for box in label.object_boxes:
                    cx, cy = box.center()
                    assert any(r.contains_point(cx, cy) for r in label.region_boxes)

    def test_kept_objects_pairwise_iou_below_threshold(self, lexicon):
        rng = np.random.default_rng(8)
        for _ in range(40):
            dataset = random_corpus(rng)
            for label in mine(dataset, lexicon, CFG):
                boxes = label.object_boxes
                for i in range(len(boxes)):
                    for j in range(i + 1, len(boxes)):
                        assert boxes[i].iou(boxes[j]) < CFG.iou_threshold

    def test_label_invariants_on_random_corpora(self, lexicon):
        rng = np.random.default_rng(10)
        for _ in range(40):
            for label in mine(random_corpus(rng), lexicon, CFG):
                assert label.region_boxes or label.object_boxes
                if label.region_boxes:
                    assert label.region_match_count >= CFG.min_region_matches
                if label.is_counting:
                    assert label.region_boxes == []

    def test_agrees_with_reference_miner(self, lexicon):
        rng = np.random.default_rng(9)
        for _ in range(25):
            dataset = random_corpus(rng)
            ours = [label_to_dict(lab) for lab in mine(dataset, lexicon, CFG)]
            assert ours == reference_mine(dataset, lexicon, CFG)

    @pytest.mark.parametrize("cfg", [CFG, MinerConfig(min_region_matches=1)],
                             ids=["default", "min-1"])
    def test_agrees_with_reference_on_dense_images(self, lexicon, cfg):
        rng = np.random.default_rng(12)
        for _ in range(20):
            dataset = dense_corpus(rng)
            ours = [label_to_dict(lab) for lab in mine(dataset, lexicon, cfg)]
            assert ours == reference_mine(dataset, lexicon, cfg)

    def test_agrees_with_reference_on_padded_object_name(self, lexicon):
        for name in (" . dog", ". ' dog"):
            dataset = Dataset(
                triplets=[_triplet("Where is the dog?", "on the grass")],
                regions_by_image={1: []},
                objects_by_image={1: [ObjectAnnotation(2, (name,), BoundingBox(0, 0, 9, 9))]},
            )
            ours = [label_to_dict(lab) for lab in mine(dataset, lexicon, CFG)]
            assert ours == reference_mine(dataset, lexicon, CFG)
            assert ours[0]["matched_words"] == [["dog", "dog", "raw"]]

    def test_agrees_with_reference_on_inner_punctuation(self, lexicon):
        dataset = Dataset(
            triplets=[_triplet("Where is the dog?", "on the grass")],
            regions_by_image={1: [_region(1, "dog,cat on grass")]},
            objects_by_image={1: []},
        )
        ours = [label_to_dict(lab) for lab in mine(dataset, lexicon, CFG)]
        assert ours == reference_mine(dataset, lexicon, CFG)
        assert ours[0]["region_match_count"] == 2
        assert ours[0]["region_boxes"] == [[0, 0, 9, 9]]

    @given(text=st.text(alphabet="aZ9 _-'.,?!\u0130\u00e9\t", max_size=30))
    @settings(max_examples=300)
    def test_reference_tokens_follow_the_token_rule(self, text):
        tokens = tokenize(text)
        assert _ref_tokens(text) == tokens
        assert all(normalize_token(token) == token for token in tokens)

    @pytest.mark.parametrize("cfg", [
        MinerConfig(iou_threshold=0.3),
        MinerConfig(iou_threshold=1.0),
        MinerConfig(min_region_matches=1),
        MinerConfig(min_region_matches=3),
        MinerConfig(center_containment=False),
        MinerConfig(counting_prefixes=("how many",)),
    ], ids=["iou-0.3", "iou-1.0", "min-1", "min-3", "full-containment",
            "one-prefix"])
    def test_agrees_with_reference_under_varied_configs(self, lexicon, cfg):
        rng = np.random.default_rng(hash(cfg.iou_threshold) % 1000
                                    + cfg.min_region_matches)
        for _ in range(10):
            dataset = random_corpus(rng)
            ours = [label_to_dict(lab) for lab in mine(dataset, lexicon, cfg)]
            assert ours == reference_mine(dataset, lexicon, cfg)
