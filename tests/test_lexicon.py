import logging
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vgmine.lexicon import (
    Lexicon,
    MatchCondition,
    Pos,
    load_aliases,
    load_wordnet,
    _synset_ids,
    normalize_token,
)
from vgmine.records import InputError

from conftest import ALIASES, WORDNET_DIR
from oracles import (reference_aliases, reference_index_file, reference_normalize,
                     reference_signature, reference_words_match)

VOCAB = st.sampled_from([
    "man", "men", "person", "people", "car", "cars", "automobile", "dog",
    "cat", "talk", "talking", "bench", "benches", "kid", "child", "children",
    "qzxv", "blorp", "the", "doing", "bike", "bicycle",
])

# Mixed case and surrounding punctuation and whitespace, also nested (". ' dog").
PUNCTUATED = st.one_of(
    st.sampled_from([". ' dog", "Dogs.", '" car', "", ". ' \" men", " Talking ",
                     "'people'", "CARS", ". , bench", "?"]),
    st.builds(lambda prefix, word, suffix, upper: prefix + (word.upper() if upper else word)
              + suffix,
              st.sampled_from(["", ". ", "' ", '"', ". ' ", "( "]), VOCAB,
              st.sampled_from(["", ".", "s", "?", " .", "es"]), st.booleans()),
)


# Whitespace of several kinds, trimmed punctuation, and letters whose case
# mapping changes length (U+0130 lowercases and U+00DF uppercases to two).
NORMALIZE_TEXT = st.one_of(
    st.text(alphabet=" \t\n\u00a0\u2003\x1c.'\"(),?*#aZ9\u0130\u00df-_", max_size=20),
    st.text(max_size=20),
)


class TestNormalizeToken:
    @given(text=NORMALIZE_TEXT)
    @example(text=". ' dog")
    @example(text=" ( Two\t Dogs ) .")
    @settings(max_examples=500)
    def test_idempotent_and_equal_to_repeated_one_pass_rule(self, text):
        once = normalize_token(text)
        assert normalize_token(once) == once
        assert once == reference_normalize(text)


# WNDB index text: license, blank and one-space header lines, and entries
# with odd counts and offsets, one lemma in several cases, lines in any
# order. The separators include characters that str.split() treats as
# whitespace but that do not end a line read from a file (\x1c, \x85,
# \u2028), and "\r\n", which does. Counts are also spelled as WordNet
# never writes them but int() reads them (01, +1, Arabic-Indic digits), and
# some eight-character offsets are not eight ASCII digits.
_INDEX_LEMMAS = st.sampled_from(["dog", "Dog", "DOG", "hot_dog", "car", "\u0130"])
_INDEX_OFFSETS = st.sampled_from(["02084071", "5", "+5", "-3", "1_0", "\u0663", "\u00b2",
                                  "x", "0" * 700, "1" * 4301, "\u0663" * 8, "+0000005",
                                  "0208407\u0661"])
_ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                            "\u0665\u0666\u0667\u0668\u0669")
_COUNT_SPELLINGS = st.sampled_from([str, "0{}".format, "+{}".format,
                                    lambda count: str(count).translate(_ARABIC_INDIC)])
_INDEX_SEPARATORS = st.sampled_from([" ", " ", " ", "\t", "\x1c", "\x85", "\u2028", "\r\n"])


@st.composite
def _index_entry(draw):
    offsets = draw(st.lists(_INDEX_OFFSETS, max_size=3))
    pointers = draw(st.lists(st.sampled_from(["@", "~", "+"]), max_size=2))
    n_synsets, n_pointers = len(offsets), len(pointers)
    if draw(st.booleans()):  # a count that does not fit the entry
        n_synsets = draw(st.sampled_from([n_synsets, n_synsets + 1, 0, "x"]))
        n_pointers = draw(st.sampled_from([n_pointers, -1, -2, n_pointers + 1]))
    spell = draw(_COUNT_SPELLINGS)
    fields = [draw(_INDEX_LEMMAS), "n", spell(n_synsets), spell(n_pointers), *pointers,
              str(n_synsets), "0", *offsets]
    fields = fields[:draw(st.integers(1, len(fields)))] if draw(st.booleans()) else fields
    text = fields[0]
    for field in fields[1:]:
        text += draw(_INDEX_SEPARATORS) + field
    return text


_INDEX_TEXT = st.lists(st.one_of(
    _index_entry(), _index_entry(),
    st.sampled_from(["  1 This software and database is provided", "", "  \t", "\x1c",
                     " 1 one-space header"]),
), max_size=8).flatmap(lambda lines: st.sampled_from(["\n", "\r\n", "\r"]).map(
    lambda end: "".join(line + end for line in lines)))


@pytest.fixture(scope="module")
def wordnet_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("wordnet")
    for name in ("noun.exc", "verb.exc"):
        (directory / name).write_text("")
    return directory


class TestLoadWordnet:
    def test_fixture_counts(self, lexicon):
        assert len(lexicon.noun_index) > 50
        assert len(lexicon.verb_index) > 20
        assert lexicon.skipped_lines == 0

    def test_stored_words_lowercase_and_trimmed(self, lexicon):
        for table in (lexicon.noun_index, lexicon.verb_index,
                      lexicon.noun_exceptions, lexicon.verb_exceptions,
                      lexicon.aliases):
            for word in table:
                assert word == word.lower().strip()

    def test_exceptions_resolve_to_listed_base(self, lexicon):
        from vgmine.lexicon import Pos
        for inflected, base in lexicon.noun_exceptions.items():
            assert lexicon.morphy(inflected, Pos.NOUN) == base
        for inflected, base in lexicon.verb_exceptions.items():
            assert lexicon.morphy(inflected, Pos.VERB) == base

    @pytest.mark.skipif("VGMINE_WORDNET_DIR" not in os.environ,
                        reason="set VGMINE_WORDNET_DIR to a real WordNet 3.0 "
                               "database directory to run")
    def test_real_wordnet_has_large_noun_index(self):
        lex = load_wordnet(os.environ["VGMINE_WORDNET_DIR"])
        assert len(lex.noun_index) > 100000

    def test_header_only_files_load_empty(self, tmp_path):
        header = "  1 license text\n  2 more license text\n"
        for name in ("index.noun", "index.verb"):
            (tmp_path / name).write_text(header)
        for name in ("noun.exc", "verb.exc"):
            (tmp_path / name).write_text("")
        lex = load_wordnet(tmp_path)
        assert len(lex.noun_index) == 0
        assert len(lex.verb_index) == 0

    def test_missing_index_verb_is_fatal(self, tmp_path):
        for name in ("index.noun", "noun.exc", "verb.exc"):
            (tmp_path / name).write_text("")
        with pytest.raises(InputError, match="index.verb"):
            load_wordnet(tmp_path)

    def test_malformed_header_is_fatal(self, tmp_path):
        (tmp_path / "index.noun").write_text(" 1 single-space header\n")
        for name in ("index.verb", "noun.exc", "verb.exc"):
            (tmp_path / name).write_text("")
        with pytest.raises(InputError, match="malformed header"):
            load_wordnet(tmp_path)

    def test_unparseable_lines_are_counted_not_fatal(self, tmp_path):
        (tmp_path / "index.noun").write_text(
            "dog n 1 2 @ ~ 1 1 02084071\nbroken line without fields\n")
        (tmp_path / "index.verb").write_text("")
        (tmp_path / "noun.exc").write_text("")
        (tmp_path / "verb.exc").write_text("")
        lex = load_wordnet(tmp_path)
        assert "dog" in lex.noun_index
        assert lex.skipped_lines == 1

    def test_negative_pointer_count_is_skipped(self, tmp_path):
        # read as -1 pointers, the line's sense count 0 would become a synset offset
        (tmp_path / "index.noun").write_text(
            "dog n 1 0 1 0 02084071\ncat n 2 -1 1 0 02121620\n")
        for name in ("index.verb", "noun.exc", "verb.exc"):
            (tmp_path / name).write_text("")
        lex = load_wordnet(tmp_path)
        assert lex.noun_index == {"dog": "02084071"}
        assert lex.skipped_lines == 1
        assert reference_index_file(tmp_path / "index.noun", Pos.NOUN) \
            == ({"dog": ["02084071-n"]}, 1)

    def test_skipped_lines_warning_names_each_file(self, tmp_path, caplog):
        (tmp_path / "index.noun").write_text(
            "dog n 1 2 @ ~ 1 1 02084071\nbroken\n\ncat n x 0 1 0 02121620\n")
        (tmp_path / "index.verb").write_text("walk v 1 0 1 0 01904930\n")
        (tmp_path / "noun.exc").write_text("geese goose\nlonely\n")
        (tmp_path / "verb.exc").write_text("")
        with caplog.at_level(logging.WARNING, logger="vgmine.lexicon"):
            lex = load_wordnet(tmp_path)
        assert lex.skipped_lines == 3
        assert [r.getMessage() for r in caplog.records] == [
            f"{tmp_path / 'index.noun'}: skipped 2 unparseable lines (first at line 2)",
            f"{tmp_path / 'noun.exc'}: skipped 1 unparseable lines (first at line 2)",
        ]

    @given(noun=_INDEX_TEXT, verb=_INDEX_TEXT)
    @example(noun="dog n 1 0\x1c1 0 02084071\n", verb="")
    @example(noun="dog n 1 0 1 0 1\u20282\n", verb="walk v 1 0 1 0 01904930\x85\n")
    @example(noun="dog n 1 0 1 0 " + "1" * 4301 + "\n", verb="")
    @example(noun="dog n 1 100 " + "@ " * 100 + "1 0 02084071\n", verb="")
    @settings(max_examples=150)
    def test_index_files_parse_as_the_eager_reference(self, wordnet_dir, noun, verb):
        files = {Pos.NOUN: wordnet_dir / "index.noun", Pos.VERB: wordnet_dir / "index.verb"}
        files[Pos.NOUN].write_bytes(noun.encode("utf-8"))
        files[Pos.VERB].write_bytes(verb.encode("utf-8"))
        try:
            expected = {pos: reference_index_file(path, pos) for pos, path in files.items()}
        except InputError as exc:
            with pytest.raises(InputError) as raised:
                load_wordnet(wordnet_dir)
            assert str(raised.value) == str(exc)
            return
        lex = load_wordnet(wordnet_dir)
        for pos, (index, _) in expected.items():
            table = lex._tables[pos]
            assert list(table.index) == list(index)
            assert {word: _synset_ids(line, table.tag) for word, line in table.index.items()} \
                == index
        assert lex.skipped_lines == sum(skipped for _, skipped in expected.values())


# Alias file text: names that normalize alike ("TV", " tv."), duplicates and
# blank parts on one line, lines repeated, and separators that splitlines()
# ends a line at.
_ALIAS_NAMES = st.sampled_from(["TV", " tv.", "tv", "television", "Man", "man", "men",
                                ". ' People", "people", "hot  dog", "Hot Dog", "", " ", "."])
_ALIAS_LINES = st.one_of(
    st.lists(_ALIAS_NAMES, max_size=5).map(",".join),
    st.sampled_from(["TV, television", "man, men, man, Man", "tv, TV"]),
)
_ALIAS_TEXT = st.builds(lambda lines, end: end.join(lines) + end,
                        st.lists(_ALIAS_LINES, max_size=6),
                        st.sampled_from(["\n", "\r\n", "\x1c"]))


@pytest.fixture(scope="module")
def alias_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("aliases")


class TestLoadAliases:
    @given(texts=st.lists(_ALIAS_TEXT, min_size=1, max_size=2))
    @example(texts=["TV, tv, TV\n, ,\n", "TV, television\n TV.\n"])
    @settings(max_examples=200)
    def test_equals_the_pairwise_reference(self, alias_dir, texts):
        lex = Lexicon()
        for i, text in enumerate(texts):
            path = alias_dir / f"aliases{i}.txt"
            path.write_bytes(text.encode("utf-8"))
            load_aliases(lex, path)
        assert lex.aliases == reference_aliases(texts)
        assert not [name for name, group in lex.aliases.items() if name in group]

    def test_line_becomes_mutual_aliases(self, lexicon):
        assert {"person", "people"} <= lexicon.aliases["man"]
        assert {"man", "people"} <= lexicon.aliases["person"]

    def test_symmetry(self, lexicon):
        for word, others in lexicon.aliases.items():
            for other in others:
                assert word in lexicon.aliases[other]

    def test_names_are_normalized_in_one_step(self, tmp_path):
        path = tmp_path / "aliases.txt"
        path.write_text(". ' People , MEN\n")
        assert load_aliases(Lexicon(), path).aliases == {"people": {"men"}, "men": {"people"}}

    def test_empty_file_changes_nothing(self, tmp_path):
        lex = Lexicon()
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        load_aliases(lex, empty)
        assert lex.aliases == {}

    def test_loading_aliases_invalidates_compiled_words(self):
        lex = load_wordnet(WORDNET_DIR)
        assert lex.words_match("people", "men") is MatchCondition.NONE
        load_aliases(lex, ALIASES)
        assert lex.words_match("people", "men") is MatchCondition.ALIAS
        aliases = {word: set(others) for word, others in lex.aliases.items()}
        load_aliases(lex, ALIASES)
        assert lex.aliases == aliases
        assert lex.words_match("people", "men") is MatchCondition.ALIAS

    def test_idempotent_on_repeated_load(self):
        a = load_aliases(load_wordnet(WORDNET_DIR), ALIASES).aliases
        lex = load_wordnet(WORDNET_DIR)
        load_aliases(lex, ALIASES)
        load_aliases(lex, ALIASES)
        assert lex.aliases == a

    def test_unreadable_file_is_fatal(self, tmp_path):
        with pytest.raises(InputError):
            load_aliases(Lexicon(), tmp_path / "missing.txt")


class TestMorphy:
    def test_exception_list(self, lexicon):
        assert lexicon.morphy("men", Pos.NOUN) == "man"

    def test_base_form_passthrough(self, lexicon):
        assert lexicon.morphy("man", Pos.NOUN) == "man"

    def test_verb_detachment(self, lexicon):
        assert lexicon.morphy("talking", Pos.VERB) == "talk"

    def test_noun_detachment(self, lexicon):
        assert lexicon.morphy("benches", Pos.NOUN) == "bench"
        assert lexicon.morphy("dogs", Pos.NOUN) == "dog"

    def test_unknown_gives_none(self, lexicon):
        assert lexicon.morphy("qzxv", Pos.NOUN) is None
        assert lexicon.morphy("man", Pos.VERB) is None

    @given(word=VOCAB, pos=st.sampled_from([Pos.NOUN, Pos.VERB]))
    def test_idempotent(self, lexicon, word, pos):
        once = lexicon.morphy(word, pos)
        if once is not None:
            assert lexicon.morphy(once, pos) == once


class TestSynsets:
    def test_car_automobile_share_a_synset(self, lexicon):
        shared = lexicon.synsets("car", Pos.NOUN) & lexicon.synsets("automobile", Pos.NOUN)
        assert len(shared) >= 1

    def test_out_of_vocabulary_is_empty(self, lexicon):
        assert lexicon.synsets("qzxv", Pos.NOUN) == set()

    def test_inflected_equals_base(self, lexicon):
        assert lexicon.synsets("men", Pos.NOUN) == lexicon.synsets("man", Pos.NOUN)

    def test_pos_tagged_ids_never_collide(self, lexicon):
        noun_ids = set().union(*(lexicon.synsets(word, Pos.NOUN) for word in lexicon.noun_index))
        verb_ids = set().union(*(lexicon.synsets(word, Pos.VERB) for word in lexicon.verb_index))
        assert noun_ids and verb_ids
        assert noun_ids.isdisjoint(verb_ids)


class TestWordsMatch:
    @pytest.mark.parametrize("w1, w2, condition", [
        ("talking", "talking", MatchCondition.RAW),
        ("people", "men", MatchCondition.ALIAS),
        ("men", "man", MatchCondition.LEMMA),
        ("car", "automobile", MatchCondition.SYNSET),
        ("dog", "cat", MatchCondition.NONE),
    ])
    def test_examples(self, lexicon, w1, w2, condition):
        result = lexicon.words_match(w1, w2)
        assert result is condition
        assert result.matched is (condition is not MatchCondition.NONE)

    def test_alias_after_lemmatization(self, lexicon):
        # "men" -> "man", whose aliases contain "people"
        assert lexicon.words_match("men", "people") is MatchCondition.ALIAS

    @given(w1=VOCAB, w2=VOCAB)
    def test_symmetric(self, lexicon, w1, w2):
        assert lexicon.words_match(w1, w2) == lexicon.words_match(w2, w1)

    @given(word=st.one_of(VOCAB, st.from_regex(r"[a-z]{1,8}", fullmatch=True)))
    def test_self_match_is_raw(self, lexicon, word):
        result = lexicon.words_match(word, word)
        assert result.matched and result is MatchCondition.RAW

    @given(w1=st.one_of(VOCAB, PUNCTUATED), w2=st.one_of(VOCAB, PUNCTUATED))
    @settings(max_examples=300)
    def test_agrees_with_reference_predicate(self, lexicon, w1, w2):
        result = lexicon.words_match(w1, w2)
        assert result is reference_words_match(lexicon, w1, w2)
        assert result.matched is (result is not MatchCondition.NONE)

    @given(word=st.one_of(VOCAB, PUNCTUATED), pos=st.sampled_from([None, Pos.NOUN, Pos.VERB]))
    def test_has_entry_agrees_with_morphy(self, lexicon, word, pos):
        poses = (pos,) if pos is not None else (Pos.NOUN, Pos.VERB)
        expected = any(lexicon.morphy(word, p) is not None for p in poses)
        assert lexicon.has_entry(word, pos) is expected

    @given(w1=VOCAB, w2=VOCAB)
    @settings(max_examples=60)
    def test_removing_aliases_never_flips_earlier_conditions(self, lexicon, w1, w2):
        stripped = Lexicon(
            noun_index=lexicon.noun_index,
            verb_index=lexicon.verb_index,
            noun_exceptions=lexicon.noun_exceptions,
            verb_exceptions=lexicon.verb_exceptions,
            aliases={},
        )
        before = lexicon.words_match(w1, w2)
        after = stripped.words_match(w1, w2)
        if before in (MatchCondition.RAW, MatchCondition.LEMMA, MatchCondition.SYNSET):
            assert after == before


# Lemmas added to the fixture WordNet so that every detachment rule has a
# base to reach, some lemmas hold an underscore, and an exception's base is
# a multiword lemma.
_EXTRA_NOUNS = ["hot_dog", "fire_truck", "fireman", "wolf", "box", "quiz", "church",
                "dish", "fly", "bus_stop"]
_EXTRA_VERBS = ["ice_skate", "bake", "tie", "box", "pick_up", "fly"]
_EXTRA_EXCEPTIONS = {"noun.exc": "hot_dogs_galore hot_dog\n", "verb.exc": "picked_up pick_up\n"}


@pytest.fixture(scope="module")
def signature_lexicon(tmp_path_factory):
    directory = tmp_path_factory.mktemp("signature_wordnet")
    offsets = iter(range(9_000_000, 9_100_000))
    for name, pos, extra in (("index.noun", "n", _EXTRA_NOUNS),
                             ("index.verb", "v", _EXTRA_VERBS)):
        lines = [f"{lemma} {pos} 1 0 1 0 {next(offsets):08d}\n" for lemma in extra]
        (directory / name).write_text((WORDNET_DIR / name).read_text() + "".join(lines))
    for name, line in _EXTRA_EXCEPTIONS.items():
        (directory / name).write_text((WORDNET_DIR / name).read_text() + line)
    (directory / "aliases.txt").write_text(ALIASES.read_text() + "hot dog, frankfurter\n")
    return load_aliases(load_wordnet(directory), directory / "aliases.txt")


# Lemmas (with the fixture's exception keys) that the signature test
# inflects: a few characters cut, a rule suffix added, underscores spaced.
_SIGNATURE_LEMMAS = ["man", "woman", "child", "bench", "bus", "glass", "dog", "sky", "people",
                     "sitting", "talk", "walk", "ride", "drive", "swim", "sit", "watch", "catch",
                     "men", "children", "ran", "hot_dogs_galore", "picked_up", "frankfurter",
                     "qzxv", *_EXTRA_NOUNS, *_EXTRA_VERBS]
_SIGNATURE_SUFFIXES = ["", "s", "es", "ies", "ves", "xes", "zes", "ches", "shes", "men", "ed",
                       "ing", "e"]


def _inflected(lemma, spaced, cut, suffix, wrap, upper):
    word = (lemma.replace("_", " ") if spaced else lemma)[:len(lemma) - cut] + suffix
    return wrap.format(word.upper() if upper else word)


SIGNATURE_WORDS = st.builds(
    _inflected, st.sampled_from(_SIGNATURE_LEMMAS), st.booleans(), st.integers(0, 2),
    st.sampled_from(_SIGNATURE_SUFFIXES), st.sampled_from(["{}", "{} ", ". {}", "{}?", "'{}'"]),
    st.booleans())


class TestSignature:
    @given(word=SIGNATURE_WORDS)
    @example(word="hot dogs")
    @example(word="firemen")
    @example(word="Wolves")
    @example(word="picked up")
    @settings(max_examples=400)
    def test_equals_reference(self, signature_lexicon, word):
        sig = signature_lexicon.signature(word)
        assert len(set(sig.synsets)) == len(sig.synsets)
        assert (sig.norm, sig.noun, sig.verb, frozenset(sig.synsets), sig.forms, sig.aliases) \
            == reference_signature(signature_lexicon, word)

    def test_synset_ids_are_kept_once_in_first_seen_order(self):
        # "glasses" has its own line and the lemma "glass", which shares a synset
        lex = Lexicon(noun_index={"glasses": "04272054 03438257", "glass": "03438257 7944050"})
        assert lex.signature("glasses").synsets == ("04272054-n", "03438257-n", "07944050-n")
