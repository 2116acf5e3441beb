"""WordNet-backed lexicon: WNDB file parsing, morphy lemmatization, synset
lookup, alias tables, and the pairwise word-match predicate used by the miner.

Each distinct word is compiled once into a ``WordSignature`` (its lemmas,
synsets and alias sets), so that matching two words is a few equality and
set-disjointness tests.

The lexicon is built from the plain-text WNDB database files (``index.noun``,
``index.verb``, ``noun.exc``, ``verb.exc``) plus an optional alias file with
one comma-separated equivalence class per line. An index line's counts are
read from a table of the numerals WordNet writes (int() reads any other
spelling); only its synset offsets are kept, formatted into ids on lookup.
A non-UTF-8 file raises ``records.InputError`` naming its first bad byte's
line. After loading, a Lexicon is immutable and safe for concurrent reads.
"""

from __future__ import annotations

import enum
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .records import InputError, read_text, utf8

log = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:['_\-][a-z0-9]+)*")


class Pos(enum.Enum):
    NOUN = "n"
    VERB = "v"


class MatchCondition(enum.Enum):
    """Which rule matched a word pair; lower rank wins when several hold."""

    RAW = 0
    LEMMA = 1
    SYNSET = 2
    ALIAS = 3
    NONE = 4

    @property
    def matched(self) -> bool:
        return self is not MatchCondition.NONE


# The WNDB files that ``load_wordnet`` reads from its directory.
WNDB_FILES = ("index.noun", "index.verb", "noun.exc", "verb.exc")

# WNDB detachment rules: (suffix, replacement), tried in order.
_DETACHMENT_RULES: dict[Pos, list[tuple[str, str]]] = {
    Pos.NOUN: [
        ("s", ""),
        ("ses", "s"),
        ("ves", "f"),
        ("xes", "x"),
        ("zes", "z"),
        ("ches", "ch"),
        ("shes", "sh"),
        ("men", "man"),
        ("ies", "y"),
    ],
    Pos.VERB: [
        ("s", ""),
        ("ies", "y"),
        ("es", "e"),
        ("es", ""),
        ("ed", "e"),
        ("ed", ""),
        ("ing", "e"),
        ("ing", ""),
    ],
}


class _PosTable(NamedTuple):
    """What lemmatization and synset lookup read for one part of speech."""

    index: dict[str, str]  # lowercase lemma -> its synset offsets, space-separated
    exceptions: dict[str, str]
    rules: list[tuple[str, str]]
    suffixes: tuple[str, ...]  # the rules' suffixes, screened with one endswith
    tag: str  # the synset id suffix, "-n" or "-v"


def _offsets(index: dict[str, str], word: str) -> str | None:
    """The stored offsets of ``word``, or of ``word`` with spaces as underscores."""
    offsets = index.get(word)
    if offsets is None and " " in word:
        offsets = index.get(word.replace(" ", "_"))
    return offsets


def _base_form(table: _PosTable, word: str, offsets: str | None) -> str | None:
    """The morphy lemma of a normalized ``word`` whose own stored offsets are
    ``offsets``: its exception entry, else the first detachment rule whose
    candidate is in the index, else the word itself when it has an entry."""
    exc = table.exceptions.get(word)
    if exc is not None:
        return exc
    if word.endswith(table.suffixes):
        for suffix, replacement in table.rules:
            if word.endswith(suffix):
                candidate = word[: len(word) - len(suffix)] + replacement
                if candidate and _offsets(table.index, candidate) is not None:
                    return candidate
    return word if offsets is not None else None


def _synset_ids(offsets: str, tag: str) -> list[str]:
    """The synset ids of one lemma's stored offsets: an offset of eight ASCII
    digits is its own ``08d`` form; int() reads any other spelling."""
    return [off + tag if len(off) == 8 and off.isascii() and off.isdigit()
            else f"{int(off):08d}{tag}" for off in offsets.split()]


def _lemma_and_ids(table: _PosTable, word: str) -> tuple[str | None, list[str]]:
    """The morphy lemma of a normalized ``word`` and the synset ids of the
    word and, when different, of its lemma."""
    offsets = _offsets(table.index, word)
    lemma = _base_form(table, word, offsets)
    ids = _synset_ids(offsets, table.tag) if offsets is not None else []
    if lemma is not None and lemma != word:
        lemma_offsets = _offsets(table.index, lemma)
        if lemma_offsets is not None:
            ids += _synset_ids(lemma_offsets, table.tag)
    return lemma, ids


# surrounding characters normalize_token trims: punctuation and the space
_TRIM = "\"'`.,:;!?()[]{}<>/\\|~*+=#&%$@^ "


def normalize_token(token: str) -> str:
    """Lowercase, collapse whitespace runs to one space, then trim
    surrounding punctuation and spaces. Idempotent: a normalized word
    normalizes to itself."""
    return " ".join(token.lower().split()).strip(_TRIM)


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens: maximal runs of ASCII letters and digits,
    where a single apostrophe, underscore or hyphen between two runs joins
    them; every other character separates tokens."""
    return _TOKEN_RE.findall(text.lower())


class WordSignature:
    """Everything ``words_match`` compares about one word, computed once.

    ``norm`` is the normalized word; ``noun`` and ``verb`` its morphy
    lemmas; ``synsets`` its noun and verb synset ids, each once, in the order
    first found; ``forms`` the words looked up in the alias table (``norm``
    and its lemmas); ``aliases`` the union of their alias sets.
    """

    # slot attributes read faster than NamedTuple fields on the match path
    __slots__ = ("norm", "noun", "verb", "synsets", "forms", "aliases")

    def __init__(self, norm: str, noun: str | None, verb: str | None,
                 synsets: tuple[str, ...], forms: tuple[str, ...],
                 aliases: frozenset[str]) -> None:
        self.norm = norm
        self.noun = noun
        self.verb = verb
        self.synsets = synsets
        self.forms = forms
        self.aliases = aliases


_EMPTY: frozenset[str] = frozenset()
_BLANK = WordSignature("", None, None, (), (), _EMPTY)


def match_signatures(s1: WordSignature, s2: WordSignature) -> MatchCondition:
    """The first satisfied rule in the order RAW < LEMMA < SYNSET < ALIAS,
    NONE when none holds."""
    if not s1.norm or not s2.norm:
        return MatchCondition.NONE
    if s1.norm == s2.norm:
        return MatchCondition.RAW
    if ((s1.noun is not None and s1.noun == s2.noun)
            or (s1.verb is not None and s1.verb == s2.verb)):
        return MatchCondition.LEMMA
    if not set(s1.synsets).isdisjoint(s2.synsets):
        return MatchCondition.SYNSET
    if not s1.aliases.isdisjoint(s2.forms):
        return MatchCondition.ALIAS
    return MatchCondition.NONE


@dataclass
class Lexicon:
    """Parsed WordNet indices, exception maps, and the alias table.

    Synset ids are strings like ``"02958343-n"`` so that noun and verb
    offsets never collide. All stored words are lowercase and trimmed.
    """

    # lowercase lemma -> its checked index line's offsets as spelled, space-separated
    noun_index: dict[str, str] = field(default_factory=dict)
    verb_index: dict[str, str] = field(default_factory=dict)
    noun_exceptions: dict[str, str] = field(default_factory=dict)
    verb_exceptions: dict[str, str] = field(default_factory=dict)
    aliases: dict[str, set[str]] = field(default_factory=dict)
    skipped_lines: int = 0
    # word -> its compiled signature; load_aliases clears it, never serialized
    _signatures: dict[str, WordSignature] = field(
        default_factory=dict, repr=False, compare=False)
    # the tables above, grouped by part of speech, noun first
    _tables: dict[Pos, _PosTable] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._tables = {}
        for pos, index, exceptions in ((Pos.NOUN, self.noun_index, self.noun_exceptions),
                                       (Pos.VERB, self.verb_index, self.verb_exceptions)):
            rules = _DETACHMENT_RULES[pos]
            suffixes = tuple(dict.fromkeys(suffix for suffix, _ in rules))
            self._tables[pos] = _PosTable(index, exceptions, rules, suffixes, f"-{pos.value}")

    def morphy(self, word: str, pos: Pos) -> str | None:
        """Return the base form of ``word`` for the given part of speech.

        Resolution order: exception list, then one application of the WNDB
        detachment rules (first candidate found in the index), then the word
        itself if it is in the index. None when nothing resolves.
        """
        word, table = normalize_token(word), self._tables[pos]
        return _base_form(table, word, _offsets(table.index, word))

    def synsets(self, word: str, pos: Pos) -> frozenset[str]:
        """Synset ids of ``word`` and, when different, of its morphy lemma."""
        return frozenset(_lemma_and_ids(self._tables[pos], normalize_token(word))[1])

    def signature(self, word: str) -> WordSignature:
        """The compiled signature of ``word``, built on first use."""
        sig = self._signatures.get(word)
        if sig is None:
            sig = self._signatures[word] = self._compile(word)
        return sig

    def _compile(self, word: str) -> WordSignature:
        norm = normalize_token(word)
        if not norm:
            return _BLANK
        norm = word if norm == word else norm  # one string for the key and the signature
        # the lemmas and synset ids that morphy() and synsets() give for norm
        noun_table, verb_table = self._tables.values()
        noun, noun_ids = _lemma_and_ids(noun_table, norm)
        verb, verb_ids = _lemma_and_ids(verb_table, norm)
        ids = noun_ids + verb_ids
        forms = (norm,) if noun is None else (norm, noun)
        if verb is not None:
            forms += (verb,)
        aliases = [self.aliases[form] for form in forms if form in self.aliases]
        return WordSignature(norm, noun, verb, tuple(dict.fromkeys(ids) if len(ids) > 1 else ids),
                             forms, _EMPTY.union(*aliases) if aliases else _EMPTY)

    def has_entry(self, word: str, pos: Pos | None = None) -> bool:
        """True when the word (directly or via morphy) is in the index."""
        sig = self.signature(word)
        if pos is None:
            return sig.noun is not None or sig.verb is not None
        return (sig.noun if pos is Pos.NOUN else sig.verb) is not None

    def words_match(self, w1: str, w2: str) -> MatchCondition:
        """Match two tokens by raw text, lemma, synset overlap, or alias.

        The returned condition is the first satisfied rule in the order
        RAW < LEMMA < SYNSET < ALIAS. Symmetric in its arguments.
        """
        return match_signatures(self.signature(w1), self.signature(w2))


def _count_skipped(path: Path, skipped: list[int], lexicon: Lexicon) -> None:
    """Add one file's unparseable lines to the count; one warning names them."""
    for lineno in skipped:
        log.debug("%s:%d: skipping unparseable line", path, lineno)
    if skipped:
        lexicon.skipped_lines += len(skipped)
        log.warning("%s: skipped %d unparseable lines (first at line %d)",
                    path, len(skipped), skipped[0])


# The synset and pointer counts as WordNet spells them; int() reads any other
# spelling (01, +1, a non-ASCII digit, 100).
_COUNTS = {str(n): n for n in range(100)}


def _parse_index_file(path: Path, pos: Pos, lexicon: Lexicon) -> None:
    # stores each checked line's offsets as text; _synset_ids formats ids on lookup
    index = lexicon._tables[pos].index
    skipped = []
    with utf8(path), open(path, encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            fields = line.split()
            if not fields:
                continue
            if line[0] == " ":
                if line.startswith("  "):
                    continue  # license header
                raise InputError(f"{path}: malformed header at line {lineno} "
                                 "(header lines must begin with two spaces)")
            try:
                n_synsets, pointers = _COUNTS.get(fields[2]), _COUNTS.get(fields[3])
                if n_synsets is None or pointers is None:
                    n_synsets, pointers = int(fields[2]), int(fields[3])
                if n_synsets < 1 or pointers < 0 or len(fields) != 6 + pointers + n_synsets:
                    raise ValueError("synset or pointer count mismatch")
                offsets = fields[-1] if n_synsets == 1 else " ".join(fields[6 + pointers:])
                digits = offsets if n_synsets == 1 else offsets.replace(" ", "")
                # int() parses any run of at most 640 decimal digits (its limit is >= 640)
                if not (len(digits) <= 640 and digits.isdecimal()):
                    for off in offsets.split():
                        int(off)
            except (IndexError, ValueError):
                skipped.append(lineno)
                continue
            index[fields[0].lower()] = offsets
    _count_skipped(path, skipped, lexicon)


def _parse_exception_file(path: Path, pos: Pos, lexicon: Lexicon) -> None:
    table = lexicon._tables[pos]
    skipped = []
    with utf8(path), open(path, encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            terms = line.split()
            if not terms:
                continue
            if len(terms) < 2:
                skipped.append(lineno)
                continue
            inflected, bases = terms[0].lower(), [t.lower() for t in terms[1:]]
            # prefer the first base form that has an index entry
            base = next((b for b in bases if _offsets(table.index, b) is not None), bases[0])
            table.exceptions[inflected] = base
    _count_skipped(path, skipped, lexicon)


def load_wordnet(directory: str | Path) -> Lexicon:
    """Parse WNDB files (index.noun, index.verb, noun.exc, verb.exc).

    Raises InputError naming the file when one is missing or its header
    is malformed. Unparseable entry lines are skipped and counted in
    ``Lexicon.skipped_lines``.
    """
    directory = Path(directory)
    for name in WNDB_FILES:
        if not (directory / name).is_file():
            raise InputError(f"missing WordNet file: {directory / name}")

    lexicon = Lexicon()
    _parse_index_file(directory / "index.noun", Pos.NOUN, lexicon)
    _parse_index_file(directory / "index.verb", Pos.VERB, lexicon)
    _parse_exception_file(directory / "noun.exc", Pos.NOUN, lexicon)
    _parse_exception_file(directory / "verb.exc", Pos.VERB, lexicon)
    return lexicon


def load_aliases(lexicon: Lexicon, path: str | Path) -> Lexicon:
    """Merge an alias file into the lexicon's alias table.

    Each non-blank line is a comma-separated equivalence class; all names on
    a line become mutual aliases (symmetric closure per line, no transitivity
    across lines). Loading the same file twice is a no-op.
    """
    text = read_text(Path(path))
    lexicon._signatures.clear()  # signatures carry alias sets
    for line in text.splitlines():
        names = [normalize_token(part) for part in line.split(",")]
        names = [n for n in names if n]
        for name in names:
            group = lexicon.aliases.setdefault(name, set())
            own = name in group  # only in a table given to Lexicon()
            group.update(names)
            if not own:
                group.discard(name)
    return lexicon
