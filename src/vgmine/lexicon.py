"""WordNet-backed lexicon: WNDB file parsing, morphy lemmatization, synset
lookup, alias tables, and the pairwise word-match predicate used by the miner.

Each distinct word is compiled once into a ``WordSignature`` (its lemmas,
synsets and alias sets), so that matching two words is a few equality and
set-disjointness tests.

The lexicon is built from the plain-text WNDB database files (``index.noun``,
``index.verb``, ``noun.exc``, ``verb.exc``) plus an optional alias file with
one comma-separated equivalence class per line. After loading, a Lexicon is
immutable and safe for concurrent reads.
"""

from __future__ import annotations

import enum
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path

from .records import InputError

log = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:['_\-][a-z0-9]+)*")


class LexiconError(InputError):
    """Fatal problem loading WordNet or alias files."""


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


@dataclass(frozen=True)
class MatchResult:
    matched: bool
    condition: MatchCondition


NO_MATCH = MatchResult(False, MatchCondition.NONE)

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


def normalize_token(token: str) -> str:
    """Lowercase, trim surrounding punctuation, collapse inner whitespace."""
    token = token.strip().lower()
    token = token.strip("\"'`.,:;!?()[]{}<>/\\|~*+=#&%$@^")
    return " ".join(token.split())


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens: maximal runs of ASCII letters and digits,
    where a single apostrophe, underscore or hyphen between two runs joins
    them; every other character separates tokens."""
    return _TOKEN_RE.findall(text.lower())


class WordSignature:
    """Everything ``words_match`` compares about one word, computed once.

    ``norm`` is the normalized word; ``noun`` and ``verb`` its morphy
    lemmas; ``synsets`` the union of its noun and verb synset ids; ``forms``
    the words looked up in the alias table (``norm`` and its lemmas);
    ``aliases`` the union of their alias sets.
    """

    # slot attributes read faster than NamedTuple fields on the match path
    __slots__ = ("norm", "noun", "verb", "synsets", "forms", "aliases")

    def __init__(self, norm: str, noun: str | None, verb: str | None,
                 synsets: frozenset[str], forms: tuple[str, ...],
                 aliases: frozenset[str]) -> None:
        self.norm = norm
        self.noun = noun
        self.verb = verb
        self.synsets = synsets
        self.forms = forms
        self.aliases = aliases


_EMPTY: frozenset[str] = frozenset()
_BLANK = WordSignature("", None, None, _EMPTY, (), _EMPTY)
_RESULTS = {condition: MatchResult(condition is not MatchCondition.NONE, condition)
            for condition in MatchCondition}


def match_signatures(s1: WordSignature, s2: WordSignature) -> MatchResult:
    """The first satisfied rule in the order RAW < LEMMA < SYNSET < ALIAS."""
    if not s1.norm or not s2.norm:
        return NO_MATCH
    if s1.norm == s2.norm:
        return _RESULTS[MatchCondition.RAW]
    if ((s1.noun is not None and s1.noun == s2.noun)
            or (s1.verb is not None and s1.verb == s2.verb)):
        return _RESULTS[MatchCondition.LEMMA]
    if not s1.synsets.isdisjoint(s2.synsets):
        return _RESULTS[MatchCondition.SYNSET]
    if not s1.aliases.isdisjoint(s2.forms):
        return _RESULTS[MatchCondition.ALIAS]
    return NO_MATCH


@dataclass
class Lexicon:
    """Parsed WordNet indices, exception maps, and the alias table.

    Synset ids are strings like ``"02958343-n"`` so that noun and verb
    offsets never collide. All stored words are lowercase and trimmed.
    """

    noun_index: dict[str, list[str]] = field(default_factory=dict)
    verb_index: dict[str, list[str]] = field(default_factory=dict)
    noun_exceptions: dict[str, str] = field(default_factory=dict)
    verb_exceptions: dict[str, str] = field(default_factory=dict)
    aliases: dict[str, set[str]] = field(default_factory=dict)
    skipped_lines: int = 0
    # word -> its compiled signature; load_aliases clears it, never serialized
    _signatures: dict[str, WordSignature] = field(
        default_factory=dict, repr=False, compare=False)

    def _index(self, pos: Pos) -> dict[str, list[str]]:
        return self.noun_index if pos is Pos.NOUN else self.verb_index

    def _exceptions(self, pos: Pos) -> dict[str, str]:
        return self.noun_exceptions if pos is Pos.NOUN else self.verb_exceptions

    def _in_index(self, word: str, pos: Pos) -> bool:
        index = self._index(pos)
        return word in index or word.replace(" ", "_") in index

    def _index_ids(self, word: str, pos: Pos) -> list[str]:
        index = self._index(pos)
        if word in index:
            return index[word]
        return index.get(word.replace(" ", "_"), [])

    def morphy(self, word: str, pos: Pos) -> str | None:
        """Return the base form of ``word`` for the given part of speech.

        Resolution order: exception list, then one application of the WNDB
        detachment rules (first candidate found in the index), then the word
        itself if it is in the index. None when nothing resolves.
        """
        word = normalize_token(word)
        return self._base_form(word, pos) if word else None

    def _base_form(self, word: str, pos: Pos) -> str | None:
        exc = self._exceptions(pos).get(word)
        if exc is not None:
            return exc
        for suffix, replacement in _DETACHMENT_RULES[pos]:
            if word.endswith(suffix):
                candidate = word[: len(word) - len(suffix)] + replacement
                if candidate and self._in_index(candidate, pos):
                    return candidate
        if self._in_index(word, pos):
            return word
        return None

    def _lemmas(self, word: str) -> tuple[str | None, str | None]:
        """Noun and verb base forms of an already normalized word."""
        if not word:
            return None, None
        return self._base_form(word, Pos.NOUN), self._base_form(word, Pos.VERB)

    def synsets(self, word: str, pos: Pos) -> frozenset[str]:
        """Synset ids of ``word`` and, when different, of its morphy lemma."""
        word = normalize_token(word)
        ids = set(self._index_ids(word, pos))
        lemma = self.morphy(word, pos)
        if lemma is not None and lemma != word:
            ids.update(self._index_ids(lemma, pos))
        return frozenset(ids)

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
        # Lemmas and synsets are those morphy() and synsets() give for norm.
        # Both normalize their argument again, and normalize_token is not
        # idempotent (". ' dog" -> "' dog" -> "dog"): the lemmas come from
        # ``base``, the lemmas synsets() adds from ``base`` normalized again.
        base = normalize_token(norm)
        lemmas = self._lemmas(base)
        again = base if base == norm else normalize_token(base)
        synset_lemmas = lemmas if again == base else self._lemmas(again)
        ids: set[str] = set()
        for pos, lemma in zip((Pos.NOUN, Pos.VERB), synset_lemmas):
            ids.update(self._index_ids(base, pos))
            if lemma is not None and lemma != base:
                ids.update(self._index_ids(lemma, pos))
        forms = (norm,) + tuple(lemma for lemma in lemmas if lemma is not None)
        aliases: set[str] = set()
        for form in forms:
            aliases.update(self.aliases.get(form, ()))
        return WordSignature(norm, lemmas[0], lemmas[1],
                             frozenset(ids) if ids else _EMPTY, forms,
                             frozenset(aliases) if aliases else _EMPTY)

    def has_entry(self, word: str, pos: Pos | None = None) -> bool:
        """True when the word (directly or via morphy) is in the index."""
        sig = self.signature(word)
        if normalize_token(sig.norm) == sig.norm:
            noun, verb = sig.noun, sig.verb
        else:  # morphy sees ``sig.norm`` itself, not its signature's ``base``
            noun, verb = self._lemmas(sig.norm)
        if pos is None:
            return noun is not None or verb is not None
        return (noun if pos is Pos.NOUN else verb) is not None

    def words_match(self, w1: str, w2: str) -> MatchResult:
        """Match two tokens by raw text, lemma, synset overlap, or alias.

        The reported condition is the first satisfied rule in the order
        RAW < LEMMA < SYNSET < ALIAS. Symmetric in its arguments.
        """
        return match_signatures(self.signature(w1), self.signature(w2))


def _parse_index_file(path: Path, pos: Pos, lexicon: Lexicon) -> None:
    index = lexicon._index(pos)
    with open(path, encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            if not line.strip():
                continue
            if line.startswith("  "):
                continue  # license header
            if line.startswith(" "):
                raise LexiconError(
                    f"{path}: malformed header at line {lineno} "
                    "(header lines must begin with two spaces)"
                )
            fields = line.split()
            try:
                lemma = fields[0]
                n_synsets = int(fields[2])
                n_pointers = int(fields[3])
                offsets = fields[6 + n_pointers:]
                if n_synsets < 1 or len(offsets) != n_synsets:
                    raise ValueError("synset count mismatch")
                ids = [f"{int(off):08d}-{pos.value}" for off in offsets]
            except (IndexError, ValueError):
                lexicon.skipped_lines += 1
                log.debug("%s:%d: skipping unparseable line", path, lineno)
                continue
            index[lemma.lower()] = ids


def _parse_exception_file(path: Path, pos: Pos, lexicon: Lexicon) -> None:
    exceptions = lexicon._exceptions(pos)
    with open(path, encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            terms = line.split()
            if not terms:
                continue
            if len(terms) < 2:
                lexicon.skipped_lines += 1
                log.debug("%s:%d: skipping unparseable line", path, lineno)
                continue
            inflected, bases = terms[0].lower(), [t.lower() for t in terms[1:]]
            # prefer the first base form that has an index entry
            base = next((b for b in bases if lexicon._in_index(b, pos)), bases[0])
            exceptions[inflected] = base


def load_wordnet(directory: str | Path) -> Lexicon:
    """Parse WNDB files (index.noun, index.verb, noun.exc, verb.exc).

    Raises LexiconError naming the file when one is missing or its header
    is malformed. Unparseable entry lines are skipped and counted in
    ``Lexicon.skipped_lines``.
    """
    directory = Path(directory)
    required = ["index.noun", "index.verb", "noun.exc", "verb.exc"]
    for name in required:
        if not (directory / name).is_file():
            raise LexiconError(f"missing WordNet file: {directory / name}")

    lexicon = Lexicon()
    _parse_index_file(directory / "index.noun", Pos.NOUN, lexicon)
    _parse_index_file(directory / "index.verb", Pos.VERB, lexicon)
    _parse_exception_file(directory / "noun.exc", Pos.NOUN, lexicon)
    _parse_exception_file(directory / "verb.exc", Pos.VERB, lexicon)
    if lexicon.skipped_lines:
        log.warning("skipped %d unparseable WordNet lines", lexicon.skipped_lines)
    return lexicon


def load_aliases(lexicon: Lexicon, path: str | Path) -> Lexicon:
    """Merge an alias file into the lexicon's alias table.

    Each non-blank line is a comma-separated equivalence class; all names on
    a line become mutual aliases (symmetric closure per line, no transitivity
    across lines). Loading the same file twice is a no-op.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LexiconError(f"cannot read alias file {path}: {exc}") from exc
    lexicon._signatures.clear()  # signatures carry alias sets
    for line in text.splitlines():
        names = [normalize_token(part) for part in line.split(",")]
        names = [n for n in names if n]
        for name in names:
            group = lexicon.aliases.setdefault(name, set())
            group.update(other for other in names if other != name)
    return lexicon
