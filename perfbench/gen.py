"""Seeded input generators for the benchmark workloads.

Every generator takes a seed (through a ``numpy.random.Generator``) and
writes plain files only; the program under test never sees the generator.
The same seed gives byte-identical files.

Box distribution (all workloads): the top-left corner is uniform over the
image and the width and height are uniform between 1 pixel and the distance
to the image border, as in ``tests/corpusgen.py``. Nothing is filtered
afterwards, so a box that covers every cell of a 14x14 grid (a constant map,
about 5e-5 of single boxes) is kept and shows up as an ``eval-rank`` failure.

Corpus counts are stratified rather than drawn independently: the regions,
objects and QA pairs per image, the phrase lengths within an image and the
question templates are spread evenly over their ranges and shuffled by the
seed. Every seed then has the stated density exactly and gives a pass the
same work within a few percent (independent draws made the cost per triplet
differ by up to 12 % between seeds); the words, boxes and image sizes stay
independent draws.

Run as a script to write one workload's inputs:

    python3 perfbench/gen.py --workload pipeline_vg --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from corpusgen import JUNK, NOUNS, STOPS, VERBS  # noqa: E402

FIXTURE_WORDNET = ROOT / "tests" / "fixtures" / "wordnet"
FIXTURE_ALIASES = ROOT / "tests" / "fixtures" / "aliases.txt"
WNDB_FILES = ("index.noun", "index.verb", "noun.exc", "verb.exc")
GRID = 14


@dataclass(frozen=True)
class CorpusShape:
    """Per-image annotation counts, each spread evenly over [lo, hi] across
    the images (see ``spread``). The corpus holds exactly ``triplets`` QA
    pairs, so that every seed gives a pass the same amount of work."""

    triplets: int
    regions: tuple[int, int]
    objects: tuple[int, int]
    qa: tuple[int, int]


# Visual Genome density (Krishna et al. 2017): about 50 region descriptions,
# 35 objects and 17 QA pairs per image; 680 triplets is 40 images, enough
# that the cost of a pass differs by only a few percent between seeds.
VG_SHAPE = CorpusShape(triplets=680, regions=(40, 60), objects=(25, 45), qa=(12, 22))
# Same annotation density, 1-2 QA per image: little word reuse per image.
BIGVOCAB_SHAPE = CorpusShape(triplets=300, regions=(40, 60), objects=(25, 45), qa=(1, 2))


# --- vocabularies ----------------------------------------------------------

class FixtureVocabulary:
    """The ``tests/corpusgen.py`` word lists, drawn uniformly."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng

    def noun(self) -> str:
        return NOUNS[self.rng.integers(len(NOUNS))]

    def verb(self) -> str:
        return VERBS[self.rng.integers(len(VERBS))]

    def junk(self) -> str:
        return JUNK[self.rng.integers(len(JUNK))]


class ZipfVocabulary:
    """Nouns and verbs of a generated lexicon, drawn with Zipf frequencies
    and inflected; draws are pre-sampled in blocks for speed."""

    BLOCK = 4096

    def __init__(self, rng: np.random.Generator, lexicon: "GeneratedLexicon",
                 exponent: float = 1.07) -> None:
        self.rng = rng
        self.lexicon = lexicon
        self._pools = {}
        for pos, lemmas in (("n", lexicon.nouns), ("v", lexicon.verbs)):
            order = rng.permutation(len(lemmas))
            weights = 1.0 / np.arange(1, len(lemmas) + 1) ** exponent
            self._pools[pos] = ([lemmas[i] for i in order], weights / weights.sum(), [])

    def _draw(self, pos: str) -> str:
        lemmas, probs, block = self._pools[pos]
        if not block:
            block.extend(self.rng.choice(len(lemmas), self.BLOCK, p=probs).tolist()[::-1])
        return lemmas[block.pop()]

    def noun(self) -> str:
        lemma = self._draw("n")
        roll = self.rng.random()
        if roll < 0.03 and lemma in self.lexicon.noun_irregular:
            return self.lexicon.noun_irregular[lemma]
        if roll < 0.35:
            return plural(lemma)
        return lemma

    def verb(self) -> str:
        lemma = self._draw("v")
        roll = self.rng.random()
        if roll < 0.05 and lemma in self.lexicon.verb_irregular:
            return self.lexicon.verb_irregular[lemma]
        if roll < 0.25:
            return present_participle(lemma)
        if roll < 0.45:
            return past(lemma)
        if roll < 0.6:
            return plural(lemma)
        return lemma

    def junk(self) -> str:
        return JUNK[self.rng.integers(len(JUNK))]


def plural(word: str) -> str:
    if word.endswith(("s", "x", "z", "ch", "sh")):
        return word + "es"
    if word.endswith("y") and len(word) > 1 and word[-2] not in "aeiou":
        return word[:-1] + "ies"
    return word + "s"


def present_participle(word: str) -> str:
    return (word[:-1] if word.endswith("e") else word) + "ing"


def past(word: str) -> str:
    return word + ("d" if word.endswith("e") else "ed")


# --- corpus ----------------------------------------------------------------

def draw_box(rng: np.random.Generator, width: int, height: int) -> tuple[int, int, int, int]:
    """(x, y, w, h): uniform corner, uniform size up to the image border."""
    x0 = int(rng.integers(0, width))
    y0 = int(rng.integers(0, height))
    bw = int(rng.integers(1, width - x0 + 1))
    bh = int(rng.integers(1, height - y0 + 1))
    return x0, y0, bw, bh


def word(vocab, rng: np.random.Generator) -> str:
    """Same mix as ``corpusgen._word``: nouns, verbs, stopwords, junk."""
    roll = rng.random()
    if roll < 0.5:
        return vocab.noun()
    if roll < 0.7:
        return vocab.verb()
    if roll < 0.9:
        return STOPS[rng.integers(len(STOPS))]
    return vocab.junk()


def phrase(vocab, rng: np.random.Generator, lo: int = 2, hi: int = 6,
           length: int | None = None) -> str:
    if length is None:
        length = int(rng.integers(lo, hi + 1))
    return " ".join(word(vocab, rng) for _ in range(length))


def spread(rng: np.random.Generator, lo: int, hi: int, n: int) -> list[int]:
    """``n`` integers spread evenly over [lo, hi], in seeded random order."""
    return rng.permutation(np.rint(np.linspace(lo, hi, n)).astype(int)).tolist()


def cycle(rng: np.random.Generator, lo: int, hi: int, n: int) -> list[int]:
    """``n`` integers cycling through lo..hi, in seeded random order."""
    return rng.permutation(np.resize(np.arange(lo, hi + 1), n)).tolist()


QUESTION_FORMS = 7


def question(vocab, rng: np.random.Generator, form: int | None = None) -> str:
    """The ``corpusgen._question`` templates over the given vocabulary."""
    noun, verb = vocab.noun(), vocab.verb()
    if form is None:
        form = int(rng.integers(QUESTION_FORMS))
    if form == 0:
        return f"what is the {noun} doing?"
    if form == 1:
        return f"how many {noun} are there?"
    if form == 2:
        return f"what number of {noun}?"
    if form == 3:
        return f"count the {noun}"
    if form == 4:
        return f"where is the {noun}?"
    if form == 5:
        return f"what are the {noun} {verb}?"
    return phrase(vocab, rng, 3, 7) + "?"


def write_corpus(rng: np.random.Generator, vocab, shape: CorpusShape, out: Path) -> None:
    """regions.json, objects.json and qa.json in the ``vgmine.dataset`` schema."""
    regions_out, objects_out, qa_out = [], [], []
    images = max(1, round(shape.triplets / (sum(shape.qa) / 2)))
    qa_counts = spread(rng, *shape.qa, images)
    region_counts = spread(rng, *shape.regions, images)
    object_counts = spread(rng, *shape.objects, images)
    forms = cycle(rng, 0, QUESTION_FORMS - 1, shape.triplets)
    next_id = 1000
    for image_id, (n_qa, n_regions, n_objects) in enumerate(
            zip(qa_counts, region_counts, object_counts), start=1):
        width = int(rng.integers(200, 801))
        height = int(rng.integers(200, 801))
        regions = []
        for length in cycle(rng, 2, 6, n_regions):
            x, y, w, h = draw_box(rng, width, height)
            next_id += 1
            regions.append({"region_id": next_id, "phrase": phrase(vocab, rng, length=length),
                            "x": x, "y": y, "width": w, "height": h})
        objects = []
        for _ in range(n_objects):
            names = [vocab.noun() if rng.random() < 0.85 else vocab.junk()
                     for _ in range(int(rng.integers(1, 3)))]
            x, y, w, h = draw_box(rng, width, height)
            next_id += 1
            objects.append({"object_id": next_id, "names": names,
                            "x": x, "y": y, "w": w, "h": h})
        regions_out.append({"image_id": image_id, "regions": regions})
        objects_out.append({"image_id": image_id, "objects": objects})
        for _ in range(min(n_qa, shape.triplets - len(qa_out))):
            next_id += 1
            qa_out.append({"image_id": image_id, "qa_id": next_id,
                           "question": question(vocab, rng, forms[len(qa_out)]),
                           "answer": word(vocab, rng),
                           "image_width": width, "image_height": height})
    if len(qa_out) != shape.triplets:
        raise ValueError(f"{shape} spreads to {len(qa_out)} triplets")
    _write_json(out / "regions.json", regions_out)
    _write_json(out / "objects.json", objects_out)
    _write_json(out / "qa.json", qa_out)


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, separators=(",", ":")) + "\n", encoding="utf-8")


# --- WNDB lexicon at WordNet 3.0 scale -------------------------------------

@dataclass(frozen=True)
class LexiconShape:
    nouns: int = 118_000
    verbs: int = 11_500
    noun_synsets: int = 82_000
    verb_synsets: int = 13_700
    noun_extra_senses: float = 0.24   # WordNet 3.0: 1.24 senses per noun
    verb_extra_senses: float = 1.17   # and 2.17 per verb
    noun_exceptions: int = 2_000
    verb_exceptions: int = 2_400
    alias_lines: int = 3_000
    verbs_also_nouns: float = 0.4


@dataclass
class GeneratedLexicon:
    nouns: list[str]
    verbs: list[str]
    noun_irregular: dict[str, str]   # lemma -> irregular inflected form
    verb_irregular: dict[str, str]


_ONSETS = list("bcdfghjklmnprstvwz") + ["br", "cl", "dr", "gr", "pl", "st", "tr"]
_VOWELS = list("aeiou") + ["ai", "ea", "oo"]
_CODAS = ["", "", "", "n", "r", "l", "t", "s", "x", "ch", "sh", "y", "m", "k"]


def _lemmas(rng: np.random.Generator, count: int, taken: set[str]) -> list[str]:
    """Distinct pronounceable lemmas of 2-3 syllables; about 8 % are
    two-word compounds joined by an underscore, as in WNDB."""
    out: list[str] = []
    while len(out) < count:
        n = count - len(out)
        syllables = rng.integers(2, 4, n)
        onsets = rng.integers(len(_ONSETS), size=(n, 3))
        vowels = rng.integers(len(_VOWELS), size=(n, 3))
        codas = rng.integers(len(_CODAS), size=n)
        for i in range(n):
            lemma = "".join(_ONSETS[onsets[i, k]] + _VOWELS[vowels[i, k]]
                            for k in range(syllables[i])) + _CODAS[codas[i]]
            if lemma not in taken and lemma not in STOPS:
                taken.add(lemma)
                out.append(lemma)
    compounds = rng.random(count) < 0.08
    partners = rng.integers(count, size=count)
    for i in np.flatnonzero(compounds):
        compound = out[i] + "_" + out[partners[i]]
        if compound not in taken:
            taken.add(compound)
            out[i] = compound
    return out


def _senses(rng: np.random.Generator, lemmas: list[str], synsets: int,
            extra: float) -> list[list[int]]:
    """Synset offsets per lemma. Every synset gets one lemma first; the
    remaining senses land on random synsets, which makes synonym sets."""
    counts = 1 + rng.poisson(extra, len(lemmas))
    total = int(counts.sum())
    assign = np.concatenate([rng.permutation(synsets),
                             rng.integers(synsets, size=max(total - synsets, 0))])[:total]
    offsets = 100_000 + np.sort(rng.choice(90_000_000, synsets, replace=False))
    senses: list[list[int]] = []
    start = 0
    for c in counts.tolist():
        ids = sorted({int(offsets[s]) for s in assign[start:start + c]})
        senses.append(ids)
        start += c
    return senses


def _irregular(rng: np.random.Generator, lemmas: list[str], count: int,
               taken: set[str]) -> dict[str, str]:
    """Irregular inflections: the lemma's last letter replaced by -en or
    -ought, never an existing lemma."""
    simple = [w for w in lemmas if "_" not in w]
    out: dict[str, str] = {}
    for i in rng.choice(len(simple), min(count, len(simple)), replace=False).tolist():
        lemma = simple[i]
        form = lemma[:-1] + ("en" if rng.random() < 0.5 else "ought")
        if form not in taken:
            taken.add(form)
            out[lemma] = form
    return out


def _write_index(path: Path, pos: str, lemmas: list[str], senses: list[list[int]]) -> None:
    lines = [f"  {i} This index is generated for benchmarking in the WNDB format.\n"
             for i in range(1, 30)]
    for lemma, ids in sorted(zip(lemmas, senses)):
        offs = " ".join(f"{o:08d}" for o in ids)
        lines.append(f"{lemma} {pos} {len(ids)} 2 @ ~ {len(ids)} 0 {offs}  \n")
    path.write_text("".join(lines), encoding="utf-8")


def write_lexicon(rng: np.random.Generator, out: Path,
                  shape: LexiconShape = LexiconShape()) -> GeneratedLexicon:
    """index.noun, index.verb, noun.exc, verb.exc and aliases.txt."""
    taken: set[str] = set()
    nouns = _lemmas(rng, shape.nouns, taken)
    shared = int(shape.verbs * shape.verbs_also_nouns)
    verbs = ([nouns[i] for i in rng.choice(len(nouns), shared, replace=False).tolist()]
             + _lemmas(rng, shape.verbs - shared, taken))
    noun_irregular = _irregular(rng, nouns, shape.noun_exceptions, taken)
    verb_irregular = _irregular(rng, verbs, shape.verb_exceptions, taken)

    out.mkdir(parents=True, exist_ok=True)
    _write_index(out / "index.noun", "n", nouns,
                 _senses(rng, nouns, shape.noun_synsets, shape.noun_extra_senses))
    _write_index(out / "index.verb", "v", verbs,
                 _senses(rng, verbs, shape.verb_synsets, shape.verb_extra_senses))
    for name, table in (("noun.exc", noun_irregular), ("verb.exc", verb_irregular)):
        (out / name).write_text("".join(f"{form} {lemma}\n" for lemma, form
                                        in sorted(table.items(), key=lambda kv: kv[1])),
                                encoding="utf-8")
    alias_lines = []
    for _ in range(shape.alias_lines):
        group = rng.choice(len(nouns), int(rng.integers(2, 5)), replace=False)
        alias_lines.append(", ".join(nouns[i].replace("_", " ") for i in group.tolist()))
    (out / "aliases.txt").write_text("\n".join(alias_lines) + "\n", encoding="utf-8")
    return GeneratedLexicon(nouns, verbs, noun_irregular, verb_irregular)


# --- labels and maps -------------------------------------------------------

LABEL_STATS = Path(__file__).resolve().parent / "label_stats.json"


def write_labels(rng: np.random.Generator, out: Path, count: int = 600,
                 stats_path: Path = LABEL_STATS) -> None:
    """labels.ndjson and qa.json for ``rasterize``, drawn from labels that
    ``vgmine mine`` emitted on ``pipeline_vg`` corpora (``label_stats.py``).

    Each label takes its shape (counting or not, object and region box
    counts, region_match_count and number of matched words) from the
    measured joint table, weighted by how often it was mined, and its
    matched words from the measured triples, weighted likewise and distinct
    within a label, as the miner dedupes them. Boxes follow ``draw_box``."""
    stats = json.loads(stats_path.read_text(encoding="utf-8"))
    shapes = stats["shapes"]
    words = stats["matched_words"]
    shape_p = np.array([row[-1] for row in shapes], dtype=float)
    word_p = np.array([row[-1] for row in words], dtype=float)
    shape_p /= shape_p.sum()
    word_p /= word_p.sum()

    labels, qa = [], []
    for i, pick in enumerate(rng.choice(len(shapes), count, p=shape_p).tolist()):
        counting, n_obj, n_reg, region_match_count, n_words, _ = shapes[pick]
        qa_id = 5000 + i
        width = int(rng.integers(200, 801))
        height = int(rng.integers(200, 801))

        def boxes(n: int) -> list[list[int]]:
            out_boxes = []
            for _ in range(n):
                x, y, w, h = draw_box(rng, width, height)
                out_boxes.append([x, y, x + w - 1, y + h - 1])
            return out_boxes

        matched = rng.choice(len(words), n_words, replace=False, p=word_p).tolist()
        labels.append({"qa_id": qa_id, "region_boxes": boxes(n_reg),
                       "object_boxes": boxes(n_obj), "is_counting": counting,
                       "region_match_count": region_match_count,
                       "matched_words": [words[k][:3] for k in matched]})
        qa.append({"image_id": i + 1, "qa_id": qa_id, "question": "what is this?",
                   "answer": "thing", "image_width": width, "image_height": height})
    (out / "labels.ndjson").write_text(
        "".join(json.dumps(rec, separators=(", ", ": ")) + "\n" for rec in labels),
        encoding="utf-8")
    _write_json(out / "qa.json", qa)


def write_reference_maps(rng: np.random.Generator, qa_ids: list[int], out: Path,
                         grid: int = GRID) -> None:
    """Two positive, normalized glimpses per qa_id: a Gaussian blob at a
    random centre over a small uniform floor. Never constant."""
    ys, xs = np.mgrid[0:grid, 0:grid]
    lines = []
    for qa_id in qa_ids:
        for glimpse in (0, 1):
            cy, cx = rng.uniform(0, grid, 2)
            sigma = rng.uniform(1.0, grid / 3)
            blob = np.exp(-((ys - cy) ** 2 + (xs - cx) ** 2) / (2 * sigma ** 2))
            values = blob + rng.uniform(0.0, 0.05, (grid, grid)) + 1e-3
            values /= values.sum()
            lines.append(json.dumps({
                "qa_id": qa_id, "glimpse": glimpse, "h": grid, "w": grid, "mask": True,
                "values": [float(f"{v:.9g}") for v in values.ravel().tolist()],
            }, separators=(", ", ": ")) + "\n")
    (out / "reference_maps.ndjson").write_text("".join(lines), encoding="utf-8")


# --- workloads -------------------------------------------------------------

def _qa_ids(out: Path) -> list[int]:
    return [rec["qa_id"] for rec in json.loads((out / "qa.json").read_text(encoding="utf-8"))]


def generate(workload: str, seed: int, out: Path) -> None:
    """Write every input file of ``workload`` for ``seed`` into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, _WORKLOAD_KEYS[workload]])
    if workload == "pipeline_vg":
        lex_dir = out / "wordnet"
        lex_dir.mkdir(exist_ok=True)
        for name in WNDB_FILES:
            shutil.copyfile(FIXTURE_WORDNET / name, lex_dir / name)
        shutil.copyfile(FIXTURE_ALIASES, lex_dir / "aliases.txt")
        write_corpus(rng, FixtureVocabulary(rng), VG_SHAPE, out)
        write_reference_maps(rng, _qa_ids(out), out)
    elif workload == "pipeline_bigvocab":
        lexicon = write_lexicon(rng, out / "wordnet")
        write_corpus(rng, ZipfVocabulary(rng, lexicon), BIGVOCAB_SHAPE, out)
        write_reference_maps(rng, _qa_ids(out), out)
    elif workload == "maps_eval":
        write_labels(rng, out)
        write_reference_maps(rng, _qa_ids(out), out)
    elif workload == "train_toy":
        # train-toy takes no input files: its two seeds are the input.
        model_seed, data_seed = (int(v) for v in rng.integers(0, 2**31 - 1, 2))
        _write_json(out / "train_args.json", {"seed": model_seed, "data_seed": data_seed})
    else:
        raise ValueError(f"unknown workload: {workload}")


_WORKLOAD_KEYS = {"pipeline_vg": 1, "pipeline_bigvocab": 2, "maps_eval": 3, "train_toy": 4}
WORKLOADS = tuple(_WORKLOAD_KEYS)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
