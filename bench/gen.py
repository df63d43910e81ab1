"""Seeded synthetic GEC corpora in the shapes of CoNLL-14 and BEA-dev.

Everything is drawn from one ``random.Random(seed)``, so a seed names one
corpus exactly. The shapes matter to later optimisations:

* tokens come from a Zipfian vocabulary, so short frequent words repeat
  within a sentence as they do in real text;
* every sentence ends with the token ``.``, which no edit touches and no
  other position holds. Extraction strips the common suffix first, so no
  extracted edit can remove it either: every line any command writes keeps
  at least one token, and no file ever holds an empty line;
* each annotator has 0 to 4 gold edits per sentence; the second annotator
  keeps part of the first one's edits and adds its own;
* members are drawn from the annotators' edits plus noise, so they often
  agree exactly (``rank-w`` frequencies above 1), and one family of members
  copies a shared base output, so clustering finds a multi-member cluster;
* the BEA-dev shape has a heavier tail of long sentences and two members
  that rewrite heavily.

Where the parameters come from. The sentence counts and the mean sentence
length are fitted to the published sizes of the real sets: CoNLL-2014 test
has 1,312 sentences and 30,144 tokens, 22.98 tokens a sentence (Ng et al.,
2014, "The CoNLL-2014 Shared Task on Grammatical Error Correction");
W&I+LOCNESS dev (BEA-2019) has 4,384 sentences and 86,973 tokens, 19.84
tokens a sentence (Bryant et al., 2019, "The BEA-2019 Shared Task on
Grammatical Error Correction"). ``length_mu`` is set so that the expected
generated mean, the final ``.`` included, matches those figures within 1 %
(one seed's corpus lands within about 2 %); ``shape_stats`` prints the
published mean beside the generated one. Everything else is assumed, not
measured: the spread and cap of the length distribution, the number of gold
edits per annotator, the annotators' overlap, the members' recall and noise
rates, the size of the heavy rewrites, the vocabulary and its Zipf exponent.
bench/README.md lists them.

The generator checks its own gold edits (no no-ops, no conflicting pair)
and its lines (none empty) before writing anything. It does not import
geckit, so a change to the program cannot change the inputs it is measured on.
"""

from __future__ import annotations

import bisect
import hashlib
import statistics
import random
from dataclasses import dataclass
from pathlib import Path

END = "."
EMPTY = "-NONE-"

MEMBERS = (
    "chat-llama-2-13b-ft",
    "ul2-20b",
    "chat-llama-2-7b-ft",
    "editscorer",
    "t5-11b",
    "ctc-copy",
    "gector-2024",
)
FAMILY = ("chat-llama-2-13b-ft", "chat-llama-2-7b-ft", "ul2-20b")

_SYLLABLES = (
    "ba be bi bo bu da de di do du fa fe fi ka ke ki ko ku la le li lo lu "
    "ma me mi mo mu na ne ni no nu pa pe pi po pu ra re ri ro ru sa se si "
    "so su ta te ti to tu va ve vi vo wa we wi yo za ze zi zo"
).split()


@dataclass(frozen=True)
class Shape:
    """The size and character of one corpus."""

    name: str
    sentences: int
    annotators: int
    published_tokens_mean: float  # tokens per sentence of the real set
    length_mu: float  # lognormal sentence length, before the final "."; fitted
    length_sigma: float  # assumed
    max_length: int  # assumed
    heavy: tuple[str, ...] = ()  # members that rewrite heavily


CONLL14 = Shape("conll14", 1312, 2, 30144 / 1312, 2.989, 0.45, 80)
BEA_DEV = Shape(
    "bea-dev", 4384, 1, 86973 / 4384, 2.756, 0.6, 120, heavy=("t5-11b", "ctc-copy")
)

# Assumed: member recall of gold edits and mean noise edits per sentence.
_RECALL = {
    "chat-llama-2-13b-ft": 0.6,
    "ul2-20b": 0.55,
    "chat-llama-2-7b-ft": 0.5,
    "editscorer": 0.45,
    "t5-11b": 0.55,
    "ctc-copy": 0.35,
    "gector-2024": 0.4,
}
_NOISE = {name: 0.15 + 0.05 * k for k, name in enumerate(MEMBERS)}
_GOLD_COUNT_WEIGHTS = (0.25, 0.3, 0.22, 0.14, 0.09)  # 0..4 edits; assumed
_FAMILY_COPY = 0.95


class _Vocab:
    def __init__(self, rng: random.Random, size: int = 6000, exponent: float = 1.05):
        words: list[str] = []
        seen = {END}
        while len(words) < size:
            word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.choice((1, 2, 2, 3))))
            if word not in seen:
                seen.add(word)
                words.append(word)
        self.words = words
        total = 0.0
        self.cum = []
        for rank in range(size):
            total += 1.0 / (rank + 1) ** exponent
            self.cum.append(total)

    def draw(self, rng: random.Random) -> str:
        return self.words[bisect.bisect_right(self.cum, rng.random() * self.cum[-1])]

    def other(self, rng: random.Random, avoid: str) -> str:
        while True:
            word = self.draw(rng)
            if word != avoid:
                return word


Edit = tuple[int, int, tuple[str, ...]]


def _compatible(edits: list[Edit]) -> bool:
    """No two edits conflict: sorted, each ends where or before the next
    starts, and no two start at the same position (that covers an insertion
    at another edit's start and an insertion inside another's span)."""
    ordered = sorted(edits, key=lambda e: (e[0], e[1]))
    return all(a[1] <= b[0] and a[0] < b[0] for a, b in zip(ordered, ordered[1:]))


def _random_edit(rng: random.Random, vocab: _Vocab, source: tuple[str, ...]) -> Edit:
    last = len(source) - 1  # the final "." is never touched
    kind = rng.random()
    start = rng.randrange(last)
    if kind < 0.45:  # substitution
        return (start, start + 1, (vocab.other(rng, source[start]),))
    if kind < 0.6:  # deletion
        return (start, start + 1, ())
    if kind < 0.85:  # insertion (never empty, so never a no-op)
        return (start, start, tuple(vocab.draw(rng) for _ in range(rng.choice((1, 1, 2)))))
    end = min(start + 2, last)
    repl = tuple(vocab.draw(rng) for _ in range(rng.choice((1, 2))))
    if repl == source[start:end]:
        repl = repl + (vocab.draw(rng),)
    return (start, end, repl)


def _add_edits(rng, vocab, source, edits: list[Edit], count: int) -> list[Edit]:
    for _ in range(count):
        for _attempt in range(8):
            cand = _random_edit(rng, vocab, source)
            if _compatible(edits + [cand]):
                edits = edits + [cand]
                break
    return edits


def _apply(source: tuple[str, ...], edits: list[Edit]) -> tuple[str, ...]:
    out: list[str] = []
    pos = 0
    for start, end, repl in sorted(edits, key=lambda e: (e[0], e[1])):
        out.extend(source[pos:start])
        out.extend(repl)
        pos = end
    out.extend(source[pos:])
    return tuple(out)


def _poisson(rng: random.Random, mean: float) -> int:
    # Knuth's method; the means used here are small.
    limit, k, p = 2.718281828459045 ** -mean, 0, rng.random()
    while p > limit:
        k += 1
        p *= rng.random()
    return k


@dataclass
class Corpus:
    shape: Shape
    sources: list[tuple[str, ...]]
    gold: list[list[list[Edit]]]  # sentence -> annotator -> edits
    members: dict[str, list[tuple[str, ...]]]


def generate(shape: Shape, seed: int, scale: float = 1.0) -> Corpus:
    """Draw one corpus of ``shape`` (sentence count times ``scale``)."""
    rng = random.Random(f"{shape.name}:{seed}")
    vocab = _Vocab(rng)
    n = max(2, round(shape.sentences * scale))
    sources, gold = [], []
    members: dict[str, list[tuple[str, ...]]] = {name: [] for name in MEMBERS}
    for _ in range(n):
        length = min(shape.max_length, max(3, round(rng.lognormvariate(shape.length_mu, shape.length_sigma))))
        source = tuple(vocab.draw(rng) for _ in range(length)) + (END,)
        first = _add_edits(rng, vocab, source, [], rng.choices(range(5), _GOLD_COUNT_WEIGHTS)[0])
        annotations = [first]
        for _ann in range(1, shape.annotators):
            kept = [e for e in first if rng.random() < 0.6]
            extra = rng.choices(range(3), (0.4, 0.4, 0.2))[0]
            annotations.append(_add_edits(rng, vocab, source, kept, min(extra, 4 - len(kept))))
        sources.append(source)
        gold.append([sorted(a, key=lambda e: (e[0], e[1])) for a in annotations])

        family_base = None
        for name in MEMBERS:
            if name in FAMILY and family_base is not None and rng.random() < _FAMILY_COPY:
                members[name].append(family_base)
                continue
            intended = rng.choice(annotations)
            edits = [e for e in intended if rng.random() < _RECALL[name]]
            noise = _poisson(rng, _NOISE[name])
            if name in shape.heavy:
                noise += max(1, len(source) // 4)
            output = _apply(source, _add_edits(rng, vocab, source, edits, noise))
            members[name].append(output)
            if name in FAMILY and family_base is None:
                family_base = output
    corpus = Corpus(shape, sources, gold, members)
    _validate(corpus)
    return corpus


def _validate(corpus: Corpus) -> None:
    lines = [*corpus.sources, *(s for outs in corpus.members.values() for s in outs)]
    for line in lines:
        if not line or line[-1] != END or END in line[:-1] or not all(line):
            raise ValueError(f"generator produced a malformed line: {line!r}")
    for i, (source, annotations) in enumerate(zip(corpus.sources, corpus.gold)):
        for edits in annotations:
            if not 0 <= len(edits) <= 4 or not _compatible(edits):
                raise ValueError(f"sentence {i}: conflicting gold edits {edits}")
            for start, end, repl in edits:
                if not 0 <= start <= end < len(source) or repl == source[start:end]:
                    raise ValueError(f"sentence {i}: invalid gold edit {(start, end, repl)}")


# ---------------------------------------------------------------------------
# Files


def m2_text(corpus: Corpus) -> str:
    stanzas = []
    for source, annotations in zip(corpus.sources, corpus.gold):
        lines = ["S " + " ".join(source)]
        for ann_id, edits in enumerate(annotations):
            if not edits:
                lines.append(f"A -1 -1|||noop|||{EMPTY}|||REQUIRED|||{EMPTY}|||{ann_id}")
            for start, end, repl in edits:
                text = " ".join(repl) if repl else EMPTY
                lines.append(f"A {start} {end}|||R:OTHER|||{text}|||REQUIRED|||{EMPTY}|||{ann_id}")
        stanzas.append("\n".join(lines))
    return "\n\n".join(stanzas) + "\n"


def parallel_text(sentences: list[tuple[str, ...]]) -> str:
    return "".join(" ".join(s) + "\n" for s in sentences)


def score_tsv(corpus: Corpus, seed: int) -> str:
    """Quality scores for rank/rank-w, one per (member, sentence)."""
    rng = random.Random(f"scores:{corpus.shape.name}:{seed}")
    lines = ["system\tsentence_index\tscore"]
    for name in MEMBERS:
        for i in range(len(corpus.sources)):
            lines.append(f"{name}\t{i}\t{rng.uniform(-3.0, 0.0):.4f}")
    return "\n".join(lines) + "\n"


def write(corpus: Corpus, directory: Path, seed: int, with_scores: bool) -> dict[str, Path]:
    """Write the gold M2, the source text, one file per member and, when asked,
    the score TSV. Returns the written files by role."""
    name = corpus.shape.name
    (directory / name).mkdir(parents=True, exist_ok=True)
    files = {
        "gold": directory / f"{name}.gold.m2",
        "src": directory / f"{name}.src.txt",
        **{m: directory / name / f"{m}.txt" for m in MEMBERS},
    }
    texts = {
        "gold": m2_text(corpus),
        "src": parallel_text(corpus.sources),
        **{m: parallel_text(corpus.members[m]) for m in MEMBERS},
    }
    if with_scores:
        files["scores"] = directory / f"{name}.scores.tsv"
        texts["scores"] = score_tsv(corpus, seed)
    for role, path in files.items():
        path.write_text(texts[role], encoding="utf-8")
    return files


def shape_stats(corpus: Corpus, files: dict[str, Path], directory: Path) -> dict:
    """Shape statistics and the sha256 of every input file under ``directory``,
    so a change to the generated traffic shows in every result."""
    lengths = [len(s) for s in corpus.sources]
    per_annotator = [
        statistics.fmean(len(annotations[k]) for annotations in corpus.gold)
        for k in range(corpus.shape.annotators)
    ]
    distinct = [
        len({corpus.members[m][i] for m in MEMBERS}) for i in range(len(corpus.sources))
    ]
    return {
        "sentences": len(corpus.sources),
        "tokens_mean": round(statistics.fmean(lengths), 3),
        "tokens_mean_published": round(corpus.shape.published_tokens_mean, 3),
        "tokens_max": max(lengths),
        "gold_edits_per_annotator": [round(x, 3) for x in per_annotator],
        "distinct_outputs_per_sentence": round(statistics.fmean(distinct), 3),
        "input_sha256": {
            path.relative_to(directory).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in files.values()
        },
    }
