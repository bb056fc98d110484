"""Seeded synthetic verse corpora for testing and benchmarking.

Each author draws tokens from a private multinomial over a shared
vocabulary: a high-frequency closed-class core (the function-word
stand-ins), a content tail, and a sprinkling of proper names. The
``separation`` knob scales log-normal per-author weight perturbations;
zero separation collapses every author onto the common distribution.
Documents are verse-segmented (6-12 tokens per line) and always at
least 5000 tokens long. Identical seeds give byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import MANIFEST_FIELDS, make_output_dir, open_output
from .errors import CorpusFormatError
from .features import write_table

N_FUNCTION_WORDS = 110
N_CONTENT_WORDS = 600
N_PROPER_NAMES = 20
FUNCTION_MASS = 0.55
CONTENT_MASS = 0.44
PROPER_MASS = 0.01
PLURAL_RATE = 0.25

_FW_TAGS = ("PRE", "DETdef", "CONcoo", "ADVgen", "PROper", "VERcjg")
_CONTENT_TAGS = ("NOMcom", "VERcjg", "ADJqua")


@dataclass(frozen=True)
class SynthConfig:
    seed: int
    n_authors: int = 5
    docs_per_author: int = 6
    separation: float = 1.0
    min_tokens: int = 5000

    def __post_init__(self) -> None:
        if self.n_authors < 2:
            raise ValueError("need at least 2 authors")
        if self.docs_per_author < 2:
            raise ValueError("need at least 2 documents per author")
        if self.separation < 0:
            raise ValueError("separation must be >= 0")
        if self.min_tokens < 1:
            raise ValueError("min_tokens must be >= 1")


def function_word_forms() -> list[str]:
    return [f"fw{i:03d}" for i in range(1, N_FUNCTION_WORDS + 1)]


def _vocabulary() -> tuple[list[str], list[str], np.ndarray]:
    """Words, POS tags and base probabilities of the shared vocabulary."""
    words = function_word_forms()
    tags = [_FW_TAGS[i % len(_FW_TAGS)] for i in range(N_FUNCTION_WORDS)]
    fw_weights = 1.0 / (np.arange(N_FUNCTION_WORDS) + 3.0)

    words += [f"w{i:03d}" for i in range(1, N_CONTENT_WORDS + 1)]
    tags += [_CONTENT_TAGS[i % len(_CONTENT_TAGS)] for i in range(N_CONTENT_WORDS)]
    content_weights = 1.0 / (np.arange(N_CONTENT_WORDS) + 10.0)

    words += [f"name{i:02d}" for i in range(1, N_PROPER_NAMES + 1)]
    tags += ["NOMpro"] * N_PROPER_NAMES
    proper_weights = np.ones(N_PROPER_NAMES)

    base = np.concatenate(
        [
            FUNCTION_MASS * fw_weights / fw_weights.sum(),
            CONTENT_MASS * content_weights / content_weights.sum(),
            PROPER_MASS * proper_weights / proper_weights.sum(),
        ]
    )
    return words, tags, base / base.sum()


def _author_distributions(config: SynthConfig, rng: np.random.Generator, base: np.ndarray) -> np.ndarray:
    """Each author's word probabilities: base weights tilted by exp(separation x a normal draw).

    A separation whose weights, or their sum, overflow raises CorpusFormatError naming it.
    """
    tilt = rng.standard_normal((config.n_authors, base.size))
    with np.errstate(over="ignore", invalid="ignore"):
        probs = base[None, :] * np.exp(config.separation * tilt)
        totals = probs.sum(axis=1, keepdims=True)
    if not np.isfinite(totals).all():
        raise CorpusFormatError(
            f"separation {config.separation:g} is too large: the author weights overflow"
        )
    return probs / totals


def generate_corpus(config: SynthConfig, out_dir: str | Path) -> Path:
    """Write manifest, token files and the function-word list; return the manifest path."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    words, tags, base = _vocabulary()
    author_probs = _author_distributions(config, rng, base)
    out_dir = Path(out_dir)
    tokens_dir = make_output_dir(out_dir / "tokens")

    manifest_rows = []
    for a in range(config.n_authors):
        author = f"author{a:02d}"
        for d in range(config.docs_per_author):
            doc_id = f"auth{a:02d}_doc{d:02d}"
            target = int(rng.integers(config.min_tokens + 200, config.min_tokens + 1800))
            verse_lengths, total = [], 0
            while total < target:
                verse_lengths.append(int(rng.integers(6, 13)))
                total += verse_lengths[-1]
            draws = rng.choice(len(words), size=total, p=author_probs[a])
            plural = rng.random(total) < PLURAL_RATE
            indices = draws.tolist()

            content_lo = N_FUNCTION_WORDS
            content_hi = N_FUNCTION_WORDS + N_CONTENT_WORDS
            path = tokens_dir / f"{doc_id}.tsv"
            with open_output(path) as fh:
                pos = 0
                for length in verse_lengths:
                    for t in range(pos, pos + length):
                        w = indices[t]
                        lemma = words[w]
                        tag = tags[w]
                        form = lemma
                        if content_lo <= w < content_hi and plural[t]:
                            form = lemma + "s"
                        fh.write(f"{form}\t{lemma}\t{tag}\n")
                    fh.write("\n")
                    pos += length
            manifest_rows.append((
                doc_id, f"Synthetic play {d} of {author}", author, "comedy", "verse", "5",
                str(1660 + d), f"tokens/{doc_id}.tsv",
            ))

    fw_path = out_dir / "function_words.txt"
    with open_output(fw_path) as fh:
        fh.write("# synthetic closed-class vocabulary\n")
        for word in function_word_forms():
            fh.write(word + "\n")

    manifest_path = out_dir / "manifest.csv"
    doc_ids, *columns = zip(*manifest_rows)
    write_table(manifest_path, MANIFEST_FIELDS, doc_ids, tails=columns)
    return manifest_path
