"""Synthetic multilingual universe and the toy decoder.

Stands in for a speech encoder and real corpora: each language is a Gaussian
cluster in feature space (a centroid plus per-token content vectors plus
noise), and three proxy tasks replace transcription and translation:

* ASR proxy — targets are the source token ids themselves (identity task);
* ST proxy — targets are a fixed per-language random bijection of source
  tokens into a shared target vocabulary;
* CS-ST proxy — utterances concatenate segments from two languages, each
  segment mapped through its own language's bijection; the segment spans are
  recorded for analytics but withheld from training labels.

Construction guarantees, all calibrated in units of the noise scale σ:

* language centroids are rescaled so their minimum pairwise distance is
  exactly ``separation · σ``;
* token content vectors are projected orthogonal to every centroid-difference
  direction (language identity is linearly separable from content by
  construction) and rescaled so their minimum pairwise distance is
  ``2 · token_margin · σ`` — adjacent tokens' noise balls stay disjoint at
  the default margin of 3σ, keeping the decoding task solvable.

The toy decoder is a per-position classifier: a learned prompt embedding is
mean-pooled into a single vector, added to every projected speech position,
and pushed through a bias-free linear head over the shared target vocabulary,
all recorded as one tape node.

Every size, scale and count passed here comes from a checked
``ExperimentConfig``, which decides their ranges; the functions below
refuse only what the config cannot know: a degenerate draw, and a task and
language that do not fit together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import Parameter, Tensor, _record
from .projector import CS_UNLABELED

__all__ = [
    "TASK_ASR",
    "TASK_ST",
    "TASK_CS_ST",
    "Segment",
    "LanguageSpec",
    "World",
    "Utterance",
    "ToyDecoder",
    "gen_world",
    "gen_utterance",
    "gen_dataset",
    "init_decoder",
    "decode",
]

TASK_ASR = "asr"
TASK_ST = "st"
TASK_CS_ST = "cs-st"
_TASKS = (TASK_ASR, TASK_ST, TASK_CS_ST)


@dataclass(frozen=True)
class Segment:
    """Half-open span [start, end) of one language inside an utterance."""

    start: int
    end: int
    language: int


@dataclass(frozen=True)
class LanguageSpec:
    language_index: int
    centroid: np.ndarray  # [d_in]
    noise_sigma: float
    vocab_start: int  # source ids occupy [vocab_start, vocab_start + vocab_size)
    vocab_size: int
    token_embeddings: np.ndarray  # [vocab_size × d_in]
    st_bijection: np.ndarray  # [vocab_size] target ids in the shared range


@dataclass(frozen=True)
class World:
    languages: tuple[LanguageSpec, ...]
    d_in: int
    separation: float
    noise_sigma: float
    vocab_per_lang: int
    token_margin: float
    seed: int

    @property
    def num_languages(self) -> int:
        return len(self.languages)


@dataclass(frozen=True)
class Utterance:
    features: np.ndarray  # [T × d_in]
    targets: np.ndarray  # [T] ids in the shared target vocab
    source_tokens: np.ndarray  # [T] global source ids
    task: str
    language: int  # concrete label, or CS_UNLABELED for code-switched
    segments: Optional[tuple[Segment, ...]]  # CS only; analytics ground truth

    @property
    def length(self) -> int:
        return len(self.targets)

    def token_languages(self) -> np.ndarray:
        """True per-token language labels (reconstructed from segments)."""
        if self.segments is None:
            return np.full(self.length, self.language, dtype=np.intp)
        labels = np.empty(self.length, dtype=np.intp)
        for seg in self.segments:
            labels[seg.start : seg.end] = seg.language
        return labels

    def training_labels(self) -> np.ndarray:
        """Labels as training sees them: CS tokens are unlabeled."""
        return np.full(self.length, self.language, dtype=np.intp)


def _min_pairwise_distance(points: np.ndarray) -> float:
    diffs = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diffs**2).sum(-1))
    return float(dist[~np.eye(len(points), dtype=bool)].min()) if len(points) > 1 else 0.0


def gen_world(
    m: int,
    d_in: int,
    separation: float,
    noise_sigma: float,
    vocab_per_lang: int,
    seed: int,
    *,
    token_margin: float = 3.0,
) -> World:
    """Draw a deterministic synthetic world of ``m`` languages.

    Raises ValueError only for a degenerate draw (coincident centroids or
    token embeddings); change the seed.
    """
    rng = np.random.default_rng(seed)

    centroids = rng.normal(size=(m, d_in))
    dmin = _min_pairwise_distance(centroids)
    if dmin == 0.0:
        raise ValueError("degenerate centroid draw (coincident points); change seed")
    centroids *= separation * noise_sigma / dmin

    # orthonormal basis of the centroid-difference subspace
    diffs = (centroids[1:] - centroids[0]).T  # [d_in × (m-1)]
    q, _ = np.linalg.qr(diffs)

    languages = []
    for g in range(m):
        emb = rng.normal(size=(vocab_per_lang, d_in))
        emb = emb - (emb @ q) @ q.T  # content ⟂ language directions
        if vocab_per_lang > 1:
            emin = _min_pairwise_distance(emb)
            if emin == 0.0:
                raise ValueError("degenerate token-embedding draw; change seed")
            emb *= 2.0 * token_margin * noise_sigma / emin
        st = m * vocab_per_lang + rng.permutation(vocab_per_lang)
        languages.append(
            LanguageSpec(
                language_index=g,
                centroid=centroids[g],
                noise_sigma=noise_sigma,
                vocab_start=g * vocab_per_lang,
                vocab_size=vocab_per_lang,
                token_embeddings=emb,
                st_bijection=st.astype(np.intp),
            )
        )
    return World(
        languages=tuple(languages),
        d_in=d_in,
        separation=separation,
        noise_sigma=noise_sigma,
        vocab_per_lang=vocab_per_lang,
        token_margin=token_margin,
        seed=seed,
    )


def _draw_span(
    world: World, language: int, length: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Features, global source ids, and ST target ids for one language span."""
    lang = world.languages[language]
    local = rng.integers(0, lang.vocab_size, size=length)
    noise = rng.normal(0.0, lang.noise_sigma, size=(length, world.d_in))
    features = lang.centroid[None, :] + lang.token_embeddings[local] + noise
    return features, (lang.vocab_start + local).astype(np.intp), lang.st_bijection[local]


def gen_utterance(
    world: World,
    language: Optional[int],
    task: str,
    length: int,
    rng: np.random.Generator,
    *,
    num_switches: int = 1,
) -> Utterance:
    """Draw one utterance for the given proxy task, one language span at a time.

    ASR/ST require a concrete ``language`` and draw one span of it; the CS
    task requires ``language=None``, draws two distinct languages plus
    ``num_switches`` uniform switch points, then one non-empty span per
    segment. ASR targets are the source ids, ST and CS targets the spans' ST ids.
    """
    if task not in _TASKS:
        raise ValueError(f"unknown task {task!r}; expected one of {_TASKS}")

    code_switched = task == TASK_CS_ST
    if code_switched:
        if language is not None and language != CS_UNLABELED:
            raise ValueError("code-switched utterances draw their own languages; "
                             "pass language=None")
        pair = rng.choice(world.num_languages, size=2, replace=False)
        cuts = np.sort(rng.choice(np.arange(1, length), size=num_switches, replace=False))
        bounds = [0, *cuts.tolist(), length]
        spans = [(a, b, int(pair[i % 2])) for i, (a, b) in enumerate(zip(bounds, bounds[1:]))]
    elif language is None or not 0 <= language < world.num_languages:
        raise ValueError(
            f"task {task!r} requires a concrete language in 0..{world.num_languages - 1}, "
            f"got {language}"
        )
    else:
        spans = [(0, length, language)]
    drawn = zip(*(_draw_span(world, lang, end - start, rng) for start, end, lang in spans))
    features, source, translated = (np.concatenate(p) if len(p) > 1 else p[0] for p in drawn)
    return Utterance(
        features=features,
        targets=(source if task == TASK_ASR else translated).astype(np.intp),
        source_tokens=source,
        task=task,
        language=CS_UNLABELED if code_switched else language,
        segments=tuple(Segment(*span) for span in spans) if code_switched else None,
    )


def gen_dataset(
    world: World,
    task: str,
    language: Optional[int],
    count: int,
    length: int,
    seed,
    *,
    num_switches: int = 1,
) -> tuple[Utterance, ...]:
    """Draw ``count`` utterances on independent per-index rng streams.

    Utterance i is generated from ``default_rng([*seed, i])``, so a dataset
    with fewer utterances is a prefix of a larger one under the same seed.
    """
    base = (
        (int(seed),)
        if isinstance(seed, (int, np.integer))
        else tuple(int(s) for s in seed)
    )
    return tuple(
        gen_utterance(world, language, task, length, np.random.default_rng([*base, i]),
                      num_switches=num_switches)
        for i in range(count)
    )


@dataclass(frozen=True)
class ToyDecoder:
    """Per-position classifier standing in for a large language model."""

    prompt_embedding: Parameter  # [prompt_len × d_model]
    output_head: Parameter  # [d_model × vocab_size]

    @property
    def d_model(self) -> int:
        return self.output_head.value.data.shape[0]

    def parameters(self) -> list[Parameter]:
        return [self.prompt_embedding, self.output_head]


def init_decoder(d_model: int, vocab_size: int, prompt_len: int, seed: int) -> ToyDecoder:
    rng = np.random.default_rng(seed)
    prompt = rng.normal(size=(prompt_len, d_model)) / np.sqrt(d_model)
    bound = np.sqrt(6.0 / (d_model + vocab_size))
    head = rng.uniform(-bound, bound, size=(d_model, vocab_size))
    return ToyDecoder(
        prompt_embedding=Parameter("decoder.prompt", Tensor(prompt)),
        output_head=Parameter("decoder.head", Tensor(head)),
    )


def decode(decoder: ToyDecoder, h_s: Tensor) -> Tensor:
    """Per-position logits for projected speech features.

    The prompt embedding is mean-pooled into one summary vector, added to
    every position of ``h_s``, and mapped through the bias-free output head.
    One tape node; its backward repeats the arithmetic of the head matmul,
    the add and the two pooling matmuls, so it is bit-identical to that chain.
    """
    d_model = decoder.d_model
    if h_s.data.ndim != 2 or h_s.data.shape[1] != d_model:
        raise ValueError(
            f"decoder expects features of width {d_model}, got shape {h_s.data.shape}"
        )
    prompt, head = decoder.prompt_embedding.value, decoder.output_head.value
    pd, wd = prompt.data, head.data
    pool = np.full((1, pd.shape[0]), 1.0 / pd.shape[0])
    x = h_s.data + pool @ pd  # the [1 × d_model] prompt mean added to every row

    def bw(g):
        # the head matmul's backward, the add's, then the two pooling matmuls'
        # (the tiling as a ones matmul, whose column sums BLAS rounds its own way)
        gx = g @ wd.T
        return (gx, pool.T @ (np.ones((len(g), 1)).T @ gx), x.T @ g)

    return _record(Tensor(x @ wd), (h_s, prompt, head), bw)
