"""Tests for the synthetic multilingual world and the toy decoder.

Oracles: construction contracts checked geometrically (pairwise distances,
orthogonality, vocab ranges), replay oracles reconstructing every utterance
from its recorded metadata, and small sanity-training runs proving the proxy
tasks are learnable before any mixture model is involved.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from csmoe.autodiff import Adam, Parameter, Tape, Tensor, backward, cross_entropy, fd_gradient
from csmoe.projector import CS_UNLABELED, ProjectorConfig, init_mlp, mlp_forward
from csmoe.world import (
    TASK_ASR,
    TASK_CS_ST,
    TASK_ST,
    ToyDecoder,
    decode,
    gen_dataset,
    gen_utterance,
    gen_world,
    init_decoder,
)


def default_world(seed=0, m=2, separation=6.0):
    return gen_world(
        m=m, d_in=16, separation=separation, noise_sigma=0.1, vocab_per_lang=32, seed=seed
    )


def source_vocab_size(w):
    """Source ids: one contiguous range per language."""
    return w.num_languages * w.vocab_per_lang


def target_vocab_size(w):
    """Source ids (ASR targets) plus one shared translated range."""
    return (w.num_languages + 1) * w.vocab_per_lang


def pairwise_min_distance(points):
    diffs = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diffs**2).sum(-1))
    n = len(points)
    return dist[~np.eye(n, dtype=bool)].min()


# ------------------------------------------------------------------ gen_world


def test_world_deterministic_per_seed():
    a, b = default_world(seed=7), default_world(seed=7)
    for la, lb in zip(a.languages, b.languages):
        assert np.array_equal(la.centroid, lb.centroid)
        assert np.array_equal(la.token_embeddings, lb.token_embeddings)
        assert np.array_equal(la.st_bijection, lb.st_bijection)
    c = default_world(seed=8)
    assert not np.array_equal(a.languages[0].centroid, c.languages[0].centroid)


def test_centroid_separation_is_calibrated():
    for m, sep in [(2, 6.0), (3, 6.0), (4, 2.5)]:
        w = default_world(seed=1, m=m, separation=sep)
        centroids = np.stack([l.centroid for l in w.languages])
        dmin = pairwise_min_distance(centroids)
        assert abs(dmin - sep * w.noise_sigma) < 1e-9 * sep * w.noise_sigma


def test_low_separation_world_allowed():
    w = default_world(seed=2, separation=0.5)
    centroids = np.stack([l.centroid for l in w.languages])
    assert abs(pairwise_min_distance(centroids) - 0.05) < 1e-12


def test_vocab_ranges_contiguous_and_disjoint():
    w = default_world(seed=3, m=3)
    V = w.vocab_per_lang
    for g, lang in enumerate(w.languages):
        assert lang.vocab_start == g * V
        assert lang.vocab_size == V


def test_st_bijections_cover_shared_range():
    w = default_world(seed=4, m=3)
    lo, hi = source_vocab_size(w), target_vocab_size(w)
    for lang in w.languages:
        assert np.array_equal(np.sort(lang.st_bijection), np.arange(lo, hi))
    # distinct languages get distinct mappings (overwhelmingly likely per seed)
    assert not np.array_equal(w.languages[0].st_bijection, w.languages[1].st_bijection)


def test_token_embeddings_separated_for_decoding():
    w = default_world(seed=5)
    target = 2 * 3.0 * w.noise_sigma  # two tokens' noise balls must not meet
    for lang in w.languages:
        dmin = pairwise_min_distance(lang.token_embeddings)
        assert abs(dmin - target) < 1e-9 * target


def test_token_embeddings_orthogonal_to_language_directions():
    # Content lives orthogonal to the centroid-difference subspace, so
    # language identity is linearly separable regardless of token content.
    w = default_world(seed=6, m=3)
    centroids = np.stack([l.centroid for l in w.languages])
    diffs = centroids[1:] - centroids[0]
    for lang in w.languages:
        proj = lang.token_embeddings @ diffs.T
        assert np.abs(proj).max() < 1e-9


# -------------------------------------------------------------- gen_utterance


def test_asr_targets_are_source_ids():
    w = default_world(seed=0)
    rng = np.random.default_rng(0)
    utt = gen_utterance(w, language=1, task=TASK_ASR, length=12, rng=rng)
    assert np.array_equal(utt.targets, utt.source_tokens)
    V = w.vocab_per_lang
    assert utt.targets.min() >= 1 * V and utt.targets.max() < 2 * V
    assert utt.features.shape == (12, w.d_in)
    assert utt.language == 1
    assert utt.segments is None
    assert np.array_equal(utt.token_languages(), np.full(12, 1))
    assert np.array_equal(utt.training_labels(), np.full(12, 1))


def test_features_reconstruct_from_metadata():
    w = default_world(seed=0)
    rng = np.random.default_rng(1)
    utt = gen_utterance(w, language=0, task=TASK_ASR, length=50, rng=rng)
    lang = w.languages[0]
    local = utt.source_tokens - lang.vocab_start
    resid = utt.features - lang.centroid - lang.token_embeddings[local]
    assert np.abs(resid).max() < 6 * w.noise_sigma
    assert abs(resid.std() - w.noise_sigma) < 0.3 * w.noise_sigma


def test_st_targets_are_bijection_of_sources():
    w = default_world(seed=0)
    rng = np.random.default_rng(2)
    utt = gen_utterance(w, language=1, task=TASK_ST, length=15, rng=rng)
    lang = w.languages[1]
    local = utt.source_tokens - lang.vocab_start
    assert np.array_equal(utt.targets, lang.st_bijection[local])
    # applying the inverse permutation recovers the sources
    inverse = np.empty(w.vocab_per_lang, dtype=np.intp)
    inverse[lang.st_bijection - source_vocab_size(w)] = np.arange(w.vocab_per_lang)
    recovered = inverse[utt.targets - source_vocab_size(w)] + lang.vocab_start
    assert np.array_equal(recovered, utt.source_tokens)
    assert utt.targets.min() >= source_vocab_size(w)


def test_cs_utterance_structure_and_replay():
    w = default_world(seed=0, m=3)
    rng = np.random.default_rng(3)
    for _ in range(20):
        utt = gen_utterance(w, language=None, task=TASK_CS_ST, length=20, rng=rng)
        assert utt.language == CS_UNLABELED
        assert utt.segments is not None and len(utt.segments) >= 2
        langs_used = {seg.language for seg in utt.segments}
        assert len(langs_used) >= 2
        # spans partition [0, T) and adjacent segments switch language
        assert utt.segments[0].start == 0 and utt.segments[-1].end == 20
        for a, b in zip(utt.segments, utt.segments[1:]):
            assert a.end == b.start
            assert a.language != b.language
        # replay: each span maps its sources through its own bijection and
        # draws features around its own centroid
        for seg in utt.segments:
            lang = w.languages[seg.language]
            local = utt.source_tokens[seg.start : seg.end] - lang.vocab_start
            assert (local >= 0).all() and (local < w.vocab_per_lang).all()
            assert np.array_equal(
                utt.targets[seg.start : seg.end], lang.st_bijection[local]
            )
            resid = (
                utt.features[seg.start : seg.end]
                - lang.centroid
                - lang.token_embeddings[local]
            )
            assert np.abs(resid).max() < 6 * w.noise_sigma
        # per-token truth from segments; training view is unlabeled
        truth = utt.token_languages()
        for seg in utt.segments:
            assert (truth[seg.start : seg.end] == seg.language).all()
        assert (utt.training_labels() == CS_UNLABELED).all()


def test_cs_multiple_switch_points():
    w = default_world(seed=0)
    rng = np.random.default_rng(4)
    utt = gen_utterance(w, language=None, task=TASK_CS_ST, length=30, rng=rng, num_switches=3)
    assert len(utt.segments) == 4


def test_gen_utterance_argument_errors():
    w = default_world(seed=0)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        gen_utterance(w, language=None, task=TASK_ASR, length=5, rng=rng)
    with pytest.raises(ValueError):
        gen_utterance(w, language=5, task=TASK_ST, length=5, rng=rng)
    with pytest.raises(ValueError):
        gen_utterance(w, language=0, task=TASK_CS_ST, length=5, rng=rng)
    with pytest.raises(ValueError):
        gen_utterance(w, language=0, task="translate", length=5, rng=rng)


def test_gen_utterance_deterministic_given_rng_state():
    w = default_world(seed=0)
    a = gen_utterance(w, language=None, task=TASK_CS_ST, length=10, rng=np.random.default_rng(9))
    b = gen_utterance(w, language=None, task=TASK_CS_ST, length=10, rng=np.random.default_rng(9))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.targets, b.targets)
    assert a.segments == b.segments


# ---------------------------------------------------------------- gen_dataset


def test_gen_dataset_count_and_determinism():
    w = default_world(seed=0)
    a = gen_dataset(w, TASK_ST, 0, count=7, length=5, seed=[3, 1])
    b = gen_dataset(w, TASK_ST, 0, count=7, length=5, seed=[3, 1])
    assert len(a) == 7
    for ua, ub in zip(a, b):
        assert np.array_equal(ua.features, ub.features)
        assert np.array_equal(ua.targets, ub.targets)


def test_gen_dataset_streams_are_per_index():
    # dropping the first utterance does not shift the rest
    w = default_world(seed=0)
    ten = gen_dataset(w, TASK_ASR, 1, count=10, length=4, seed=11)
    five = gen_dataset(w, TASK_ASR, 1, count=5, length=4, seed=11)
    for ua, ub in zip(ten[:5], five):
        assert np.array_equal(ua.features, ub.features)


# --------------------------------------------------------------------- decode


def test_decode_zero_inputs_give_zero_logits():
    dec = ToyDecoder(
        prompt_embedding=Parameter("decoder.prompt", Tensor(np.zeros((4, 8)))),
        output_head=Parameter("decoder.head", Tensor(np.zeros((8, 10)))),
    )
    logits = decode(dec, Tensor(np.zeros((5, 8))))
    assert logits.data.shape == (5, 10)
    assert np.array_equal(logits.data, np.zeros((5, 10)))


@pytest.mark.parametrize("prompt_len", [1, 4, 7])
def test_decode_shape_for_any_prompt_length(prompt_len):
    dec = init_decoder(d_model=8, vocab_size=11, prompt_len=prompt_len, seed=0)
    logits = decode(dec, Tensor(np.random.default_rng(0).normal(size=(3, 8))))
    assert logits.data.shape == (3, 11)


def test_decode_matches_numpy_oracle():
    dec = init_decoder(d_model=6, vocab_size=9, prompt_len=3, seed=1)
    h = np.random.default_rng(2).normal(size=(4, 6))
    logits = decode(dec, Tensor(h))
    prompt = dec.prompt_embedding.value.data
    head = dec.output_head.value.data
    expected = (h + prompt.mean(axis=0)) @ head
    assert_allclose(logits.data, expected, rtol=1e-12)


def test_decode_width_mismatch():
    dec = init_decoder(d_model=8, vocab_size=11, prompt_len=2, seed=0)
    with pytest.raises(ValueError) as exc:
        decode(dec, Tensor(np.zeros((3, 5))))
    assert "5" in str(exc.value) and "8" in str(exc.value)


def test_decode_gradients_reach_prompt_and_head():
    dec = init_decoder(d_model=5, vocab_size=7, prompt_len=3, seed=3)
    h = np.random.default_rng(4).normal(size=(4, 5))
    targets = np.array([0, 3, 6, 2])

    def build_loss():
        return cross_entropy(decode(dec, Tensor(h)), targets)

    with Tape():
        backward(build_loss())

    for p in (dec.prompt_embedding, dec.output_head):
        def f(t, _p=p):
            old = _p.value.data.copy()
            _p.value.data[...] = t.data
            try:
                return build_loss()
            finally:
                _p.value.data[...] = old

        fd = fd_gradient(f, Tensor(p.value.data.copy()), eps=1e-5).data
        denom = max(np.linalg.norm(fd), np.linalg.norm(p.grad), 1e-12)
        assert np.linalg.norm(p.grad - fd) / denom < 1e-4, p.name


def test_oracle_projection_head_only_training_drives_ce_down():
    # If the projector output is already a one-hot code of the local token id,
    # a trained head reaches near-zero CE: the decoding task itself is easy.
    w = default_world(seed=0)
    d_model, V = 32, w.vocab_per_lang
    dec = init_decoder(d_model=d_model, vocab_size=target_vocab_size(w), prompt_len=4, seed=5)
    opt = Adam([dec.prompt_embedding, dec.output_head], lr=0.05)
    rng = np.random.default_rng(6)
    final = None
    for _ in range(400):
        utt = gen_utterance(w, language=0, task=TASK_ST, length=16, rng=rng)
        local = utt.source_tokens - w.languages[0].vocab_start
        h = np.eye(d_model)[local % d_model]
        with Tape():
            loss = cross_entropy(decode(dec, Tensor(h)), utt.targets)
            for p in (dec.prompt_embedding, dec.output_head):
                p.zero_grad()
            backward(loss)
            opt.step()
        final = loss.item()
    assert final < 0.05


def test_st_task_learnable_with_plain_mlp():
    # A shared MLP projector + toy decoder on one language reaches >= 95%
    # held-out token accuracy: the proxy task is solvable before any
    # mixture-of-experts machinery enters the picture.
    w = default_world(seed=0)
    cfg = ProjectorConfig(d_in=w.d_in, d_model=32, num_layers=3)
    mlp = init_mlp(cfg, seed=11)
    dec = init_decoder(d_model=32, vocab_size=target_vocab_size(w), prompt_len=4, seed=12)
    params = mlp.parameters() + [dec.prompt_embedding, dec.output_head]
    opt = Adam(params, lr=3e-3)
    rng = np.random.default_rng(13)
    for _ in range(300):
        utts = [gen_utterance(w, 0, TASK_ST, 12, rng) for _ in range(4)]
        feats = np.concatenate([u.features for u in utts])
        targets = np.concatenate([u.targets for u in utts])
        with Tape():
            h = mlp_forward(mlp, Tensor(feats))
            loss = cross_entropy(decode(dec, h), targets)
            for p in params:
                p.zero_grad()
            backward(loss)
            opt.step()
    eval_rng = np.random.default_rng(999)
    hits = total = 0
    for _ in range(20):
        utt = gen_utterance(w, 0, TASK_ST, 12, rng=eval_rng)
        h = mlp_forward(mlp, Tensor(utt.features))
        pred = decode(dec, h).data.argmax(axis=1)
        hits += int((pred == utt.targets).sum())
        total += len(utt.targets)
    assert hits / total >= 0.95
