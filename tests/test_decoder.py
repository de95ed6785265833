import numpy as np
import pytest

from chamtoy import decoder
from chamtoy.decoder import (
    DecodeError,
    DecodePolicy,
    DecodeState,
    Finished,
    ImageCode,
    ImageEnd,
    ImageStart,
    TextToken,
    advance_state,
    detokenize_mixed,
    generate_fused,
    generate_stream,
    legal_mask,
)
from chamtoy.model import ModelConfig, init_params
from chamtoy.tokenizer import MixedVocab, train_bpe, train_codebook

VOCAB = MixedVocab(n_text=260, n_image=8)
BLOCK = 4


def policy(**kw):
    base = dict(block_len=BLOCK, mode="unconstrained", max_new_tokens=24,
                temperature=1.0, seed=0)
    base.update(kw)
    return DecodePolicy(**base)


def tiny_model(seed=0):
    cfg = ModelConfig(
        vocab_size=VOCAB.total, d_model=16, n_layers=1, n_heads=2,
        n_kv_heads=2, ffn_hidden=32, max_seq=96,
    )
    return init_params(cfg, seed=seed), cfg


# ----------------------------------------------------------------------
# legal masks, exhaustively by machine situation
# ----------------------------------------------------------------------


def mask_ids(state, pol):
    return set(np.flatnonzero(legal_mask(state, pol, VOCAB)))


def test_mask_text_state_unconstrained():
    ids = mask_ids(DecodeState(), policy(mode="unconstrained"))
    assert ids == set(range(VOCAB.n_text)) | {VOCAB.boi, VOCAB.eos}


def test_mask_text_state_text_only():
    ids = mask_ids(DecodeState(), policy(mode="text-only"))
    assert ids == set(range(VOCAB.n_text)) | {VOCAB.eos}


def test_mask_image_only_start_is_boi():
    ids = mask_ids(DecodeState(), policy(mode="image-only"))
    assert ids == {VOCAB.boi}


def test_mask_image_only_after_block_is_empty():
    ids = mask_ids(DecodeState(blocks_done=1), policy(mode="image-only"))
    assert ids == set()


@pytest.mark.parametrize("mode", ["unconstrained", "text-only", "image-only"])
def test_mask_inside_block_is_image_codes_only(mode):
    state = DecodeState(in_image=True, remaining=3)
    ids = mask_ids(state, policy(mode=mode))
    assert ids == set(range(VOCAB.n_text, VOCAB.n_text + VOCAB.n_image))


def test_eoi_is_never_sampleable():
    for state in (DecodeState(), DecodeState(in_image=True, remaining=2),
                  DecodeState(blocks_done=1)):
        for mode in ("unconstrained", "text-only", "image-only"):
            assert VOCAB.eoi not in mask_ids(state, policy(mode=mode))


# ----------------------------------------------------------------------
# state transitions
# ----------------------------------------------------------------------


def test_block_lifecycle():
    pol = policy()
    s = advance_state(DecodeState(), VOCAB.boi, pol, VOCAB, 0)
    assert s.in_image and s.remaining == BLOCK
    for k in range(BLOCK):
        s = advance_state(s, VOCAB.image_to_global(k % VOCAB.n_image), pol, VOCAB, k + 1)
    assert s.in_image and s.remaining == 0
    s = advance_state(s, VOCAB.eoi, pol, VOCAB, BLOCK + 1)
    assert not s.in_image and s.blocks_done == 1


def test_early_eoi_rejected():
    pol = policy()
    s = advance_state(DecodeState(), VOCAB.boi, pol, VOCAB, 0)
    with pytest.raises(DecodeError, match="offset 1"):
        advance_state(s, VOCAB.eoi, pol, VOCAB, 1)


def test_block_overrun_rejected():
    pol = policy()
    s = DecodeState(in_image=True, remaining=0)
    with pytest.raises(DecodeError, match="overran"):
        advance_state(s, VOCAB.image_to_global(0), pol, VOCAB, 5)


def test_stray_tokens_rejected():
    pol = policy()
    with pytest.raises(DecodeError, match="outside"):
        advance_state(DecodeState(), VOCAB.image_to_global(0), pol, VOCAB, 2)
    with pytest.raises(DecodeError, match="EOI without"):
        advance_state(DecodeState(), VOCAB.eoi, pol, VOCAB, 3)
    with pytest.raises(DecodeError, match="PAD"):
        advance_state(DecodeState(), VOCAB.pad, pol, VOCAB, 4)
    with pytest.raises(DecodeError, match="non-image"):
        advance_state(DecodeState(in_image=True, remaining=2), VOCAB.bos, pol, VOCAB, 5)


# ----------------------------------------------------------------------
# generation drivers
# ----------------------------------------------------------------------


def collect(params, cfg, prompt, pol):
    events = list(generate_stream(params, cfg, prompt, pol, VOCAB))
    assert isinstance(events[-1], Finished)
    return events[:-1], events[-1]


def test_image_only_emits_exactly_one_block():
    params, cfg = tiny_model()
    pol = policy(mode="image-only", max_new_tokens=2)  # cap below block size
    events, fin = collect(params, cfg, [VOCAB.bos], pol)
    assert fin.reason == "image_complete"
    toks = list(fin.tokens)
    assert toks[0] == VOCAB.bos and toks[1] == VOCAB.boi and toks[-1] == VOCAB.eoi
    codes = toks[2:-1]
    assert len(codes) == BLOCK  # the cap never truncates a block
    assert all(VOCAB.classify(t).value == "image" for t in codes)
    assert isinstance(events[0], ImageStart)
    assert isinstance(events[-1], ImageEnd) and len(events[-1].codes) == BLOCK


def test_text_only_never_emits_image_tokens():
    params, cfg = tiny_model(seed=1)
    for seed in range(5):
        events, fin = collect(params, cfg, [VOCAB.bos], policy(mode="text-only", seed=seed))
        for ev in events:
            assert isinstance(ev, TextToken)
            kind = VOCAB.classify(ev.token).value
            assert kind == "text" or ev.token == VOCAB.eos
        assert fin.reason in ("eos", "max_tokens")


def test_stream_events_respect_block_grammar():
    params, cfg = tiny_model(seed=2)
    # bias generation toward starting blocks so the grammar gets exercised
    params["lm_head"].data[:, VOCAB.boi] += 0.6
    saw_block = False
    for seed in range(8):
        events, fin = collect(params, cfg, [VOCAB.bos], policy(seed=seed, max_new_tokens=40))
        i = 0
        while i < len(events):
            if isinstance(events[i], ImageStart):
                saw_block = True
                body = events[i + 1:i + 1 + BLOCK]
                assert all(isinstance(e, ImageCode) for e in body)
                end = events[i + 1 + BLOCK]
                assert isinstance(end, ImageEnd)
                assert end.codes == tuple(e.code for e in body)
                i += BLOCK + 2
            else:
                i += 1
        # replaying the tokens through the machine must not raise
        pol = policy(seed=seed)
        state = DecodeState()
        for off, tok in enumerate(fin.tokens):
            state = advance_state(state, tok, pol, VOCAB, off)
    assert saw_block


def test_stream_and_fused_are_token_identical():
    params, cfg = tiny_model(seed=3)
    params["lm_head"].data[:, VOCAB.boi] += 0.5
    for seed in range(10):
        pol = policy(seed=seed, max_new_tokens=30)
        _, fin_stream = collect(params, cfg, [VOCAB.bos], pol)
        fin_fused = generate_fused(params, cfg, [VOCAB.bos], pol, VOCAB)
        assert fin_stream.tokens == fin_fused.tokens, f"seed {seed}"
        assert fin_stream.reason == fin_fused.reason


def test_greedy_decode_is_deterministic_across_seeds():
    params, cfg = tiny_model(seed=4)
    a = generate_fused(params, cfg, [VOCAB.bos], policy(temperature=0.0, seed=1), VOCAB)
    b = generate_fused(params, cfg, [VOCAB.bos], policy(temperature=0.0, seed=99), VOCAB)
    assert a.tokens == b.tokens


def test_same_seed_reproduces_sampled_output():
    params, cfg = tiny_model(seed=5)
    a = generate_fused(params, cfg, [VOCAB.bos], policy(seed=7), VOCAB)
    b = generate_fused(params, cfg, [VOCAB.bos], policy(seed=7), VOCAB)
    c = generate_fused(params, cfg, [VOCAB.bos], policy(seed=8), VOCAB)
    assert a.tokens == b.tokens
    assert a.tokens != c.tokens


def test_prompt_with_image_block_is_accepted():
    params, cfg = tiny_model(seed=6)
    prompt = [VOCAB.bos, VOCAB.boi] + [VOCAB.image_to_global(i % 8) for i in range(BLOCK)] + [VOCAB.eoi, 5]
    fin = generate_fused(params, cfg, prompt, policy(mode="text-only", max_new_tokens=4), VOCAB)
    assert fin.tokens[:len(prompt)] == tuple(prompt)


def test_malformed_prompt_rejected():
    params, cfg = tiny_model(seed=6)
    with pytest.raises(DecodeError, match="offset 1"):
        generate_fused(params, cfg, [VOCAB.bos, VOCAB.eoi], policy(), VOCAB)
    short_block = [VOCAB.bos, VOCAB.boi, VOCAB.image_to_global(0)]
    with pytest.raises(DecodeError, match="inside an image block"):
        generate_fused(params, cfg, short_block, policy(), VOCAB)


def test_max_tokens_respected_in_text_mode():
    params, cfg = tiny_model(seed=7)
    pol = policy(mode="text-only", max_new_tokens=5, seed=3)
    fin = generate_fused(params, cfg, [VOCAB.bos], pol, VOCAB)
    assert len(fin.tokens) <= 1 + 5


def patch_forward(monkeypatch, edit):
    """Route the drivers' forward passes through edit(logits, aux)."""
    real = decoder.model_forward

    def forward(*args, **kwargs):
        logits, aux = real(*args, **kwargs)
        edit(logits, aux)
        return logits, aux

    monkeypatch.setattr(decoder, "model_forward", forward)


def both_drivers(params, cfg, prompt, pol):
    yield lambda: collect(params, cfg, prompt, pol)[1]
    yield lambda: generate_fused(params, cfg, prompt, pol, VOCAB)


def inf_on_boi(logits):
    logits[..., VOCAB.boi] = np.inf


@pytest.mark.parametrize("temperature, fill", [
    (1.0, lambda logits: logits.fill(np.nan)),
    (1.0, inf_on_boi),
    (0.0, lambda logits: logits.fill(-np.inf)),
], ids=["nan", "pos-inf", "greedy-all-neg-inf"])
def test_non_finite_legal_logits_raise(monkeypatch, temperature, fill):
    params, cfg = tiny_model(seed=8)
    patch_forward(monkeypatch, lambda logits, aux: fill(logits.data))
    prompt = [VOCAB.bos, 5, 7]  # image-only: BOI is the one legal token
    pol = policy(mode="image-only", temperature=temperature)
    for drive in both_drivers(params, cfg, prompt, pol):
        with pytest.raises(DecodeError, match="offset 3: non-finite logit"):
            drive()


def test_decode_builds_no_autograd_graph(monkeypatch):
    params, cfg = tiny_model(seed=9)
    assert all(t.requires_grad for t in params.values())
    outputs = []
    patch_forward(monkeypatch, lambda logits, aux: outputs.extend(
        [logits] + [t for pair in aux["kv"] for t in pair]))
    pol = policy(mode="image-only")
    for drive in both_drivers(params, cfg, [VOCAB.bos], pol):
        outputs.clear()
        assert drive().reason == "image_complete"
        assert outputs
        assert not any(t.requires_grad or t._parents for t in outputs)


def test_policy_validation():
    with pytest.raises(ValueError):
        DecodePolicy(block_len=4, mode="images")
    with pytest.raises(ValueError):
        DecodePolicy(block_len=0)
    with pytest.raises(ValueError):
        DecodePolicy(block_len=4, temperature=-0.1)


# ----------------------------------------------------------------------
# detokenization
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def round_trip_kit():
    tok = train_bpe(["the grid fades left " * 8], vocab_size=VOCAB.n_text)
    rng = np.random.default_rng(0)
    imgs = [rng.integers(0, 256, size=(8, 8)).astype(np.uint8) for _ in range(3)]
    book, _ = train_codebook(imgs, n_codes=VOCAB.n_image, patch=4, iters=5, seed=0)
    assert book.tokens_per_image(8, 8) == BLOCK
    return tok, book


def test_detokenize_text_roundtrip(round_trip_kit):
    tok, book = round_trip_kit
    text = "the grid fades"
    ids = tok.encode(text)
    stream = [VOCAB.bos] + ids + [VOCAB.eos]
    parts = detokenize_mixed(stream, tok, book, VOCAB, image_size=8)
    assert parts == [("text", text)]


def test_detokenize_mixed_parts(round_trip_kit):
    tok, book = round_trip_kit
    ids = tok.encode("the grid")
    block = [VOCAB.boi] + [VOCAB.image_to_global(c) for c in (0, 3, 5, 7)] + [VOCAB.eoi]
    stream = [VOCAB.bos] + ids + block + tok.encode(" fades") + [VOCAB.eos]
    parts = detokenize_mixed(stream, tok, book, VOCAB, image_size=8)
    assert [kind for kind, _ in parts] == ["text", "image", "text"]
    assert parts[0][1] == "the grid"
    assert parts[2][1] == " fades"
    img = parts[1][1]
    assert img.shape == (8, 8)
    assert np.array_equal(img, np.clip(img, 0.0, 1.0))


def test_detokenize_sep_splits_text_parts(round_trip_kit):
    tok, book = round_trip_kit
    prompt = tok.encode("the grid")
    answer = tok.encode(" fades")
    stream = [VOCAB.bos] + prompt + [VOCAB.sep] + answer + [VOCAB.eos]
    parts = detokenize_mixed(stream, tok, book, VOCAB, image_size=8)
    assert parts == [("text", "the grid"), ("text", " fades")]

    # a SEP directly after BOS yields no empty leading part
    stream = [VOCAB.bos, VOCAB.sep] + answer + [VOCAB.eos]
    parts = detokenize_mixed(stream, tok, book, VOCAB, image_size=8)
    assert parts == [("text", " fades")]


def test_detokenize_errors_carry_offsets(round_trip_kit):
    tok, book = round_trip_kit
    bad_len = [VOCAB.bos, VOCAB.boi, VOCAB.image_to_global(0), VOCAB.eoi]
    with pytest.raises(DecodeError, match="offset 1") as e1:
        detokenize_mixed(bad_len, tok, book, VOCAB, image_size=8)
    assert e1.value.offset == 1

    stray = [VOCAB.bos, 5, VOCAB.image_to_global(2)]
    with pytest.raises(DecodeError, match="offset 2"):
        detokenize_mixed(stray, tok, book, VOCAB, image_size=8)

    lone_eoi = [VOCAB.bos, 5, VOCAB.eoi]
    with pytest.raises(DecodeError, match="EOI without"):
        detokenize_mixed(lone_eoi, tok, book, VOCAB, image_size=8)

    with_pad = [VOCAB.bos, VOCAB.pad]
    with pytest.raises(DecodeError, match="PAD"):
        detokenize_mixed(with_pad, tok, book, VOCAB, image_size=8)


def test_detokenize_stops_at_eos(round_trip_kit):
    tok, book = round_trip_kit
    ids = tok.encode("the")
    stream = [VOCAB.bos] + ids + [VOCAB.eos, VOCAB.pad, VOCAB.pad]
    parts = detokenize_mixed(stream, tok, book, VOCAB, image_size=8)
    assert parts == [("text", "the")]
