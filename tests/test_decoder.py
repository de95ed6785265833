from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def test_prompt_with_no_room_rejected_before_any_forward(monkeypatch):
    params, cfg = tiny_model(seed=7)
    calls = []
    patch_forward(monkeypatch, lambda logits, aux: calls.append(logits.shape))
    for n in (cfg.max_seq, cfg.max_seq + 5):
        prompt = [VOCAB.bos] + [5] * (n - 1)
        for drive in both_drivers(params, cfg, prompt, policy(mode="text-only")):
            with pytest.raises(ValueError, match="no room under max_seq"):
                drive()
    assert calls == []
    # one position left: one token, then the context is full
    prompt = [VOCAB.bos] + [5] * (cfg.max_seq - 2)
    fin = generate_fused(params, cfg, prompt, policy(mode="text-only"), VOCAB)
    assert len(fin.tokens) == cfg.max_seq


@settings(max_examples=300, deadline=None)
@given(data=st.data(), temperature=st.sampled_from([0.0, 1e-320, 1e-300, 0.5, 1.0, 1e300]))
def test_sample_returns_a_legal_id_at_any_temperature(data, temperature):
    # legal scores are finite, the rest anything; none may be returned
    legal = np.array(data.draw(st.lists(st.booleans(), min_size=1, max_size=16).filter(any)))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    logits = np.array([data.draw(finite if ok else st.floats()) for ok in legal])
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    assert legal[decoder._sample(logits, legal, temperature, rng, 0)]


def test_policy_validation():
    with pytest.raises(ValueError):
        DecodePolicy(block_len=4, mode="images")
    with pytest.raises(ValueError):
        DecodePolicy(block_len=0)
    with pytest.raises(ValueError):
        DecodePolicy(block_len=4, temperature=-0.1)
    for temperature in (np.nan, np.inf):
        with pytest.raises(ValueError, match="temperature must be finite"):
            DecodePolicy(block_len=4, temperature=temperature)
    with pytest.raises(ValueError):
        DecodePolicy(block_len=4, max_new_tokens=0)


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
    # refused at the EOI that closes the block early, as check_prompt refuses it
    with pytest.raises(DecodeError, match="offset 3") as e1:
        detokenize_mixed(bad_len, tok, book, VOCAB, image_size=8)
    assert e1.value.offset == 3

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


# one grammar: detokenize_mixed refuses exactly what the decode machine refuses

def walk(stream, pol):
    """(offset where walking stream through advance_state fails, or None; last state).

    The walk stops at the first EOS, refuses any BOS but a leading one, and
    fails at the last offset if the stream ends inside an image block.
    """
    state = DecodeState()
    for i, tok in enumerate(stream):
        if tok == VOCAB.bos and i:
            return i, state
        try:
            state = advance_state(state, tok, pol, VOCAB, i)
        except DecodeError as e:
            assert e.offset == i
            return i, state
        if tok == VOCAB.eos:
            return None, state
    return (len(stream) - 1 if state.in_image else None), state


def pieces():
    codes = st.integers(VOCAB.n_text, VOCAB.n_text + VOCAB.n_image - 1)
    controls = [VOCAB.bos, VOCAB.eos, VOCAB.pad, VOCAB.sep, VOCAB.boi, VOCAB.eoi]
    return st.one_of(
        st.sampled_from(controls).map(lambda t: [t]),
        st.integers(0, VOCAB.n_text - 1).map(lambda t: [t]),
        codes.map(lambda t: [t]),
        # whole blocks, and near misses one code short or over
        st.lists(codes, min_size=BLOCK - 1, max_size=BLOCK + 1).map(
            lambda c: [VOCAB.boi, *c, VOCAB.eoi]),
    )


@settings(max_examples=400, deadline=None)
@given(lead=st.booleans(), body=st.lists(pieces(), max_size=8))
def test_detokenize_refuses_exactly_where_the_machine_does(round_trip_kit, lead, body):
    tok, book = round_trip_kit
    stream = [VOCAB.bos] * lead + [t for piece in body for t in piece]
    offset, state = walk(stream, policy())
    if offset is None:
        parts = detokenize_mixed(stream, tok, book, VOCAB, image_size=8)
        assert [kind for kind, _ in parts].count("image") == state.blocks_done
    else:
        with pytest.raises(DecodeError) as e:
            detokenize_mixed(stream, tok, book, VOCAB, image_size=8)
        assert e.value.offset == offset


@pytest.mark.parametrize("mode", ["unconstrained", "text-only", "image-only"])
def test_every_decoded_stream_detokenizes(round_trip_kit, mode):
    tok, book = round_trip_kit
    params, cfg = tiny_model(seed=2)
    params["lm_head"].data[:, VOCAB.boi] += 0.6
    for seed in range(3):
        pol = policy(mode=mode, seed=seed)
        for drive in both_drivers(params, cfg, [VOCAB.bos], pol):
            fin = drive()
            assert walk(fin.tokens, pol)[0] is None
            detokenize_mixed(fin.tokens, tok, book, VOCAB, image_size=8)


@pytest.mark.parametrize("mode", ["unconstrained", "text-only", "image-only"])
def test_every_legal_id_is_accepted_from_every_reachable_state(mode):
    pol = policy(mode=mode)
    seen, todo = set(), [DecodeState()]
    while todo:
        state = todo.pop()
        if state in seen or state.blocks_done > 2:
            continue
        seen.add(state)
        legal = np.flatnonzero(legal_mask(state, pol, VOCAB))
        assert VOCAB.eoi not in legal
        forced = [VOCAB.eoi] if state.in_image and state.remaining == 0 else []
        for tok in [*legal, *forced]:
            todo.append(advance_state(state, int(tok), pol, VOCAB, 0))
    # every situation the machine has: text, each block position, and after blocks
    assert len(seen) == {"unconstrained": 18, "text-only": 1, "image-only": 7}[mode]


def test_boi_is_legal_only_while_its_block_fits():
    # 31 prompt tokens under max_seq 40 leave 9 positions: one short of
    # BOI, 8 codes and EOI, so no block may open; BOI is made likely
    params, cfg = tiny_model(seed=1)
    cfg = replace(cfg, max_seq=40)
    params["lm_head"].data[:, VOCAB.boi] += 0.5
    prompt = [VOCAB.bos] + [5] * 30
    for seed in range(30):
        pol = policy(block_len=8, seed=seed)
        _, fin = collect(params, cfg, prompt, pol)
        assert fin.tokens == generate_fused(params, cfg, prompt, pol, VOCAB).tokens, f"seed {seed}"
        assert fin.reason == "max_tokens" and len(fin.tokens) == cfg.max_seq
        assert VOCAB.boi not in fin.tokens[len(prompt):]


def test_image_only_prompt_without_room_for_its_block_rejected(monkeypatch):
    params, cfg = tiny_model(seed=7)
    calls = []
    patch_forward(monkeypatch, lambda logits, aux: calls.append(logits.shape))
    pol = policy(mode="image-only")
    # BOI, BLOCK codes and EOI need BLOCK + 2 positions after the prompt
    prompt = [VOCAB.bos] + [5] * (cfg.max_seq - BLOCK - 2)
    for drive in both_drivers(params, cfg, prompt, pol):
        with pytest.raises(ValueError, match="no room for a 4-code image block"):
            drive()
    assert calls == []
    fin = generate_fused(params, cfg, prompt[:-1], pol, VOCAB)
    assert fin.reason == "image_complete" and len(fin.tokens) == cfg.max_seq
