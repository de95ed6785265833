"""Constrained mixed-modal decoding.

A small state machine rides along with generation and decides which token
ids are legal at every position, so the output is well-formed by
construction: image blocks always carry exactly block_len codes between
BOI and EOI, EOI itself is never sampled (the engine inserts it when the
block is full, consuming no randomness), and generation never stops in
the middle of a block.

One loop runs the machine and one sequential random stream seeded from
the policy; generate_stream feeds it from a key/value cache and yields
events, generate_fused re-runs the full forward pass per token.  A KV
step's one-row GEMMs sum in another order than the fused L-row ones, so
the tokens agree unless a draw lands within rounding of a
cumulative-probability boundary or an argmax tie.  Both pass read-only
views of the parameters' arrays through `model_forward`, whose layers then
run their kernels on plain arrays: no Tensor or autograd node is built,
decoding cannot write the weights, and memory is bounded by the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import ModelConfig, model_forward
from .numerics import Tensor
from .tokenizer.bpe import BPETokenizer
from .tokenizer.codebook import Codebook, decode_tokens
from .tokenizer.vocab import MixedVocab, TokenKind

MODES = ("unconstrained", "text-only", "image-only")


class DecodeError(ValueError):
    """Malformed token stream; offset points at the offending position."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset


@dataclass(frozen=True)
class DecodePolicy:
    block_len: int
    mode: str = "unconstrained"
    max_new_tokens: int = 64
    temperature: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown decode mode {self.mode!r}")
        if self.block_len < 1:
            raise ValueError("block_len must be positive")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be positive")
        if not 0 <= self.temperature < np.inf:
            raise ValueError(f"temperature must be finite and non-negative, got {self.temperature}")


class DecodeState(NamedTuple):
    """The machine's state between tokens.  A tuple, which is immutable
    and costs a fraction of a frozen dataclass to build; advance_state
    builds one per image code."""

    in_image: bool = False
    remaining: int = 0
    blocks_done: int = 0


def legal_mask(state: DecodeState, policy: DecodePolicy, vocab: MixedVocab) -> np.ndarray:
    """Boolean mask over the full vocabulary of sampleable tokens.

    EOI is never legal to sample: it is forced by the engine.  An
    all-false mask means the machine has nothing left to say (image-only
    after its block), which ends generation.
    """
    mask = np.zeros(vocab.total, dtype=bool)
    if state.in_image:
        if state.remaining > 0:
            mask[vocab.n_text:vocab.n_text + vocab.n_image] = True
        return mask
    if policy.mode == "image-only":
        if state.blocks_done == 0:
            mask[vocab.boi] = True
        return mask
    mask[:vocab.n_text] = True
    mask[vocab.eos] = True
    if policy.mode == "unconstrained":
        mask[vocab.boi] = True
    return mask


def advance_state(
    state: DecodeState, token: int, policy: DecodePolicy, vocab: MixedVocab, offset: int
) -> DecodeState:
    """Feed one token through the machine, validating block discipline."""
    kind = vocab.classify(token)
    if state.in_image:
        if kind is TokenKind.IMAGE:
            if state.remaining == 0:
                raise DecodeError(offset, "image block overran its length")
            return DecodeState(True, state.remaining - 1, state.blocks_done)
        if token == vocab.eoi:
            if state.remaining != 0:
                raise DecodeError(
                    offset, f"EOI with {state.remaining} codes still missing"
                )
            return DecodeState(blocks_done=state.blocks_done + 1)
        raise DecodeError(offset, "non-image token inside an image block")
    if token == vocab.boi:
        return DecodeState(
            in_image=True, remaining=policy.block_len, blocks_done=state.blocks_done
        )
    if kind is TokenKind.IMAGE:
        raise DecodeError(offset, "image code outside an image block")
    if token == vocab.eoi:
        raise DecodeError(offset, "EOI without an open image block")
    if token == vocab.pad:
        raise DecodeError(offset, "PAD in an active stream")
    return state  # text tokens and BOS/EOS/SEP leave the machine alone


def _sample(logits: np.ndarray, legal: np.ndarray, temperature: float, rng, offset: int) -> int:
    """One draw from softmax(logits / temperature) over the legal ids, or
    the first legal maximum at temperature 0.

    It computes over the legal ids alone, and returns the id that the same
    draw picks over the whole vocabulary with every other score at -inf.
    """
    ids = legal.nonzero()[0]
    x = logits[ids]
    if not np.isfinite(x).all():
        raise DecodeError(offset, "non-finite logit for a legal token")
    if temperature == 0.0:
        return int(ids[x.argmax()])
    # shifted before the division, so the best legal score is exactly 0 at
    # any temperature; a score that overflows to -inf then weighs 0
    with np.errstate(over="ignore"):
        p = np.exp((x - x.max()) / temperature)
    # normalized by the sum over the whole vocabulary, zeros included:
    # numpy's pairwise sum rounds differently over the legal ids alone
    whole = np.zeros(len(legal))
    whole[ids] = p
    p /= whole.sum()
    r = rng.random()
    j = int(p.cumsum().searchsorted(r))
    # where the whole-vocabulary search lands: on id 0 when r is 0, and on
    # the last id when cumsum rounding leaves the total below r; an illegal
    # id there falls back to the argmax of p
    idx = 0 if r == 0 else int(ids[j]) if j < len(ids) else len(legal) - 1
    return idx if legal[idx] else int(ids[p.argmax()])


# ----------------------------------------------------------------------
# the decode loop and its two drivers
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TextToken:
    token: int


@dataclass(frozen=True)
class ImageStart:
    pass


@dataclass(frozen=True)
class ImageCode:
    code: int  # raw codebook index


@dataclass(frozen=True)
class ImageEnd:
    codes: tuple[int, ...]


@dataclass(frozen=True)
class Finished:
    reason: str  # "eos", "max_tokens", "image_complete"
    tokens: tuple[int, ...]


def _block_fits(n_tokens: int, policy: DecodePolicy, cfg: ModelConfig) -> bool:
    """Whether BOI, block_len codes and EOI fit after n_tokens under max_seq."""
    return n_tokens + policy.block_len + 2 <= cfg.max_seq


def check_prompt(cfg: ModelConfig, prompt, policy: DecodePolicy, vocab: MixedVocab) -> DecodeState:
    """The machine state after prompt; ValueError if it is empty, ill-formed, or leaves
    no room under max_seq: no position at all, or, image-only, none for its block."""
    if not prompt:
        raise ValueError("prompt must contain at least one token (BOS works)")
    if len(prompt) >= cfg.max_seq:
        raise ValueError(f"prompt of {len(prompt)} tokens leaves no room under max_seq {cfg.max_seq}")
    state = DecodeState()
    for i, tok in enumerate(prompt):
        state = advance_state(state, int(tok), policy, vocab, i)
    if state.in_image:
        raise DecodeError(len(prompt) - 1, "prompt ends inside an image block")
    if policy.mode == "image-only" and state.blocks_done == 0 and not _block_fits(len(prompt), policy, cfg):
        raise ValueError(f"prompt of {len(prompt)} tokens leaves no room for a "
                         f"{policy.block_len}-code image block under max_seq {cfg.max_seq}")
    return state


def _frozen(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Read-only views of the parameters' arrays (the memory is shared), on
    which `model_forward` builds no autograd node."""
    views = {}
    for name, t in params.items():
        views[name] = view = t.data.view()
        view.flags.writeable = False
    return views


def _cache_len(n_prompt: int, policy: DecodePolicy, cfg: ModelConfig) -> int:
    """The most positions `_decode` feeds the model after a prompt of
    n_prompt tokens, the size of generate_stream's cache.

    The last token of a stream is never fed, nor the last code of a block
    whose forced EOI ends it.  So text-only feeds at most max_new_tokens - 1
    new tokens; image-only its BOI and all codes but the last; and
    unconstrained, which may open a block with the last token it is allowed
    and must finish it, max_new_tokens - 1 tokens, that BOI and all codes but
    the last.  A stream stops at max_seq tokens, so at most max_seq - 1 are fed.
    """
    fed = {"text-only": policy.max_new_tokens - 1,
           "image-only": policy.block_len,
           "unconstrained": policy.max_new_tokens + policy.block_len - 1}[policy.mode]
    return min(n_prompt + fed, cfg.max_seq - 1)


def _decode(cfg: ModelConfig, prompt, policy: DecodePolicy, vocab: MixedVocab, next_logits):
    """The decode loop: yield events, ending with Finished.

    next_logits(tokens) returns the logits for the position after
    tokens[-1]; it is called only when a token is sampled, never for a
    forced EOI.  check_prompt runs first, so a prompt it refuses fails
    before any model work.  The loop stops in one place, just before it
    would sample, checking in order: (1) no legal id, which is image-only
    mode after its block: "image_complete"; (2) outside a block, a stream
    of min(len(prompt) + max_new_tokens, max_seq) tokens: "max_tokens";
    (3) EOS, the one check made after a token: "eos".  BOI is sampled
    only while its whole block fits, so no request ends inside a block.
    """
    prompt = [int(t) for t in prompt]
    state = check_prompt(cfg, prompt, policy, vocab)
    rng = np.random.default_rng(policy.seed)
    limit = min(len(prompt) + policy.max_new_tokens, cfg.max_seq)
    tokens = list(prompt)

    while True:
        if state.in_image and state.remaining == 0:
            tok = vocab.eoi  # forced: no sampling, no rng draw
        else:
            legal = legal_mask(state, policy, vocab)
            if not legal.any():
                reason = "image_complete"
                break
            if not state.in_image and len(tokens) >= limit:
                reason = "max_tokens"
                break
            if not _block_fits(len(tokens), policy, cfg):
                legal[vocab.boi] = False
            tok = _sample(next_logits(tokens), legal, policy.temperature, rng, len(tokens))

        state = advance_state(state, tok, policy, vocab, len(tokens))
        tokens.append(tok)

        if tok == vocab.boi:
            yield ImageStart()
        elif tok == vocab.eoi:  # its codes are the block_len tokens before it
            yield ImageEnd(tuple(map(vocab.global_to_image, tokens[-1 - policy.block_len:-1])))
        elif state.in_image:
            yield ImageCode(vocab.global_to_image(tok))
        else:
            yield TextToken(tok)
        if tok == vocab.eos:
            reason = "eos"
            break

    yield Finished(reason=reason, tokens=tuple(tokens))


def generate_stream(
    params: dict[str, Tensor],
    cfg: ModelConfig,
    prompt,
    policy: DecodePolicy,
    vocab: MixedVocab,
):
    """Yield decode events; the final event is always Finished.

    A request stops, in the order the loop checks, when no id is legal
    (image-only after its block: "image_complete"), when it reaches
    min(len(prompt) + max_new_tokens, max_seq) tokens outside a block
    ("max_tokens"), or on an EOS it has just sampled ("eos").

    Logits come from a key/value cache: each call feeds the model only the
    tokens it has not seen yet, so a block's last code and its forced EOI
    go in together.  The prompt goes in as a forward pass with no cache;
    its keys and values are then copied once into buffers of `_cache_len`
    positions per layer, which every later call fills in place, so the
    request's decode memory is fixed after its prompt.  Every call runs the
    head on the sampled position alone, and the prompt's layers are copied
    one at a time, each freed before the next one's buffers are allocated,
    so a request peaks at its cache plus one prompt layer.  The forward
    passes run on read-only views of the parameters' arrays, so they build
    no Tensor or autograd node and cannot write the weights.
    """
    params = _frozen(params)
    kv = None

    def next_logits(tokens):
        nonlocal kv
        seen = 0 if kv is None else kv[0].length
        logits, aux = model_forward(params, cfg, np.array([tokens[seen:]]), past_kv=kv,
                                    last_only=True)
        kv = aux["kv"]
        del aux
        if seen == 0:  # the prompt: each layer's cache gets room for the whole request, one
            # layer at a time, so that a prompt layer's arrays go before the next one's come
            capacity = _cache_len(len(tokens), policy, cfg)
            for i, layer in enumerate(kv):
                kv[i] = layer.with_capacity(capacity)
        return logits[0, -1]

    yield from _decode(cfg, prompt, policy, vocab, next_logits)


def generate_fused(
    params: dict[str, Tensor],
    cfg: ModelConfig,
    prompt,
    policy: DecodePolicy,
    vocab: MixedVocab,
) -> Finished:
    """Same loop, logits from a full forward pass over all tokens.

    The reference the key/value cache is checked against; its Finished
    event is identical to generate_stream's.
    """
    params = _frozen(params)

    def next_logits(tokens):
        logits, _ = model_forward(params, cfg, np.array([tokens]), last_only=True)
        return logits[0, -1]

    *_, finished = _decode(cfg, prompt, policy, vocab, next_logits)
    return finished


# ----------------------------------------------------------------------
# detokenization
# ----------------------------------------------------------------------


def detokenize_mixed(
    tokens,
    text_tok: BPETokenizer,
    book: Codebook,
    vocab: MixedVocab,
    image_size: int,
):
    """Token stream -> list of ("text", str) and ("image", float array) parts.

    Each token up to the first EOS goes through advance_state, so DecodeError
    names the first offset that cannot continue a well-formed stream (the
    last one, for a stream that ends inside an image block); a leading BOS
    is skipped, a later one refused.  Text bytes that are not valid UTF-8
    (possible with sampled tokens) decode with replacement characters.
    """
    tokens = [int(t) for t in tokens]
    policy = DecodePolicy(block_len=book.tokens_per_image(image_size, image_size))
    state = DecodeState()
    parts = []
    text_ids: list[int] = []

    def flush_text():
        if text_ids:
            parts.append(("text", text_tok.decode_bytes(text_ids).decode("utf-8", errors="replace")))
            text_ids.clear()

    for i, tok in enumerate(tokens):
        if tok == vocab.bos:
            if i:
                raise DecodeError(i, "BOS after the start of the stream")
            continue
        state = advance_state(state, tok, policy, vocab, i)
        if tok < vocab.n_text:  # the machine lets text through only outside a block
            text_ids.append(tok)
        elif tok == vocab.boi or tok == vocab.sep:  # an image, or the prompt/answer boundary
            flush_text()
        elif tok == vocab.eos:
            break
        elif tok == vocab.eoi:  # the machine has checked the block_len codes before it
            codes = np.array(tokens[i - policy.block_len:i]) - vocab.n_text
            parts.append(("image", decode_tokens(codes, book, image_size, image_size)))
    if state.in_image:
        raise DecodeError(len(tokens) - 1, "stream ends inside an image block")
    flush_text()
    return parts
