"""Constrained mixed-modal decoding.

A small state machine rides along with generation and decides which token
ids are legal at every position, so the output is well-formed by
construction: image blocks always carry exactly block_len codes between
BOI and EOI, EOI itself is never sampled (the engine inserts it when the
block is full, consuming no randomness), and generation never stops in
the middle of a block.

One loop runs the machine and one sequential random stream seeded from
the policy.  Its two drivers differ only in where the logits come from,
so they emit identical tokens: generate_stream feeds a key/value cache
and yields events, generate_fused re-runs the full forward pass per
token.  Both run on frozen views of the parameters, so decoding records
no autograd graph and its memory is bounded by the cache.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class DecodeState:
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
    if not np.isfinite(logits[legal]).all():
        raise DecodeError(offset, "non-finite logit for a legal token")
    masked = np.where(legal, logits, -np.inf)
    if temperature == 0.0:
        return int(np.argmax(masked))
    # shifted before the division, so the best legal score is exactly 0 at
    # any temperature; a score that overflows to -inf then weighs 0
    with np.errstate(over="ignore"):
        p = np.exp((masked - masked.max()) / temperature)
    p /= p.sum()
    idx = int(np.searchsorted(np.cumsum(p), rng.random()))
    idx = min(idx, len(p) - 1)
    if not legal[idx]:  # cumsum rounding spilled past the last legal entry
        idx = int(np.argmax(p))
    return idx


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


def _frozen(params: dict[str, Tensor]) -> dict[str, Tensor]:
    """Views of params that record no autograd graph (the arrays are shared)."""
    return {name: Tensor(t.data) for name, t in params.items()}


def _decode(cfg: ModelConfig, prompt, policy: DecodePolicy, vocab: MixedVocab, next_logits):
    """The decode loop: yield events, ending with Finished.

    next_logits(tokens) returns the logits for the position after
    tokens[-1]; it is called only when a token is sampled, never for a
    forced EOI.  The prompt is validated by check_prompt first, so an
    ill-formed prompt, or one that leaves no room under cfg.max_seq, fails
    before any model work.  BOI is sampled only while its whole block fits.
    """
    prompt = [int(t) for t in prompt]
    state = check_prompt(cfg, prompt, policy, vocab)
    rng = np.random.default_rng(policy.seed)

    tokens = list(prompt)
    produced = 0
    block: list[int] = []
    reason = None

    while True:
        if state.in_image and state.remaining == 0:
            tok = vocab.eoi  # forced: no sampling, no rng draw
        else:
            legal = legal_mask(state, policy, vocab)
            if not _block_fits(len(tokens), policy, cfg):
                legal[vocab.boi] = False
            if not legal.any():  # image-only, its block already in the prompt
                reason = "image_complete"
                break
            tok = _sample(next_logits(tokens), legal, policy.temperature, rng, len(tokens))

        state = advance_state(state, tok, policy, vocab, len(tokens))
        tokens.append(tok)
        produced += 1

        if tok == vocab.boi:
            block = []
            yield ImageStart()
        elif tok == vocab.eoi:
            yield ImageEnd(tuple(block))
            block = []
        elif state.in_image:
            code = vocab.global_to_image(tok)
            block.append(code)
            yield ImageCode(code)
        else:
            yield TextToken(tok)

        if tok == vocab.eos:
            reason = "eos"
            break
        if not state.in_image:
            if policy.mode == "image-only" and state.blocks_done >= 1:
                reason = "image_complete"
                break
            if produced >= policy.max_new_tokens:
                reason = "max_tokens"
                break
        if len(tokens) >= cfg.max_seq:
            if state.in_image:
                raise DecodeError(len(tokens) - 1, "context exhausted inside an image block")
            reason = "max_tokens"
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

    Logits come from a key/value cache: each call feeds the model only the
    tokens it has not seen yet, so a block's last code and its forced EOI
    go in together.
    """
    params = _frozen(params)
    kv, seen = None, 0

    def next_logits(tokens):
        nonlocal kv, seen
        logits, aux = model_forward(params, cfg, np.array([tokens[seen:]]), past_kv=kv)
        kv, seen = aux["kv"], len(tokens)
        return logits.data[0, -1]

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
        logits, _ = model_forward(params, cfg, np.array([tokens]))
        return logits.data[0, -1]

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
    codes: list[int] = []

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
        if state.in_image:  # the machine let it through: BOI or a code of its block
            if tok == vocab.boi:
                flush_text()
            else:
                codes.append(tok - vocab.n_text)
        elif tok < vocab.n_text:
            text_ids.append(tok)
        elif tok == vocab.eos:
            break
        elif tok == vocab.sep:  # prompt/answer boundary of tuned streams
            flush_text()
        elif tok == vocab.eoi:
            parts.append(("image", decode_tokens(np.array(codes), book, image_size, image_size)))
            codes = []
    if state.in_image:
        raise DecodeError(len(tokens) - 1, "stream ends inside an image block")
    flush_text()
    return parts
