"""Data pipeline: source mixing, sequence building, packing, corpora.

Pre-training runs in two stages.  The first stage draws from the base
sources with fixed weights; the last 20% of steps switch to a second
mixture where every first-stage weight is halved and the freed mass goes
to higher-quality extras.  The switch happens at floor(0.8 * total_steps).
"""

from __future__ import annotations

import bisect
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .tokenizer.vocab import MixedVocab

# Relative sizes of the base corpora in the reference recipe
# (2.9T : 1.5T : 0.4T tokens), kept as normalized sampling weights.
DEFAULT_STAGE1_WEIGHTS = {
    "text": 2.9 / 4.8,
    "text-image": 1.5 / 4.8,
    "interleaved": 0.4 / 4.8,
}


@dataclass
class MixtureSpec:
    stage1: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_STAGE1_WEIGHTS))
    stage2_extra: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for stage in ("stage1", "stage2_extra"):
            for name, w in getattr(self, stage).items():
                if not 0 <= w < np.inf:
                    raise ValueError(f"{stage} weight for {name!r} must be finite and "
                                     f"non-negative, got {w}")
        if not 0 < sum(self.stage1.values()) < np.inf:
            raise ValueError("stage1 weights must have a positive, finite sum")
        if not sum(self.stage1.values()) / 2 + sum(self.stage2_extra.values()) < np.inf:
            raise ValueError("stage2_extra weights must keep the stage 2 sum finite")


def stage_at(step: int, total_steps: int) -> int:
    """1 for the base mixture, 2 once step reaches floor(0.8 * total)."""
    if not 0 <= step < total_steps:
        raise ValueError(f"step {step} outside run of {total_steps}")
    return 1 if step < (total_steps * 4) // 5 else 2


def effective_weights(spec: MixtureSpec, stage: int) -> dict[str, float]:
    """Normalized sampling weights for the given stage.

    Stage 2 halves every stage-1 weight and adds the extras at full
    weight, then renormalizes: {A: 1} + extra {B: 1} -> {A: 1/3, B: 2/3}.
    """
    if stage == 1:
        raw = dict(spec.stage1)
    elif stage == 2:
        raw = {k: 0.5 * v for k, v in spec.stage1.items()}
        for k, v in spec.stage2_extra.items():
            raw[k] = raw.get(k, 0.0) + v
    else:
        raise ValueError(f"stage must be 1 or 2, got {stage}")
    total = sum(raw.values())  # positive and finite: MixtureSpec checked both stages
    return {k: v / total for k, v in raw.items()}


def sample_source(
    spec: MixtureSpec, step: int, total_steps: int, rng: np.random.Generator
) -> str:
    weights = effective_weights(spec, stage_at(step, total_steps))
    names = sorted(weights)
    # rng.choice(len(names), p=...)'s draw without its checks of p: one
    # uniform, bisected from the right into the normalized running sum
    cdf = list(itertools.accumulate(weights[n] for n in names))
    return names[bisect.bisect_right([c / cdf[-1] for c in cdf], rng.random())]


# ----------------------------------------------------------------------
# sequence building
# ----------------------------------------------------------------------


def image_block(codes, vocab: MixedVocab) -> list[int]:
    """BOI + global image ids + EOI."""
    return [vocab.boi] + [vocab.image_to_global(int(c)) for c in codes] + [vocab.eoi]


def build_text_sequence(text_ids, vocab: MixedVocab) -> list[int]:
    return [vocab.bos] + [int(t) for t in text_ids] + [vocab.eos]


def build_caption_sequence(
    caption_ids, codes, vocab: MixedVocab, rng: np.random.Generator
) -> tuple[list[int], str]:
    """Caption plus image in one sequence, image first half the time.

    Returns (tokens, order) with order in {"image-first", "caption-first"}.
    """
    cap = [int(t) for t in caption_ids]
    img = image_block(codes, vocab)
    if rng.random() < 0.5:
        return [vocab.bos] + img + cap + [vocab.eos], "image-first"
    return [vocab.bos] + cap + img + [vocab.eos], "caption-first"


# ----------------------------------------------------------------------
# instruction-tuning packing
# ----------------------------------------------------------------------


@dataclass
class Rejection:
    index: int
    length: int
    capacity: int


@dataclass
class PackResult:
    sequences: np.ndarray  # [n_rows, max_len] int64
    loss_masks: np.ndarray  # [n_rows, max_len] float64, 1 where loss applies
    rejections: list[Rejection]


def pack_sft(examples, max_len: int, vocab: MixedVocab) -> PackResult:
    """Pack (prompt_ids, answer_ids) pairs into fixed-length rows.

    Each example becomes prompt + SEP + answer + EOS.  Rows start with BOS
    and are filled left to right; when the next example does not fit the
    row is closed, padded with PAD, and a new one opens, so reading the
    rows back in order reproduces the accepted examples in order.  Loss
    applies only to answer tokens and the closing EOS; prompt, SEP, BOS,
    and padding are masked out.
    """
    capacity = max_len - 1  # one slot goes to the leading BOS
    if capacity < 1:
        raise ValueError("max_len too small to hold any example")

    rows: list[list[int]] = []
    masks: list[list[float]] = []
    rejections: list[Rejection] = []
    cur_toks: list[int] = []
    cur_mask: list[float] = []

    def close_row():
        nonlocal cur_toks, cur_mask
        if cur_toks:
            pad = max_len - 1 - len(cur_toks)
            rows.append([vocab.bos] + cur_toks + [vocab.pad] * pad)
            masks.append([0.0] + cur_mask + [0.0] * pad)
            cur_toks, cur_mask = [], []

    for idx, (prompt, answer) in enumerate(examples):
        toks = [int(t) for t in prompt] + [vocab.sep] + [int(t) for t in answer] + [vocab.eos]
        mask = [0.0] * (len(prompt) + 1) + [1.0] * (len(answer) + 1)
        if len(toks) > capacity:
            rejections.append(Rejection(index=idx, length=len(toks), capacity=capacity))
            continue
        if len(cur_toks) + len(toks) > capacity:
            close_row()
        cur_toks.extend(toks)
        cur_mask.extend(mask)
    close_row()

    n = len(rows)
    seqs = np.array(rows, dtype=np.int64).reshape(n, max_len)
    lm = np.array(masks, dtype=np.float64).reshape(n, max_len)
    return PackResult(sequences=seqs, loss_masks=lm, rejections=rejections)


# ----------------------------------------------------------------------
# corpus files
# ----------------------------------------------------------------------


def load_jsonl(path) -> list[dict]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}:{lineno}: invalid JSON ({e.msg})") from e
            if not isinstance(rec, dict):
                raise ValueError(f"{path}:{lineno}: expected an object per line")
            records.append(rec)
    return records


def _require(rec: dict, key: str, path, lineno: int) -> object:
    if key not in rec:
        raise ValueError(f"{path}: record {lineno} missing {key!r}")
    return rec[key]


def load_text_corpus(path) -> list[str]:
    return [str(_require(r, "text", path, i)) for i, r in enumerate(load_jsonl(path), 1)]


def load_caption_corpus(path) -> list[tuple[str, str]]:
    out = []
    for i, r in enumerate(load_jsonl(path), 1):
        out.append((str(_require(r, "caption", path, i)), str(_require(r, "image", path, i))))
    return out


def load_sft_corpus(path) -> list[tuple[str, str]]:
    out = []
    for i, r in enumerate(load_jsonl(path), 1):
        out.append((str(_require(r, "prompt", path, i)), str(_require(r, "answer", path, i))))
    return out


# ----------------------------------------------------------------------
# image geometry
# ----------------------------------------------------------------------


def parse_image_fit(mode: str) -> str:
    """mode, if it names one of prepare_image's resize modes."""
    if mode not in ("crop", "pad"):
        raise ValueError(f"unknown resize mode {mode!r}")
    return mode


def prepare_image(img: np.ndarray, size: int, mode: str = "crop") -> np.ndarray:
    """Force an image to size x size by center-cropping or zero-padding.

    "crop" trims the larger dimension from both sides (and pads if the
    image is smaller); "pad" only ever pads and rejects larger images.
    """
    img = np.asarray(img)
    h, w = img.shape[:2]
    parse_image_fit(mode)
    if mode == "pad" and (h > size or w > size):
        raise ValueError(f"image {h}x{w} larger than target {size} in pad mode")

    def fit(arr, dim_len, axis):
        if dim_len > size:
            lo = (dim_len - size) // 2
            sl = [slice(None)] * arr.ndim
            sl[axis] = slice(lo, lo + size)
            return arr[tuple(sl)]
        if dim_len < size:
            lo = (size - dim_len) // 2
            pad = [(0, 0)] * arr.ndim
            pad[axis] = (lo, size - dim_len - lo)
            return np.pad(arr, pad, mode="constant")
        return arr

    img = fit(img, h, 0)
    img = fit(img, w, 1)
    return img


# ----------------------------------------------------------------------
# batching
# ----------------------------------------------------------------------


class PretrainBatcher:
    """Streams fixed-length training windows from tokenized documents.

    Every row of a batch independently samples a source according to the
    stage mixture, then concatenates whole documents until the window is
    full.  All positions carry loss.
    """

    def __init__(
        self,
        docs_by_source: dict[str, list[list[int]]],
        spec: MixtureSpec,
        total_steps: int,
        batch_size: int,
        seq_len: int,
    ):
        for name, docs in docs_by_source.items():
            if not docs:
                raise ValueError(f"source {name!r} has no documents")
        self.docs = docs_by_source
        self.spec = spec
        self.total_steps = total_steps
        self.batch_size = batch_size
        self.seq_len = seq_len

    def batch(self, step: int, rng: np.random.Generator):
        rows = np.empty((self.batch_size, self.seq_len + 1), dtype=np.int64)
        for b in range(self.batch_size):
            buf: list[int] = []
            while len(buf) < self.seq_len + 1:
                source = sample_source(self.spec, step, self.total_steps, rng)
                docs = self.docs[source]
                buf.extend(docs[rng.integers(len(docs))])
            rows[b] = buf[: self.seq_len + 1]
        inputs, targets = rows[:, :-1], rows[:, 1:]
        return inputs, targets, np.ones_like(targets, dtype=np.float64)


class SFTBatcher:
    """Samples packed instruction rows; loss lands on answer tokens only."""

    def __init__(self, packed: PackResult):
        if len(packed.sequences) == 0:
            raise ValueError("no packed rows to train on")
        self.packed = packed

    def batch(self, batch_size: int, rng: np.random.Generator):
        idx = rng.integers(0, len(self.packed.sequences), size=batch_size)
        rows = self.packed.sequences[idx]
        masks = self.packed.loss_masks[idx]
        return rows[:, :-1], rows[:, 1:], masks[:, 1:]


# ----------------------------------------------------------------------
# synthetic corpus
# ----------------------------------------------------------------------

_WORDS = (
    "the a one small large bright dark field square stripe grid dot "
    "band edge center corner left right top bottom light heavy plain "
    "noisy smooth sharp soft wide narrow round flat deep thin"
).split()

_PATTERNS = ("solid", "hgrad", "vgrad", "checker", "square")


def _render_pattern(kind: str, size: int, rng: np.random.Generator) -> np.ndarray:
    lo, hi = int(rng.integers(0, 60)), int(rng.integers(180, 256))
    img = np.full((size, size), lo, dtype=np.uint8)
    if kind == "solid":
        img[:] = int(rng.integers(0, 256))
    elif kind == "hgrad":
        img[:] = np.linspace(lo, hi, size).astype(np.uint8)[None, :]
    elif kind == "vgrad":
        img[:] = np.linspace(lo, hi, size).astype(np.uint8)[:, None]
    elif kind == "checker":
        cell = int(rng.choice([4, 8]))
        yy, xx = np.indices((size, size))
        img = np.where(((yy // cell + xx // cell) % 2) == 0, lo, hi).astype(np.uint8)
    elif kind == "square":
        side = int(rng.integers(size // 4, size // 2))
        y0 = int(rng.integers(0, size - side))
        x0 = int(rng.integers(0, size - side))
        img[y0:y0 + side, x0:x0 + side] = hi
    else:
        raise ValueError(f"unknown pattern {kind!r}")
    return img


_CAPTION_TEXT = {
    "solid": "a plain flat field",
    "hgrad": "a band fading left to right",
    "vgrad": "a band fading top to bottom",
    "checker": "a grid of light and dark cells",
    "square": "a bright square on a dark field",
}


def build_synthetic_corpus(
    out_dir,
    n_text: int = 200,
    n_captions: int = 60,
    n_sft: int = 80,
    image_size: int = 32,
    seed: int = 0,
) -> dict[str, Path]:
    """Write a small deterministic corpus: text.jsonl, captions.jsonl,
    sft.jsonl, and the referenced pixmap images."""
    out_dir = Path(out_dir)
    img_dir = out_dir / "images"
    img_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    from .tokenizer.pixmap import write_pixmap

    with open(out_dir / "text.jsonl", "w", encoding="utf-8") as fh:
        for _ in range(n_text):
            n = int(rng.integers(5, 13))
            words = [_WORDS[rng.integers(len(_WORDS))] for _ in range(n)]
            fh.write(json.dumps({"text": " ".join(words)}) + "\n")

    with open(out_dir / "captions.jsonl", "w", encoding="utf-8") as fh:
        for i in range(n_captions):
            kind = _PATTERNS[rng.integers(len(_PATTERNS))]
            img = _render_pattern(kind, image_size, rng)
            rel = f"images/cap_{i:04d}.pgm"
            write_pixmap(out_dir / rel, img)
            fh.write(json.dumps({"caption": _CAPTION_TEXT[kind], "image": rel}) + "\n")

    with open(out_dir / "sft.jsonl", "w", encoding="utf-8") as fh:
        for _ in range(n_sft):
            a = int(rng.integers(0, 10))
            b = int(rng.integers(0, 10))
            fh.write(json.dumps({"prompt": f"add {a} and {b}", "answer": str(a + b)}) + "\n")

    return {
        "text": out_dir / "text.jsonl",
        "captions": out_dir / "captions.jsonl",
        "sft": out_dir / "sft.jsonl",
        "images": img_dir,
    }
