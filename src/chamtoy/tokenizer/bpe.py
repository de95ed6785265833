"""Byte-level byte-pair encoding.

Token ids 0..255 are the raw bytes; each learned merge appends one id, so
a tokenizer with R merges has vocabulary size 256 + R.  Merges apply to
the whole byte stream with no word segmentation, which makes
decode(encode(s)) == s for every unicode string by construction.

A token sequence is the str of its ids as code points (ids stop at
MAX_VOCAB); str.replace merges a pair left to right without overlap.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

_HEADER = "bpe-v1"
MAX_VOCAB = sys.maxunicode  # training also spends chr(vocab_size) on a separator


def _ids(s: str) -> np.ndarray:
    return np.frombuffer(s.encode("utf-32-le", "surrogatepass"), dtype="<u4").astype(np.int64)


class BPETokenizer:
    def __init__(self, merges: list[tuple[int, int]]):
        self.merges = list(merges)
        if self.vocab_size > MAX_VOCAB:
            raise ValueError(f"{len(self.merges)} merges exceed the vocabulary limit {MAX_VOCAB}")
        if len(set(self.merges)) != len(self.merges):
            raise ValueError("duplicate merge pair")
        self.token_bytes = [bytes([i]) for i in range(256)]
        for left, right in self.merges:
            if left >= len(self.token_bytes) or right >= len(self.token_bytes):
                raise ValueError("merge references an id not yet defined")
            self.token_bytes.append(self.token_bytes[left] + self.token_bytes[right])
        self._replacements = [(chr(left) + chr(right), chr(256 + rank))
                              for rank, (left, right) in enumerate(self.merges)]

    @property
    def vocab_size(self) -> int:
        return 256 + len(self.merges)

    def encode(self, text: str) -> list[int]:
        """Apply every merge once, in rank order: merge r only creates pairs
        holding its new id, which only merges ranked above r take, so this
        equals merging the lowest-ranked pair present until none is left."""
        s = text.encode("utf-8").decode("latin-1")
        for pair, new in self._replacements:
            s = s.replace(pair, new)
        return _ids(s).tolist()

    def decode_bytes(self, ids) -> bytes:
        chunks = []
        for i in ids:
            i = int(i)
            if not 0 <= i < self.vocab_size:
                raise ValueError(f"token id {i} outside vocabulary of {self.vocab_size}")
            chunks.append(self.token_bytes[i])
        return b"".join(chunks)

    def decode(self, ids) -> str:
        return self.decode_bytes(ids).decode("utf-8")

    def save(self, path) -> None:
        lines = [_HEADER]
        for rank, (left, right) in enumerate(self.merges):
            lines.append(f"{rank} {left} {right}")
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "BPETokenizer":
        lines = Path(path).read_text().splitlines()
        if not lines or lines[0] != _HEADER:
            raise ValueError(f"not a tokenizer file: {path}")
        merges: list[tuple[int, int]] = []
        for line in lines[1:]:
            if not line.strip():
                continue
            rank_s, left_s, right_s = line.split(" ")
            if int(rank_s) != len(merges):
                raise ValueError(f"merge ranks out of order at line {rank_s!r}")
            merges.append((int(left_s), int(right_s)))
        return cls(merges)


def train_bpe(texts, vocab_size: int) -> BPETokenizer:
    """Learn merges greedily by pair frequency over the given corpus.

    vocab_size counts the 256 byte tokens, so it must be at least 256.
    Texts are joined by the id vocab_size; pairs touching it are not
    counted.  Taking the first maximum over the sorted pair keys breaks
    frequency ties toward the smaller (left, right) pair, which makes
    training deterministic.
    """
    if not 256 <= vocab_size <= MAX_VOCAB:
        raise ValueError(f"vocab_size must be in [256, {MAX_VOCAB}], got {vocab_size}")
    s = chr(vocab_size).join(t.encode("utf-8").decode("latin-1") for t in texts)
    merges: list[tuple[int, int]] = []
    for new_id in range(256, vocab_size):
        ids = _ids(s)
        left, right = ids[:-1], ids[1:]
        keep = (left != vocab_size) & (right != vocab_size)
        keys, counts = np.unique((left * new_id + right)[keep], return_counts=True)
        if not counts.size or counts.max() < 2:
            break  # nothing repeats; further merges would not compress
        pair = divmod(int(keys[counts.argmax()]), new_id)
        merges.append(pair)
        s = s.replace(chr(pair[0]) + chr(pair[1]), chr(new_id))
    return BPETokenizer(merges)
