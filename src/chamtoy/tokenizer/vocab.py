"""Shared id space for interleaved text and image tokens.

Layout: text ids occupy [0, n_text), image codes [n_text, n_text+n_image),
then six control tokens in fixed order: BOS, EOS, PAD, SEP, BOI, EOI.
BOI/EOI bracket every image block; SEP separates prompt from answer in
instruction-tuning sequences.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

SPECIALS = ("BOS", "EOS", "PAD", "SEP", "BOI", "EOI")


class TokenKind(enum.Enum):
    TEXT = "text"
    IMAGE = "image"
    SPECIAL = "special"


@dataclass(frozen=True)
class MixedVocab:
    n_text: int
    n_image: int

    def __post_init__(self):
        if self.n_text < 256:
            raise ValueError("text vocabulary must cover at least the 256 bytes")
        if self.n_image < 1:
            raise ValueError("image vocabulary must be non-empty")
        # total and the control ids (bos, eos, pad, sep, boi, eoi) are plain
        # attributes outside repr and equality: decoding reads them per token
        base = self.n_text + self.n_image
        for i, name in enumerate(SPECIALS):
            object.__setattr__(self, name.lower(), base + i)
        object.__setattr__(self, "total", base + len(SPECIALS))

    def classify(self, token: int) -> TokenKind:
        if not 0 <= token < self.total:
            raise ValueError(f"token id {token} outside vocabulary of {self.total}")
        if token < self.n_text:
            return TokenKind.TEXT
        if token < self.n_text + self.n_image:
            return TokenKind.IMAGE
        return TokenKind.SPECIAL

    def image_to_global(self, code: int) -> int:
        if not 0 <= code < self.n_image:
            raise ValueError(f"image code {code} outside codebook of {self.n_image}")
        return self.n_text + code

    def global_to_image(self, token: int) -> int:
        if self.classify(token) is not TokenKind.IMAGE:
            raise ValueError(f"token id {token} is not an image token")
        return token - self.n_text
