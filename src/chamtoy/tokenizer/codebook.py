"""Vector-quantizing image codebook learned with Lloyd's algorithm.

Images are cut into non-overlapping p x p patches; each patch becomes the
index of its nearest codebook row, so an H x W image tokenizes to
(H/p) * (W/p) integers.  This is a deliberately small stand-in for a
learned discrete image autoencoder: the interface (image in, fixed-length
id block out, lossy image back) is the same, the compression quality is
not.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_MAGIC = b"CBK1"


@dataclass
class Codebook:
    codes: np.ndarray  # [n_codes, patch * patch * channels], float64 in [0, 1]
    patch: int
    channels: int

    @property
    def n_codes(self) -> int:
        return self.codes.shape[0]

    def tokens_per_image(self, h: int, w: int) -> int:
        _check_divisible(h, w, self.patch)
        return (h // self.patch) * (w // self.patch)

    def save(self, path) -> None:
        header = struct.pack("<4sIII", _MAGIC, self.n_codes, self.patch, self.channels)
        Path(path).write_bytes(header + np.ascontiguousarray(self.codes, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "Codebook":
        blob = Path(path).read_bytes()
        if len(blob) < 16 or blob[:4] != _MAGIC:
            raise ValueError(f"not a codebook file: {path}")
        _, n_codes, patch, channels = struct.unpack("<4sIII", blob[:16])
        dim = patch * patch * channels
        expected = 16 + n_codes * dim * 8
        if len(blob) != expected:
            raise ValueError("codebook file truncated or oversized")
        codes = np.frombuffer(blob[16:], dtype="<f8").reshape(n_codes, dim).copy()
        return cls(codes=codes, patch=patch, channels=channels)


def _check_divisible(h: int, w: int, p: int) -> None:
    if p < 1:
        raise ValueError(f"patch must be positive, got {p}")
    if h % p or w % p:
        raise ValueError(f"image {h}x{w} not divisible into {p}x{p} patches")


def _as_float(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img)
    if img.dtype == np.uint8:
        return img.astype(np.float64) / 255.0
    img = img.astype(np.float64)
    if img.min() < 0.0 or img.max() > 1.0:
        raise ValueError("float images must lie in [0, 1]")
    return img


def extract_patches(img: np.ndarray, patch: int) -> np.ndarray:
    """[H, W] or [H, W, C] image -> [n_patches, patch*patch*C] rows.

    Patches are ordered row-major over the patch grid.
    """
    img = _as_float(img)
    if img.ndim == 2:
        img = img[:, :, None]
    if img.ndim != 3:
        raise ValueError("expected a 2-d or 3-d image array")
    h, w, c = img.shape
    _check_divisible(h, w, patch)
    grid = img.reshape(h // patch, patch, w // patch, patch, c)
    return grid.transpose(0, 2, 1, 3, 4).reshape(-1, patch * patch * c)


def assemble_patches(rows: np.ndarray, h: int, w: int, patch: int, channels: int) -> np.ndarray:
    grid_h, grid_w = h // patch, w // patch
    grid = rows.reshape(grid_h, grid_w, patch, patch, channels)
    img = grid.transpose(0, 2, 1, 3, 4).reshape(h, w, channels)
    return img[:, :, 0] if channels == 1 else img


def train_codebook(
    images,
    n_codes: int,
    patch: int,
    iters: int = 25,
    seed: int = 0,
):
    """Lloyd's algorithm over all patches of the given images.

    Returns (codebook, mse_history); the history is non-increasing because
    empty clusters keep their previous centroid instead of being reseeded.
    When fewer distinct patches exist than requested codes the spare rows
    are jittered duplicates, so the codebook always has full rank count.
    Only the distinct patches are assigned.  A weighted bincount sums each
    cluster in data order and divides by its count, as members.mean(axis=0)
    does, so the codes equal per-cluster means bit for bit.
    """
    if n_codes < 1 or iters < 1:
        raise ValueError(f"need at least one code and one iteration, got {n_codes} and {iters}")
    if len(images) == 0:
        raise ValueError("no images to fit")
    channels = 1 if np.asarray(images[0]).ndim == 2 else np.asarray(images[0]).shape[2]
    data = np.concatenate([extract_patches(img, patch) for img in images], axis=0)
    dim = data.shape[1]
    rng = np.random.default_rng(seed)

    distinct, inverse = np.unique(data, axis=0, return_inverse=True)
    if len(distinct) >= n_codes:
        centers = distinct[rng.choice(len(distinct), size=n_codes, replace=False)]
    else:
        pad = n_codes - len(distinct)
        base = distinct[rng.integers(0, len(distinct), size=pad)]
        jitter = rng.normal(0.0, 1e-4, size=base.shape)
        centers = np.concatenate([distinct, np.clip(base + jitter, 0.0, 1.0)], axis=0)
    centers = centers.astype(np.float64)

    history = []
    for _ in range(iters):
        assign = np.argmin(_sq_dists(distinct, centers), axis=1)[inverse.reshape(-1)]
        counts = np.bincount(assign, minlength=n_codes)
        filled = np.flatnonzero(counts)
        if dim > 1:
            cells = (assign[:, None] * dim + np.arange(dim)).ravel()
            sums = np.bincount(cells, weights=data.ravel(), minlength=centers.size)
            centers[filled] = sums.reshape(centers.shape)[filled] / counts[filled, None]
        else:  # numpy means a single column by pairwise summation instead
            centers[filled] = [data[assign == j].mean(axis=0) for j in filled]
        history.append(float(np.mean(np.sum((data - centers[assign]) ** 2, axis=1))))
    return Codebook(codes=centers, patch=patch, channels=channels), history


def _sq_dists(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # ||x - c||^2 expanded; clamp tiny negatives from cancellation
    d2 = (
        np.sum(x * x, axis=1)[:, None]
        - 2.0 * x @ centers.T
        + np.sum(centers * centers, axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def encode_image(img: np.ndarray, book: Codebook) -> np.ndarray:
    """Quantize an image to codebook indices (row-major patch order)."""
    rows = extract_patches(img, book.patch)
    if rows.shape[1] != book.codes.shape[1]:
        raise ValueError("image channel count does not match codebook")
    return np.argmin(_sq_dists(rows, book.codes), axis=1)


def decode_tokens(ids, book: Codebook, h: int, w: int) -> np.ndarray:
    """Rebuild the lossy image for a block of codebook indices.

    Returns float64 pixels in [0, 1]: the exact centroid values, so
    re-encoding a decoded image reproduces the same ids.  Convert with
    to_uint8 only when writing to disk.
    """
    ids = np.asarray(ids, dtype=np.int64)
    expected = book.tokens_per_image(h, w)
    if ids.shape != (expected,):
        raise ValueError(f"expected {expected} ids for a {h}x{w} image, got {ids.shape}")
    if ids.min() < 0 or ids.max() >= book.n_codes:
        raise ValueError("codebook index out of range")
    rows = book.codes[ids]
    return assemble_patches(rows, h, w, book.patch, book.channels)


def to_uint8(img: np.ndarray) -> np.ndarray:
    return np.clip(np.round(np.asarray(img) * 255.0), 0, 255).astype(np.uint8)
