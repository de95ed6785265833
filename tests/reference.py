"""Per-element reference implementations of the tokenizer and agreement
algorithms, for the equivalence properties in test_tokenizer.py and
test_evalkit.py, the oracle that reads packed instruction-tuning rows
back for test_data.py, the attention scores that the QK-norm bound
tests read from the queries and keys attention hands to `attend_forward`, and
the decoder's sampler over the whole vocabulary for test_decoder.py.

Each is the direct reading of its definition that the library replaces
with whole-array work, or with work over fewer entries: BPE that
recounts every pair and merges the lowest-ranked pair present, Lloyd's
algorithm that means each cluster under a mask, Krippendorff's alpha from
the pairwise coincidence matrix, and sampling that sets every illegal
score to -inf.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np

from chamtoy.decoder import DecodeError
from chamtoy.tokenizer.codebook import _sq_dists, extract_patches


def merge_pair(seq, pair, new_id):
    out, i = [], 0
    while i < len(seq):
        if i + 1 < len(seq) and (seq[i], seq[i + 1]) == pair:
            out.append(new_id)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return out


def bpe_train(texts, vocab_size):
    """Merges by greedy pair frequency; ties go to the smaller pair."""
    seqs = [list(t.encode("utf-8")) for t in texts if t]
    merges = []
    for new_id in range(256, vocab_size):
        counts = Counter()
        for seq in seqs:
            counts.update(zip(seq, seq[1:]))
        if not counts:
            break
        best_count = max(counts.values())
        if best_count < 2:
            break
        pair = min(p for p, c in counts.items() if c == best_count)
        merges.append(pair)
        seqs = [merge_pair(seq, pair, new_id) for seq in seqs]
    return merges


def bpe_encode(merges, text):
    """Merge the lowest-ranked pair present until none is left."""
    ranks = {pair: i for i, pair in enumerate(merges)}
    seq = list(text.encode("utf-8"))
    while len(seq) > 1:
        present = [ranks[p] for p in zip(seq, seq[1:]) if p in ranks]
        if not present:
            break
        rank = min(present)
        seq = merge_pair(seq, merges[rank], 256 + rank)
    return seq


def lloyd(images, n_codes, patch, iters, seed):
    """(codes, history) with every cluster meaned under its own mask."""
    data = np.concatenate([extract_patches(img, patch) for img in images], axis=0)
    rng = np.random.default_rng(seed)
    distinct = np.unique(data, axis=0)
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
        assign = np.argmin(_sq_dists(data, centers), axis=1)
        for j in range(n_codes):
            members = data[assign == j]
            if len(members):
                centers[j] = members.mean(axis=0)
        history.append(float(np.mean(np.sum((data - centers[assign]) ** 2, axis=1))))
    return centers, history


def alpha(ratings):
    """Nominal alpha from the coincidence matrix over pairable items."""
    by_item = defaultdict(list)
    seen = set()
    for item, annotator, label in ratings:
        if (item, annotator) in seen:
            raise ValueError(f"duplicate rating by {annotator!r} on {item!r}")
        seen.add((item, annotator))
        by_item[item].append(label)
    coincidence = Counter()
    for labels in by_item.values():
        m = len(labels)
        if m < 2:
            continue
        for i, a in enumerate(labels):
            for j, b in enumerate(labels):
                if i != j:
                    coincidence[(a, b)] += 1.0 / (m - 1)
    n_by_label = Counter()
    for (a, _), w in coincidence.items():
        n_by_label[a] += w
    n = sum(n_by_label.values())
    if n == 0:
        raise ValueError("no pairable items: every item has fewer than two labels")
    observed = sum(w for (a, b), w in coincidence.items() if a != b) / n
    expected = (n * n - sum(v * v for v in n_by_label.values())) / (n * (n - 1))
    if expected == 0.0:
        return 1.0
    return 1.0 - observed / expected


def unpack_rows(result, vocab) -> list[int]:
    """Concatenated payload of all of pack_sft's rows, BOS and padding stripped."""
    out: list[int] = []
    for row in result.sequences:
        for tok in row[1:]:
            if tok != vocab.pad:
                out.append(int(tok))
    return out


def attention_scores(q, k):
    """Pre-softmax scores q.k / sqrt(hd) of every query against every key,
    [b, h, s, t], masked or not; query head i reads key head i // (h / kv)."""
    h, kv, hd = q.shape[1], k.shape[1], q.shape[-1]
    return np.einsum("bhsd,bhtd->bhst", q, np.repeat(k, h // kv, axis=1)) / np.sqrt(hd)


def sample(logits, legal, temperature, rng, offset) -> int:
    """One draw from softmax(logits / temperature) with every illegal score
    at -inf, over the whole vocabulary; argmax at temperature 0.  A draw
    that cumsum rounding spills onto an illegal id takes the argmax of p."""
    if not np.isfinite(logits[legal]).all():
        raise DecodeError(offset, "non-finite logit for a legal token")
    masked = np.where(legal, logits, -np.inf)
    if temperature == 0.0:
        return int(np.argmax(masked))
    with np.errstate(over="ignore"):
        p = np.exp((masked - masked.max()) / temperature)
    p /= p.sum()
    idx = int(np.searchsorted(np.cumsum(p), rng.random()))
    idx = min(idx, len(p) - 1)
    if not legal[idx]:
        idx = int(np.argmax(p))
    return idx
