"""Evaluation arithmetic: pairwise win rates, majority voting,
inter-annotator agreement, and bootstrap confidence intervals.

Win rate counts a tie as half a win: (wins + 0.5 * ties) / total.
Agreement is Krippendorff's alpha for nominal labels over pairable items
only, computed in closed form from a per-item label-count table; a
bootstrap resamples that table's rows.
"""

from __future__ import annotations

import csv
import math
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

RESULTS = ("win", "tie", "loss")


@dataclass(frozen=True)
class WinRateSummary:
    wins: int
    ties: int
    losses: int

    @property
    def total(self) -> int:
        return self.wins + self.ties + self.losses

    @property
    def rate(self) -> float:
        if self.total == 0:
            raise ValueError("no judgments")
        return (self.wins + 0.5 * self.ties) / self.total


def win_rate(wins: int, ties: int, losses: int) -> float:
    return WinRateSummary(wins, ties, losses).rate


def majority_vote(answers) -> object:
    """Most frequent answer; ties go to the answer that appeared first."""
    answers = list(answers)
    if not answers:
        raise ValueError("majority_vote needs at least one answer")
    counts = Counter(answers)
    best = max(counts.values())
    for a in answers:  # first occurrence order breaks ties
        if counts[a] == best:
            return a
    raise AssertionError("unreachable")


# ----------------------------------------------------------------------
# Krippendorff's alpha (nominal)
# ----------------------------------------------------------------------


def label_counts(ratings) -> np.ndarray:
    """Label counts [items, labels] of (item, annotator, label) triples.
    Items and labels are numbered in first-appearance order, so resampling
    rows draws the items that resampling grouped ratings would."""
    items: dict = {}
    labels: dict = {}
    u = [items.setdefault(item, len(items)) for item, _, _ in ratings]
    c = [labels.setdefault(label, len(labels)) for _, _, label in ratings]
    flat = np.asarray(u, dtype=np.intp) * len(labels) + np.asarray(c, dtype=np.intp)
    return np.bincount(flat, minlength=len(items) * len(labels)).reshape(len(items), len(labels))


def alpha_from_counts(rows) -> float:
    """Nominal-scale alpha from per-item label-count rows (label_counts).

    Rows with fewer than two labels cannot be paired and are dropped.
    If every pairable label is identical the expected disagreement is
    zero; that is perfect agreement, alpha = 1.

    Closed form over the label counts n_uc of each pairable item u (m_u
    labels): summing the coincidence matrix gives n_c = sum_u n_uc and the
    observed disagreement D_o * n = sum_u (m_u^2 - sum_c n_uc^2) / (m_u - 1).
    """
    counts = np.asarray(rows)
    m = counts.sum(axis=1)
    counts, m = counts[m > 1], m[m > 1]
    n_c = counts.sum(axis=0)
    n = int(n_c.sum())
    if n == 0:
        raise ValueError("no pairable items: every item has fewer than two labels")
    observed = float(((m * m - (counts * counts).sum(axis=1)) / (m - 1)).sum()) / n
    expected = (n * n - int((n_c * n_c).sum())) / (n * (n - 1))
    if expected == 0.0:
        return 1.0
    return 1.0 - observed / expected


def krippendorff_alpha(ratings) -> float:
    """alpha_from_counts over the label counts of (item, annotator, label) triples."""
    ratings = list(ratings)
    if len({(item, annotator) for item, annotator, _ in ratings}) != len(ratings):
        seen = set()
        for item, annotator, _ in ratings:
            if (item, annotator) in seen:
                raise ValueError(f"duplicate rating by {annotator!r} on {item!r}")
            seen.add((item, annotator))
    return alpha_from_counts(label_counts(ratings))


# ----------------------------------------------------------------------
# bootstrap
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BootstrapResult:
    low: float
    high: float
    n_used: int
    skipped: int


def bootstrap_ci(
    items,
    stat_fn,
    n_boot: int = 1000,
    seed: int = 0,
    coverage: float = 0.95,
) -> BootstrapResult:
    """Percentile interval from resampling whole items with replacement.

    Resamples where stat_fn raises ValueError or returns a non-finite
    value are skipped and counted, not silently dropped.
    """
    items = list(items)
    if not items:
        raise ValueError("cannot bootstrap an empty item list")
    if n_boot < 1:
        raise ValueError(f"n_boot must be at least 1, got {n_boot}")
    if not 0 < coverage < 1:
        raise ValueError("coverage must be in (0, 1)")
    rng = np.random.default_rng(seed)
    n = len(items)
    stats = []
    skipped = 0
    # rows as lists of Python ints, which index a list without the
    # conversion every numpy integer needs
    for idx in rng.integers(0, n, size=(n_boot, n)).tolist():
        sample = list(map(items.__getitem__, idx))
        try:
            value = stat_fn(sample)
        except ValueError:
            skipped += 1
            continue
        if value is None or not math.isfinite(value):
            skipped += 1
            continue
        stats.append(float(value))
    if not stats:
        raise ValueError("every bootstrap resample was degenerate")
    tail = 100.0 * (1.0 - coverage) / 2.0
    low, high = np.percentile(stats, [tail, 100.0 - tail])
    return BootstrapResult(low=float(low), high=float(high),
                           n_used=len(stats), skipped=skipped)


# ----------------------------------------------------------------------
# CSV ingest
# ----------------------------------------------------------------------


def _read_csv(path, required: tuple[str, ...]) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = tuple(reader.fieldnames or ())
        missing = [c for c in required if c not in header]
        if missing:
            raise ValueError(f"{path}: missing columns {missing} (found {list(header)})")
        return list(reader)


def load_annotations(path) -> list[tuple[str, str, str]]:
    """item_id,annotator_id,label rows for agreement computation."""
    rows = _read_csv(path, ("item_id", "annotator_id", "label"))
    return [(r["item_id"], r["annotator_id"], r["label"]) for r in rows]


@dataclass(frozen=True)
class Judgment:
    item_id: str
    result: str
    category: str
    modality: str


def load_judgments(path) -> list[Judgment]:
    """item_id,result,category,modality rows; result is win/tie/loss."""
    out = []
    for lineno, r in enumerate(_read_csv(path, ("item_id", "result", "category", "modality")), 2):
        if r["result"] not in RESULTS:
            raise ValueError(f"{path}:{lineno}: result must be one of {RESULTS}, got {r['result']!r}")
        out.append(Judgment(r["item_id"], r["result"], r["category"], r["modality"]))
    return out


def _tally(judgments) -> WinRateSummary:
    results = [j.result for j in judgments]
    return WinRateSummary(wins=results.count("win"), ties=results.count("tie"),
                          losses=results.count("loss"))


def summarize_judgments(judgments) -> dict:
    """Overall plus per-category and per-modality win-rate summaries."""
    judgments = list(judgments)
    if not judgments:
        raise ValueError("no judgments to summarize")
    by_cat: dict[str, list] = defaultdict(list)
    by_mod: dict[str, list] = defaultdict(list)
    for j in judgments:
        by_cat[j.category].append(j)
        by_mod[j.modality].append(j)
    return {
        "overall": _tally(judgments),
        "by_category": {k: _tally(v) for k, v in sorted(by_cat.items())},
        "by_modality": {k: _tally(v) for k, v in sorted(by_mod.items())},
    }


def judgment_win_rate(judgments) -> float:
    """Win rate as a bootstrap-friendly statistic over judgment items."""
    return _tally(judgments).rate


def format_summary_table(summary: dict) -> str:
    """Fixed-width report: overall line, then category and modality blocks."""

    def line(name, s: WinRateSummary):
        return f"{name:<24} {s.wins:>5} {s.ties:>5} {s.losses:>5} {s.total:>6} {100*s.rate:7.1f}%"

    rows = [f"{'':<24} {'win':>5} {'tie':>5} {'loss':>5} {'total':>6} {'rate':>8}"]
    rows.append(line("overall", summary["overall"]))
    for block in ("by_category", "by_modality"):
        rows.append(block.replace("by_", "") + ":")
        for name, s in summary[block].items():
            rows.append(line("  " + name, s))
    return "\n".join(rows)
