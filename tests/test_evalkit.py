import re

import numpy as np
import pytest
import reference
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chamtoy.evalkit import (
    BootstrapResult,
    Judgment,
    WinRateSummary,
    alpha_from_counts,
    bootstrap_ci,
    format_summary_table,
    judgment_win_rate,
    krippendorff_alpha,
    label_counts,
    load_annotations,
    load_judgments,
    majority_vote,
    summarize_judgments,
    win_rate,
)


# ----------------------------------------------------------------------
# win rate
# ----------------------------------------------------------------------


def test_win_rate_counts_tie_as_half():
    assert win_rate(1, 0, 1) == 0.5
    assert win_rate(2, 2, 0) == pytest.approx(0.75)
    assert win_rate(0, 4, 0) == 0.5


def test_win_rate_published_rows():
    # wins/ties/losses -> percentage, to one decimal
    rows = [
        (435, 362, 251, 1048, 58.8),
        (375, 331, 342, 1048, 51.6),
        (561, 327, 160, 1048, 69.1),
        (482, 329, 237, 1048, 61.7),
        (194, 145, 102, 441, 60.4),
    ]
    for w, t, l, total, pct in rows:
        s = WinRateSummary(w, t, l)
        assert s.total == total
        assert round(100 * s.rate, 1) == pct


def test_win_rate_empty_rejected():
    with pytest.raises(ValueError):
        WinRateSummary(0, 0, 0).rate


# ----------------------------------------------------------------------
# majority vote
# ----------------------------------------------------------------------


def test_majority_simple():
    assert majority_vote(["x", "y", "x"]) == "x"


def test_majority_tie_goes_to_earliest_first_occurrence():
    assert majority_vote(["a", "b", "b", "a", "c"]) == "a"
    assert majority_vote(["b", "a", "a", "b"]) == "b"


def test_majority_single_answer():
    assert majority_vote(["only"]) == "only"
    with pytest.raises(ValueError):
        majority_vote([])


# ----------------------------------------------------------------------
# Krippendorff's alpha
# ----------------------------------------------------------------------


def test_alpha_hand_computed_zero():
    # items: (A,A) agreeing, (A,B) disagreeing -> D_o = D_e = 0.5
    ratings = [
        ("i1", "r1", "A"), ("i1", "r2", "A"),
        ("i2", "r1", "A"), ("i2", "r2", "B"),
    ]
    assert krippendorff_alpha(ratings) == pytest.approx(0.0, abs=1e-12)


def test_alpha_perfect_agreement_is_one():
    ratings = [
        ("i1", "r1", "A"), ("i1", "r2", "A"),
        ("i2", "r1", "B"), ("i2", "r2", "B"),
    ]
    assert krippendorff_alpha(ratings) == 1.0
    # single shared label: expected disagreement 0, still perfect
    same = [("i1", "r1", "A"), ("i1", "r2", "A")]
    assert krippendorff_alpha(same) == 1.0


def test_alpha_systematic_disagreement_goes_negative():
    ratings = [
        ("i1", "r1", "A"), ("i1", "r2", "B"),
        ("i2", "r1", "A"), ("i2", "r2", "B"),
    ]
    assert krippendorff_alpha(ratings) == pytest.approx(-0.5, abs=1e-12)


def test_alpha_two_annotator_textbook_layout():
    # 9 pairable items, one mismatch; by hand: alpha = 98/115
    labels_a = ["1", "2", "3", "3", "2", "1", "4", "1", "2"]
    labels_b = ["1", "2", "3", "3", "2", "2", "4", "1", "2"]
    ratings = []
    for i, (a, b) in enumerate(zip(labels_a, labels_b)):
        ratings.append((f"u{i}", "A", a))
        ratings.append((f"u{i}", "B", b))
    assert krippendorff_alpha(ratings) == pytest.approx(98.0 / 115.0, abs=1e-12)


def test_alpha_ignores_unpairable_items():
    base = [
        ("i1", "r1", "A"), ("i1", "r2", "A"),
        ("i2", "r1", "A"), ("i2", "r2", "B"),
    ]
    padded = base + [("lonely", "r1", "Z")]
    assert krippendorff_alpha(padded) == krippendorff_alpha(base)


def test_alpha_needs_pairable_data():
    with pytest.raises(ValueError, match="pairable"):
        krippendorff_alpha([("i1", "r1", "A"), ("i2", "r2", "B")])


def test_alpha_rejects_duplicate_annotator_item():
    with pytest.raises(ValueError, match="duplicate"):
        krippendorff_alpha([("i1", "r1", "A"), ("i1", "r1", "B")])


def test_alpha_three_annotators():
    # one item, three annotators, one dissenter:
    # o_AA = 2*(1/2)*2 = 2, o_AB = o_BA = 2*(1/2) = 1 -> same as the
    # two-item hand case: alpha = 0
    ratings = [("i1", "r1", "A"), ("i1", "r2", "A"), ("i1", "r3", "B")]
    assert krippendorff_alpha(ratings) == pytest.approx(0.0, abs=1e-12)


# small item, annotator and label sets: duplicates, unpairable items and
# single-label inputs all come up
RATINGS = st.lists(st.tuples(st.integers(0, 6), st.sampled_from("pqrs"), st.sampled_from("ABC")),
                   max_size=30)


@settings(max_examples=300, deadline=None)
@given(RATINGS)
def test_alpha_matches_coincidence_reference(ratings):
    try:
        expected = reference.alpha(ratings)
    except ValueError as e:
        with pytest.raises(ValueError, match=re.escape(str(e))):
            krippendorff_alpha(ratings)
        return
    assert krippendorff_alpha(ratings) == pytest.approx(expected, rel=0, abs=1e-12)


def test_label_counts_rows_follow_first_appearance():
    ratings = [
        ("i2", "r1", "B"), ("i1", "r1", "A"), ("i2", "r2", "A"),
        ("i3", "r1", "C"), ("i1", "r2", "A"), ("i3", "r2", "B"),
    ]
    counts = label_counts(ratings)
    # items i2, i1, i3; labels B, A, C
    assert counts.tolist() == [[1, 1, 0], [0, 2, 0], [1, 0, 1]]
    assert counts.dtype.kind == "i"


def test_alpha_from_counts_edge_cases_match_triples():
    unpairable = [("i1", "r1", "A"), ("i2", "r2", "B")]
    for stat in (krippendorff_alpha, lambda r: alpha_from_counts(label_counts(r))):
        with pytest.raises(ValueError, match="no pairable items"):
            stat(unpairable)
    identical = [("i1", "r1", "A"), ("i1", "r2", "A"), ("i2", "r1", "A"), ("i2", "r2", "A"),
                 ("i3", "r1", "A")]
    assert alpha_from_counts(label_counts(identical)) == krippendorff_alpha(identical) == 1.0
    # any sequence of rows, as a bootstrap resample hands them over
    rows = list(label_counts(identical))
    assert alpha_from_counts(rows) == 1.0


def _recorded_bootstrap(items, stat):
    """Every resample's value (None where stat raised) and the result,
    or the error message when the whole bootstrap failed."""
    values = []

    def record(sample):
        try:
            value = stat(sample)
        except ValueError:
            values.append(None)
            raise
        values.append(value)
        return value

    try:
        result = bootstrap_ci(items, record, n_boot=8, seed=3)
    except ValueError as e:
        result = str(e)
    return values, result


@settings(max_examples=200, deadline=None)
@given(RATINGS)
def test_count_table_bootstrap_matches_triples_bootstrap(ratings):
    # one rating per (item, annotator), as krippendorff_alpha demands
    ratings = [(i, a, label) for (i, a), label in {(i, a): label for i, a, label in ratings}.items()]
    assume(ratings)
    by_item: dict = {}
    for item, annotator, label in ratings:
        by_item.setdefault(item, []).append((annotator, label))

    def renumbered_alpha(sample):
        return reference.alpha([(i, annotator, label) for i, item in enumerate(sample)
                                for annotator, label in item])

    got, got_result = _recorded_bootstrap(label_counts(ratings), alpha_from_counts)
    want, want_result = _recorded_bootstrap(list(by_item.values()), renumbered_alpha)
    assert [v is None for v in got] == [v is None for v in want]
    for g, w in zip(got, want):
        if w is not None:
            assert g == pytest.approx(w, rel=0, abs=1e-12)
    if isinstance(want_result, str):
        assert got_result == want_result
    else:
        assert (got_result.n_used, got_result.skipped) == (want_result.n_used, want_result.skipped)


# ----------------------------------------------------------------------
# bootstrap
# ----------------------------------------------------------------------


def test_bootstrap_is_deterministic():
    items = list(np.random.default_rng(0).normal(size=40))
    a = bootstrap_ci(items, lambda s: float(np.mean(s)), n_boot=200, seed=5)
    b = bootstrap_ci(items, lambda s: float(np.mean(s)), n_boot=200, seed=5)
    c = bootstrap_ci(items, lambda s: float(np.mean(s)), n_boot=200, seed=6)
    assert a == b
    assert a != c


def _bootstrap_reference(items, stat_fn, n_boot, seed):
    """bootstrap_ci's interval with each draw indexed by numpy integers."""
    rng = np.random.default_rng(seed)
    stats = [float(stat_fn([items[i] for i in idx]))
             for idx in rng.integers(0, len(items), size=(n_boot, len(items)))]
    tail = 100.0 * (1.0 - 0.95) / 2.0
    low, high = np.percentile(stats, [tail, 100.0 - tail])
    return float(low), float(high)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_bootstrap_intervals_match_numpy_indexing_bit_for_bit(seed):
    rng = np.random.default_rng(100 + seed)
    judgments = [Judgment(f"i{k}", ("win", "tie", "loss")[rng.integers(3)], "c", "m")
                 for k in range(120)]
    ratings = [(i, a, int(rng.integers(3))) for i in range(60) for a in range(3)]
    for items, stat in ((judgments, judgment_win_rate),
                        (list(label_counts(ratings)), alpha_from_counts),
                        (list(rng.normal(size=40)), lambda s: float(np.mean(s)))):
        got = bootstrap_ci(items, stat, n_boot=300, seed=seed)
        assert (got.low, got.high) == _bootstrap_reference(items, stat, 300, seed)
    overall = summarize_judgments(judgments)["overall"]
    counts = {r: sum(j.result == r for j in judgments) for r in ("win", "tie", "loss")}
    assert (overall.wins, overall.ties, overall.losses) == (counts["win"], counts["tie"], counts["loss"])


def test_bootstrap_brackets_the_point_estimate():
    items = list(np.random.default_rng(1).normal(loc=3.0, size=200))
    res = bootstrap_ci(items, lambda s: float(np.mean(s)), n_boot=500, seed=0)
    assert res.low < 3.0 < res.high
    assert res.high - res.low < 1.0
    assert res.n_used == 500 and res.skipped == 0


def test_bootstrap_counts_degenerate_resamples():
    items = [1.0, 2.0]

    def picky(sample):
        if len(set(sample)) < 2:
            raise ValueError("degenerate")
        return float(np.mean(sample))

    res = bootstrap_ci(items, picky, n_boot=400, seed=2)
    # P(all-same) = 0.5 per resample, so roughly half get skipped
    assert res.skipped > 100
    assert res.n_used + res.skipped == 400


def test_bootstrap_all_degenerate_raises():
    def always_bad(sample):
        raise ValueError("no")

    with pytest.raises(ValueError, match="degenerate"):
        bootstrap_ci([1, 2, 3], always_bad, n_boot=10, seed=0)


def test_bootstrap_validation():
    with pytest.raises(ValueError):
        bootstrap_ci([], lambda s: 0.0)
    with pytest.raises(ValueError):
        bootstrap_ci([1], lambda s: 0.0, coverage=1.5)
    for n_boot in (0, -3):
        with pytest.raises(ValueError, match="n_boot"):
            bootstrap_ci([1], lambda s: 0.0, n_boot=n_boot)


# ----------------------------------------------------------------------
# CSV ingest and summaries
# ----------------------------------------------------------------------


def test_load_annotations(tmp_path):
    f = tmp_path / "ann.csv"
    f.write_text("item_id,annotator_id,label\ni1,r1,A\ni1,r2,B\n")
    assert load_annotations(f) == [("i1", "r1", "A"), ("i1", "r2", "B")]

    g = tmp_path / "bad.csv"
    g.write_text("item,rater,label\ni1,r1,A\n")
    with pytest.raises(ValueError, match="missing columns"):
        load_annotations(g)


def test_load_judgments_validates_results(tmp_path):
    f = tmp_path / "j.csv"
    f.write_text(
        "item_id,result,category,modality\n"
        "a,win,howto,text\n"
        "b,tie,advice,mixed\n"
        "c,loss,howto,text\n"
    )
    rows = load_judgments(f)
    assert [j.result for j in rows] == ["win", "tie", "loss"]

    g = tmp_path / "bad.csv"
    g.write_text("item_id,result,category,modality\na,draw,howto,text\n")
    with pytest.raises(ValueError, match="bad.csv:2"):
        load_judgments(g)


def test_summarize_marginals_sum_to_overall():
    rng = np.random.default_rng(3)
    cats = ["howto", "advice", "explain"]
    mods = ["text", "mixed"]
    results = ["win", "tie", "loss"]
    judgments = [
        Judgment(
            f"i{k}",
            results[rng.integers(3)],
            cats[rng.integers(3)],
            mods[rng.integers(2)],
        )
        for k in range(300)
    ]
    s = summarize_judgments(judgments)
    overall = s["overall"]
    for block in ("by_category", "by_modality"):
        assert sum(v.wins for v in s[block].values()) == overall.wins
        assert sum(v.ties for v in s[block].values()) == overall.ties
        assert sum(v.losses for v in s[block].values()) == overall.losses


def test_judgment_win_rate_statistic():
    judgments = [
        Judgment("a", "win", "c", "m"),
        Judgment("b", "tie", "c", "m"),
        Judgment("c", "loss", "c", "m"),
        Judgment("d", "win", "c", "m"),
    ]
    assert judgment_win_rate(judgments) == pytest.approx(2.5 / 4.0)


def test_format_summary_table():
    judgments = [
        Judgment("a", "win", "howto", "text"),
        Judgment("b", "tie", "advice", "mixed"),
    ]
    text = format_summary_table(summarize_judgments(judgments))
    lines = text.splitlines()
    assert "overall" in lines[1]
    assert any("howto" in ln for ln in lines)
    assert any("mixed" in ln for ln in lines)
    assert "75.0%" in lines[1]
