import numpy as np
import pytest

from chamtoy.data import (
    DEFAULT_STAGE1_WEIGHTS,
    MixtureSpec,
    PretrainBatcher,
    SFTBatcher,
    build_caption_sequence,
    build_synthetic_corpus,
    build_text_sequence,
    effective_weights,
    image_block,
    load_caption_corpus,
    load_sft_corpus,
    load_text_corpus,
    pack_sft,
    prepare_image,
    sample_source,
    stage_at,
)
from chamtoy.tokenizer import MixedVocab, read_pixmap
from reference import unpack_rows

VOCAB = MixedVocab(n_text=300, n_image=16)


# ----------------------------------------------------------------------
# two-stage mixture
# ----------------------------------------------------------------------


def test_stage_switch_at_80_percent():
    assert stage_at(0, 10) == 1
    assert stage_at(7, 10) == 1
    assert stage_at(8, 10) == 2  # floor(0.8 * 10)
    assert stage_at(9, 10) == 2
    # floor(0.8 * 7) = 5
    assert stage_at(4, 7) == 1
    assert stage_at(5, 7) == 2
    with pytest.raises(ValueError):
        stage_at(10, 10)


def test_default_weights_match_corpus_proportions():
    w = DEFAULT_STAGE1_WEIGHTS
    assert w["text"] == pytest.approx(2.9 / 4.8)
    assert w["text-image"] == pytest.approx(1.5 / 4.8)
    assert w["interleaved"] == pytest.approx(0.4 / 4.8)
    assert sum(w.values()) == pytest.approx(1.0)


def test_stage2_halves_base_weights():
    spec = MixtureSpec(stage1={"A": 1.0}, stage2_extra={"B": 1.0})
    assert effective_weights(spec, 1) == {"A": 1.0}
    w2 = effective_weights(spec, 2)
    assert w2["A"] == pytest.approx(1.0 / 3.0)
    assert w2["B"] == pytest.approx(2.0 / 3.0)
    with pytest.raises(ValueError, match="^stage must be 1 or 2, got 3$"):
        effective_weights(spec, 3)


def test_stage2_merges_overlapping_sources():
    spec = MixtureSpec(stage1={"A": 0.5, "B": 0.5}, stage2_extra={"B": 0.75})
    w2 = effective_weights(spec, 2)
    # raw: A 0.25, B 0.25 + 0.75 = 1.0 -> normalized
    assert w2["A"] == pytest.approx(0.2)
    assert w2["B"] == pytest.approx(0.8)


def test_sample_source_respects_weights():
    spec = MixtureSpec(stage1={"A": 0.75, "B": 0.25})
    rng = np.random.default_rng(0)
    draws = [sample_source(spec, 0, 100, rng) for _ in range(4000)]
    frac_a = draws.count("A") / len(draws)
    assert abs(frac_a - 0.75) < 0.02


def test_sample_source_changes_at_stage_boundary():
    spec = MixtureSpec(stage1={"A": 1.0}, stage2_extra={"B": 1.0})
    rng = np.random.default_rng(1)
    assert {sample_source(spec, 0, 10, rng) for _ in range(50)} == {"A"}
    late = {sample_source(spec, 8, 10, rng) for _ in range(200)}
    assert late == {"A", "B"}


def test_sample_source_draws_as_rng_choice_does():
    # the same draws from the same stream as rng.choice(p=...), at both stages
    # and with a zero-weight source among the first stage's
    spec = MixtureSpec(stage1={"text": 0.6, "captions": 0.3, "none": 0.0, "web": 0.1},
                       stage2_extra={"captions": 0.25, "extra": 0.4})
    for step in (0, 8):
        weights = effective_weights(spec, 1 if step == 0 else 2)
        names = sorted(weights)
        probs = np.array([weights[n] for n in names])
        for seed in range(500):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn = [sample_source(spec, step, 10, ours) for _ in range(20)]
            assert drawn == [names[theirs.choice(len(names), p=probs)] for _ in range(20)]
            assert ours.random() == theirs.random()


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        MixtureSpec(stage1={"A": -0.1})


# ----------------------------------------------------------------------
# sequence building
# ----------------------------------------------------------------------


def test_text_sequence_brackets():
    seq = build_text_sequence([5, 6, 7], VOCAB)
    assert seq == [VOCAB.bos, 5, 6, 7, VOCAB.eos]


def test_image_block_structure():
    blk = image_block([0, 3, 15], VOCAB)
    assert blk[0] == VOCAB.boi and blk[-1] == VOCAB.eoi
    assert blk[1:-1] == [300, 303, 315]
    with pytest.raises(ValueError):
        image_block([16], VOCAB)


def test_caption_rotation_is_balanced():
    rng = np.random.default_rng(2)
    orders = [
        build_caption_sequence([1, 2], [0, 1], VOCAB, rng)[1] for _ in range(10_000)
    ]
    frac = orders.count("image-first") / len(orders)
    assert abs(frac - 0.5) < 0.01


def test_caption_sequence_layouts():
    rng = np.random.default_rng(3)
    for _ in range(20):
        seq, order = build_caption_sequence([9, 8], [2, 5], VOCAB, rng)
        assert seq[0] == VOCAB.bos and seq[-1] == VOCAB.eos
        body = seq[1:-1]
        img = [VOCAB.boi, 302, 305, VOCAB.eoi]
        if order == "image-first":
            assert body == img + [9, 8]
        else:
            assert body == [9, 8] + img


# ----------------------------------------------------------------------
# packing
# ----------------------------------------------------------------------


def test_pack_single_example_layout():
    res = pack_sft([([10, 11], [20])], max_len=8, vocab=VOCAB)
    assert res.sequences.shape == (1, 8)
    row, mask = res.sequences[0], res.loss_masks[0]
    assert row.tolist() == [VOCAB.bos, 10, 11, VOCAB.sep, 20, VOCAB.eos, VOCAB.pad, VOCAB.pad]
    assert mask.tolist() == [0, 0, 0, 0, 1, 1, 0, 0]


def test_pack_fills_then_opens_new_row():
    # each example takes 4 slots; capacity 9 after BOS -> two per row
    examples = [([i], [i]) for i in range(5)]
    res = pack_sft(examples, max_len=10, vocab=VOCAB)
    assert res.sequences.shape[0] == 3
    assert not res.rejections


def test_pack_order_reconstruction():
    rng = np.random.default_rng(4)
    examples = []
    for _ in range(30):
        p = list(rng.integers(0, 200, size=rng.integers(1, 6)))
        a = list(rng.integers(0, 200, size=rng.integers(1, 6)))
        examples.append((p, a))
    res = pack_sft(examples, max_len=32, vocab=VOCAB)
    expected = []
    for p, a in examples:
        expected.extend(p + [VOCAB.sep] + a + [VOCAB.eos])
    assert unpack_rows(res, VOCAB) == expected


def test_pack_rejects_oversized():
    ok = ([1], [2])
    big = (list(range(20)), list(range(20)))
    res = pack_sft([ok, big, ok], max_len=16, vocab=VOCAB)
    assert len(res.rejections) == 1
    rej = res.rejections[0]
    assert rej.index == 1 and rej.length == 42 and rej.capacity == 15
    # accepted examples still pack in order
    assert unpack_rows(res, VOCAB) == [1, VOCAB.sep, 2, VOCAB.eos] * 2
    # a row with room for its BOS alone holds no example
    with pytest.raises(ValueError, match="^max_len too small to hold any example$"):
        pack_sft([ok], max_len=1, vocab=VOCAB)


def test_pack_mask_never_hits_padding_or_prompt():
    examples = [(list(range(3)), [7, 8]) for _ in range(4)]
    res = pack_sft(examples, max_len=20, vocab=VOCAB)
    for row, mask in zip(res.sequences, res.loss_masks):
        for tok, m in zip(row, mask):
            if tok in (VOCAB.bos, VOCAB.sep, VOCAB.pad) or (0 <= tok < 7):
                assert m == 0.0
    assert res.loss_masks.sum() == 4 * 3  # two answer tokens + EOS each


# ----------------------------------------------------------------------
# corpus files
# ----------------------------------------------------------------------


def test_jsonl_loaders(tmp_path):
    f = tmp_path / "t.jsonl"
    f.write_text('{"text": "alpha"}\n\n{"text": "beta"}\n')
    assert load_text_corpus(f) == ["alpha", "beta"]

    g = tmp_path / "bad.jsonl"
    g.write_text('{"text": "ok"}\n{oops\n')
    with pytest.raises(ValueError, match="bad.jsonl:2"):
        load_text_corpus(g)

    a = tmp_path / "array.jsonl"
    a.write_text('{"text": "ok"}\n["text"]\n')
    with pytest.raises(ValueError, match=r"array\.jsonl:2: expected an object per line$"):
        load_text_corpus(a)

    h = tmp_path / "missing.jsonl"
    h.write_text('{"caption": "no image"}\n')
    with pytest.raises(ValueError, match="missing"):
        load_caption_corpus(h)


def test_prepare_image_crop_and_pad():
    img = np.arange(8 * 6, dtype=np.uint8).reshape(8, 6)
    cropped = prepare_image(img, 4, mode="crop")
    assert cropped.shape == (4, 4)
    assert cropped[0, 0] == img[2, 1]  # centered window

    padded = prepare_image(img, 10, mode="pad")
    assert padded.shape == (10, 10)
    assert padded[0, 0] == 0 and padded[1, 2] == img[0, 0]

    with pytest.raises(ValueError):
        prepare_image(img, 4, mode="pad")
    with pytest.raises(ValueError):
        prepare_image(img, 4, mode="stretch")


def test_synthetic_corpus_roundtrip(tmp_path):
    paths = build_synthetic_corpus(tmp_path, n_text=10, n_captions=5, n_sft=6, seed=3)
    texts = load_text_corpus(paths["text"])
    caps = load_caption_corpus(paths["captions"])
    sft = load_sft_corpus(paths["sft"])
    assert len(texts) == 10 and len(caps) == 5 and len(sft) == 6
    for _, rel in caps:
        img = read_pixmap(tmp_path / rel)
        assert img.shape == (32, 32)
    # prompts are well-formed arithmetic
    p, a = sft[0]
    assert p.startswith("add ") and a.isdigit()


def test_synthetic_corpus_deterministic(tmp_path):
    a = build_synthetic_corpus(tmp_path / "a", n_text=5, n_captions=3, n_sft=4, seed=7)
    b = build_synthetic_corpus(tmp_path / "b", n_text=5, n_captions=3, n_sft=4, seed=7)
    assert (a["text"]).read_text() == (b["text"]).read_text()
    assert (a["captions"]).read_text() == (b["captions"]).read_text()
    img_a = read_pixmap(tmp_path / "a" / "images" / "cap_0000.pgm")
    img_b = read_pixmap(tmp_path / "b" / "images" / "cap_0000.pgm")
    assert np.array_equal(img_a, img_b)


# ----------------------------------------------------------------------
# batchers
# ----------------------------------------------------------------------


def test_pretrain_batcher_shapes_and_mask():
    docs = {"text": [[1, 2, 3, 4], [5, 6, 7]]}
    batcher = PretrainBatcher(docs, MixtureSpec(stage1={"text": 1.0}), 100, 2, 8)
    inputs, targets, mask = batcher.batch(0, np.random.default_rng(0))
    assert inputs.shape == targets.shape == mask.shape == (2, 8)
    assert np.all(mask == 1.0)
    assert np.array_equal(inputs[:, 1:], targets[:, :-1])


def test_pretrain_batcher_deterministic_per_seed():
    docs = {"text": [[1, 2, 3], [4, 5, 6, 7]]}
    batcher = PretrainBatcher(docs, MixtureSpec(stage1={"text": 1.0}), 100, 2, 6)
    a = batcher.batch(3, np.random.default_rng(42))
    b = batcher.batch(3, np.random.default_rng(42))
    assert np.array_equal(a[0], b[0])


def test_pretrain_batcher_rejects_empty_source():
    with pytest.raises(ValueError):
        PretrainBatcher({"text": []}, MixtureSpec(stage1={"text": 1.0}), 10, 1, 4)


def test_sft_batcher_masks_prompts():
    res = pack_sft([(list(range(3)), [9, 9]) for _ in range(6)], max_len=16, vocab=VOCAB)
    batcher = SFTBatcher(res)
    inputs, targets, mask = batcher.batch(4, np.random.default_rng(1))
    assert inputs.shape == (4, 15)
    assert mask.shape == (4, 15)
    # loss is only where the target is an answer token or EOS
    for row_t, row_m in zip(targets, mask):
        for tok, m in zip(row_t, row_m):
            if m == 1.0:
                assert tok in (9, VOCAB.eos)
