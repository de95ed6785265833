import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from chamtoy.tokenizer import (
    BPETokenizer,
    Codebook,
    MixedVocab,
    TokenKind,
    decode_tokens,
    encode_image,
    extract_patches,
    read_pixmap,
    train_bpe,
    train_codebook,
    write_pixmap,
)
from chamtoy.tokenizer.bpe import MAX_VOCAB
from chamtoy.tokenizer.codebook import to_uint8
from chamtoy.tokenizer.vocab import SPECIALS


# ----------------------------------------------------------------------
# byte-level BPE
# ----------------------------------------------------------------------


def test_bpe_hand_traced_merges():
    # "ababab": (a,b) occurs 3 times -> merge 256; then (256,256) twice
    tok = train_bpe(["ababab"], vocab_size=1000)
    assert tok.merges == [(97, 98), (256, 256)]
    assert tok.encode("ababab") == [257, 256]
    assert tok.encode("abab") == [257]
    assert tok.encode("ba") == [98, 97]


def test_bpe_base_bytes_without_merges():
    tok = BPETokenizer([])
    assert tok.vocab_size == 256
    assert tok.encode("hi") == [104, 105]
    assert tok.decode([104, 105]) == "hi"


def test_bpe_vocab_floor():
    with pytest.raises(ValueError):
        train_bpe(["abc"], vocab_size=255)


def test_bpe_merges_compress_repetitive_text():
    corpus = ["the cat sat on the mat " * 50]
    tok = train_bpe(corpus, vocab_size=300)
    ids = tok.encode(corpus[0])
    assert len(ids) < len(corpus[0].encode("utf-8")) / 2
    assert tok.decode(ids) == corpus[0]


def test_bpe_handles_multibyte_characters():
    text = "naïve café 日本語 🙂 mixed"
    tok = train_bpe([text * 3], vocab_size=280)
    assert tok.decode(tok.encode(text)) == text


def test_bpe_training_is_deterministic():
    corpus = ["banana bandana " * 20]
    a = train_bpe(corpus, vocab_size=290)
    b = train_bpe(corpus, vocab_size=290)
    assert a.merges == b.merges


def test_bpe_decode_rejects_unknown_id():
    tok = train_bpe(["xyxyxy"], vocab_size=260)
    with pytest.raises(ValueError):
        tok.decode([tok.vocab_size])


def test_bpe_save_load_roundtrip(tmp_path):
    tok = train_bpe(["hello hello hello world"], vocab_size=300)
    f = tmp_path / "tok.txt"
    tok.save(f)
    lines = f.read_text().splitlines()
    assert lines[0] == "bpe-v1"
    rank, left, right = lines[1].split(" ")
    assert rank == "0"
    loaded = BPETokenizer.load(f)
    assert loaded.merges == tok.merges
    assert loaded.encode("hello world") == tok.encode("hello world")


def test_bpe_load_rejects_garbage(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("not a tokenizer\n")
    with pytest.raises(ValueError):
        BPETokenizer.load(f)
    f.write_text("bpe-v1\n0 97 98\n2 256 99\n")
    with pytest.raises(ValueError, match="merge ranks out of order at line '2'"):
        BPETokenizer.load(f)
    f.write_text("bpe-v1\n0 97 98\n1 97 98\n")
    with pytest.raises(ValueError, match="^duplicate merge pair$"):
        BPETokenizer.load(f)
    # id 257 is the second merge's own, so the first cannot use it
    f.write_text("bpe-v1\n0 97 257\n1 97 98\n")
    with pytest.raises(ValueError, match="^merge references an id not yet defined$"):
        BPETokenizer.load(f)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=80))
def test_bpe_roundtrip_property(text):
    tok = _shared_tokenizer()
    ids = tok.encode(text)
    assert tok.decode(ids) == text
    assert ids == reference.bpe_encode(tok.merges, text)


# few distinct characters, one- to four-byte, so pairs repeat and tie often;
# any other character UTF-8 can encode (a lone surrogate cannot, see below)
_CHARS = (st.sampled_from(["a", "b", " ", "\u00e9", "\u65e5", "\U0001f642"])
          | st.characters(codec="utf-8"))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.text(_CHARS, max_size=40), max_size=6), st.integers(256, 330))
def test_bpe_matches_pair_recount_reference(texts, vocab_size):
    tok = train_bpe(texts, vocab_size)
    merges = reference.bpe_train(texts, vocab_size)
    assert tok.merges == merges
    for text in texts + ["aaaaa", "a" * 9, ""]:
        assert tok.encode(text) == reference.bpe_encode(merges, text)


def test_bpe_rejects_lone_surrogates():
    with pytest.raises(ValueError, match="surrogates not allowed"):
        train_bpe(["\ud800"], 256)
    with pytest.raises(ValueError, match="surrogates not allowed"):
        train_bpe(["abab"], 257).encode("ab\ud800")


def test_bpe_matches_reference_on_a_word_corpus():
    rng = np.random.default_rng(0)
    words = ["the", "cat", "sat", "on", "a", "mat", "caf\u00e9", "\u65e5\u672c"]
    texts = [" ".join(rng.choice(words, size=8)) for _ in range(400)]
    tok = train_bpe(texts, vocab_size=320)
    merges = reference.bpe_train(texts, vocab_size=320)
    assert tok.merges == merges and len(merges) == 64
    for text in texts[:40]:
        assert tok.encode(text) == reference.bpe_encode(merges, text)


def test_bpe_rejects_vocab_beyond_code_points():
    with pytest.raises(ValueError, match=str(MAX_VOCAB)):
        train_bpe(["abab"], vocab_size=MAX_VOCAB + 1)
    with pytest.raises(ValueError, match=str(MAX_VOCAB)):
        BPETokenizer([(0, 0)] * (MAX_VOCAB - 255))
    assert train_bpe(["abab"], vocab_size=MAX_VOCAB).merges == [(97, 98)]


def test_bpe_ids_in_the_surrogate_range():
    # every byte pair but "ab" and "ba", then "ab" itself as id 0xD805
    filler = [(a, b) for a in range(256) for b in range(256) if (a, b) not in {(97, 98), (98, 97)}]
    n_filler = 0xD805 - 256
    tok = BPETokenizer(filler[:n_filler] + [(97, 98)])
    assert tok.encode("abab") == [0xD805, 0xD805]
    assert tok.decode([0xD805, 97]) == "aba"


_TOK_CACHE = {}


def _shared_tokenizer():
    if "tok" not in _TOK_CACHE:
        _TOK_CACHE["tok"] = train_bpe(
            ["the quick brown fox jumps over the lazy dog " * 10], vocab_size=300
        )
    return _TOK_CACHE["tok"]


# ----------------------------------------------------------------------
# patch codebook
# ----------------------------------------------------------------------


def make_images(n, h=16, w=16, channels=1, seed=0):
    rng = np.random.default_rng(seed)
    shape = (n, h, w) if channels == 1 else (n, h, w, channels)
    return list(rng.integers(0, 256, size=shape).astype(np.uint8))


def test_patch_extraction_layout():
    img = np.arange(16, dtype=np.uint8).reshape(4, 4)
    rows = extract_patches(img, 2)
    assert rows.shape == (4, 4)
    # top-left patch is pixels (0,0),(0,1),(1,0),(1,1)
    assert np.allclose(rows[0] * 255.0, [0, 1, 4, 5])


def test_patch_extraction_rejects_bad_size():
    with pytest.raises(ValueError):
        extract_patches(np.zeros((5, 4), dtype=np.uint8), 2)
    with pytest.raises(ValueError, match="^expected a 2-d or 3-d image array$"):
        extract_patches(np.zeros((1, 4, 4, 1), dtype=np.uint8), 2)
    with pytest.raises(ValueError, match=r"^float images must lie in \[0, 1\]$"):
        extract_patches(np.full((4, 4), 1.5), 2)


@pytest.mark.parametrize("patch", [0, -2])
def test_codebook_rejects_non_positive_patch(patch):
    with pytest.raises(ValueError, match=f"patch must be positive, got {patch}"):
        train_codebook(make_images(1, seed=1), n_codes=8, patch=patch, iters=1)


def test_kmeans_mse_monotone_nonincreasing():
    imgs = make_images(4, seed=1)
    _, history = train_codebook(imgs, n_codes=16, patch=4, iters=12, seed=0)
    assert len(history) == 12
    diffs = np.diff(history)
    assert np.all(diffs <= 1e-12), history


@pytest.mark.parametrize("n_codes, iters", [(0, 4), (8, 0)])
def test_kmeans_rejects_empty_codebook_or_no_iterations(n_codes, iters):
    with pytest.raises(ValueError):
        train_codebook(make_images(1, seed=1), n_codes=n_codes, patch=4, iters=iters)


def test_kmeans_improves_over_first_iteration():
    imgs = make_images(4, seed=2)
    _, history = train_codebook(imgs, n_codes=16, patch=4, iters=12, seed=0)
    assert history[-1] < history[0]


def test_quantization_idempotent():
    imgs = make_images(3, seed=3)
    book, _ = train_codebook(imgs, n_codes=12, patch=4, iters=8, seed=0)
    ids1 = encode_image(imgs[0], book)
    recon1 = decode_tokens(ids1, book, 16, 16)
    ids2 = encode_image(recon1, book)
    recon2 = decode_tokens(ids2, book, 16, 16)
    assert np.array_equal(recon1, recon2)
    ids3 = encode_image(recon2, book)
    assert np.array_equal(ids2, ids3)


def test_token_count_matches_patch_grid():
    imgs = make_images(2, h=32, w=32, seed=4)
    book, _ = train_codebook(imgs, n_codes=8, patch=4, iters=4, seed=0)
    ids = encode_image(imgs[0], book)
    assert ids.shape == ((32 // 4) ** 2,)
    assert book.tokens_per_image(32, 32) == 64


def test_codebook_pads_when_patches_repeat():
    # a constant image has one distinct patch; the codebook must still
    # come back with the requested number of rows
    imgs = [np.zeros((8, 8), dtype=np.uint8)]
    book, history = train_codebook(imgs, n_codes=4, patch=4, iters=3, seed=0)
    assert book.n_codes == 4
    assert np.isfinite(book.codes).all()
    assert history[-1] == pytest.approx(0.0, abs=1e-12)


def test_codebook_rejects_no_images():
    with pytest.raises(ValueError, match="no images"):
        train_codebook([], n_codes=4, patch=4)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_codebook_matches_mask_loop_reference(data):
    # images tiled from a small bank of patches: duplicate-heavy, with fewer
    # distinct patches than codes (the jitter path) whenever the bank is small
    patch = data.draw(st.sampled_from([1, 2, 4]), label="patch")
    channels = data.draw(st.sampled_from([1, 3]), label="channels")
    bank = data.draw(st.integers(1, 30), label="distinct patches")
    n_codes = data.draw(st.integers(1, 24), label="n_codes")
    iters = data.draw(st.integers(1, 5), label="iters")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    rng = np.random.default_rng(seed)
    tiles = rng.integers(0, 256, size=(bank, patch, patch, channels)).astype(np.uint8)
    grid = 8 // patch
    images = []
    for _ in range(data.draw(st.integers(1, 3), label="images")):
        pick = tiles[rng.integers(0, bank, size=(grid, grid))]  # [gh, gw, p, p, c]
        img = pick.transpose(0, 2, 1, 3, 4).reshape(8, 8, channels)
        images.append(img[:, :, 0] if channels == 1 else img)
    book, history = train_codebook(images, n_codes=n_codes, patch=patch, iters=iters, seed=seed)
    codes, ref_history = reference.lloyd(images, n_codes, patch, iters, seed)
    assert np.array_equal(book.codes, codes)
    assert history == ref_history


def test_codebook_matches_reference_when_clusters_go_empty():
    # 32 distinct patches for 40 codes: the jittered spares lose every
    # member to the patches they copy, iteration after iteration
    imgs = make_images(2, seed=11)
    book, history = train_codebook(imgs, n_codes=40, patch=4, iters=6, seed=3)
    codes, ref_history = reference.lloyd(imgs, 40, 4, 6, 3)
    used = np.unique(np.concatenate([encode_image(img, book) for img in imgs]))
    assert len(used) == 32
    assert np.array_equal(book.codes, codes) and history == ref_history


def test_codebook_rgb_images():
    imgs = make_images(2, channels=3, seed=5)
    book, _ = train_codebook(imgs, n_codes=8, patch=4, iters=4, seed=0)
    assert book.channels == 3
    ids = encode_image(imgs[0], book)
    recon = decode_tokens(ids, book, 16, 16)
    assert recon.shape == (16, 16, 3)


def test_codebook_save_load_roundtrip(tmp_path):
    imgs = make_images(2, seed=6)
    book, _ = train_codebook(imgs, n_codes=8, patch=4, iters=4, seed=0)
    f = tmp_path / "book.bin"
    book.save(f)
    loaded = Codebook.load(f)
    assert loaded.patch == book.patch and loaded.channels == book.channels
    assert np.array_equal(loaded.codes, book.codes)


def test_codebook_load_rejects_corrupt(tmp_path):
    f = tmp_path / "bad.bin"
    f.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(ValueError):
        Codebook.load(f)
    book, _ = train_codebook(make_images(2, seed=6), n_codes=8, patch=4, iters=4, seed=0)
    book.save(f)
    f.write_bytes(f.read_bytes()[:-8])
    with pytest.raises(ValueError, match="codebook file truncated"):
        Codebook.load(f)


def test_decode_tokens_validates_ids():
    imgs = make_images(1, seed=7)
    book, _ = train_codebook(imgs, n_codes=8, patch=4, iters=2, seed=0)
    with pytest.raises(ValueError):
        decode_tokens(np.zeros(5, dtype=int), book, 16, 16)
    with pytest.raises(ValueError):
        decode_tokens(np.full(16, 99), book, 16, 16)
    # make_images(1) draws one-channel images, so the codebook has one channel
    with pytest.raises(ValueError, match="^image channel count does not match codebook$"):
        encode_image(np.zeros((16, 16, 3), dtype=np.uint8), book)


# ----------------------------------------------------------------------
# shared vocabulary
# ----------------------------------------------------------------------


def test_vocab_layout_is_contiguous():
    v = MixedVocab(n_text=300, n_image=64)
    assert v.total == 300 + 64 + 6
    assert (v.bos, v.eos, v.pad, v.sep, v.boi, v.eoi) == tuple(range(364, 370))
    assert SPECIALS == ("BOS", "EOS", "PAD", "SEP", "BOI", "EOI")


def test_vocab_classification_boundaries():
    v = MixedVocab(n_text=300, n_image=64)
    assert v.classify(0) is TokenKind.TEXT
    assert v.classify(299) is TokenKind.TEXT
    assert v.classify(300) is TokenKind.IMAGE
    assert v.classify(363) is TokenKind.IMAGE
    assert v.classify(364) is TokenKind.SPECIAL
    with pytest.raises(ValueError):
        v.classify(v.total)
    with pytest.raises(ValueError):
        v.classify(-1)


def test_vocab_image_mapping_roundtrip():
    v = MixedVocab(n_text=280, n_image=16)
    for code in (0, 7, 15):
        assert v.global_to_image(v.image_to_global(code)) == code
    with pytest.raises(ValueError):
        v.image_to_global(16)
    with pytest.raises(ValueError):
        v.global_to_image(0)


def test_vocab_floor_on_text_size():
    with pytest.raises(ValueError):
        MixedVocab(n_text=100, n_image=16)
    with pytest.raises(ValueError, match="^image vocabulary must be non-empty$"):
        MixedVocab(n_text=256, n_image=0)


# ----------------------------------------------------------------------
# pixmap files
# ----------------------------------------------------------------------


def test_pgm_roundtrip(tmp_path):
    img = np.random.default_rng(8).integers(0, 256, size=(10, 7)).astype(np.uint8)
    f = tmp_path / "img.pgm"
    write_pixmap(f, img)
    assert np.array_equal(read_pixmap(f), img)


def test_ppm_roundtrip(tmp_path):
    img = np.random.default_rng(9).integers(0, 256, size=(6, 11, 3)).astype(np.uint8)
    f = tmp_path / "img.ppm"
    write_pixmap(f, img)
    assert np.array_equal(read_pixmap(f), img)


def test_pixmap_header_comments(tmp_path):
    f = tmp_path / "c.pgm"
    f.write_bytes(b"P5\n# a comment\n2 2\n# another\n255\n\x01\x02\x03\x04")
    img = read_pixmap(f)
    assert np.array_equal(img, [[1, 2], [3, 4]])


def test_pixmap_rejects_wrong_maxval(tmp_path):
    f = tmp_path / "m.pgm"
    f.write_bytes(b"P5\n2 2\n128\n\x01\x02\x03\x04")
    with pytest.raises(ValueError):
        read_pixmap(f)


def test_pixmap_rejects_bad_magic(tmp_path):
    f = tmp_path / "b.pgm"
    f.write_bytes(b"P2\n2 2\n255\n1 2 3 4\n")
    with pytest.raises(ValueError, match="unsupported pixmap magic b'P2'"):
        read_pixmap(f)


def test_pixmap_rejects_truncation(tmp_path):
    f = tmp_path / "t.pgm"
    f.write_bytes(b"P5\n4 4\n255\n\x01\x02")
    with pytest.raises(ValueError):
        read_pixmap(f)
    f.write_bytes(b"P5\n4 4\n")
    with pytest.raises(ValueError, match="^pixmap header ended unexpectedly$"):
        read_pixmap(f)


def test_pixmap_write_requires_uint8(tmp_path):
    with pytest.raises(ValueError):
        write_pixmap(tmp_path / "f.pgm", np.zeros((4, 4)))
    with pytest.raises(ValueError, match=r"^cannot write array of shape \(4, 4, 2\) as a pixmap$"):
        write_pixmap(tmp_path / "f.pgm", np.zeros((4, 4, 2), dtype=np.uint8))


def test_uint8_conversion_rounds():
    assert to_uint8(np.array([0.0, 0.5, 1.0])).tolist() == [0, 128, 255]
