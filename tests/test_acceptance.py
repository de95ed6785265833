"""Acceptance gate: one test per shipped guarantee.

Each test prints a single verdict line (visible with pytest -s); the
assertions enforce the stated tolerances, so a FAIL line always comes
with a failed test.
"""

import inspect
import math
import time
from contextlib import contextmanager

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from reference import attention_scores
from test_layers import capture_attend_inputs
from test_numerics import check_op_gradient

from chamtoy.data import (
    MixtureSpec,
    PretrainBatcher,
    build_caption_sequence,
    build_synthetic_corpus,
    build_text_sequence,
    effective_weights,
    load_caption_corpus,
    load_text_corpus,
    pack_sft,
    prepare_image,
    stage_at,
)
from chamtoy.decoder import DecodePolicy, generate_fused, generate_stream, Finished
from chamtoy.evalkit import WinRateSummary, bootstrap_ci, majority_vote
from chamtoy.layers import apply_rope_at, attention, layer_norm, rms_norm, rope_tables, swiglu
from chamtoy.model import (
    ModelConfig,
    NormStrategy,
    block_forward,
    init_params,
    model_forward,
    preset,
)
from chamtoy.numerics import Tensor, embedding
from chamtoy.objective import total_loss
from chamtoy.tokenizer import (
    MixedVocab,
    TokenKind,
    decode_tokens,
    encode_image,
    read_pixmap,
    train_bpe,
    train_codebook,
)
from chamtoy.trainer import (
    LOG_FIELDS,
    DivergenceMonitor,
    OptimConfig,
    train_loop,
)


@contextmanager
def verdict(num: int, label: str):
    info = {}
    try:
        yield info
    except BaseException:
        print(f"criterion {num:02d} FAIL {label}")
        raise
    detail = f" ({info['detail']})" if "detail" in info else ""
    print(f"criterion {num:02d} PASS {label}{detail}")


# ----------------------------------------------------------------------
# 1. gradient integrity
# ----------------------------------------------------------------------


def _op_roster():
    def r(rng, *shape):
        return rng.normal(size=shape)

    rows = np.array([1.0, 0.0, 1.0])
    six_rows = np.array([1.0, 0.0, 1.0, 1.0, 1.0, 0.0])
    c, s = np.random.default_rng(0).normal(size=(2, 3, 4))  # apply_rope_at's tables
    cos, sin = rope_tables(4, 8)

    def attention_node(n_heads, n_kv_heads, seq, qk_norm):
        """x, wqkv and wo (and the two QK gains) into the attention node
        between its two products, head width 4."""
        d, hd = 4 * n_heads, 4
        inputs = [(1, seq, d), (d, d + 2 * n_kv_heads * hd), (d, d)] + [(hd,)] * (2 * qk_norm)
        return lambda rng: (
            lambda ts: attention(ts[0], ts[1], ts[2], n_heads, n_kv_heads, cos, sin, *ts[3:])[0],
            [r(rng, *shape) for shape in inputs],
        )

    return [
        lambda rng: (lambda ts: ts[0] + ts[1], [r(rng, 3, 4), r(rng, 4)]),
        lambda rng: (lambda ts: ts[0] * ts[1], [r(rng, 3, 4), r(rng, 4)]),
        lambda rng: (
            lambda ts: swiglu(ts[0], ts[1], ts[2], ts[3]),
            [r(rng, 2, 3, 4) * 2.0, r(rng, 4, 5), r(rng, 4, 5), r(rng, 5, 3)],
        ),
        lambda rng: (lambda ts: ts[0] @ ts[1], [r(rng, 2, 3, 4), r(rng, 4, 5)]),
        lambda rng: (lambda ts: ts[0].sum(axis=-1), [r(rng, 3, 4)]),
        lambda rng: (lambda ts: total_loss(ts[0], [2, 0, 3], rows, 0.1).total, [r(rng, 3, 4)]),
        lambda rng: (
            lambda ts: total_loss(ts[0], [3, 0, 2, 1, 1, 0], six_rows, 0.1).total,
            [r(rng, 2, 3, 4)],
        ),
        # QK norm on, four query heads over two key/value heads
        attention_node(4, 2, 5, qk_norm=True),
        lambda rng: (lambda ts: apply_rope_at(ts[0], c, s, 0), [r(rng, 2, 3, 4)]),
        # a one-position sequence: its query sees one key
        attention_node(2, 2, 1, qk_norm=True),
        lambda rng: (lambda ts: embedding(ts[0], np.array([[1, 3], [0, 0]])), [r(rng, 5, 4)]),
        lambda rng: (lambda ts: rms_norm(ts[0], ts[1]), [r(rng, 3, 4), r(rng, 4)]),
        lambda rng: (lambda ts: layer_norm(ts[0], ts[1]), [r(rng, 2, 3, 4), r(rng, 4)]),
        # QK norm off, grouped key/value heads
        attention_node(2, 1, 4, qk_norm=False),
        lambda rng: (
            lambda ts: swiglu(ts[0], ts[1], ts[2], ts[3]),
            [r(rng, 2, 4), r(rng, 4, 6), r(rng, 4, 6), r(rng, 6, 4)],
        ),
    ]


def _e2e_cfg(seed: int) -> ModelConfig:
    strategy = NormStrategy.PRE_NORM if seed % 2 else NormStrategy.POST_NORM_REORDER
    return ModelConfig(
        vocab_size=29, d_model=16, n_layers=2, n_heads=2, n_kv_heads=1,
        ffn_hidden=24, max_seq=16, qk_norm=True, norm_strategy=strategy,
    )


def test_criterion_01_gradient_integrity():
    with verdict(1, "gradient integrity") as info:
        start = time.monotonic()
        roster = _op_roster()
        for seed in range(100):
            rng = np.random.default_rng(seed)
            op, arrays = roster[seed % len(roster)](rng)
            check_op_gradient(op, arrays, seed_extra=seed)

        worst = 0.0
        eps = 1e-6
        for seed in range(100):
            rng = np.random.default_rng(10_000 + seed)
            cfg = _e2e_cfg(seed)
            params = init_params(cfg, seed=seed)
            ids = rng.integers(0, cfg.vocab_size, size=(2, 6))
            targets = rng.integers(0, cfg.vocab_size, size=(2, 6))
            direction = {k: rng.normal(size=p.shape) for k, p in params.items()}

            loss = total_loss(model_forward(params, cfg, ids)[0], targets).total
            loss.backward()
            analytic = sum(
                float((p.grad * direction[k]).sum()) for k, p in params.items()
            )

            def at(sign):
                shifted = {
                    k: Tensor(p.data + sign * eps * direction[k])
                    for k, p in params.items()
                }
                return float(total_loss(
                    model_forward(shifted, cfg, ids)[0], targets
                ).total.data)

            numeric = (at(+1.0) - at(-1.0)) / (2.0 * eps)
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1.0)
            worst = max(worst, rel)
            assert rel < 1e-3, f"seed {seed}: end-to-end relative error {rel}"

        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
        info["detail"] = f"200 seeds, worst e2e rel err {worst:.2e}, {elapsed:.1f}s"


# ----------------------------------------------------------------------
# 2. softmax shift invariance vs. z-loss shift sensitivity
# ----------------------------------------------------------------------


def test_criterion_02_shift_invariance():
    with verdict(2, "softmax/CE shift-invariant, z-loss shift-sensitive") as info:

        @settings(max_examples=300, deadline=None)
        @given(
            st.lists(st.integers(-25, 25), min_size=2, max_size=8),
            st.integers(-15, 15),
        )
        def prop(vals, c):
            z = np.array(vals, dtype=np.float64)
            base = Tensor(z[None, :], requires_grad=True)
            shifted = Tensor(z[None, :] + float(c), requires_grad=True)
            targets = np.array([0])
            # at z_coeff 0 the loss is the cross-entropy alone
            ce = [total_loss(t, targets, z_coeff=0.0) for t in (base, shifted)]
            assert ce[0].cross_entropy == ce[1].cross_entropy
            assert float(ce[0].total.data) == float(ce[1].total.data)

            # the gradient is softmax minus one-hot, from total_loss's shared
            # exponentials: the softmax that training uses
            for loss in ce:
                loss.total.backward()
            assert np.array_equal(base.grad, shifted.grad)

            if c != 0:
                log_z = float(np.logaddexp.reduce(z))
                assume(abs(2.0 * log_z + c) > 1e-6)
                assert total_loss(base, targets).z_loss != total_loss(shifted, targets).z_loss

        prop()
        info["detail"] = "300 hypothesis examples"


# ----------------------------------------------------------------------
# 3. z-loss hand value
# ----------------------------------------------------------------------


def test_criterion_03_z_loss_value():
    with verdict(3, "z-loss on zero logits, vocab 4, coeff 1e-5") as info:
        value = total_loss(Tensor(np.zeros((1, 4))), [0]).z_loss
        assert abs(value - 1.92181e-5) <= 1e-10
        assert value == 1e-5 * math.log(4.0) ** 2
        info["detail"] = f"value {value:.10e}"


# ----------------------------------------------------------------------
# 4. qk-norm logit bound
# ----------------------------------------------------------------------


def test_criterion_04_qk_logit_bound(monkeypatch):
    with verdict(4, "|attention logits| <= sqrt(head_dim)") as info:
        d_model, n_heads = 32, 2
        head_dim = d_model // n_heads
        cfg = ModelConfig(vocab_size=8, d_model=d_model, n_layers=1, n_heads=n_heads,
                          n_kv_heads=n_heads, max_seq=128, qk_norm=True)
        params = init_params(cfg)
        # the scores are read from the queries and keys the live block hands
        # to attend_forward
        seen = capture_attend_inputs(monkeypatch)
        worst, positions = 0.0, 0
        for seed in range(25):
            rng = np.random.default_rng(seed)
            magnitude = 10.0 ** rng.uniform(0.0, 4.0, size=(4, 100, 1))
            x = Tensor(rng.normal(size=(4, 100, d_model)) * magnitude)
            # [wq | wk | wv], drawn in that order
            params["layers.0.attn.wqkv"] = Tensor(np.concatenate(
                [rng.normal(size=(d_model, d_model)) for _ in range(3)], axis=1))
            block_forward(x, params, cfg, 0)
            assert len(seen) == 1, "the block did not attend"
            q, k = seen.pop()
            worst = max(worst, float(np.abs(attention_scores(q, k)).max()))
            positions += x.shape[0] * x.shape[1]
        assert positions >= 10_000
        assert worst <= math.sqrt(head_dim) + 1e-9
        info["detail"] = f"{positions} inputs up to 1e4, max |logit| {worst:.4f} <= {math.sqrt(head_dim):.4f}"


# ----------------------------------------------------------------------
# 5. residual increment bound under norm reordering
# ----------------------------------------------------------------------


def _increment_rms(cfg, params, x):
    _, info = block_forward(x, params, cfg, 0)
    def tok_rms(t):
        return np.sqrt((t.data ** 2).mean(axis=-1))
    return tok_rms(info["attn_increment"]), tok_rms(info["ffn_increment"])


def test_criterion_05_norm_reorder_bound():
    with verdict(5, "reordered norms bound increments; pre-norm does not") as info:
        kw = dict(
            vocab_size=31, d_model=32, n_layers=2, n_heads=2, n_kv_heads=2,
            ffn_hidden=48, max_seq=32, norm_eps=1e-12,
        )
        cfg_re = ModelConfig(norm_strategy=NormStrategy.POST_NORM_REORDER, **kw)
        cfg_pre = ModelConfig(norm_strategy=NormStrategy.PRE_NORM, **kw)
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(2, 12, kw["d_model"])) * 5.0)
        params = init_params(cfg_re, seed=5)

        # the residual stream is fed through sublayer output projections;
        # scaling those weights is how unbounded increments would arise
        scaled = dict(params)
        scaled["layers.0.attn.wo"] = Tensor(scaled["layers.0.attn.wo"].data * 100.0)
        scaled["layers.0.ffn.w_down"] = Tensor(scaled["layers.0.ffn.w_down"].data * 100.0)

        for p in (params, scaled):
            a, f = _increment_rms(cfg_re, p, x)
            assert np.all(np.abs(a - 1.0) <= 1e-6)
            assert np.all(np.abs(f - 1.0) <= 1e-6)

        a0, f0 = _increment_rms(cfg_pre, params, x)
        a1, f1 = _increment_rms(cfg_pre, scaled, x)
        attn_ratio = a1.mean() / a0.mean()
        ffn_ratio = f1.mean() / f0.mean()
        assert attn_ratio >= 10.0
        assert ffn_ratio >= 10.0
        info["detail"] = (
            f"reordered rms within 1e-6 of 1; pre-norm grew x{attn_ratio:.0f} (attn), "
            f"x{ffn_ratio:.0f} (ffn)"
        )


# ----------------------------------------------------------------------
# 6. divergence monitor operating characteristics
# ----------------------------------------------------------------------


def test_criterion_06_divergence_monitor():
    with verdict(6, "monitor: 0 false positives, growth caught within 200 steps") as info:
        start = time.monotonic()
        false_positives = 0
        for trace in range(1000):
            rng = np.random.default_rng(trace)
            base = 10.0 ** rng.uniform(-1.0, 1.0)
            monitor = DivergenceMonitor()
            for _ in range(300):
                monitor.update(base * float(np.exp(rng.normal(0.0, 0.05))))
            if monitor.diverged:
                false_positives += 1
        assert false_positives == 0

        latencies = []
        for trace in range(100):
            rng = np.random.default_rng(5000 + trace)
            base = 10.0 ** rng.uniform(-1.0, 1.0)
            noise = 0.0 if trace % 2 == 0 else 0.01
            monitor = DivergenceMonitor()
            for t in range(400):
                monitor.update(base * 1.01 ** t * float(np.exp(rng.normal(0.0, noise))))
                if monitor.diverged:
                    break
            assert monitor.diverged and monitor.diverged_at <= 200, (
                f"trace {trace}: diverged_at={monitor.diverged_at}"
            )
            latencies.append(monitor.diverged_at)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        info["detail"] = (
            f"0/1000 false positives, 100/100 caught, worst latency "
            f"{max(latencies)} steps, {elapsed:.1f}s"
        )


# ----------------------------------------------------------------------
# 7. decoder laws
# ----------------------------------------------------------------------

DEC_VOCAB = MixedVocab(n_text=260, n_image=8)
DEC_BLOCK = 4


def _decode_model(bias: float = 1.5):
    cfg = ModelConfig(
        vocab_size=DEC_VOCAB.total, d_model=16, n_layers=2, n_heads=2,
        n_kv_heads=1, ffn_hidden=24, max_seq=96,
    )
    params = init_params(cfg, seed=0)
    params["lm_head"].data[:, DEC_VOCAB.boi] += bias
    return params, cfg


def _scan_blocks(tokens, vocab, block_len):
    """Independent grammar check over a finished token stream."""
    in_image, count, blocks = False, 0, 0
    for t in tokens:
        kind = vocab.classify(t)
        if in_image:
            if count < block_len:
                assert kind is TokenKind.IMAGE, f"non-image token {t} inside block"
                count += 1
            else:
                assert t == vocab.eoi, f"block not closed by EOI (got {t})"
                in_image, blocks = False, blocks + 1
        else:
            assert kind is not TokenKind.IMAGE, f"image token {t} outside block"
            assert t != vocab.eoi, "EOI without opening BOI"
            if t == vocab.boi:
                in_image, count = True, 0
    assert not in_image, "stream ended inside an image block"
    return blocks


def test_criterion_07_decoder_laws():
    with verdict(7, "block grammar, streaming == fused, kv cache == recompute") as info:
        params, cfg = _decode_model()
        with_blocks = 0
        for seed in range(100):
            policy = DecodePolicy(
                block_len=DEC_BLOCK, mode="unconstrained",
                max_new_tokens=24, temperature=1.0, seed=seed,
            )
            prompt = [DEC_VOCAB.bos]
            stream_fin = None
            for event in generate_stream(params, cfg, prompt, policy, DEC_VOCAB):
                if isinstance(event, Finished):
                    stream_fin = event
            fused_fin = generate_fused(params, cfg, prompt, policy, DEC_VOCAB)
            assert stream_fin.tokens == fused_fin.tokens
            assert stream_fin.reason == fused_fin.reason
            with_blocks += _scan_blocks(stream_fin.tokens[1:], DEC_VOCAB, DEC_BLOCK) > 0
        assert with_blocks >= 50, f"only {with_blocks} sequences exercised image blocks"

        worst = 0.0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            ids = rng.integers(0, DEC_VOCAB.n_text, size=12)
            full, _ = model_forward(params, cfg, ids[None, :])
            kv = None
            cached_rows = []
            for tok in ids:
                step_logits, aux = model_forward(params, cfg, np.array([[tok]]), past_kv=kv)
                kv = aux["kv"]
                cached_rows.append(step_logits.data[0, 0])
            diff = np.abs(full.data[0] - np.stack(cached_rows)).max()
            worst = max(worst, float(diff))
        assert worst <= 1e-8
        info["detail"] = (
            f"100 seeds bit-exact, {with_blocks} with image blocks, "
            f"kv max drift {worst:.1e}"
        )


# ----------------------------------------------------------------------
# 8. tokenizer laws
# ----------------------------------------------------------------------


def _random_strings(n: int, rng) -> list[str]:
    pool = np.concatenate([
        np.arange(0x20, 0x7F),
        np.arange(0xA1, 0x250),
        np.arange(0x391, 0x3CA),
        np.arange(0x4E00, 0x4E80),
        np.arange(0x1F600, 0x1F650),
    ])
    out = []
    for _ in range(n):
        length = int(rng.integers(0, 41))
        out.append("".join(chr(int(c)) for c in pool[rng.integers(0, len(pool), length)]))
    return out


def test_criterion_08_tokenizer_laws():
    with verdict(8, "byte-pair round trip, quantizer idempotence, patch-grid count") as info:
        corpus = [
            "the quick brown fox", "pack my box with five dozen jugs",
            "aaaa bbbb aaaa", "mixed 123 and symbols !?", "sphinx of black quartz",
        ] * 4
        tok = train_bpe(corpus, 300)
        rng = np.random.default_rng(17)
        for s in _random_strings(10_000, rng):
            assert tok.decode(tok.encode(s)) == s

        imgs = [rng.integers(0, 256, size=(16, 16)).astype(np.uint8) for _ in range(12)]
        book, history = train_codebook(imgs, n_codes=12, patch=4, iters=8, seed=0)
        assert all(later - earlier <= 1e-12 for earlier, later in zip(history, history[1:]))
        for _ in range(50):
            img = rng.integers(0, 256, size=(16, 16)).astype(np.uint8)
            ids1 = encode_image(img, book)
            recon = decode_tokens(ids1, book, 16, 16)
            assert np.array_equal(encode_image(recon, book), ids1)

        for h, w, p in ((16, 16, 4), (32, 32, 4), (24, 16, 8)):
            book2, _ = train_codebook(
                [rng.integers(0, 256, size=(h, w)).astype(np.uint8)], 4, p, iters=2, seed=0
            )
            assert book2.tokens_per_image(h, w) == (h // p) * (w // p)
            ids = encode_image(rng.integers(0, 256, size=(h, w)).astype(np.uint8), book2)
            assert len(ids) == (h // p) * (w // p)
        info["detail"] = "10000 round trips, 50 idempotent quantizations, mse monotone"


# ----------------------------------------------------------------------
# 9. mixture and packing
# ----------------------------------------------------------------------


def test_criterion_09_mixture_and_packing():
    with verdict(9, "stage switch, halving rule, rotation rate, masked prompt grads") as info:
        for total in (5, 10, 13, 100, 640, 999):
            boundary = (total * 4) // 5
            assert boundary == math.floor(0.8 * total)
            if boundary > 0:
                assert stage_at(boundary - 1, total) == 1
            assert stage_at(boundary, total) == 2

        spec = MixtureSpec(stage1={"A": 1.0}, stage2_extra={"B": 1.0})
        stage2 = effective_weights(spec, 2)
        assert abs(stage2["A"] - 1.0 / 3.0) < 1e-12
        assert abs(stage2["B"] - 2.0 / 3.0) < 1e-12

        vocab = MixedVocab(n_text=260, n_image=4)
        rng = np.random.default_rng(3)
        image_first = sum(
            build_caption_sequence([5, 6], [1, 2], vocab, rng)[1] == "image-first"
            for _ in range(10_000)
        )
        rate = image_first / 10_000.0
        assert abs(rate - 0.5) <= 0.01

        examples = [([1, 2, 3], [4, 5]), ([6], [7, 8, 9]), ([10, 11], [12])]
        packed = pack_sft(examples, max_len=16, vocab=vocab)
        rows, masks = packed.sequences, packed.loss_masks
        cfg = ModelConfig(vocab_size=vocab.total, d_model=16, n_layers=2,
                          n_heads=2, n_kv_heads=2, ffn_hidden=24, max_seq=16)
        params = init_params(cfg, seed=0)
        logits, _ = model_forward(params, cfg, rows[:, :-1])
        loss = total_loss(logits, rows[:, 1:], masks[:, 1:])
        loss.total.backward()
        off = masks[:, 1:] == 0
        assert np.all(logits.grad[off] == 0.0)
        assert np.any(logits.grad[~off] != 0.0)
        info["detail"] = f"rotation rate {rate:.3f}, prompt grads exactly zero"


# ----------------------------------------------------------------------
# 10. evaluation arithmetic
# ----------------------------------------------------------------------

PUBLISHED_BLOCKS = [
    # wins, ties, losses, printed overall win percentage
    (435, 362, 251, 58.8),
    (375, 331, 342, 51.6),
    (561, 327, 160, 69.1),
    (482, 329, 237, 61.7),
    (194, 145, 102, 60.4),
]


def test_criterion_10_evaluation_arithmetic():
    with verdict(10, "printed win rates, maj@1, bootstrap defaults") as info:
        worst = 0.0
        for wins, ties, losses, printed in PUBLISHED_BLOCKS:
            got = 100.0 * WinRateSummary(wins, ties, losses).rate
            worst = max(worst, abs(got - printed))
            assert abs(got - printed) <= 0.05, f"{got} vs printed {printed}"

        # maj@1 degenerates to the single greedy sample, which must be stable
        assert majority_vote(["b"]) == "b"
        assert majority_vote(["a", "b", "a"]) == "a"
        assert majority_vote(["x", "y"]) == "x"
        params, cfg = _decode_model(bias=0.0)
        policy = DecodePolicy(block_len=DEC_BLOCK, mode="text-only",
                              max_new_tokens=8, temperature=0.0, seed=0)
        first = generate_fused(params, cfg, [DEC_VOCAB.bos], policy, DEC_VOCAB)
        second = generate_fused(params, cfg, [DEC_VOCAB.bos], policy, DEC_VOCAB)
        assert first.tokens == second.tokens
        assert majority_vote([first.tokens]) == first.tokens

        assert inspect.signature(bootstrap_ci).parameters["n_boot"].default == 1000
        res = bootstrap_ci(list(np.random.default_rng(0).normal(size=40)), np.mean)
        assert res.n_used == 1000 and res.low <= res.high
        info["detail"] = f"max win-rate deviation {worst:.3f} pct points"


# ----------------------------------------------------------------------
# 11. learnability smoke test
# ----------------------------------------------------------------------


def _toy_corpus(tmp_path):
    build_synthetic_corpus(tmp_path, n_text=80, n_captions=40, n_sft=10,
                           image_size=32, seed=0)
    texts = load_text_corpus(tmp_path / "text.jsonl")
    captions = load_caption_corpus(tmp_path / "captions.jsonl")
    tok = train_bpe(texts + [c for c, _ in captions], 300)
    images = [prepare_image(read_pixmap(tmp_path / rel), 32) for _, rel in captions]
    book, _ = train_codebook(images, n_codes=64, patch=4, iters=5, seed=0)
    vocab = MixedVocab(n_text=tok.vocab_size, n_image=book.n_codes)

    rng = np.random.default_rng(0)
    docs = {
        "text": [build_text_sequence(tok.encode(t), vocab) for t in texts],
        "captions": [
            build_caption_sequence(tok.encode(c), encode_image(img, book), vocab, rng)[0]
            for (c, _), img in zip(captions, images)
        ],
    }
    return docs, vocab


def test_criterion_11_learnability(tmp_path):
    with verdict(11, "toy pre-training halves its step-10 loss") as info:
        start = time.monotonic()
        docs, vocab = _toy_corpus(tmp_path)
        spec = MixtureSpec(stage1={"text": 0.3, "captions": 0.7},
                           stage2_extra={"captions": 0.5})
        total = 300
        batcher = PretrainBatcher(docs, spec, total, batch_size=8, seq_len=64)
        cfg = preset("toy", vocab_size=vocab.total)
        opt = OptimConfig(lr=3e-3, warmup_steps=10, total_steps=total)
        result = train_loop(init_params(cfg, seed=1), cfg, opt, batcher.batch, seed=1)
        losses = [r["ce"] + r["z_loss"] for r in result.rows]
        assert result.final_step == total
        assert losses[-1] < 0.5 * losses[10], (
            f"final {losses[-1]:.3f} vs step-10 {losses[10]:.3f}"
        )

        cfg34 = preset("34b-recipe", vocab_size=vocab.total, d_model=64,
                       n_layers=2, n_heads=4, ffn_hidden=128, max_seq=256)
        b34 = PretrainBatcher(docs, spec, 60, batch_size=4, seq_len=48)
        r34 = train_loop(
            init_params(cfg34, seed=2), cfg34,
            OptimConfig(lr=1e-3, warmup_steps=10, total_steps=60),
            b34.batch, seed=2,
        )
        assert r34.monitor.diverged is False

        def make_cfg(qk_norm):
            return preset("toy", vocab_size=vocab.total, qk_norm=qk_norm)

        pair = {}
        for value in (True, False):
            cfg_ab = make_cfg(qk_norm=value)
            pair["on" if value else "off"] = train_loop(
                init_params(cfg_ab, seed=3), cfg_ab,
                OptimConfig(lr=1e-3, warmup_steps=5, total_steps=20),
                batcher.batch, seed=3, end_step=20,
            )
        assert set(pair) == {"on", "off"}
        for run in pair.values():
            assert [r["step"] for r in run.rows] == list(range(20))
            assert all(set(LOG_FIELDS) <= set(r) for r in run.rows)

        elapsed = time.monotonic() - start
        assert elapsed < 300.0
        info["detail"] = (
            f"step-10 loss {losses[10]:.2f} -> final {losses[-1]:.2f}, "
            f"34b recipe stable, paired ablation traces, {elapsed:.0f}s"
        )
