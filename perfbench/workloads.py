"""The two benchmark workloads, each a closed loop with a single caller.

Every workload calls the library's public functions through their module
attributes, in the order ``chamtoy.cli`` calls them, so that the tracer
can wrap them from outside.  A workload is set up from its seed, then runs
units of the same work: one fit-encode-train-eval round (``train``) or one
round of the same requests (``generate``).  Each unit returns its timed
seconds, the work it completed, its latency samples and the result of its
correctness checks.
"""

from __future__ import annotations

import csv
import gc
import math
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from chamtoy import cli, data, decoder, evalkit, layers, model, numerics, tokenizer, trainer
from chamtoy.tokenizer.bpe import BPETokenizer

from stats import median, tail
from tracing import NullTracer

IMAGE_SIZE = 32
NULL = NullTracer()


@dataclass
class Unit:
    seconds: float  # timed region
    work: int  # items counted by throughput_per_s
    op_ms: list[float]  # latency samples of the workload's operation
    attempted: int
    # (name, seconds, work, op_ms) of each separately timed part; parts of
    # one name do the same work in every unit, sample for sample
    parts: list[tuple[str, float, int, list[float]]]
    failures: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def run_config(values: dict) -> cli.RunConfig:
    """CLI defaults plus --set overrides, exactly as make_run_config builds them."""
    run = cli.RunConfig(values={k: d for k, (_, d) in cli.SCHEMA.items()})
    for key, raw in values.items():
        run.set(key, str(raw))
    return run


def fit_tokenizer(corpus_dir: Path, run: cli.RunConfig, out_dir: Path | None = None):
    """The work of `chamtoy tokenizer-train`: BPE, then the image codebook."""
    texts = data.load_text_corpus(corpus_dir / "text.jsonl")
    captions = data.load_caption_corpus(corpus_dir / "captions.jsonl")
    tok = tokenizer.train_bpe(texts + [c for c, _ in captions], run["tokenizer.vocab_size"])
    images = [
        data.prepare_image(tokenizer.read_pixmap(corpus_dir / rel), IMAGE_SIZE,
                           mode=run["data.image_fit"])
        for _, rel in captions
    ]
    book, _ = tokenizer.train_codebook(
        images, n_codes=run["tokenizer.image_codes"], patch=run["tokenizer.patch"],
        iters=run["tokenizer.kmeans_iters"], seed=run["train.seed"],
    )
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        tok.save(out_dir / "tokenizer.txt")
        book.save(out_dir / "codebook.bin")
    return tok, book, tokenizer.MixedVocab(n_text=tok.vocab_size, n_image=book.n_codes)


def encode_docs(corpus_dir: Path, run, tok, book, vocab, rng, keep=None):
    """The work of the CLI's document builder, one document at a time.

    keep collects (text, ids) and (image, codes) pairs for the round-trip
    checks.
    """
    docs: dict[str, list[list[int]]] = {"text": [], "captions": []}
    for text in data.load_text_corpus(corpus_dir / "text.jsonl"):
        ids = tok.encode(text)
        docs["text"].append(data.build_text_sequence(ids, vocab))
        if keep is not None:
            keep["texts"].append((text, ids))
    for caption, rel in data.load_caption_corpus(corpus_dir / "captions.jsonl"):
        img = data.prepare_image(tokenizer.read_pixmap(corpus_dir / rel), IMAGE_SIZE,
                                 mode=run["data.image_fit"])
        ids = tok.encode(caption)
        codes = tokenizer.encode_image(img, book)
        seq, _ = data.build_caption_sequence(ids, codes, vocab, rng)
        docs["captions"].append(seq)
        if keep is not None:
            keep["texts"].append((caption, ids))
            keep["images"].append((img, codes))
    return docs


class Workload:
    name = ""
    op = ""  # what one latency sample times
    op_span = ""  # root span of one op in a traced unit
    round_span = ""  # span of a whole unit, where ops are not whole units
    op_unit = ""  # what attempted and failed count
    aliases: dict[str, tuple[str, str]] = {}  # generic metric -> (own name, unit)

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, work: Path) -> None:
        raise NotImplementedError

    def unit(self, r: int, tracer=NULL) -> Unit:
        raise NotImplementedError

    def memory_peak(self) -> int:
        """Peak bytes traced while memory_slice runs under tracemalloc."""
        tracemalloc.start()
        try:
            self.memory_slice()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def memory_slice(self) -> None:
        """The part of a unit that reaches the unit's peak memory."""
        raise NotImplementedError

    def final_checks(self) -> list[str]:
        """Checks that run once, outside every timed region."""
        return []

    def report(self, units) -> list[tuple[str, float, str]]:
        """The workload's own metrics, by their descriptive names."""
        return []


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------


class Train(Workload):
    """`chamtoy tokenizer-train`, `chamtoy train` and `chamtoy eval` in turn.

    One unit fits the tokenizer on the corpus, encodes every document as
    the CLI's document builder does and packs the SFT pairs, trains the
    quickstart's model over the stage boundary and saves it, then runs the
    evaluation arithmetic.  Training is most of a unit; the other phases
    keep the tokenizer, data and evalkit layers on the measured path.
    """

    name = "train"
    op = "train step"
    op_span = "train.step"
    round_span = "train.round"
    op_unit = "train steps, documents and phases"
    aliases = {
        "throughput_per_s": ("train_tokens_per_s", "tokens/s"),
        "op_ms.p50": ("train_step_ms.p50", "ms"),
        "op_ms.tail": ("train_step_ms.tail", "ms"),
        "peak_mb": ("train_peak_mb", "MB"),
    }
    STEPS = 40  # stage 2 starts at step 32
    MEMORY_STEPS = 4  # the training peak repeats every step from the second on
    N_TEXT, N_CAPTIONS, N_SFT = 600, 120, 120
    N_JUDGMENTS, N_ITEMS, N_ANNOTATORS = 400, 80, 3
    BOOTSTRAP = 1000

    def setup(self, work: Path) -> None:
        self.work = work
        self.run = run_config({
            "train.seed": self.seed, "train.steps": self.STEPS, "optim.lr": 1e-3,
            "optim.warmup_steps": self.STEPS // 4,
        })
        self.corpus = work / "corpus"
        data.build_synthetic_corpus(self.corpus, n_text=self.N_TEXT,
                                    n_captions=self.N_CAPTIONS, n_sft=self.N_SFT, seed=self.seed)
        rng = np.random.default_rng((self.seed, 1))
        with open(work / "judgments.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["item_id", "result", "category", "modality"])
            for i in range(self.N_JUDGMENTS):
                w.writerow([f"j{i}", evalkit.RESULTS[rng.integers(3)],
                            f"cat{rng.integers(4)}", ("text", "image", "mixed")[rng.integers(3)]])
        with open(work / "annotations.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["item_id", "annotator_id", "label"])
            for i in range(self.N_ITEMS):
                truth = int(rng.integers(3))
                for a in range(self.N_ANNOTATORS):
                    label = truth if rng.random() < 0.7 else int(rng.integers(3))
                    w.writerow([f"a{i}", f"r{a}", f"label{label}"])
        self.mixture = data.MixtureSpec(
            stage1=cli.parse_mixture(self.run["data.stage1"]),
            stage2_extra=cli.parse_mixture(self.run["data.stage2_extra"]),
        )
        self.opt_cfg = cli.build_optim_config(self.run)
        self.tokens_per_step = self.run["train.batch_size"] * self.run["train.seq_len"]

    def _encode(self, tok, book, vocab, keep=None):
        """Documents as the CLI builds them, then the packed SFT pairs."""
        docs = encode_docs(self.corpus, self.run, tok, book, vocab,
                           np.random.default_rng(self.seed), keep)
        pairs = data.load_sft_corpus(self.corpus / "sft.jsonl")
        examples = [(tok.encode(p), tok.encode(a)) for p, a in pairs]
        packed = data.pack_sft(examples, max_len=self.run["train.seq_len"] + 1, vocab=vocab)
        if keep is not None:
            for (p, a), (pi, ai) in zip(pairs, examples):
                keep["texts"] += [(p, pi), (a, ai)]
        return docs, packed, len(pairs)

    def _train(self, docs, vocab, seed: int, end_step: int, r=0, tracer=NULL):
        stamps: list[float] = []

        def batch_fn(step, rng):
            stamps.append(perf_counter())  # a step runs from one batch to the next
            tracer.next_op("train.step", f"{r}.{step}")
            return batcher.batch(step, rng)

        batcher = data.PretrainBatcher(docs, self.mixture, self.STEPS,
                                       self.run["train.batch_size"], self.run["train.seq_len"])
        cfg = cli.build_model_config(self.run, vocab.total)
        params = model.init_params(cfg, seed=seed)
        result = trainer.train_loop(params, cfg, self.opt_cfg, batch_fn,
                                    seed=seed, end_step=end_step)
        stamps.append(perf_counter())
        tracer.end_op()
        model.save_checkpoint(self.work / "run" / "checkpoint", result.params, cfg,
                              opt_state=result.opt_state, step=result.final_step)
        return result, stamps

    def unit(self, r: int, tracer=NULL) -> Unit:
        keep = {"texts": [], "images": []}
        with tracer.recording(), tracer.span("train.round"):
            t0 = perf_counter()
            with tracer.op_span("train.fit", f"{r}.fit"):
                tok, book, vocab = fit_tokenizer(self.corpus, self.run, self.work / "tok")
            t1 = perf_counter()
            with tracer.op_span("train.encode", f"{r}.encode"):
                docs, packed, n_pairs = self._encode(tok, book, vocab, keep)
            t2 = perf_counter()
            result, stamps = self._train(docs, vocab, self.seed * 1000 + r, self.STEPS, r, tracer)
            t3 = perf_counter()
            with tracer.op_span("train.eval", f"{r}.eval"):
                scores = self._evaluate()
            t4 = perf_counter()

        ces = [row["ce"] for row in result.rows]
        failures = [f"step {i}: ce {ce}" for i, ce in enumerate(ces) if not math.isfinite(ce)]
        if not ces[-1] < ces[0]:
            failures.append(f"final ce {ces[-1]:.4f} not below first {ces[0]:.4f}")
        failures += self._round_trip(tok, book, keep)
        if packed.rejections:
            failures.append(f"pack_sft rejected {len(packed.rejections)} examples")
        if not (scores["win_low"] <= scores["win_high"]
                and scores["alpha_low"] <= scores["alpha_high"] and -1 <= scores["alpha"] <= 1):
            failures.append(f"evaluation out of range: {scores}")
        n_docs = len(docs["text"]) + len(docs["captions"])
        steps_ms = list(np.diff(stamps) * 1e3)
        tokens = len(ces) * self.tokens_per_step
        return Unit(
            seconds=t4 - t0, work=tokens, op_ms=steps_ms,
            attempted=len(ces) + n_docs + n_pairs + 2,
            parts=[("fit", t1 - t0, 0, []), ("encode", t2 - t1, 0, []),
                   ("train", t3 - t2, tokens, steps_ms), ("eval", t4 - t3, 0, [])],
            failures=failures,
            extra={"ce_first": ces[0], "ce_final": ces[-1], "fit_s": t1 - t0,
                   "encode_s": t2 - t1, "train_s": t3 - t2, "eval_s": t4 - t3, "docs": n_docs},
        )

    def memory_slice(self) -> None:
        # Evaluation is left out: its peak is about 3 MB against 80 MB for
        # the codebook fit, and under tracemalloc it runs five times slower.
        tok, book, vocab = fit_tokenizer(self.corpus, self.run)
        docs, _, _ = self._encode(tok, book, vocab)
        self._train(docs, vocab, self.seed * 1000, self.MEMORY_STEPS)

    def _evaluate(self) -> dict:
        """The work of `chamtoy eval --judgments ... --annotations ...`."""
        seed = self.run["train.seed"]
        judgments = evalkit.load_judgments(self.work / "judgments.csv")
        summary = evalkit.summarize_judgments(judgments)
        evalkit.format_summary_table(summary)
        win = evalkit.bootstrap_ci(judgments, evalkit.judgment_win_rate,
                                   n_boot=self.BOOTSTRAP, seed=seed)
        ratings = evalkit.load_annotations(self.work / "annotations.csv")
        alpha = evalkit.krippendorff_alpha(ratings)
        by_item: dict[str, list] = {}
        for item, annotator, label in ratings:
            by_item.setdefault(item, []).append((annotator, label))

        def alpha_stat(sample):
            return evalkit.krippendorff_alpha([
                (i, annotator, label)
                for i, ratings_i in enumerate(sample)
                for annotator, label in ratings_i
            ])

        ci = evalkit.bootstrap_ci(list(by_item.values()), alpha_stat,
                                  n_boot=self.BOOTSTRAP, seed=seed)
        return {"win_low": win.low, "win_high": win.high, "alpha": alpha,
                "alpha_low": ci.low, "alpha_high": ci.high}

    @staticmethod
    def _round_trip(tok: BPETokenizer, book, keep) -> list[str]:
        failures = []
        for text, ids in keep["texts"]:
            if tok.decode(ids) != text:
                failures.append(f"text does not round-trip: {text!r}")
        for img, codes in keep["images"]:
            again = tokenizer.encode_image(
                tokenizer.decode_tokens(codes, book, IMAGE_SIZE, IMAGE_SIZE), book)
            if not np.array_equal(again, codes):
                failures.append("image codes change when re-encoded")
        return failures

    def report(self, units):
        return [
            ("train_ce_first", median([u.extra["ce_first"] for u in units]), "nats"),
            ("train_ce_final", median([u.extra["ce_final"] for u in units]), "nats"),
            ("tokenizer_fit_s", median([u.extra["fit_s"] for u in units]), "s"),
            ("corpus_encode_docs_per_s",
             sum(u.extra["docs"] for u in units) / sum(u.extra["encode_s"] for u in units),
             "docs/s"),
            ("train_phase_s", median([u.extra["train_s"] for u in units]), "s"),
            ("eval_s", median([u.extra["eval_s"] for u in units]), "s"),
        ]


# ----------------------------------------------------------------------
# generate
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    kind: str
    text: str
    policy: decoder.DecodePolicy


class Generate(Workload):
    """`chamtoy generate` requests against a briefly trained checkpoint."""

    name = "generate"
    op = "gap between decode events"
    op_span = "generate.request"
    op_unit = "requests"
    aliases = {
        "throughput_per_s": ("decode_tokens_per_s", "tokens/s"),
        "op_ms.p50": ("decode_gap_ms.p50", "ms"),
        "op_ms.tail": ("decode_gap_ms.tail", "ms"),
        "peak_mb": ("decode_peak_mb", "MB"),
    }
    CHECKPOINT_STEPS = 24
    LONG_PROMPT_TOKENS = 200
    # kind -> (mode, max_new_tokens, requests per round)
    CLASSES = {
        "short": ("unconstrained", 96, 6),  # the CLI default budget
        "caption": ("image-only", 96, 6),  # one full 64-code block
        "long": ("text-only", 16, 6),  # about 200 prompt tokens
    }

    def setup(self, work: Path) -> None:
        self.work = work
        run = run_config({
            "train.seed": self.seed, "train.steps": self.CHECKPOINT_STEPS,
            "optim.lr": 1e-3, "optim.warmup_steps": self.CHECKPOINT_STEPS // 3,
        })
        corpus = work / "corpus"
        data.build_synthetic_corpus(corpus, seed=self.seed)
        self.tok, self.book, self.vocab = fit_tokenizer(corpus, run)
        docs = encode_docs(corpus, run, self.tok, self.book, self.vocab,
                           np.random.default_rng(self.seed))
        mixture = data.MixtureSpec(
            stage1=cli.parse_mixture(run["data.stage1"]),
            stage2_extra=cli.parse_mixture(run["data.stage2_extra"]),
        )
        batcher = data.PretrainBatcher(docs, mixture, self.CHECKPOINT_STEPS,
                                       run["train.batch_size"], run["train.seq_len"])
        cfg = cli.build_model_config(run, self.vocab.total)
        result = trainer.train_loop(model.init_params(cfg, seed=self.seed), cfg,
                                    cli.build_optim_config(run), batcher.batch, seed=self.seed)
        self.checkpoint = work / "run" / "checkpoint"
        model.save_checkpoint(self.checkpoint, result.params, cfg,
                              opt_state=result.opt_state, step=result.final_step)
        self.texts = data.load_text_corpus(corpus / "text.jsonl")
        self.captions = [c for c, _ in data.load_caption_corpus(corpus / "captions.jsonl")]
        self.block_len = self.book.tokens_per_image(IMAGE_SIZE, IMAGE_SIZE)
        # Every unit sends the same requests, so that units differ only in
        # how the machine ran them.
        self.round = self.requests()
        self.replayed: list[tuple[Request, tuple[int, ...]]] = []

    def requests(self) -> list[Request]:
        rng = np.random.default_rng(self.seed)
        out = []
        for kind, (mode, max_new, count) in self.CLASSES.items():
            for _ in range(count):
                if kind == "short":
                    words = self.texts[rng.integers(len(self.texts))].split()
                    text = " ".join(words[:3])
                elif kind == "caption":
                    text = self.captions[rng.integers(len(self.captions))]
                else:
                    text = self._long_prompt(rng)
                policy = decoder.DecodePolicy(
                    block_len=self.block_len, mode=mode, max_new_tokens=max_new,
                    seed=int(rng.integers(2**31)),
                )
                out.append(Request(kind, text, policy))
        return out

    def _long_prompt(self, rng) -> str:
        """Corpus lines, trimmed by whole words to about LONG_PROMPT_TOKENS."""
        want = self.LONG_PROMPT_TOKENS - 1  # BOS comes first
        words: list[str] = []
        while len(self.tok.encode(" ".join(words))) < want:
            words += self.texts[rng.integers(len(self.texts))].split()
        while len(self.tok.encode(" ".join(words[:-1]))) >= want:
            words.pop()
        return " ".join(words)

    def unit(self, r: int, tracer=NULL) -> Unit:
        requests = self.round
        outcomes, times = [], []
        with tracer.recording():
            t0 = perf_counter()
            params, cfg, _, _ = model.load_checkpoint(self.checkpoint)
            times.append(perf_counter())
            for i, req in enumerate(requests):
                with tracer.op_span("generate.request", f"{r}.{i}"):
                    outcomes.append(self._request(params, cfg, req))
                times.append(perf_counter())
            seconds = perf_counter() - t0

        gaps, ttft, failures = [], [], []
        counts = {"tokens_sampled": 0, "tokens_forced": 0, "requests_failed": 0,
                  "finish.eos": 0, "finish.max_tokens": 0, "finish.image_complete": 0}
        for i, (req, out) in enumerate(zip(requests, outcomes)):
            ttft += out["ttft_ms"]
            gaps += out["gaps_ms"]
            counts["tokens_sampled"] += out["produced"] - out["forced"]
            counts["tokens_forced"] += out["forced"]
            if out["error"] is not None:
                counts["requests_failed"] += 1
                failures.append(f"request {r}.{i} ({req.kind}): {out['error']}")
                continue
            counts["finish." + out["reason"]] = counts.get("finish." + out["reason"], 0) + 1
            bad = [len(c) for c in out["blocks"] if len(c) != self.block_len]
            if bad:
                failures.append(f"request {r}.{i}: image blocks of {bad} codes")
        if r == 0:
            # one request of each class is replayed through generate_fused
            first = {}
            for req, out in zip(requests, outcomes):
                if out["error"] is None:
                    first.setdefault(req.kind, (req, out["tokens"]))
            self.replayed = list(first.values())
        parts = [("load", times[0] - t0, 0, [])] + [
            (f"request {i}", end - start, out["produced"], out["gaps_ms"])
            for i, (start, end, out) in enumerate(zip(times, times[1:], outcomes))
        ]
        return Unit(
            seconds=seconds, work=sum(o["produced"] for o in outcomes), op_ms=gaps,
            attempted=len(requests), parts=parts, failures=failures,
            extra={"ttft_ms": ttft, "counts": counts},
        )

    def _request(self, params, cfg, req: Request) -> dict:
        prompt = [self.vocab.bos] + self.tok.encode(req.text)
        stamps: list[float] = []
        blocks, forced, fin, error = [], 0, None, None
        t_call = perf_counter()
        try:
            for event in decoder.generate_stream(params, cfg, prompt, req.policy, self.vocab):
                stamps.append(perf_counter())
                if isinstance(event, decoder.ImageEnd):
                    blocks.append(event.codes)
                    forced += 1  # EOI is inserted by the engine, never sampled
                elif isinstance(event, decoder.Finished):
                    fin = event
            decoder.detokenize_mixed(fin.tokens, self.tok, self.book, self.vocab,
                                     image_size=IMAGE_SIZE)
        except decoder.DecodeError as e:
            error = str(e)
        events = stamps[:-1] if fin is not None else stamps  # Finished is not a token
        return {
            "ttft_ms": [(stamps[0] - t_call) * 1e3] if stamps else [],
            "gaps_ms": list(np.diff(events) * 1e3),
            "produced": len(events),
            "forced": forced,
            "blocks": blocks,
            "reason": fin.reason if fin else None,
            "tokens": fin.tokens if fin else None,
            "error": error,
        }

    def memory_peak(self) -> int:
        """The median peak of the round's caption requests.

        A request's peak grows with its length.  Caption requests decode in
        image-only mode, where the grammar fixes the length at one full
        block, so their peak is the same from seed to seed; the length of
        an unconstrained request is sampled (it can end at EOS or run into
        an image block), and the heaviest class changes with the seed's
        checkpoint.  Garbage left by earlier requests is collected first,
        as a fresh `chamtoy generate` process would have none.
        """
        params, cfg, _, _ = model.load_checkpoint(self.checkpoint)
        peaks = []
        tracemalloc.start()
        try:
            for req in self.round:
                if req.kind == "caption":
                    gc.collect()
                    tracemalloc.reset_peak()
                    self._request(params, cfg, req)
                    peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return median(peaks)

    def final_checks(self) -> list[str]:
        params, cfg, _, _ = model.load_checkpoint(self.checkpoint)
        failures = []
        for req, tokens in self.replayed:
            prompt = [self.vocab.bos] + self.tok.encode(req.text)
            try:
                fused = decoder.generate_fused(params, cfg, prompt, req.policy, self.vocab).tokens
            except decoder.DecodeError as e:
                fused = str(e)
            if fused != tokens:
                failures.append(f"{req.kind} request: stream and fused decode differ")
        return failures

    def report(self, units):
        ttft = [t for u in units for t in u.extra["ttft_ms"]]
        tail_ms, note = tail(ttft)
        return [("decode_ttft_ms.p50", median(ttft), "ms"),
                ("decode_ttft_ms.tail", tail_ms, f"ms ({note})")]


WORKLOADS = {w.name: w for w in (Train, Generate)}


def install_spans(tracer) -> None:
    """Wrap each public function at the name its caller looks it up under."""

    def forward_kind(args, kwargs):
        if kwargs.get("training"):
            return "train"
        return "prefill" if kwargs.get("past_kv") is None else "step"

    def kv_bytes(tr, args, result):
        size = sum(k.data.nbytes + v.data.nbytes for k, v in result[1]["kv"])
        key = ("decoder.kv_bytes", tr.op)
        tr.counters[key] = max(tr.counters[key], size)

    def bpe_counts(tr, args, result):
        tr.counters[("tokenizer.bpe_bytes_in", None)] += len(args[1].encode("utf-8"))
        tr.counters[("tokenizer.bpe_tokens_out", None)] += len(result)

    w = tracer.wrap
    w(data.PretrainBatcher, "batch", "data.batch")
    w(data, "build_text_sequence", "data.build_sequence")
    w(data, "build_caption_sequence", "data.build_sequence")
    w(data, "pack_sft", "data.pack_sft")
    w(numerics.Tensor, "backward", "numerics.backward")
    w(model, "embedding", "numerics.embedding")
    w(model, "attention", "layers.attention")
    w(layers, "layer_norm", "layers.layer_norm")
    w(layers, "apply_rope_at", "layers.apply_rope")
    w(model, "swiglu", "layers.swiglu")
    w(model, "rms_norm", "layers.rms_norm")
    w(trainer, "model_forward", "model.forward", kind_of=forward_kind)
    w(decoder, "model_forward", "model.forward", kind_of=forward_kind, on_result=kv_bytes)
    w(model, "save_checkpoint", "model.save_checkpoint")
    w(model, "load_checkpoint", "model.load_checkpoint")
    w(trainer, "total_loss", "objective.loss")
    w(trainer, "clip_global_norm", "trainer.clip")
    w(trainer, "adamw_step", "trainer.adamw")
    w(decoder, "generate_stream", "decoder.generate_stream")
    w(decoder, "legal_mask", "decoder.legal_mask")
    w(decoder, "detokenize_mixed", "decoder.detokenize")
    w(decoder, "decode_tokens", "tokenizer.decode_tokens")
    w(tokenizer, "train_bpe", "tokenizer.bpe_train")
    w(tokenizer, "train_codebook", "tokenizer.codebook_fit")
    w(BPETokenizer, "encode", "tokenizer.bpe_encode", on_result=bpe_counts)
    w(tokenizer, "encode_image", "tokenizer.encode_image")
    w(tokenizer, "read_pixmap", "tokenizer.read_pixmap")
    w(evalkit, "summarize_judgments", "evalkit.summarize")
    w(evalkit, "bootstrap_ci", "evalkit.bootstrap")
    w(evalkit, "krippendorff_alpha", "evalkit.alpha")
