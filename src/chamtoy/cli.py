"""Command-line entry point.

Configuration is a flat key-value space ("model.d_model 64") read from an
optional file and overridden with repeated --set key=value flags; unknown
keys are rejected.  Every run echoes its effective configuration before
doing work.  Seeds resolve in order: --seed flag, train.seed from config,
the CHAMTOY_SEED environment variable, then 0.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error,
3 when the divergence monitor flagged the run.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

# One BLAS thread unless the caller chose otherwise, set before numpy
# loads: a process holding a BLAS pool runs each batch's second shard
# inline instead of in a forked worker (see trainer._forks).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from .data import (
    MixtureSpec,
    PretrainBatcher,
    SFTBatcher,
    build_caption_sequence,
    build_text_sequence,
    load_caption_corpus,
    load_sft_corpus,
    load_text_corpus,
    pack_sft,
    parse_image_fit,
    prepare_image,
)
from .decoder import DecodePolicy, check_prompt, detokenize_mixed, generate_stream, Finished
from .evalkit import (
    alpha_from_counts,
    bootstrap_ci,
    format_summary_table,
    judgment_win_rate,
    krippendorff_alpha,
    label_counts,
    load_annotations,
    load_judgments,
    summarize_judgments,
)
from .model import (
    FIELD_PARSERS,
    ModelConfig,
    config_text,
    init_params,
    load_checkpoint,
    parse_bool,
    preset,
    save_checkpoint,
)
from .tokenizer import (
    BPETokenizer,
    Codebook,
    MixedVocab,
    encode_image,
    read_pixmap,
    train_bpe,
    train_codebook,
    write_pixmap,
)
from .tokenizer.codebook import to_uint8
from .trainer import (
    DivergenceMonitor,
    OptimConfig,
    load_log,
    save_log,
    train_loop,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3

SEED_ENV = "CHAMTOY_SEED"


class ConfigError(Exception):
    pass


# key -> (type converter, default)
SCHEMA: dict[str, tuple] = {
    "model.preset": (str, "toy"),
    # one key per ModelConfig field but vocab_size, which the tokenizer sets,
    # parsed and defaulted as the field declares
    **{f"model.{f.name}": (FIELD_PARSERS[f.type], f.default)
       for f in fields(ModelConfig) if f.name != "vocab_size"},
    # likewise OptimConfig's fields but total_steps, which is train.steps; runs
    # here are hundreds of steps, so warmup is 40 steps against the recipe's 4000
    **{f"optim.{f.name}": (FIELD_PARSERS[f.type], f.default)
       for f in fields(OptimConfig) if f.name != "total_steps"},
    "optim.warmup_steps": (int, 40),
    "train.steps": (int, 400),
    "train.batch_size": (int, 8),
    "train.seq_len": (int, 64),
    "train.seed": (int, -1),
    "train.halt_on_divergence": (parse_bool, False),
    "data.stage1": (str, "text:0.75,captions:0.25"),
    "data.stage2_extra": (str, "captions:0.25"),
    "data.image_fit": (parse_image_fit, "crop"),
    "tokenizer.vocab_size": (int, 320),
    "tokenizer.image_codes": (int, 256),
    "tokenizer.patch": (int, 4),
    "tokenizer.image_size": (int, 32),
    "tokenizer.kmeans_iters": (int, 10),
    "generate.mode": (str, "unconstrained"),
    "generate.max_new_tokens": (int, 96),
    "generate.temperature": (float, 1.0),
    "generate.append_sep": (parse_bool, False),
}

# sizes that numpy would otherwise meet as an empty or negative shape
POSITIVE_KEYS = ("train.batch_size", "train.seq_len", "tokenizer.image_size")


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)
    explicit: set = field(default_factory=set)

    def __getitem__(self, key: str):
        return self.values[key]

    def set(self, key: str, raw: str) -> None:
        if key not in SCHEMA:
            raise ConfigError(f"unknown configuration key {key!r}")
        conv, _ = SCHEMA[key]
        try:
            self.values[key] = conv(raw)
        except ValueError as e:
            raise ConfigError(f"bad value for {key}: {e}") from e
        self.explicit.add(key)

    def soft_set(self, key: str, value) -> None:
        """Change a default without marking the key user-set."""
        if key not in self.explicit:
            self.values[key] = value

    def render(self, cfg=None) -> str:
        """Key-value lines; model.* values come from cfg, the model that ran, if given."""
        lines = ["# effective configuration"]
        for key in sorted(self.values):
            v = self.values[key]
            if cfg is not None and key.startswith("model."):
                v = getattr(cfg, key[len("model."):], v)  # model.preset is no field
            lines.append(f"{key} {config_text(v)}")
        return "\n".join(lines)


def make_run_config(args) -> RunConfig:
    run = RunConfig(values={k: d for k, (_, d) in SCHEMA.items()})
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, raw = line.partition(" ")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected 'key value'")
            run.set(key, raw.strip())
    for item in getattr(args, "set", None) or []:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        run.set(key.strip(), raw.strip())
    if getattr(args, "seed", None) is not None:
        run.set("train.seed", str(args.seed))
    seed, source = run["train.seed"], "train.seed"
    if seed == -1:  # unset: the environment's seed, else 0
        source, raw = SEED_ENV, os.environ.get(SEED_ENV) or "0"
        try:
            seed = int(raw)
        except ValueError:
            raise ConfigError(f"{SEED_ENV} must be a non-negative integer, got {raw!r}") from None
    if seed < 0:
        raise ConfigError(f"{source} must be a non-negative integer, got {seed}")
    run.values["train.seed"] = seed
    for key in POSITIVE_KEYS:
        if run[key] < 1:
            raise ConfigError(f"{key} must be at least 1, got {run[key]}")
    return run


def parse_mixture(raw: str) -> dict[str, float]:
    out: dict[str, float] = {}
    if not raw.strip():
        return out
    for part in raw.split(","):
        name, sep, weight = part.partition(":")
        if not sep:
            raise ConfigError(f"mixture entry {part!r} must be name:weight")
        try:
            out[name.strip()] = float(weight)
        except ValueError as e:
            raise ConfigError(f"bad mixture weight in {part!r}") from e
    return out


def build_model_config(run: RunConfig, vocab_size: int):
    # only the model.* keys the user pinned; preset() lets them beat the recipe
    pinned = {key[len("model."):]: run[key] for key in run.explicit
              if key.startswith("model.") and key != "model.preset"}
    try:
        return preset(run["model.preset"], vocab_size=vocab_size, **pinned)
    except (KeyError, ValueError) as e:
        raise ConfigError(str(e)) from e


def build_optim_config(run: RunConfig) -> OptimConfig:
    knobs = {key[len("optim."):]: run[key] for key in SCHEMA if key.startswith("optim.")}
    try:
        return OptimConfig(total_steps=run["train.steps"], **knobs)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _load_tokenizer_dir(tok_dir) -> tuple[BPETokenizer, Codebook, MixedVocab]:
    tok_dir = Path(tok_dir)
    tok = BPETokenizer.load(tok_dir / "tokenizer.txt")
    book = Codebook.load(tok_dir / "codebook.bin")
    return tok, book, MixedVocab(n_text=tok.vocab_size, n_image=book.n_codes)


def _block_len(run: RunConfig, book: Codebook) -> int:
    """Codes per image at tokenizer.image_size, a size the codebook's patch must divide."""
    size = run["tokenizer.image_size"]
    try:
        return book.tokens_per_image(size, size)
    except ValueError as e:
        raise ConfigError(f"tokenizer.image_size {size}: {e}") from e


def _check_seq_len(run: RunConfig, cfg) -> None:
    """Training windows must fit the model's context; checked before the corpus is read."""
    if run["train.seq_len"] > cfg.max_seq:
        raise ConfigError(f"train.seq_len {run['train.seq_len']} exceeds model.max_seq {cfg.max_seq}")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def _load_captions(run: RunConfig, data_dir: Path):
    """(caption, fitted image) pairs from data_dir/captions.jsonl."""
    size = run["tokenizer.image_size"]
    return [
        (caption, prepare_image(read_pixmap(data_dir / rel), size, mode=run["data.image_fit"]))
        for caption, rel in load_caption_corpus(data_dir / "captions.jsonl")
    ]


def cmd_tokenizer_train(run: RunConfig, args) -> int:
    print(run.render())
    data_dir = Path(args.data_dir)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    texts = load_text_corpus(data_dir / "text.jsonl")
    captions = _load_captions(run, data_dir)

    size = run["tokenizer.image_size"]
    try:
        tok = train_bpe(texts + [c for c, _ in captions], run["tokenizer.vocab_size"])
        book, history = train_codebook(
            [image for _, image in captions],
            n_codes=run["tokenizer.image_codes"],
            patch=run["tokenizer.patch"],
            iters=run["tokenizer.kmeans_iters"],
            seed=run["train.seed"],
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e
    tok.save(out_dir / "tokenizer.txt")
    book.save(out_dir / "codebook.bin")

    vocab = MixedVocab(n_text=tok.vocab_size, n_image=book.n_codes)
    print(f"text tokens: {tok.vocab_size} ({len(tok.merges)} merges)")
    print(f"image codes: {book.n_codes}, {book.tokens_per_image(size, size)} per image")
    print(f"total vocabulary: {vocab.total}")
    print(f"codebook mse: {history[0]:.6f} -> {history[-1]:.6f}")
    return EXIT_OK


def _build_docs(run: RunConfig, data_dir: Path, tok, book, vocab, rng):
    docs: dict[str, list[list[int]]] = {}
    text_path = data_dir / "text.jsonl"
    if text_path.exists():
        docs["text"] = [
            build_text_sequence(tok.encode(t), vocab) for t in load_text_corpus(text_path)
        ]
    if (data_dir / "captions.jsonl").exists():
        docs["captions"] = [
            build_caption_sequence(tok.encode(caption), encode_image(image, book), vocab, rng)[0]
            for caption, image in _load_captions(run, data_dir)
        ]
    return docs


def _load_init(path, vocab: MixedVocab):
    """load_checkpoint, refusing a checkpoint built for another vocabulary."""
    params, cfg, opt_state, step = load_checkpoint(path)
    if cfg.vocab_size != vocab.total:
        raise ConfigError(f"checkpoint vocabulary {cfg.vocab_size} != tokenizer vocabulary "
                          f"{vocab.total}")
    return params, cfg, opt_state, step or 0


def _train_run(run: RunConfig, out_dir: Path, cfg, params, opt_cfg, batch_fn,
               start: int = 0, opt_state=None):
    """Train one run and write its checkpoint, loss.csv and
    effective_config.txt to out_dir; a flagged run gets a note on stderr."""
    result = train_loop(
        params, cfg, opt_cfg, batch_fn,
        seed=run["train.seed"], start_step=start, opt_state=opt_state,
        halt_on_divergence=run["train.halt_on_divergence"],
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out_dir / "checkpoint", result.params, cfg,
                    opt_state=result.opt_state, step=result.final_step)
    save_log(result.rows, out_dir / "loss.csv")
    (out_dir / "effective_config.txt").write_text(run.render(cfg) + "\n")
    if result.diverged:
        print(
            f"divergence flagged after {result.monitor.diverged_at} monitored steps",
            file=sys.stderr,
        )
    return result


def cmd_train(run: RunConfig, args) -> int:
    print(run.render())
    if args.ablate and args.resume:
        raise ConfigError("--ablate trains both arms from scratch; drop --resume")
    try:
        mixture = MixtureSpec(
            stage1=parse_mixture(run["data.stage1"]),
            stage2_extra=parse_mixture(run["data.stage2_extra"]),
        )
    except ValueError as e:
        raise ConfigError(f"data.{e}") from e  # the message starts with the field's name
    opt_cfg = build_optim_config(run)
    tok, book, vocab = _load_tokenizer_dir(args.tokenizer_dir)
    _block_len(run, book)  # refuses an image size the patch does not divide
    if args.resume:
        params, cfg, opt_state, start = _load_init(args.resume, vocab)
    else:
        cfg = build_model_config(run, vocab.total)
    _check_seq_len(run, cfg)
    out_dir = Path(args.out_dir)
    seed = run["train.seed"]

    docs = _build_docs(run, Path(args.data_dir), tok, book, vocab, np.random.default_rng(seed))
    missing = [s for s in {**mixture.stage1, **mixture.stage2_extra} if s not in docs]
    if missing:
        raise ConfigError(f"mixture names sources with no documents: {missing}")

    batcher = PretrainBatcher(
        docs, mixture, run["train.steps"], run["train.batch_size"], run["train.seq_len"]
    )

    if args.ablate:
        # the same seed, data and schedule twice; only QK layer-norm differs
        flagged = False
        for label in ("on", "off"):
            arm = replace(cfg, qk_norm=label == "on")
            result = _train_run(run, out_dir / f"qknorm_{label}", arm,
                                init_params(arm, seed=seed), opt_cfg, batcher.batch)
            print(f"qknorm {label}: final ce {result.rows[-1]['ce']:.4f}, "
                  f"diverged {result.diverged}")
            flagged |= result.diverged
        return EXIT_DIVERGED if flagged else EXIT_OK

    if not args.resume:
        params, opt_state, start = init_params(cfg, seed=seed), None, 0
    result = _train_run(run, out_dir, cfg, params, opt_cfg, batcher.batch, start, opt_state)
    if result.rows:
        first, last = result.rows[0], result.rows[-1]
        print(f"steps {start}..{result.final_step}: ce {first['ce']:.4f} -> {last['ce']:.4f}")
    return EXIT_DIVERGED if result.diverged else EXIT_OK


def cmd_sft(run: RunConfig, args) -> int:
    # the model is the --init checkpoint's, of which only dropout can change
    fixed = sorted(k for k in run.explicit if k.startswith("model.") and k != "model.dropout")
    if fixed:
        raise ConfigError(f"{', '.join(fixed)} cannot be set: sft tunes the --init "
                          "checkpoint's model and changes only model.dropout")
    # tuning defaults: small peak rate on a cosine schedule, light dropout,
    # unchanged z penalty
    run.soft_set("optim.lr", 1e-5)
    run.soft_set("optim.schedule", "cosine")
    run.soft_set("model.dropout", 0.05)
    print(run.render())

    opt_cfg = build_optim_config(run)
    tok, book, vocab = _load_tokenizer_dir(args.tokenizer_dir)
    params, cfg, _, _ = _load_init(args.init, vocab)
    try:
        cfg = replace(cfg, dropout=run["model.dropout"])
    except ValueError as e:
        raise ConfigError(str(e)) from e
    _check_seq_len(run, cfg)

    pairs = load_sft_corpus(Path(args.data_dir) / "sft.jsonl")
    examples = [(tok.encode(p), tok.encode(a)) for p, a in pairs]
    packed = pack_sft(examples, max_len=run["train.seq_len"] + 1, vocab=vocab)
    if packed.rejections:
        print(f"rejected {len(packed.rejections)} oversized examples", file=sys.stderr)
    batcher = SFTBatcher(packed)

    batch_size = run["train.batch_size"]
    result = _train_run(run, Path(args.out_dir), cfg, params, opt_cfg,
                        lambda step, rng: batcher.batch(batch_size, rng))
    print(f"tuned on {len(packed.sequences)} packed rows for {result.final_step} steps")
    return EXIT_DIVERGED if result.diverged else EXIT_OK


def cmd_generate(run: RunConfig, args) -> int:
    print(run.render())
    tok, book, vocab = _load_tokenizer_dir(args.tokenizer_dir)
    params, cfg, _, _ = _load_init(args.checkpoint, vocab)

    prompt = [vocab.bos] + tok.encode(args.prompt)
    if run["generate.append_sep"]:
        # instruction-tuned checkpoints saw prompt SEP answer during training
        prompt.append(vocab.sep)
    try:
        policy = DecodePolicy(
            block_len=_block_len(run, book),
            mode=run["generate.mode"],
            max_new_tokens=run["generate.max_new_tokens"],
            temperature=run["generate.temperature"],
            seed=run["train.seed"],
        )
        check_prompt(cfg, prompt, policy, vocab)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    fin = None
    for event in generate_stream(params, cfg, prompt, policy, vocab):
        if isinstance(event, Finished):
            fin = event
    parts = detokenize_mixed(fin.tokens, tok, book, vocab, image_size=run["tokenizer.image_size"])

    manifest = []
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    for i, (kind, payload) in enumerate(parts):
        if kind == "text":
            print(payload)
            if out_dir:
                name = f"{i:03d}_text.txt"
                (out_dir / name).write_text(payload, encoding="utf-8")
                manifest.append(f"{i:03d} text {name}")
        else:
            if out_dir:
                name = f"{i:03d}_image.pgm" if payload.ndim == 2 else f"{i:03d}_image.ppm"
                write_pixmap(out_dir / name, to_uint8(payload))
                manifest.append(f"{i:03d} image {name}")
            else:
                print(f"[image {payload.shape[0]}x{payload.shape[1]}]")
    if out_dir:
        (out_dir / "manifest.txt").write_text("\n".join(manifest) + "\n")
        print(f"wrote {len(parts)} parts to {out_dir} (reason: {fin.reason})")
    return EXIT_OK


def cmd_eval(run: RunConfig, args) -> int:
    if args.bootstrap < 1:
        raise ConfigError(f"--bootstrap must be at least 1, got {args.bootstrap}")
    print(run.render())
    if not args.judgments and not args.annotations:
        raise ConfigError("eval needs --judgments and/or --annotations")
    seed = run["train.seed"]

    if args.judgments:
        judgments = load_judgments(args.judgments)
        summary = summarize_judgments(judgments)
        print(format_summary_table(summary))
        ci = bootstrap_ci(judgments, judgment_win_rate, n_boot=args.bootstrap, seed=seed)
        print(
            f"overall win rate {100 * summary['overall'].rate:.1f}% "
            f"[{100 * ci.low:.1f}%, {100 * ci.high:.1f}%] "
            f"({ci.n_used} resamples, {ci.skipped} skipped)"
        )

    if args.annotations:
        ratings = load_annotations(args.annotations)
        alpha = krippendorff_alpha(ratings)
        ci = bootstrap_ci(label_counts(ratings), alpha_from_counts,
                          n_boot=args.bootstrap, seed=seed)
        print(
            f"krippendorff alpha {alpha:.3f} [{ci.low:.3f}, {ci.high:.3f}] "
            f"({ci.n_used} resamples, {ci.skipped} skipped)"
        )
    return EXIT_OK


def cmd_monitor_report(run: RunConfig, args) -> int:
    print(run.render())
    rows = load_log(args.log)
    if not rows:
        raise ValueError(f"no rows in {args.log}")
    monitor = DivergenceMonitor()
    for row in rows:
        monitor.observe(row)
    first, last = rows[0], rows[-1]
    print(f"steps: {len(rows)} ({first['step']}..{last['step']})")
    print(f"output rms: {first['output_rms']:.4f} -> {last['output_rms']:.4f}")
    if monitor.ewma is not None:
        print(f"smoothed log-rms: {monitor.ewma:.6f}")
    if monitor.diverged:
        print(f"DIVERGED at step offset {monitor.diverged_at}")
        return EXIT_DIVERGED
    print("no divergence detected")
    return EXIT_OK


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key-value configuration file")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one configuration key")
    common.add_argument("--seed", type=int, help=f"run seed (falls back to ${SEED_ENV})")

    parser = argparse.ArgumentParser(
        prog="chamtoy",
        description="desk-scale mixed-modal transformer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tokenizer-train", parents=[common],
                       help="fit the text tokenizer and image codebook")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_tokenizer_train)

    p = sub.add_parser("train", parents=[common], help="pre-train on the mixed corpus")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--tokenizer-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--resume", help="checkpoint directory to continue from")
    p.add_argument("--ablate", choices=["qknorm"],
                   help="train paired runs toggling one stability knob")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sft", parents=[common], help="instruction-tune a checkpoint")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--tokenizer-dir", required=True)
    p.add_argument("--init", required=True, help="pre-trained checkpoint directory")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_sft)

    p = sub.add_parser("generate", parents=[common], help="sample from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--tokenizer-dir", required=True)
    p.add_argument("--prompt", default="")
    p.add_argument("--out-dir", help="write text parts and pixmap images here")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("eval", parents=[common], help="score judgments and agreement")
    p.add_argument("--judgments", help="item_id,result,category,modality csv")
    p.add_argument("--annotations", help="item_id,annotator_id,label csv")
    p.add_argument("--bootstrap", type=int, default=1000)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("monitor-report", parents=[common],
                       help="re-run the divergence monitor over a training log")
    p.add_argument("--log", required=True, help="loss.csv from a training run")
    p.set_defaults(func=cmd_monitor_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        run = make_run_config(args)
        return args.func(run, args)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
