"""End-to-end and unit coverage for the command-line surface."""

import argparse
import dataclasses
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from chamtoy import cli
from chamtoy.cli import (
    ConfigError,
    EXIT_DIVERGED,
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    SCHEMA,
    build_model_config,
    main,
    make_run_config,
    parse_mixture,
)
from chamtoy.data import build_synthetic_corpus
from chamtoy.model import NormStrategy, init_params, load_checkpoint, save_checkpoint
from chamtoy.tokenizer import BPETokenizer, Codebook, read_pixmap
from chamtoy.trainer import load_log, save_log


def ns(config=None, set=None, seed=None):
    return argparse.Namespace(config=config, set=set, seed=seed)


def run_args(*pairs):
    return make_run_config(ns(set=list(pairs)))


# ----------------------------------------------------------------------
# configuration plumbing
# ----------------------------------------------------------------------


def test_defaults_present():
    run = make_run_config(ns())
    assert run["model.d_model"] == 64
    assert run["model.qk_norm"] is True
    assert run["optim.schedule"] == "exp-decay"
    assert run.explicit == set()  # env/default seed is not user-pinned


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        run_args("model.bogus=1")


def test_bad_value_rejected():
    with pytest.raises(ConfigError):
        run_args("train.steps=abc")
    with pytest.raises(ConfigError):
        run_args("model.qk_norm=maybe")


def test_schema_keys_are_fixed():
    # model.* and optim.* keys derive from the config dataclasses; a new
    # field must not become a CLI knob unnoticed
    assert sorted(SCHEMA) == [
        "data.image_fit", "data.stage1", "data.stage2_extra",
        "generate.append_sep", "generate.max_new_tokens", "generate.mode", "generate.temperature",
        "model.d_model", "model.dropout", "model.ffn_hidden", "model.max_seq", "model.n_heads",
        "model.n_kv_heads", "model.n_layers", "model.norm_eps", "model.norm_strategy",
        "model.preset", "model.qk_norm", "model.z_coeff",
        "optim.lr", "optim.schedule", "optim.warmup_steps",
        "tokenizer.image_codes", "tokenizer.image_size", "tokenizer.kmeans_iters",
        "tokenizer.patch", "tokenizer.vocab_size",
        "train.batch_size", "train.halt_on_divergence", "train.seed", "train.seq_len",
        "train.steps",
    ]


def test_set_overrides_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\ntrain.steps 9\nmodel.n_layers 1\n\n")
    run = make_run_config(ns(config=str(cfg), set=["train.steps=11"]))
    assert run["train.steps"] == 11
    assert run["model.n_layers"] == 1


def test_config_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        make_run_config(ns(config=str(tmp_path / "absent.cfg")))
    bad = tmp_path / "bad.cfg"
    bad.write_text("just-one-token\n")
    with pytest.raises(ConfigError):
        make_run_config(ns(config=str(bad)))
    # the optimizer recipe's values are constants of trainer.py, not keys
    for key in ("optim.beta1", "optim.beta2", "optim.eps", "optim.weight_decay",
                "optim.clip_norm", "optim.final_lr_fraction"):
        bad.write_text(f"{key} 0.5\n")
        with pytest.raises(ConfigError, match=f"^unknown configuration key '{key}'$"):
            make_run_config(ns(config=str(bad)))


def test_seed_resolution(monkeypatch):
    monkeypatch.delenv("CHAMTOY_SEED", raising=False)
    assert make_run_config(ns())["train.seed"] == 0
    monkeypatch.setenv("CHAMTOY_SEED", "7")
    assert make_run_config(ns())["train.seed"] == 7
    assert make_run_config(ns(seed=4))["train.seed"] == 4
    assert make_run_config(ns(set=["train.seed=5"]))["train.seed"] == 5


def test_bad_seeds_name_their_source(monkeypatch):
    monkeypatch.delenv("CHAMTOY_SEED", raising=False)
    for args in (ns(seed=-3), ns(set=["train.seed=-2"])):
        with pytest.raises(ConfigError, match="^train.seed must be a non-negative integer"):
            make_run_config(args)
    for raw in ("-2", "abc", "1.5"):
        monkeypatch.setenv("CHAMTOY_SEED", raw)
        with pytest.raises(ConfigError, match="^CHAMTOY_SEED must be a non-negative integer"):
            make_run_config(ns())
    # -1 is the unset marker, given or not
    monkeypatch.setenv("CHAMTOY_SEED", "7")
    assert make_run_config(ns(seed=-1))["train.seed"] == 7


def test_parse_mixture():
    assert parse_mixture("a:1,b:0.5") == {"a": 1.0, "b": 0.5}
    assert parse_mixture("  ") == {}
    with pytest.raises(ConfigError):
        parse_mixture("a=1")
    with pytest.raises(ConfigError):
        parse_mixture("a:x")


def test_preset_with_pinned_overrides():
    run = run_args("model.preset=llama2-recipe")
    cfg = build_model_config(run, vocab_size=100)
    assert cfg.qk_norm is False
    assert cfg.z_coeff == 0.0
    assert cfg.norm_strategy is NormStrategy.PRE_NORM

    run = run_args("model.preset=llama2-recipe", "model.qk_norm=true")
    cfg = build_model_config(run, vocab_size=100)
    assert cfg.qk_norm is True
    assert cfg.norm_strategy is NormStrategy.PRE_NORM

    with pytest.raises(ConfigError):
        build_model_config(run_args("model.preset=imaginary"), vocab_size=100)


def test_usage_exit_codes():
    assert main([]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["--help"]) == EXIT_OK
    assert main(["monitor-report", "--log", "x.csv", "--set", "nope=1"]) == EXIT_USAGE
    assert main(["monitor-report", "--log", "x.csv", "--set", "foo"]) == EXIT_USAGE


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "chamtoy.cli", "--help"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert "tokenizer-train" in out.stdout


def test_cli_pins_one_blas_thread_unless_the_caller_chose():
    # a process holding a BLAS pool runs the second shard of each batch
    # inline instead of in the forked worker
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    code = (f"import os, chamtoy.cli, chamtoy.trainer as t; "
            f"print(*(os.environ[v] for v in {blas!r}), t._forks(), "
            f"len(os.sched_getaffinity(0)))")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    for chosen in (None, "2"):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env if chosen is None else {**env, blas[0]: chosen}, check=True)
        *values, forks, cpus = out.stdout.split()
        assert values == [chosen or "1", "1", "1"], out.stdout
        if chosen is None:
            assert forks == str(int(cpus) > 1 and sys.platform == "linux"), out.stdout


# ----------------------------------------------------------------------
# pipeline: corpus -> tokenizer -> pretrain -> sft -> generate
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    build_synthetic_corpus(d, n_text=60, n_captions=24, n_sft=40, image_size=32, seed=0)
    return d


@pytest.fixture(scope="module")
def no_captions_dir(corpus_dir, tmp_path_factory):
    """The corpus's text lines with an empty captions.jsonl."""
    d = tmp_path_factory.mktemp("no-captions")
    (d / "text.jsonl").write_bytes((corpus_dir / "text.jsonl").read_bytes())
    (d / "captions.jsonl").write_text("")
    return d


@pytest.fixture(scope="module")
def tokenizer_dir(corpus_dir, tmp_path_factory):
    d = tmp_path_factory.mktemp("tok")
    code = main([
        "tokenizer-train", "--data-dir", str(corpus_dir), "--out-dir", str(d),
        "--set", "tokenizer.vocab_size=300",
        "--set", "tokenizer.image_codes=64",
        "--set", "tokenizer.kmeans_iters=4",
    ])
    assert code == EXIT_OK
    return d


TRAIN_SETS = [
    "--set", "train.steps=6",
    "--set", "train.batch_size=2",
    "--set", "train.seq_len=32",
    "--set", "optim.warmup_steps=2",
    "--set", "optim.lr=1e-3",
    "--set", "tokenizer.image_codes=64",
]


@pytest.fixture(scope="module")
def pretrain_dir(corpus_dir, tokenizer_dir, tmp_path_factory):
    d = tmp_path_factory.mktemp("pretrain")
    code = main([
        "train", "--data-dir", str(corpus_dir),
        "--tokenizer-dir", str(tokenizer_dir),
        "--out-dir", str(d), "--seed", "3", *TRAIN_SETS,
    ])
    assert code == EXIT_OK
    return d


@pytest.fixture(scope="module")
def broken_dir(pretrain_dir, tmp_path_factory):
    """Checkpoints no command may load with the tokenizer_dir tokenizer:
    `no-norm-eps`, the pretrain checkpoint with that config.txt line cut,
    `format-1`, the pretrain checkpoint labelled format 1, and
    `vocab-minus-100` and `vocab-plus-100`, models of the pretrain config
    for a vocabulary 100 ids smaller or larger."""
    d = tmp_path_factory.mktemp("broken")
    shutil.copytree(pretrain_dir / "checkpoint", d / "no-norm-eps")
    cfgfile = d / "no-norm-eps" / "config.txt"
    kept = [l for l in cfgfile.read_text().splitlines() if not l.startswith("model.norm_eps ")]
    cfgfile.write_text("\n".join(kept) + "\n")
    shutil.copytree(pretrain_dir / "checkpoint", d / "format-1")
    cfgfile = d / "format-1" / "config.txt"
    cfgfile.write_text(cfgfile.read_text().replace("format_version 2\n", "format_version 1\n"))
    _, cfg, _, _ = load_checkpoint(pretrain_dir / "checkpoint")
    for name, delta in (("vocab-minus-100", -100), ("vocab-plus-100", 100)):
        other = dataclasses.replace(cfg, vocab_size=cfg.vocab_size + delta)
        save_checkpoint(d / name, init_params(other, seed=0), other)
    return d


def test_tokenizer_train_outputs(tokenizer_dir):
    tok = BPETokenizer.load(tokenizer_dir / "tokenizer.txt")
    book = Codebook.load(tokenizer_dir / "codebook.bin")
    assert 256 < tok.vocab_size <= 300
    assert book.n_codes == 64
    assert book.tokens_per_image(32, 32) == 64


def test_train_writes_artifacts(pretrain_dir):
    params, cfg, opt_state, step = load_checkpoint(pretrain_dir / "checkpoint")
    assert step == 6
    assert opt_state is not None
    rows = load_log(pretrain_dir / "loss.csv")
    assert [r["step"] for r in rows] == list(range(6))
    assert all(np.isfinite(r["ce"]) for r in rows)
    text = (pretrain_dir / "effective_config.txt").read_text()
    assert "train.steps 6" in text
    assert "train.seed 3" in text


def test_train_resume_extends_run(corpus_dir, tokenizer_dir, pretrain_dir, tmp_path):
    out = tmp_path / "resumed"
    sets = [s if s != "train.steps=6" else "train.steps=9" for s in TRAIN_SETS]
    code = main([
        "train", "--data-dir", str(corpus_dir),
        "--tokenizer-dir", str(tokenizer_dir),
        "--out-dir", str(out), "--seed", "3",
        "--resume", str(pretrain_dir / "checkpoint"), *sets,
    ])
    assert code == EXIT_OK
    _, _, _, step = load_checkpoint(out / "checkpoint")
    assert step == 9
    rows = load_log(out / "loss.csv")
    assert [r["step"] for r in rows] == [6, 7, 8]


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two usable CPUs in a Linux affinity mask")
def test_train_writes_the_same_bytes_on_one_cpu_as_on_all(corpus_dir, tokenizer_dir, tmp_path):
    # one CPU runs shard 1 inline, more fork it; the CLI's one BLAS thread
    # holds in both, and the outputs are the same bytes
    one = min(os.sched_getaffinity(0))
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    for name, preexec in (("one-cpu", lambda: os.sched_setaffinity(0, {one})), ("all", None)):
        subprocess.run(
            [sys.executable, "-m", "chamtoy.cli", "train", "--data-dir", str(corpus_dir),
             "--tokenizer-dir", str(tokenizer_dir), "--out-dir", str(tmp_path / name),
             "--seed", "3", *TRAIN_SETS, "--set", "train.steps=4"],
            capture_output=True, env=env, preexec_fn=preexec, check=True, timeout=120,
        )
    for name in ("checkpoint/weights.bin", "loss.csv"):
        assert ((tmp_path / "one-cpu" / name).read_bytes()
                == (tmp_path / "all" / name).read_bytes()), name


def test_train_ablation_pair(corpus_dir, tokenizer_dir, tmp_path):
    out = tmp_path / "ablate"
    sets = [s if s != "train.steps=6" else "train.steps=3" for s in TRAIN_SETS]
    code = main([
        "train", "--data-dir", str(corpus_dir),
        "--tokenizer-dir", str(tokenizer_dir),
        "--out-dir", str(out), "--seed", "0",
        "--ablate", "qknorm", *sets,
    ])
    assert code == EXIT_OK
    on = load_log(out / "qknorm_on" / "loss.csv")
    off = load_log(out / "qknorm_off" / "loss.csv")
    assert len(on) == len(off) == 3
    assert any(a["ce"] != b["ce"] for a, b in zip(on, off))
    _, cfg, _, _ = load_checkpoint(out / "qknorm_off" / "checkpoint")
    assert cfg.qk_norm is False
    assert "model.qk_norm false" in (out / "qknorm_off" / "effective_config.txt").read_text()


def model_lines(path):
    return {line for line in path.read_text().splitlines() if line.startswith("model.")}


def assert_records_checkpoint_model(out):
    """effective_config.txt's model.* lines are those of the saved model."""
    recorded = model_lines(out / "effective_config.txt")
    assert {l for l in recorded if not l.startswith("model.preset ")} <= model_lines(
        out / "checkpoint" / "config.txt")
    return recorded


def test_effective_config_records_preset_model(corpus_dir, tokenizer_dir, tmp_path):
    out = tmp_path / "llama"
    sets = [s if s != "train.steps=6" else "train.steps=3" for s in TRAIN_SETS]
    code = main([
        "train", "--data-dir", str(corpus_dir), "--tokenizer-dir", str(tokenizer_dir),
        "--out-dir", str(out), *sets, "--set", "model.preset=llama2-recipe",
    ])
    assert code == EXIT_OK
    recorded = assert_records_checkpoint_model(out)
    assert {"model.preset llama2-recipe", "model.norm_strategy pre_norm",
            "model.qk_norm false", "model.z_coeff 0.0"} <= recorded


def test_effective_config_records_resumed_model(corpus_dir, tokenizer_dir, tmp_path):
    small = ["--set", "model.d_model=32", "--set", "model.n_layers=1"]
    sets = [s if s != "train.steps=6" else "train.steps=3" for s in TRAIN_SETS]
    args = ["train", "--data-dir", str(corpus_dir), "--tokenizer-dir", str(tokenizer_dir)]
    assert main([*args, "--out-dir", str(tmp_path / "a"), *sets, *small]) == EXIT_OK
    sets = [s if s != "train.steps=6" else "train.steps=5" for s in TRAIN_SETS]
    code = main([*args, "--out-dir", str(tmp_path / "b"), *sets,
                 "--resume", str(tmp_path / "a" / "checkpoint")])
    assert code == EXIT_OK
    recorded = assert_records_checkpoint_model(tmp_path / "b")
    assert {"model.d_model 32", "model.n_layers 1"} <= recorded


def test_divergence_exits_3_with_note_on_every_training_command(
    corpus_dir, tokenizer_dir, pretrain_dir, tmp_path
):
    # a true trigger: at lr 1e200 the first update sends the weights
    # non-finite, and a halted run keeps the rows up to its flagging step
    blow_up = ["--set", "optim.lr=1e200", "--set", "optim.warmup_steps=1",
               "--set", "train.halt_on_divergence=true"]
    out = subprocess.run(
        [sys.executable, "-m", "chamtoy.cli", "train", "--data-dir", str(corpus_dir),
         "--tokenizer-dir", str(tokenizer_dir), "--out-dir", str(tmp_path / "ablate"),
         "--ablate", "qknorm", *TRAIN_SETS, *blow_up],
        capture_output=True, text=True,
    )
    assert out.returncode == EXIT_DIVERGED, out.stderr
    flagged_at = re.findall(r"^divergence flagged after (\d+) monitored steps$", out.stderr, re.M)
    assert len(flagged_at) == 2, out.stderr
    for arm, step in zip(("qknorm_on", "qknorm_off"), flagged_at):
        assert len(load_log(tmp_path / "ablate" / arm / "loss.csv")) == int(step) + 1
        assert (tmp_path / "ablate" / arm / "checkpoint").is_dir()

    out = subprocess.run(
        [sys.executable, "-m", "chamtoy.cli", "sft", "--data-dir", str(corpus_dir),
         "--tokenizer-dir", str(tokenizer_dir), "--init", str(pretrain_dir / "checkpoint"),
         "--out-dir", str(tmp_path / "sft"), "--set", "train.steps=6",
         "--set", "train.batch_size=2", "--set", "train.seq_len=32", *blow_up],
        capture_output=True, text=True,
    )
    assert out.returncode == EXIT_DIVERGED, out.stderr
    flagged_at = re.findall(r"^divergence flagged after (\d+) monitored steps$", out.stderr, re.M)
    assert len(flagged_at) == 1, out.stderr
    assert len(load_log(tmp_path / "sft" / "loss.csv")) == int(flagged_at[0]) + 1


def test_non_finite_divergence_prints_only_the_note(corpus_dir, tokenizer_dir, tmp_path):
    # overflow in the step is the monitor's to report; numpy must not warn
    out = subprocess.run(
        [sys.executable, "-m", "chamtoy.cli", "train", "--data-dir", str(corpus_dir),
         "--tokenizer-dir", str(tokenizer_dir), "--out-dir", str(tmp_path / "run"),
         "--set", "tokenizer.image_codes=64", "--set", "train.batch_size=2",
         "--set", "train.seq_len=32", "--set", "optim.lr=1e200",
         "--set", "optim.warmup_steps=1", "--set", "train.steps=5"],
        capture_output=True, text=True,
    )
    assert out.returncode == EXIT_DIVERGED
    assert out.stderr == "divergence flagged after 1 monitored steps\n"


def test_train_rejects_bad_mixture(corpus_dir, tokenizer_dir, tmp_path):
    code = main([
        "train", "--data-dir", str(corpus_dir),
        "--tokenizer-dir", str(tokenizer_dir),
        "--out-dir", str(tmp_path / "x"),
        "--set", "data.stage1=absent:1.0", *TRAIN_SETS,
    ])
    assert code == EXIT_USAGE


def corpus_read(*args):
    raise AssertionError("the corpus was read before the configuration was checked")


@pytest.mark.parametrize("setting", [
    "data.stage1=text:nan", "data.stage1=text:inf", "data.stage2_extra=captions:nan",
    "data.stage1=text:-1", "data.stage1=text:0,captions:0",
    # each weight finite, but their stage 2 sum is not
    "data.stage2_extra=captions:1e308,text:1e308",
])
def test_bad_mixture_weights_exit_2_before_any_work(setting, corpus_dir, tokenizer_dir,
                                                    tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_build_docs", corpus_read)
    code = main(["train", "--data-dir", str(corpus_dir), "--tokenizer-dir", str(tokenizer_dir),
                 "--out-dir", str(tmp_path / "out"), *TRAIN_SETS, "--set", setting])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"configuration error: {setting.split('=')[0]} ")
    assert not (tmp_path / "out").exists()


BAD_MODEL_AND_OPTIM = [
    "model.dropout=1.5", "model.dropout=-0.5", "model.n_layers=0", "model.n_layers=-2",
    "model.max_seq=0", "model.norm_eps=-1", "model.z_coeff=-1", "optim.lr=-1",
    "optim.warmup_steps=-3", "optim.schedule=linear",
    # a run no longer than its warmup (2 steps here, 40 on sft) is the warmup's error
    "train.steps=2",
    # the optimizer recipe's values are constants of trainer.py: no key sets them
    "optim.eps=0", "optim.beta1=2", "optim.clip_norm=0", "optim.clip_norm=-1",
]
# how the message starts where it does not name the key's own field
MESSAGE_OF_KEY = {
    "train.steps": "warmup_steps must ",
    **{key: f"unknown configuration key '{key}'"
       for key in ("optim.eps", "optim.beta1", "optim.clip_norm")},
}


@pytest.mark.parametrize("command, setting", [
    (command, setting) for setting in BAD_MODEL_AND_OPTIM for command in ("train", "ablate", "sft")
    # sft takes its model from the checkpoint, all but dropout
    if command != "sft" or not setting.startswith("model.") or "dropout" in setting
])
def test_bad_model_and_optim_values_exit_2_naming_the_field(
    command, setting, corpus_dir, tokenizer_dir, pretrain_dir, tmp_path, capsys, monkeypatch
):
    key, _ = setting.split("=")
    monkeypatch.setattr(cli, "_build_docs", corpus_read)
    monkeypatch.setattr(cli, "load_sft_corpus", corpus_read)
    argv = {"train": ["train", "--tokenizer-dir", str(tokenizer_dir), *TRAIN_SETS],
            "ablate": ["train", "--ablate", "qknorm", "--tokenizer-dir", str(tokenizer_dir),
                       *TRAIN_SETS],
            "sft": ["sft", "--tokenizer-dir", str(tokenizer_dir),
                    "--init", str(pretrain_dir / "checkpoint")]}[command]
    code = main([*argv, "--data-dir", str(corpus_dir), "--out-dir", str(tmp_path / "out"),
                 "--set", setting])
    assert code == EXIT_USAGE
    start = MESSAGE_OF_KEY.get(key, f"{key.split('.')[1]} must ")
    assert capsys.readouterr().err.startswith(f"configuration error: {start}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("setting, message", [
    ("model.n_heads=3", "d_model must be a multiple of n_heads, got 64 and 3"),
    ("model.n_kv_heads=3", "n_heads must be a multiple of n_kv_heads, got 4 and 3"),
    ("model.d_model=12", "d_model / n_heads must be even for rotary embeddings, got 12 / 4"),
])
def test_model_geometry_errors_exit_2_naming_the_key(setting, message, corpus_dir,
                                                     tokenizer_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_build_docs", corpus_read)
    code = main(["train", "--data-dir", str(corpus_dir), "--tokenizer-dir", str(tokenizer_dir),
                 *TRAIN_SETS, "--out-dir", str(tmp_path / "out"), "--set", setting])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def corrupt_corpus_dir(corpus_dir, tmp_path_factory):
    """The corpus with a text.jsonl and an sft.jsonl that are not JSON."""
    d = tmp_path_factory.mktemp("corrupt")
    shutil.copytree(corpus_dir, d, dirs_exist_ok=True)
    for name in ("text.jsonl", "sft.jsonl"):
        (d / name).write_text('{"text": \n')
    return d


@pytest.mark.parametrize("command", ["train", "resume", "ablate", "sft"])
def test_seq_len_over_max_seq_exits_2_before_the_corpus_is_read(
    command, corrupt_corpus_dir, tokenizer_dir, pretrain_dir, tmp_path, capsys
):
    # read first, the corrupt corpus would exit 1 with its JSON error
    argv = {"train": ["train", *TRAIN_SETS],
            "resume": ["train", *TRAIN_SETS, "--resume", str(pretrain_dir / "checkpoint")],
            "ablate": ["train", *TRAIN_SETS, "--ablate", "qknorm"],
            "sft": ["sft", "--init", str(pretrain_dir / "checkpoint")]}[command]
    code = main([*argv, "--data-dir", str(corrupt_corpus_dir),
                 "--tokenizer-dir", str(tokenizer_dir), "--out-dir", str(tmp_path / "out"),
                 "--set", "train.seq_len=300"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "configuration error: train.seq_len 300 exceeds model.max_seq 256\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "generate"])
def test_image_size_the_patch_does_not_divide_exits_2_naming_the_key(
    command, corrupt_corpus_dir, tokenizer_dir, pretrain_dir, tmp_path, capsys
):
    # train once encoded its text corpus first and then exited 1
    argv = {"train": ["train", *TRAIN_SETS, "--data-dir", str(corrupt_corpus_dir)],
            "generate": ["generate", "--checkpoint", str(pretrain_dir / "checkpoint")]}[command]
    code = main([*argv, "--tokenizer-dir", str(tokenizer_dir), "--out-dir", str(tmp_path / "out"),
                 "--set", "tokenizer.image_size=30"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == ("configuration error: tokenizer.image_size 30: "
                                       "image 30x30 not divisible into 4x4 patches\n")
    assert not (tmp_path / "out").exists()


def test_train_missing_tokenizer_fails(corpus_dir, tmp_path):
    code = main([
        "train", "--data-dir", str(corpus_dir),
        "--tokenizer-dir", str(tmp_path / "nope"),
        "--out-dir", str(tmp_path / "out"), *TRAIN_SETS,
    ])
    assert code == EXIT_FAILURE


def test_sft_applies_tuning_defaults(corpus_dir, tokenizer_dir, pretrain_dir, tmp_path, capsys):
    out = tmp_path / "sft"
    code = main([
        "sft", "--data-dir", str(corpus_dir),
        "--tokenizer-dir", str(tokenizer_dir),
        "--init", str(pretrain_dir / "checkpoint"),
        "--out-dir", str(out), "--seed", "1",
        "--set", "train.steps=4",
        "--set", "train.batch_size=2",
        "--set", "train.seq_len=48",
        "--set", "optim.warmup_steps=1",
    ])
    assert code == EXIT_OK
    echoed = capsys.readouterr().out
    assert "optim.schedule cosine" in echoed
    assert "optim.lr 1e-05" in echoed
    assert "model.dropout 0.05" in echoed
    params, cfg, _, step = load_checkpoint(out / "checkpoint")
    assert step == 4
    assert cfg.dropout == 0.05


@pytest.mark.parametrize("settings", [
    ["model.n_layers=0"], ["model.n_layers=3"], ["model.max_seq=512"],
    ["model.preset=7b-recipe"], ["model.qk_norm=false", "model.dropout=0.1", "model.d_model=32"],
])
def test_sft_refuses_model_keys_the_checkpoint_fixes(settings, corpus_dir, tokenizer_dir,
                                                     pretrain_dir, tmp_path, capsys, monkeypatch):
    # these once went unread: sft trained the checkpoint's model and exited 0
    monkeypatch.setattr(cli, "load_sft_corpus", corpus_read)
    code = main(["sft", "--data-dir", str(corpus_dir), "--tokenizer-dir", str(tokenizer_dir),
                 "--init", str(pretrain_dir / "checkpoint"), "--out-dir", str(tmp_path / "out"),
                 *(arg for setting in settings for arg in ("--set", setting))])
    assert code == EXIT_USAGE
    keys = sorted(s.split("=")[0] for s in settings if not s.startswith("model.dropout"))
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {', '.join(keys)} cannot be set")
    assert not (tmp_path / "out").exists()


def test_generate_text_only_deterministic(pretrain_dir, tokenizer_dir, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main([
            "generate", "--checkpoint", str(pretrain_dir / "checkpoint"),
            "--tokenizer-dir", str(tokenizer_dir),
            "--prompt", "the sky", "--out-dir", str(out), "--seed", "11",
            "--set", "generate.mode=text-only",
            "--set", "generate.max_new_tokens=10",
        ])
        assert code == EXIT_OK
        manifest = (out / "manifest.txt").read_text()
        assert manifest.strip()
        parts = [line.split() for line in manifest.splitlines()]
        assert all(kind == "text" for _, kind, _ in parts)
        outs.append([(out / fname).read_bytes() for _, _, fname in parts])
    assert outs[0] == outs[1]


def test_generate_image_only_writes_pixmap(pretrain_dir, tokenizer_dir, tmp_path, capsys):
    out = tmp_path / "img"
    code = main([
        "generate", "--checkpoint", str(pretrain_dir / "checkpoint"),
        "--tokenizer-dir", str(tokenizer_dir),
        "--out-dir", str(out), "--seed", "2",
        "--set", "generate.mode=image-only",
    ])
    assert code == EXIT_OK
    lines = (out / "manifest.txt").read_text().splitlines()
    image_files = [f for _, kind, f in (l.split() for l in lines) if kind == "image"]
    assert len(image_files) == 1
    img = read_pixmap(out / image_files[0])
    assert img.shape == (32, 32)

    # without --out-dir the image is named on stdout
    capsys.readouterr()
    code = main([
        "generate", "--checkpoint", str(pretrain_dir / "checkpoint"),
        "--tokenizer-dir", str(tokenizer_dir), "--seed", "2",
        "--set", "generate.mode=image-only",
    ])
    assert code == EXIT_OK
    assert "[image 32x32]" in capsys.readouterr().out.splitlines()


def test_generate_append_sep_runs_clean(pretrain_dir, tokenizer_dir, tmp_path):
    # tuned checkpoints emit SEP mid-stream; the flag and the detokenizer
    # must cooperate instead of erroring out
    out = tmp_path / "sep"
    code = main([
        "generate", "--checkpoint", str(pretrain_dir / "checkpoint"),
        "--tokenizer-dir", str(tokenizer_dir),
        "--prompt", "the sky", "--out-dir", str(out), "--seed", "11",
        "--set", "generate.mode=text-only",
        "--set", "generate.max_new_tokens=10",
        "--set", "generate.append_sep=true",
    ])
    assert code == EXIT_OK
    assert (out / "manifest.txt").exists()


def test_generate_checkpoint_missing_param_fails_cleanly(pretrain_dir, tokenizer_dir, tmp_path):
    ck = tmp_path / "checkpoint"
    shutil.copytree(pretrain_dir / "checkpoint", ck)
    manifest = ck / "manifest.txt"
    kept = [l for l in manifest.read_text().splitlines() if not l.startswith("lm_head ")]
    manifest.write_text("\n".join(kept) + "\n")
    out = subprocess.run(
        [sys.executable, "-m", "chamtoy.cli", "generate", "--checkpoint", str(ck),
         "--tokenizer-dir", str(tokenizer_dir), "--prompt", "the sky"],
        capture_output=True, text=True,
    )
    assert out.returncode == EXIT_FAILURE
    assert out.stderr.startswith("error: ") and "lm_head" in out.stderr
    assert "Traceback" not in out.stderr


def test_generate_bad_mode_is_usage_error(pretrain_dir, tokenizer_dir):
    code = main([
        "generate", "--checkpoint", str(pretrain_dir / "checkpoint"),
        "--tokenizer-dir", str(tokenizer_dir),
        "--set", "generate.mode=psychic",
    ])
    assert code == EXIT_USAGE


# One row per documented failure path: argv (with {corpus}, {no_captions}, {tok},
# {ckpt}, {broken} and {tmp} filled in from the fixtures) and the exit code it must give.
FAILURE_PATHS = {
    "kmeans-iters-0": (["tokenizer-train", "--set", "tokenizer.kmeans_iters=0"], EXIT_USAGE),
    "image-codes-0": (["tokenizer-train", "--set", "tokenizer.image_codes=0"], EXIT_USAGE),
    "vocab-size-10": (["tokenizer-train", "--set", "tokenizer.vocab_size=10"], EXIT_USAGE),
    "patch-5": (["tokenizer-train", "--set", "tokenizer.patch=5"], EXIT_USAGE),
    # token ids are code points, and training needs one more for a separator
    "vocab-size-beyond-code-points": (
        ["tokenizer-train", "--set", "tokenizer.vocab_size=2000000"], EXIT_USAGE,
    ),
    "no-captions": (["tokenizer-train", "--data-dir", "{no_captions}"], EXIT_USAGE),
    "max-new-tokens-0": (["generate", "--set", "generate.max_new_tokens=0"], EXIT_USAGE),
    "max-new-tokens-neg": (["generate", "--set", "generate.max_new_tokens=-3"], EXIT_USAGE),
    "prompt-over-max-seq": (["generate", "--prompt", "0123456789" * 60], EXIT_USAGE),
    # 221 prompt tokens leave 35 of 256 positions, short of a 66-token image block
    "image-only-prompt-without-room-for-block": (
        ["generate", "--set", "generate.mode=image-only", "--prompt", "0123456789" * 22],
        EXIT_USAGE,
    ),
    "generate-bad-norm-strategy": (["generate", "--set", "model.norm_strategy=bogus"], EXIT_USAGE),
    # a checkpoint built for another vocabulary than the tokenizer's
    "generate-checkpoint-vocab-smaller": (
        ["generate", "--checkpoint", "{broken}/vocab-minus-100"], EXIT_USAGE,
    ),
    "generate-checkpoint-vocab-larger": (
        ["generate", "--checkpoint", "{broken}/vocab-plus-100"], EXIT_USAGE,
    ),
    # a checkpoint config.txt without one of its model.* lines
    "generate-checkpoint-config-incomplete": (
        ["generate", "--checkpoint", "{broken}/no-norm-eps"], EXIT_FAILURE,
    ),
    "sft-init-config-incomplete": (["sft", "--init", "{broken}/no-norm-eps"], EXIT_FAILURE),
    # only format 2 loads
    "generate-checkpoint-format-1": (["generate", "--checkpoint", "{broken}/format-1"],
                                     EXIT_FAILURE),
    "resume-config-incomplete": (
        ["train", *TRAIN_SETS, "--resume", "{broken}/no-norm-eps"], EXIT_FAILURE,
    ),
    "bad-image-fit": (["tokenizer-train", "--set", "data.image_fit=bogus"], EXIT_USAGE),
    "seq-len-over-max-seq": (
        ["train", *TRAIN_SETS, "--set", "train.seq_len=300", "--set", "model.max_seq=256"],
        EXIT_USAGE,
    ),
    "ablate-seq-len-over-max-seq": (
        ["train", *TRAIN_SETS, "--ablate", "qknorm", "--set", "train.seq_len=300",
         "--set", "model.max_seq=256"],
        EXIT_USAGE,
    ),
    "ablate-with-resume": (
        ["train", *TRAIN_SETS, "--ablate", "qknorm", "--resume", "{tmp}/absent"], EXIT_USAGE,
    ),
    "sft-seq-len-over-max-seq": (["sft", "--set", "train.seq_len=300"], EXIT_USAGE),
    "sft-model-key": (["sft", "--set", "model.n_layers=0"], EXIT_USAGE),
    "missing-judgments": (["eval", "--judgments", "{tmp}/absent.csv"], EXIT_FAILURE),
    # checked before the judgments file is read
    "bootstrap-0": (["eval", "--judgments", "{tmp}/absent.csv", "--bootstrap", "0"], EXIT_USAGE),
    "bootstrap-neg": (["eval", "--judgments", "{tmp}/absent.csv", "--bootstrap", "-3"],
                      EXIT_USAGE),
    "monitor-report-not-a-log": (["monitor-report", "--log", "{corpus}/text.jsonl"], EXIT_FAILURE),
    "sft-no-packable-rows": (["sft", "--set", "train.seq_len=4"], EXIT_FAILURE),
    # a non-finite temperature turns every score into NaN
    "generate-temperature-inf": (["generate", "--set", "generate.temperature=inf"], EXIT_USAGE),
    "generate-temperature-nan": (["generate", "--set", "generate.temperature=nan"], EXIT_USAGE),
    "d-model-0": (["train", *TRAIN_SETS, "--set", "model.d_model=0"], EXIT_USAGE),
    "n-heads-0": (["train", *TRAIN_SETS, "--set", "model.n_heads=0"], EXIT_USAGE),
    "n-heads-neg": (["train", *TRAIN_SETS, "--set", "model.n_heads=-2"], EXIT_USAGE),
    "n-kv-heads-0": (["train", *TRAIN_SETS, "--set", "model.n_kv_heads=0"], EXIT_USAGE),
    "ffn-hidden-0": (["train", *TRAIN_SETS, "--set", "model.ffn_hidden=0"], EXIT_USAGE),
    "patch-0": (["tokenizer-train", "--set", "tokenizer.patch=0"], EXIT_USAGE),
    "train-seed-neg": (["train", *TRAIN_SETS, "--seed", "-3"], EXIT_USAGE),
    "tokenizer-train-seed-neg": (["tokenizer-train", "--seed", "-3"], EXIT_USAGE),
    # a third entry is added to the environment
    "env-seed-neg": (["train", *TRAIN_SETS], EXIT_USAGE, {"CHAMTOY_SEED": "-2"}),
    "env-seed-not-int": (["tokenizer-train"], EXIT_USAGE, {"CHAMTOY_SEED": "abc"}),
}

COMMAND_ARGS = {
    "tokenizer-train": ["--data-dir", "{corpus}", "--out-dir", "{tmp}/out",
                        "--set", "tokenizer.vocab_size=300"],
    "generate": ["--checkpoint", "{ckpt}", "--tokenizer-dir", "{tok}"],
    "train": ["--data-dir", "{corpus}", "--tokenizer-dir", "{tok}", "--out-dir", "{tmp}/out"],
    "sft": ["--data-dir", "{corpus}", "--tokenizer-dir", "{tok}", "--init", "{ckpt}",
            "--out-dir", "{tmp}/out"],
}


@pytest.mark.parametrize("case", FAILURE_PATHS)
def test_failure_paths_exit_codes(case, corpus_dir, no_captions_dir, tokenizer_dir, pretrain_dir,
                                  broken_dir, tmp_path):
    argv, expected, *env = FAILURE_PATHS[case]
    dirs = dict(corpus=corpus_dir, no_captions=no_captions_dir, tok=tokenizer_dir,
                ckpt=pretrain_dir / "checkpoint", broken=broken_dir, tmp=tmp_path)
    # the row's own options come last, so they override a shared default
    argv = [argv[0], *COMMAND_ARGS.get(argv[0], []), *argv[1:]]
    out = subprocess.run(
        [sys.executable, "-m", "chamtoy.cli", *(a.format(**dirs) for a in argv)],
        capture_output=True, text=True, env={**os.environ, **(env[0] if env else {})},
    )
    assert out.returncode == expected, out.stderr
    assert "Traceback" not in out.stderr
    prefix = "configuration error: " if expected == EXIT_USAGE else "error: "
    lines = out.stderr.splitlines()
    assert lines[-1].startswith(prefix)
    # one line, but where a note on what was dropped comes first
    assert len(lines) == 1 or case == "sft-no-packable-rows", out.stderr


@pytest.mark.parametrize("command, setting", [
    ("train", "train.batch_size=0"),
    ("train", "train.batch_size=-2"),
    ("train", "train.seq_len=0"),
    ("train", "tokenizer.image_size=0"),
    ("tokenizer-train", "tokenizer.image_size=0"),
])
def test_non_positive_sizes_exit_2_naming_the_key(command, setting, corpus_dir, tokenizer_dir,
                                                  tmp_path, capsys):
    # numpy met these as empty or negative shapes: exit 1 with a reshape
    # error, exit 2 with "high <= 0", or (image_size on train) exit 0
    dirs = {"tokenizer-train": ["--data-dir", str(corpus_dir)],
            "train": ["--data-dir", str(corpus_dir), "--tokenizer-dir", str(tokenizer_dir),
                      *TRAIN_SETS]}[command]
    code = main([command, *dirs, "--out-dir", str(tmp_path / "out"), "--set", setting])
    key, value = setting.split("=")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"configuration error: {key} must be at least 1, got {value}\n"
    assert not (tmp_path / "out").exists()


def test_tokenizer_train_on_a_lone_surrogate_exits_2_in_one_line(corpus_dir, tmp_path):
    data_dir = tmp_path / "data"
    shutil.copytree(corpus_dir, data_dir)
    # a JSON escape that decodes to a lone surrogate, which UTF-8 cannot encode
    (data_dir / "text.jsonl").write_text('{"text": "ab\\ud800cd"}\n')
    out = subprocess.run(
        [sys.executable, "-m", "chamtoy.cli", "tokenizer-train", "--data-dir", str(data_dir),
         "--out-dir", str(tmp_path / "out"), "--set", "tokenizer.vocab_size=300"],
        capture_output=True, text=True,
    )
    assert out.returncode == EXIT_USAGE
    assert out.stderr.splitlines() == [
        "configuration error: 'utf-8' codec can't encode character '\\ud800' in position 2: "
        "surrogates not allowed"
    ]


# ----------------------------------------------------------------------
# eval and monitor-report
# ----------------------------------------------------------------------


def write_judgments(path):
    rows = ["item_id,result,category,modality"]
    results = ["win"] * 6 + ["tie"] * 2 + ["loss"] * 2
    for i, r in enumerate(results):
        rows.append(f"i{i},{r},desc,text")
    path.write_text("\n".join(rows) + "\n")


def test_eval_judgments_and_annotations(tmp_path, capsys):
    judg = tmp_path / "judgments.csv"
    write_judgments(judg)
    ann = tmp_path / "annotations.csv"
    ann.write_text(
        "item_id,annotator_id,label\n"
        + "".join(f"i{i},a,win\ni{i},b,win\n" for i in range(8))
    )
    code = main([
        "eval", "--judgments", str(judg), "--annotations", str(ann),
        "--bootstrap", "200", "--seed", "5",
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "train.seed 5" in out  # effective config echoed
    assert "overall win rate 70.0%" in out
    assert "krippendorff alpha 1.000" in out


def test_eval_without_inputs_is_usage_error():
    assert main(["eval"]) == EXIT_USAGE


def test_eval_bootstrap_below_one_prints_nothing(tmp_path, capsys):
    judg = tmp_path / "judgments.csv"
    write_judgments(judg)
    assert main(["eval", "--judgments", str(judg), "--bootstrap", "0"]) == EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_eval_missing_file_fails(tmp_path):
    assert main(["eval", "--judgments", str(tmp_path / "no.csv")]) == EXIT_FAILURE


def make_log_rows(rms_values):
    return [
        {
            "step": i, "ce": 5.0, "z_loss": 0.0, "lr": 1e-4,
            "grad_norm": 1.0, "output_rms": float(v), "diverged": 0,
        }
        for i, v in enumerate(rms_values)
    ]


def test_monitor_report_exit_codes(tmp_path, capsys):
    stable = tmp_path / "stable.csv"
    save_log(make_log_rows(1.0 + 0.01 * np.sin(np.arange(300))), stable)
    assert main(["monitor-report", "--log", str(stable)]) == EXIT_OK

    ramp = tmp_path / "ramp.csv"
    save_log(make_log_rows(np.exp(0.01 * np.arange(300))), ramp)
    assert main(["monitor-report", "--log", str(ramp)]) == EXIT_DIVERGED

    # a non-finite loss is flagged even when the norm is flat
    nan_loss = tmp_path / "nan_loss.csv"
    rows = make_log_rows(np.ones(1))
    rows[0]["ce"] = float("nan")
    save_log(rows, nan_loss)
    assert main(["monitor-report", "--log", str(nan_loss)]) == EXIT_DIVERGED

    assert main(["monitor-report", "--log", str(tmp_path / "no.csv")]) == EXIT_FAILURE

    header_only = tmp_path / "header_only.csv"
    save_log([], header_only)
    capsys.readouterr()
    assert main(["monitor-report", "--log", str(header_only)]) == EXIT_FAILURE
    assert capsys.readouterr().err == f"error: no rows in {header_only}\n"


@pytest.mark.parametrize("row", ["0,1.0,0.1", "0,5.0,0.0,1e-4,1.0,1.0,0,7"])
def test_monitor_report_names_a_row_of_another_width(tmp_path, capsys, row):
    log = tmp_path / "loss.csv"
    save_log(make_log_rows([1.0]), log)
    log.write_text(log.read_text() + row + "\n")
    assert main(["monitor-report", "--log", str(log)]) == EXIT_FAILURE
    assert capsys.readouterr().err == (f"error: {log} line 3: expected 7 comma-separated values\n")
