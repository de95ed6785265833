"""End-to-end and unit coverage for the command-line surface."""

import argparse
import shutil
import subprocess
import sys

import numpy as np
import pytest

from chamtoy.cli import (
    ConfigError,
    EXIT_DIVERGED,
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    build_model_config,
    main,
    make_run_config,
    parse_mixture,
)
from chamtoy.data import build_synthetic_corpus
from chamtoy.model import NormStrategy, load_checkpoint
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


def test_seed_resolution(monkeypatch):
    monkeypatch.delenv("CHAMTOY_SEED", raising=False)
    assert make_run_config(ns())["train.seed"] == 0
    monkeypatch.setenv("CHAMTOY_SEED", "7")
    assert make_run_config(ns())["train.seed"] == 7
    assert make_run_config(ns(seed=4))["train.seed"] == 4
    assert make_run_config(ns(set=["train.seed=5"]))["train.seed"] == 5


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


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "chamtoy.cli", "--help"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert "tokenizer-train" in out.stdout


# ----------------------------------------------------------------------
# pipeline: corpus -> tokenizer -> pretrain -> sft -> generate
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    build_synthetic_corpus(d, n_text=60, n_captions=24, n_sft=40, image_size=32, seed=0)
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
    on = load_log(out / "loss_qknorm_on.csv")
    off = load_log(out / "loss_qknorm_off.csv")
    assert len(on) == len(off) == 3
    assert any(a["ce"] != b["ce"] for a, b in zip(on, off))


def test_train_rejects_bad_mixture(corpus_dir, tokenizer_dir, tmp_path):
    code = main([
        "train", "--data-dir", str(corpus_dir),
        "--tokenizer-dir", str(tokenizer_dir),
        "--out-dir", str(tmp_path / "x"),
        "--set", "data.stage1=absent:1.0", *TRAIN_SETS,
    ])
    assert code == EXIT_USAGE


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


def test_generate_image_only_writes_pixmap(pretrain_dir, tokenizer_dir, tmp_path):
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


def test_monitor_report_exit_codes(tmp_path):
    stable = tmp_path / "stable.csv"
    save_log(make_log_rows(1.0 + 0.01 * np.sin(np.arange(300))), stable)
    assert main(["monitor-report", "--log", str(stable)]) == EXIT_OK

    ramp = tmp_path / "ramp.csv"
    save_log(make_log_rows(np.exp(0.01 * np.arange(300))), ramp)
    assert main(["monitor-report", "--log", str(ramp)]) == EXIT_DIVERGED

    assert main(["monitor-report", "--log", str(tmp_path / "no.csv")]) == EXIT_FAILURE
