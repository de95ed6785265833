"""The README quickstart, shortened, as a golden check of every output.

Each command runs as its own subprocess in an empty directory, and the
test records its exit code and the sha256 of its stdout, its stderr and
every file it wrote.  It also records the float64 logits that `generate`
decodes from, for two of the trained checkpoints: the CLI's own outputs
pass through the float32 training step and through token sampling,
which absorb a change far below float32 resolution.  The record must
equal `tests/golden/quickstart.json`.

A change that alters outputs on purpose regenerates the file with

    CHAMTOY_GOLDEN_UPDATE=1 python -m pytest tests/test_golden.py

and names the entries that changed.  Under another numpy version the
float results may legitimately differ, so only the exit codes and the
float-free files are compared, and the test says so in a warning.
"""

import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

import chamtoy
from chamtoy.data import build_synthetic_corpus
from chamtoy.model import load_checkpoint, model_forward

GOLDEN = Path(__file__).parent / "golden" / "quickstart.json"
UPDATE_VAR = "CHAMTOY_GOLDEN_UPDATE"

# outputs that involve no float arithmetic, compared under any numpy
FLOAT_FREE = {"tok/tokenizer.txt"}

TOK = ["--tokenizer-dir", "tok", "--set", "tokenizer.image_codes=64"]
TRAIN = ["--data-dir", "corpus", *TOK, "--set", "train.batch_size=2",
         "--set", "train.seq_len=32", "--set", "optim.warmup_steps=2"]

# (name, argv, output directory or None); the commands of one stage run
# side by side and depend only on earlier stages
STAGES = [
    [("tokenizer-train", ["tokenizer-train", "--data-dir", "corpus", "--out-dir", "tok",
                          "--seed", "0", "--set", "tokenizer.vocab_size=300",
                          "--set", "tokenizer.image_codes=64",
                          "--set", "tokenizer.kmeans_iters=4"], "tok"),
     ("eval", ["eval", "--judgments", "judgments.csv", "--annotations", "annotations.csv",
               "--seed", "0", "--bootstrap", "200"], None)],
    [("train", ["train", *TRAIN, "--out-dir", "run", "--seed", "0",
                "--set", "train.steps=12", "--set", "optim.lr=1e-3"], "run"),
     ("ablate", ["train", *TRAIN, "--out-dir", "ablate", "--seed", "0", "--ablate", "qknorm",
                 "--set", "train.steps=6", "--set", "optim.lr=1e-3"], "ablate")],
    [("train-resume", ["train", *TRAIN, "--out-dir", "run", "--seed", "0",
                       "--resume", "run/checkpoint", "--set", "train.steps=20",
                       "--set", "optim.lr=1e-3"], "run")],
    [("sft", ["sft", *TRAIN, "--init", "run/checkpoint", "--out-dir", "sft", "--seed", "1",
              "--set", "train.steps=10", "--set", "optim.lr=3e-4"], "sft"),
     ("generate-image", ["generate", "--checkpoint", "run/checkpoint", *TOK,
                         "--out-dir", "gen-img", "--seed", "2",
                         "--set", "generate.mode=image-only"], "gen-img"),
     ("monitor-report", ["monitor-report", "--log", "run/loss.csv"], None)],
    [("generate-text", ["generate", "--checkpoint", "sft/checkpoint", *TOK,
                        "--prompt", "describe a bright square", "--out-dir", "gen-text",
                        "--seed", "5", "--set", "generate.mode=text-only",
                        "--set", "generate.max_new_tokens=24",
                        "--set", "generate.append_sep=true"], "gen-text")],
]

LOGIT_CHECKPOINTS = ("run/checkpoint", "ablate/qknorm_off/checkpoint")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_inputs(work: Path) -> None:
    build_synthetic_corpus(work / "corpus", n_text=60, n_captions=24, n_sft=40, seed=0)
    results = ["win"] * 5 + ["tie"] * 2 + ["loss"] * 3
    (work / "judgments.csv").write_text("item_id,result,category,modality\n" + "".join(
        f"i{i},{r},{'desc' if i % 2 else 'qa'},text\n" for i, r in enumerate(results)))
    labels = ["yes", "yes", "no", "yes", "no", "no", "yes", "no"]
    (work / "annotations.csv").write_text("item_id,annotator_id,label\n" + "".join(
        f"i{i},{a},{labels[(i + j) % 8] if j < 2 else labels[i]}\n"
        for i in range(8) for j, a in enumerate("abc")))


def run_stage(work: Path, stage, env) -> dict:
    logs = work / "logs"
    logs.mkdir(exist_ok=True)
    procs = []
    for name, argv, _ in stage:
        with open(logs / f"{name}.out", "wb") as out, open(logs / f"{name}.err", "wb") as err:
            procs.append(subprocess.Popen([sys.executable, "-m", "chamtoy.cli", *argv],
                                          cwd=work, env=env, stdout=out, stderr=err))
    record = {}
    for (name, _, out_dir), proc in zip(stage, procs):
        entry = {"exit": proc.wait(timeout=300),
                 "stdout": sha256((logs / f"{name}.out").read_bytes()),
                 "stderr": sha256((logs / f"{name}.err").read_bytes())}
        if out_dir is not None:
            entry["files"] = {
                path.relative_to(work).as_posix(): sha256(path.read_bytes())
                for path in sorted((work / out_dir).rglob("*")) if path.is_file()
            }
        record[name] = entry
    return record


def decode_logits(work: Path) -> dict:
    """sha256 of the float64 logits of one prompt, per checkpoint."""
    digests = {}
    for ckpt in LOGIT_CHECKPOINTS:
        params, cfg, _, _ = load_checkpoint(work / ckpt)
        ids = (np.arange(40) * 37 % cfg.vocab_size)[None, :]
        logits, _ = model_forward(params, cfg, ids)
        digests[ckpt] = sha256(logits.data.tobytes())
    return digests


def float_free_view(record: dict) -> dict:
    """Exit codes and float-free files only."""
    view = {}
    for name, entry in record["commands"].items():
        files = {p: h for p, h in entry.get("files", {}).items() if p in FLOAT_FREE}
        view[name] = {"exit": entry["exit"], "files": files}
    return view


def test_quickstart_outputs_match_golden(tmp_path):
    write_inputs(tmp_path)
    src = str(Path(chamtoy.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "CHAMTOY_SEED"}
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    commands = {}
    for stage in STAGES:
        commands.update(run_stage(tmp_path, stage, env))
    record = {"numpy": np.__version__, "commands": commands,
              "decode_logits": decode_logits(tmp_path)}

    if os.environ.get(UPDATE_VAR):
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    golden = json.loads(GOLDEN.read_text())

    if golden["numpy"] != record["numpy"]:
        warnings.warn(f"numpy {record['numpy']} differs from the golden file's "
                      f"{golden['numpy']}: comparing exit codes and float-free files only")
        assert float_free_view(record) == float_free_view(golden)
        return
    changed = sorted(
        f"{name}: {key}"
        for name in golden["commands"].keys() | commands.keys()
        for key in ("exit", "stdout", "stderr", "files")
        if golden["commands"].get(name, {}).get(key) != commands.get(name, {}).get(key)
    ) + [f"decode_logits: {ckpt}" for ckpt in LOGIT_CHECKPOINTS
         if golden["decode_logits"].get(ckpt) != record["decode_logits"][ckpt]]
    assert not changed, f"outputs differ from {GOLDEN.name} in {changed}"
