"""Paired A/B timing of a base revision against the working tree.

    python3 benchmarks/ab.py --base HEAD --pairs 60 --out BENCH_<n>.json

The base revision's ``src/`` is exported with ``git archive`` and the
working tree's ``src/`` is copied, into two sibling temporary
directories whose paths have equal length.  Each workload gets one
worker process per tree, which imports that tree's ``chamtoy`` and
builds the same inputs once.  The controller then alternates short
batches between the two workers of a workload, swapping which goes
first on every pair, so that a slow stretch of a shared host falls on
both sides of a pair alike:

* ``train``: 20 toy-preset steps (batch 8 x 64) through ``train_loop``,
  from the same initial parameters every time, in a worker that keeps
  every CPU of the affinity mask, so that ``train_loop`` forks its shard
  worker as the ``chamtoy`` command does; 20 steps, so that the fork's
  cost of about 13 ms per call is a minor share;
* ``train-inline``: 5 such steps in a worker pinned to one CPU, so that
  both shards and both halves of the update run in the calling process;
* ``decode``: 3 image-only ``generate_stream`` requests of one fixed
  64-code block each, on the untrained toy model;
* ``fit``: the tokenizer and evaluation arithmetic of one perfbench
  ``train`` unit, on ``build_synthetic_corpus(seed=0)`` at its sizes
  (600 text lines, 120 captions, 120 instruction pairs): ``train_bpe``
  and ``train_codebook`` at the CLI defaults, ``encode`` of every
  document and ``encode_image`` of every caption image, and one
  1000-resample bootstrap of Krippendorff's alpha over 80 items with 3
  annotators each, run as ``chamtoy eval --annotations`` through
  ``cli.main``.  Its check, a digest of the merges, the codebook and
  every id plus the alpha line ``eval`` prints, must match on both sides.

Each ``train-inline`` and decode worker also records, once, after the
first generation's timed pairs, the memory of one train unit (the 5
steps) and of one decode request (the first of the 3, but on a 13-token
prompt, BOS and 12 text ids, the length of perfbench's caption requests,
so that the prompt's side of decode memory shows): the minor page faults
(``getrusage``) of one untraced run, then the tracemalloc peak of a
second.  The forked ``train`` worker records the minor faults of one
20-step unit in its own process, the parent of the shard worker, and no
peak, since tracemalloc would see one process of two.  tracemalloc counts bytes, so the peaks repeat exactly; the fault
counts move with the process layout (see below), so they compare the two
sides of one generation only.  The report carries them as ``peak_mb``, in
MB to 4 decimals so that a change of a few KB shows, and ``minor_faults``
beside each workload's ratio, base and change.

Workloads do not share a worker, so that one workload's heap does not
carry into another's timings: while ``fit`` ran in the train workers,
two runs on a change that leaves the train step alone read train 0.985
[0.970, 0.997] and 0.976 [0.955, 0.992], and without ``fit`` 1.012
[0.970, 1.034].

A process's memory layout depends on the size of its environment and
arguments (Mytkowicz et al., ASPLOS 2009), and one layout can run the
same code several percent faster than another.  So all workers are
restarted every ``GENERATION`` pairs, each generation with an
environment padded by a length drawn from a seeded generator, and the
workers of a generation get equal environments.  The workers of a
generation but the forked ``train`` pair are also pinned to one CPU,
drawn from the same generator, so that neither side keeps a faster or
quieter CPU to itself; the controller runs one worker at a time, so the
forked pair has the mask's CPUs to itself.  Each workload
reports the median over generations of the per-generation median ratio
change / base (below 1 means the working tree is faster), with a
bootstrap interval over those generation ratios from
``evalkit.bootstrap_ci``, so that layout luck shared by the pairs of
one generation is counted once.  BLAS and OpenMP run one thread in each
worker.  The script writes nothing inside the repository except ``--out``.

A/A check: in a clean checkout the working tree equals ``HEAD``, so
``python3 benchmarks/ab.py --base HEAD`` compares a tree with itself, and
every interval should cover 1.00.  Run it from two checkouts whose
paths differ in length; before the equal-length copies and the
generations, the train ratio of such a run followed the checkout's path
length (0.89-0.95 from one path, 1.08-1.10 from a path one character
longer).  Swapping the sides of an A/B run (``--base`` the change, the
working tree the base) should invert its ratios; without the shared CPU
the working-tree side read 3-6% slower on train in both directions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
GENERATION = 6  # pairs between worker restarts
LAYOUT_SEED = 0
PAD_MAX = 4096  # bytes of environment padding, one page of layout offsets
TRAIN_STEPS = 5  # per train-inline unit
FORKED_STEPS = 20  # per train unit
DECODE_SEEDS = (1, 2, 3)
MEMORY_PROMPT_TEXT = tuple(range(97, 109))  # 12 text ids after BOS in the decode memory unit
FIT_CORPUS = {"n_text": 600, "n_captions": 120, "n_sft": 120, "seed": 0}
ALPHA_ITEMS, ALPHA_ANNOTATORS, ALPHA_BOOT = 80, 3, 1000
WORKLOADS = {
    "train": f"{FORKED_STEPS} toy-preset train steps (batch 8 x 64) through train_loop, "
             "every CPU of the mask (forked)",
    "train-inline": f"{TRAIN_STEPS} toy-preset train steps (batch 8 x 64) through train_loop, "
                    "one CPU (inline)",
    "decode": f"{len(DECODE_SEEDS)} image-only generate_stream requests, one 64-code block each",
    "fit": "train_bpe, train_codebook and encode of every document of a 600-line, "
           f"120-caption corpus, and a {ALPHA_BOOT}-resample alpha bootstrap",
}
MEMORY_WORKLOADS = ("train", "train-inline", "decode")
FORKED = ("train",)  # workloads whose workers keep every CPU of the mask


# ----------------------------------------------------------------------
# worker: one per tree, driven over stdin / stdout
# ----------------------------------------------------------------------


def worker(tree: Path) -> None:
    """Answer each workload name read from stdin with one JSON line."""
    sys.path.insert(0, str(tree / "src"))
    import numpy as np

    from chamtoy import cli, data, tokenizer
    from chamtoy.decoder import DecodePolicy, generate_stream
    from chamtoy.model import init_params, preset
    from chamtoy.tokenizer import MixedVocab
    from chamtoy.trainer import OptimConfig, train_loop

    vocab = MixedVocab(n_text=512, n_image=128)
    cfg = preset("toy", vocab_size=vocab.total)
    init = init_params(cfg, seed=0)
    opt_cfg = OptimConfig(lr=1e-3, warmup_steps=2, total_steps=100)
    rows = np.random.default_rng(0).integers(0, vocab.n_text, size=(FORKED_STEPS, 8, 65))
    policies = [DecodePolicy(block_len=64, mode="image-only", max_new_tokens=96, seed=s)
                for s in DECODE_SEEDS]

    def batch(step, rng):
        return rows[step, :, :-1], rows[step, :, 1:], np.ones((8, 64))

    def train(steps=TRAIN_STEPS):
        params = init_params(cfg, seed=0)
        start = perf_counter()
        result = train_loop(params, cfg, opt_cfg, batch, seed=0, end_step=steps)
        return perf_counter() - start, result.rows[-1]["ce"]

    def decode():
        start = perf_counter()
        tokens = [list(generate_stream(init, cfg, [vocab.bos], p, vocab))[-1].tokens
                  for p in policies]
        return perf_counter() - start, tokens

    corpus = tree / "corpus"
    data.build_synthetic_corpus(corpus, **FIT_CORPUS)
    texts = data.load_text_corpus(corpus / "text.jsonl")
    captions = data.load_caption_corpus(corpus / "captions.jsonl")
    images = [data.prepare_image(tokenizer.read_pixmap(corpus / rel), 32, mode="crop")
              for _, rel in captions]
    documents = texts + [c for c, _ in captions] + [
        part for pair in data.load_sft_corpus(corpus / "sft.jsonl") for part in pair]
    rng = np.random.default_rng(0)
    annotations = corpus / "annotations.csv"
    lines = ["item_id,annotator_id,label"]
    for item in range(ALPHA_ITEMS):
        truth = int(rng.integers(3))
        lines += [f"i{item},a{a},{truth if rng.random() < 0.7 else int(rng.integers(3))}"
                  for a in range(ALPHA_ANNOTATORS)]
    annotations.write_text("\n".join(lines) + "\n")
    eval_argv = ["eval", "--annotations", str(annotations), "--bootstrap", str(ALPHA_BOOT),
                 "--seed", "0"]

    def fit():
        start = perf_counter()
        tok = tokenizer.train_bpe(texts + [c for c, _ in captions], 320)
        book, _ = tokenizer.train_codebook(images, n_codes=256, patch=4, iters=10, seed=0)
        ids = [tok.encode(d) for d in documents] + [
            tokenizer.encode_image(img, book).tolist() for img in images]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(eval_argv)
        seconds = perf_counter() - start
        digest = hashlib.sha256(repr((tok.merges, ids)).encode() + book.codes.tobytes())
        alpha = [line for line in printed.getvalue().splitlines() if "alpha" in line]
        return seconds, [digest.hexdigest(), code, alpha]

    def memory(unit, traced: bool) -> dict:
        """Minor page faults of one run of `unit`, and, if `traced`, the
        peak MB that tracemalloc traces while it runs again."""
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        unit()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        if not traced:
            return {"minor_faults": faults}
        tracemalloc.start()
        try:
            unit()
            peak_mb = round(tracemalloc.get_traced_memory()[1] / 1e6, 4)
        finally:
            tracemalloc.stop()
        return {"peak_mb": peak_mb, "minor_faults": faults}

    jobs = {"train": lambda: train(FORKED_STEPS), "train-inline": train, "decode": decode,
            "fit": fit}
    memory_units = {
        "train": jobs["train"],
        "train-inline": train,
        "decode": lambda: list(generate_stream(init, cfg, [vocab.bos, *MEMORY_PROMPT_TEXT],
                                               policies[0], vocab)),
    }
    print(json.dumps({"numpy": np.__version__}), flush=True)
    for line in sys.stdin:
        name = line.strip()
        if name.startswith("memory "):
            print(json.dumps(memory(memory_units[name[7:]], name[7:] not in FORKED)), flush=True)
            continue
        seconds, check = jobs[name]()
        print(json.dumps({"seconds": seconds, "check": check}), flush=True)


class Worker:
    def __init__(self, tree: Path, pad: int, cpu: int | None):
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        env["AB_LAYOUT_PAD"] = "x" * pad  # read by nobody; shifts the process layout
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        if cpu is not None:
            os.sched_setaffinity(self.proc.pid, {cpu})
        self.info = self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def run(self, workload: str) -> dict:
        self.proc.stdin.write(workload + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


# ----------------------------------------------------------------------
# controller
# ----------------------------------------------------------------------


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                             check=True, capture_output=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def compare(trees: dict, pairs: int) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from chamtoy.evalkit import bootstrap_ci

    layout = random.Random(LAYOUT_SEED)
    cpus = sorted(os.sched_getaffinity(0))
    times = {w: {"base": [], "change": []} for w in WORKLOADS}
    generations = {w: [] for w in WORKLOADS}  # per-generation median ratios
    checks = {w: {} for w in WORKLOADS}
    memory = {w: {} for w in MEMORY_WORKLOADS}
    for first in range(0, pairs, GENERATION):
        pad, cpu = layout.randrange(PAD_MAX), layout.choice(cpus)
        workers = {(w, side): Worker(tree, pad, None if w in FORKED else cpu)
                   for w in WORKLOADS for side, tree in trees.items()}
        try:
            for (w, _), proc in workers.items():  # one unpaired warm-up batch each
                proc.run(w)
            ratios = {w: [] for w in WORKLOADS}
            for i in range(first, min(first + GENERATION, pairs)):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for w in WORKLOADS:
                    for side in order:
                        reply = workers[w, side].run(w)
                        times[w][side].append(reply["seconds"])
                        checks[w][side] = reply["check"]
                    ratios[w].append(times[w]["change"][-1] / times[w]["base"][-1])
            if first == 0:  # once, outside every timed pair
                for w in MEMORY_WORKLOADS:
                    for side in trees:
                        memory[w][side] = workers[w, side].run(f"memory {w}")
            numpy_version = workers["train", "change"].info["numpy"]
        finally:
            for proc in workers.values():
                proc.close()
        for w in WORKLOADS:
            generations[w].append(median(ratios[w]))

    out = {}
    for w, desc in WORKLOADS.items():
        ci = bootstrap_ci(generations[w], median, n_boot=2000, seed=0)
        out[w] = {
            "unit": desc,
            "ratio": round(median(generations[w]), 4),
            "ci95": [round(ci.low, 4), round(ci.high, 4)],
            "generation_ratios": [round(r, 4) for r in generations[w]],
            "base_ms": round(1000 * median(times[w]["base"]), 2),
            "change_ms": round(1000 * median(times[w]["change"]), 2),
        }
    for w in MEMORY_WORKLOADS:
        for side, reply in memory[w].items():
            for key, value in reply.items():
                out[w].setdefault(key, {})[side] = value
    for w in ("train", "train-inline"):
        out[w]["final_ce"] = checks[w]
    out["decode"]["same_tokens"] = checks["decode"]["base"] == checks["decode"]["change"]
    out["fit"]["check"] = checks["fit"]["change"]
    out["fit"]["same_check"] = checks["fit"]["base"] == checks["fit"]["change"]
    return {"numpy": numpy_version, "workloads": out}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", default="HEAD", help="git revision to compare against")
    p.add_argument("--pairs", type=int, default=60)
    p.add_argument("--out", help="write the result here as JSON")
    p.add_argument("--worker", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        worker(Path(args.worker))
        return 0
    if args.pairs < 2 * GENERATION:
        p.error(f"--pairs must be at least {2 * GENERATION}")

    base_sha = git("rev-parse", args.base)
    with tempfile.TemporaryDirectory(prefix="chamtoy-ab-") as tmp:
        # sibling names of equal length, so both workers get equal-length paths
        trees = {"base": Path(tmp) / "base", "change": Path(tmp) / "tree"}
        export(base_sha, trees["base"])
        shutil.copytree(ROOT / "src", trees["change"] / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        start = perf_counter()
        result = compare(trees, args.pairs)
    report = {
        "command": " ".join(["python3", "benchmarks/ab.py", *(argv or sys.argv[1:])]),
        "base": base_sha,
        "change": {"head": git("rev-parse", "HEAD"),
                   "tree": "working tree", "dirty": bool(git("status", "--porcelain", "src"))},
        "numpy": result["numpy"],
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "blas_threads": 1,
        "pairs": args.pairs,
        "pairs_per_generation": GENERATION,
        "seconds": round(perf_counter() - start, 1),
        "workloads": result["workloads"],
    }
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
