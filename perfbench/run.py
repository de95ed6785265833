"""Benchmark for chamtoy: one workload per invocation, from the repository root.

    python3 perfbench/run.py --workload train --seed 0 --seconds 55 --trace 0

Workloads are ``train`` and ``generate`` (see perfbench/README.md).  With
``--trace 0`` the run sets up several times, times units of work with no
instrumentation for ``--seconds`` seconds, then measures peak memory in a
separate tracemalloc pass, and prints the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1`` it alternates
plain and traced units of the same inputs and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  The exit code is 0 only when
every correctness check passed.
"""

import os

# Pinned before numpy loads: the BLAS and OpenMP pools then stay at one
# thread on any machine, so timings do not depend on the core count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from stats import median, tail  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# An untraced run sets up at least SETUP_MIN times and until SETUP_SECONDS
# have passed, at most SETUP_MAX times; setup_s is the median.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 40, 4.0
WORKLOAD_NAMES = ("train", "generate")
FORWARD_KINDS = ("prefill", "step")
LAYER_FUNCTIONS = ("attention", "layer_norm", "apply_rope", "swiglu", "rms_norm")

# per-layer metric -> span whose self time is reported per op of the workload
SELF_PER_OP = {
    "data.batch_ms": "data.batch",
    "data.build_sequence_ms": "data.build_sequence",
    "data.pack_sft_ms": "data.pack_sft",
    "numerics.backward_ms": "numerics.backward",
    "numerics.embedding_ms": "numerics.embedding",
    "model.forward_ms": "model.forward",
    "objective.loss_ms": "objective.loss",
    "trainer.clip_ms": "trainer.clip",
    "trainer.adamw_ms": "trainer.adamw",
    "decoder.self_ms": "decoder.generate_stream",
    "decoder.legal_mask_ms": "decoder.legal_mask",
    "decoder.detokenize_ms": "decoder.detokenize",
    "tokenizer.bpe_train_s": "tokenizer.bpe_train",
    "tokenizer.codebook_fit_s": "tokenizer.codebook_fit",
    "tokenizer.bpe_encode_ms": "tokenizer.bpe_encode",
    "tokenizer.encode_image_ms": "tokenizer.encode_image",
    "tokenizer.read_pixmap_ms": "tokenizer.read_pixmap",
    "tokenizer.decode_tokens_ms": "tokenizer.decode_tokens",
    "evalkit.summarize_ms": "evalkit.summarize",
    "evalkit.bootstrap_ms": "evalkit.bootstrap",
    "evalkit.alpha_ms": "evalkit.alpha",
    **{f"layers.{fn}_ms": f"layers.{fn}" for fn in LAYER_FUNCTIONS},
}
# Metrics of the fit, encode and eval phases, reported per round where a
# workload's op is a training step.
PER_ROUND = {
    "data.build_sequence_ms", "data.pack_sft_ms", "tokenizer.bpe_train_s",
    "tokenizer.codebook_fit_s", "tokenizer.bpe_encode_ms", "tokenizer.encode_image_ms",
    "tokenizer.read_pixmap_ms", "tokenizer.bpe_bytes_in", "tokenizer.bpe_tokens_out",
    "evalkit.summarize_ms", "evalkit.bootstrap_ms", "evalkit.alpha_ms",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def git_sha() -> str:
    """The commit measured, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_for(seconds: float, step) -> list:
    """Call step() until another call would overrun seconds; at least once."""
    out = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        out.append(step(len(out)))
        if perf_counter() - start + (perf_counter() - t0) > seconds:
            return out


def more_setups(times) -> bool:
    return len(times) < SETUP_MAX and (len(times) < SETUP_MIN or sum(times) < SETUP_SECONDS)


def best_of_repeats(units) -> tuple[float, int, list[float]]:
    """One unit's seconds, work and samples, each piece at its fastest repeat.

    Parts of one name do the same work in every unit, sample for sample
    (the same steps, or the same tokens of the same request).  Each sample,
    and each part's time outside its samples, is taken from the repeat
    where it ran fastest.
    """
    repeats = defaultdict(list)
    for u in units:
        for name, seconds, work, op_ms in u.parts:
            repeats[name].append((seconds, work, op_ms))
    seconds, work, samples = 0.0, 0, []
    for reps in repeats.values():
        best = [min(xs) for xs in zip(*(op_ms for _, _, op_ms in reps))]
        rest = min(sec - sum(op_ms) / 1e3 for sec, _, op_ms in reps)
        seconds += rest + sum(best) / 1e3
        work += reps[0][1]
        samples += best
    return seconds, work, samples


def end_to_end(wl, setup_times, units, peak_bytes, spec_units) -> tuple[dict, list[str]]:
    """The run's metrics, from the fastest repeat of each piece of a unit.

    Every unit of a run does the same work, so repeats of a step, a decode
    event or a phase differ only in how the machine ran them.  On a shared
    machine other tenants slow whole stretches of a run by a large factor
    and only ever add time, so the fastest repeat is the steadiest measure
    of the program's own cost (the rule timeit follows), and a short piece
    finds a quiet stretch far more often than a whole unit does.
    Throughput is one unit's work over the sum of its pieces' fastest
    times; the median and tail are over the fastest time of each sample.
    The tail of those fastest times, the median unit, and the tail over all
    samples of the run, which keeps garbage-collection pauses and
    interference, are printed beside them.
    """
    seconds, work, samples = best_of_repeats(units)
    values = {
        "setup_s": median(setup_times),
        "throughput_per_s": work / seconds,
        "op_ms.p50": median(samples),
        "peak_mb": peak_bytes / 1e6,
    }
    notes = {
        "throughput_per_s": f", best of {len(units)} units piece by piece",
        "op_ms.p50": f", {len(samples)} samples, each the fastest of {len(units)} repeats",
    }
    lines = []
    for key, value in values.items():
        name, unit = wl.aliases.get(key, (key, spec_units[key]))
        lines.append(f"metric {name} {value:.6g} {unit} [{key}{notes.get(key, '')}]")
    # Not compared between commits: the slowest samples are the ones that
    # found no quiet repeat, so the tail moves with the machine's state.
    tail_ms, tail_note = tail(samples)
    lines.append(f"metric {wl.aliases['op_ms.tail'][0]} {tail_ms:.6g} ms ({tail_note}, "
                 "each the fastest of its repeats)")
    throughput = wl.aliases["throughput_per_s"]
    lines.append(f"metric {throughput[0]}_median_unit "
                 f"{median([u.work / u.seconds for u in units]):.6g} {throughput[1]}")
    lines.append(f"metric {wl.aliases['op_ms.p50'][0]}_median_unit "
                 f"{median([median(u.op_ms) for u in units]):.6g} ms")
    pooled_ms, pooled_note = tail([x for u in units for x in u.op_ms])
    lines.append(f"metric {wl.aliases['op_ms.tail'][0]}_pooled {pooled_ms:.6g} ms "
                 f"({pooled_note} of all units)")
    for name, value, unit in wl.report(units):
        lines.append(f"metric {name} {value:.6g} {unit}")
    return values, lines


def per_layer(wl, tracer, plain_units, traced_units) -> tuple[dict, list[str]]:
    totals = tracer.totals()

    def get(span, kind=None):
        return totals.get((span, kind), [0.0, 0.0, 0])

    def ratio(x, n):
        return x / n if n else 0.0

    ms = 1e3
    n_ops = get(wl.op_span)[2]
    n_rounds = get(wl.round_span)[2] if wl.round_span else n_ops

    def per(name):
        return n_rounds if name in PER_ROUND else n_ops

    n_kind = {k: get("model.forward", k)[2] for k in FORWARD_KINDS}
    v = {name: ratio(get(span)[0], per(name)) * (1 if name.endswith("_s") else ms)
         for name, span in SELF_PER_OP.items()}
    for kind in FORWARD_KINDS:
        for fn in LAYER_FUNCTIONS:
            v[f"layers.{fn}_ms.{kind}"] = ms * ratio(get(f"layers.{fn}", kind)[0], n_kind[kind])
        v[f"model.forward_ms.{kind}"] = ms * ratio(get("model.forward", kind)[0], n_kind[kind])
        v[f"model.forward_calls.{kind}"] = ratio(n_kind[kind], n_ops)
    v["model.forward_calls"] = ratio(get("model.forward")[2], n_ops)
    v["numerics.backward_calls"] = ratio(get("numerics.backward")[2], n_ops)
    for name in ("save_checkpoint", "load_checkpoint"):
        _, incl, calls = get(f"model.{name}")
        v[f"model.{name}_ms"] = ms * ratio(incl, calls)
    v["decoder.prefill_ms"] = ms * ratio(get("model.forward", "prefill")[1], n_kind["prefill"])
    v["decoder.step_forward_ms"] = ms * ratio(get("model.forward", "step")[1], n_kind["step"])

    counters = tracer.counters
    kv = [val for (name, _), val in counters.items() if name == "decoder.kv_bytes"]
    v["decoder.kv_bytes"] = ratio(sum(kv), len(kv))
    for name in ("tokenizer.bpe_bytes_in", "tokenizer.bpe_tokens_out"):
        v[name] = ratio(counters.get((name, None), 0.0), per(name))
    for name in ("tokens_sampled", "tokens_forced", "requests_failed",
                 "finish.eos", "finish.max_tokens", "finish.image_complete"):
        v[f"decoder.{name}"] = ratio(
            sum(u.extra.get("counts", {}).get(name, 0) for u in traced_units), len(traced_units))

    plain_p50 = median(best_of_repeats(plain_units)[2])
    traced_p50 = median(best_of_repeats(traced_units)[2])
    v["trace.overhead_op_ms.p50"] = traced_p50 - plain_p50
    covered = tracer.op_coverage(wl.op_span, wl.name + ".")
    v["trace.span_share"] = ratio(covered, get(wl.op_span)[1])

    op_ms = ms * ratio(get(wl.op_span)[1], n_ops)
    lines = [
        f"trace {len(traced_units)} traced units, {n_ops} ops ({wl.op_span}); "
        f"{wl.op} p50 {plain_p50:.4g} ms plain, {traced_p50:.4g} ms traced",
        f"trace library self time per op {ms * ratio(covered, n_ops):.4g} ms, "
        f"{100 * v['trace.span_share']:.1f}% of the mean traced op ({op_ms:.4g} ms)",
    ]
    if kv:
        lines.append("note decoder.kv_bytes is computed from the shapes of aux['kv'] returned "
                     "by model_forward: the largest cache of each request, averaged over requests")
    return v, lines


def environment(np_version: str) -> dict:
    return {
        "blas_threads": BLAS_THREADS,
        "numpy": np_version,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    src = ROOT / "src"
    if not spec_path.is_file() or not (src / "chamtoy" / "__init__.py").is_file():
        print(f"error: run from a chamtoy checkout; {spec_path} or {src}/chamtoy is missing",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(src))
    import chamtoy
    import numpy
    if Path(chamtoy.__file__).resolve().parent != (src / "chamtoy").resolve():
        print(f"error: imported chamtoy from {chamtoy.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    env = environment(numpy.__version__)
    print("env " + json.dumps(env))
    wl = workloads.WORKLOADS[args.workload](args.seed)
    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setup_times = []
        while not setup_times or not args.trace and more_setups(setup_times):
            shutil.rmtree(work / "w", ignore_errors=True)
            t0 = perf_counter()
            wl.setup(work / "w")
            setup_times.append(perf_counter() - t0)

        if args.trace:
            tracer = Tracer()
            plain, traced = [], []

            def pair(_):
                plain.append(wl.unit(0))
                workloads.install_spans(tracer)
                try:
                    traced.append(wl.unit(0, tracer))
                finally:
                    tracer.restore()

            run_for(args.seconds, pair)
            units = plain + traced
            values, lines = per_layer(wl, tracer, plain, traced)
            expected = spec["per_layer"]
        else:
            units = run_for(args.seconds, wl.unit)
            expected = spec["end_to_end"]
            values, lines = end_to_end(wl, setup_times, units, wl.memory_peak(),
                                       {m["name"]: m["unit"] for m in expected})
        failures = [f for u in units for f in u.failures] + wl.final_checks()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = [m["name"] for m in expected]
    if sorted(names) != sorted(values):
        print(f"error: metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}",
              file=sys.stderr)
        return 2
    if args.trace:
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl",
                     {"workload": args.workload, "seed": args.seed, "env": env})

    attempted = sum(u.attempted for u in units)
    print(f"workload {args.workload} seed {args.seed}: {len(setup_times)} set-ups, "
          f"{min(setup_times):.3f} to {max(setup_times):.3f} s; {len(units)} units; "
          f"{wl.op_unit} attempted {attempted}, succeeded {attempted - len(failures)}, "
          f"failed {len(failures)}")
    for line in lines:
        print(line)
    for failure in failures:
        print(f"failed {failure}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in expected},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
