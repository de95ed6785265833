"""Decoder-only transformer over a mixed text/image token vocabulary.

Two residual arrangements are supported.  PRE_NORM is the conventional
one: each sublayer reads a normalized copy of the stream and its raw
output is added back, so nothing bounds how large an increment can get.
POST_NORM_REORDER normalizes the sublayer output itself before the add:

    h   = x + attn_norm(attention(x))
    out = h + ffn_norm(ffn(h))

which pins every residual increment to unit root-mean-square and is the
arrangement that keeps long mixed-modal runs from diverging.
"""

from __future__ import annotations

import enum
import shutil
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .layers import KVCache, attention, dropout, rms_norm, rope_tables, swiglu
from .numerics import Tensor, embedding


class NormStrategy(enum.Enum):
    PRE_NORM = "pre_norm"
    POST_NORM_REORDER = "post_norm_reorder"


@dataclass
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    n_kv_heads: int = 4
    ffn_hidden: int = 128
    max_seq: int = 256
    dropout: float = 0.0
    z_coeff: float = 1e-5
    qk_norm: bool = True
    norm_strategy: NormStrategy = NormStrategy.POST_NORM_REORDER
    norm_eps: float = 1e-5

    def __post_init__(self):
        for name in ("d_model", "n_layers", "n_heads", "n_kv_heads", "ffn_hidden", "max_seq"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0 <= self.dropout < 1:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0 <= self.z_coeff < np.inf:
            raise ValueError(f"z_coeff must be finite and non-negative, got {self.z_coeff}")
        if not 0 < self.norm_eps < np.inf:
            raise ValueError(f"norm_eps must be finite and positive, got {self.norm_eps}")
        d, h, kv = self.d_model, self.n_heads, self.n_kv_heads
        if d % h != 0:
            raise ValueError(f"d_model must be a multiple of n_heads, got {d} and {h}")
        if h % kv != 0:
            raise ValueError(f"n_heads must be a multiple of n_kv_heads, got {h} and {kv}")
        if d // h % 2 != 0:
            raise ValueError(f"d_model / n_heads must be even for rotary embeddings, got {d} / {h}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads


# Desk-scale geometry throughout; the named recipes vary only the
# stability knobs, and each lists only where it departs from the
# ModelConfig defaults, which are the toy recipe.  The reference training
# runs used 2^23 tokens per batch for the first recipe and 3 * 2^22 for
# the second (documentation only, batching here is set by the trainer).
_PRESETS = {
    "toy": {},
    "7b-recipe": dict(dropout=0.1),
    "34b-recipe": dict(n_kv_heads=2),
    "llama2-recipe": dict(z_coeff=0.0, qk_norm=False, norm_strategy=NormStrategy.PRE_NORM),
}


def preset(name: str, vocab_size: int, **overrides) -> ModelConfig:
    if name not in _PRESETS:
        raise KeyError(f"unknown preset {name!r}; choose from {sorted(_PRESETS)}")
    # an override beats the preset, and the preset beats ModelConfig's default
    return ModelConfig(vocab_size=vocab_size, **{**_PRESETS[name], **overrides})


def _param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter, in init order; norm gains are 1-d."""
    d, hd, ff = cfg.d_model, cfg.head_dim, cfg.ffn_hidden
    kv = cfg.n_kv_heads * hd
    shapes = {"tok_emb": (cfg.vocab_size, d)}
    for i in range(cfg.n_layers):
        pre = f"layers.{i}"
        shapes[f"{pre}.attn.wqkv"] = (d, d + 2 * kv)
        shapes[f"{pre}.attn.wo"] = (d, d)
        if cfg.qk_norm:
            shapes[f"{pre}.attn.q_gain"] = (hd,)
            shapes[f"{pre}.attn.k_gain"] = (hd,)
        shapes[f"{pre}.attn_norm.gain"] = (d,)
        shapes[f"{pre}.ffn.w_gate"] = (d, ff)
        shapes[f"{pre}.ffn.w_up"] = (d, ff)
        shapes[f"{pre}.ffn.w_down"] = (ff, d)
        shapes[f"{pre}.ffn_norm.gain"] = (d,)
    shapes["final_norm.gain"] = (d,)
    shapes["lm_head"] = (d, cfg.vocab_size)
    return shapes


def init_params(cfg: ModelConfig, seed: int = 0) -> dict[str, Tensor]:
    """Fresh parameter dict; matrices ~ N(0, 0.02), norm gains at 1.

    wqkv draws its query, key and value parts in turn and joins them; that
    draw order fixes the weights of every seed.
    """
    rng = np.random.default_rng(seed)
    kv = cfg.n_kv_heads * cfg.head_dim

    def draw(name, shape):
        if len(shape) == 1:
            return np.ones(shape)
        if name.endswith(".attn.wqkv"):
            return np.concatenate([rng.normal(0.0, 0.02, size=(shape[0], w))
                                   for w in (cfg.d_model, kv, kv)], axis=1)
        return rng.normal(0.0, 0.02, size=shape)

    return {name: Tensor(draw(name, shape), requires_grad=True)
            for name, shape in _param_shapes(cfg).items()}


def block_forward(
    x: Tensor,
    params: dict[str, Tensor],
    cfg: ModelConfig,
    layer: int,
    rng: np.random.Generator | None = None,
    training: bool = False,
    past_kv=None,
):
    """One transformer block.  Returns (out, info).

    info carries the two residual increments (post-dropout, exactly what
    was added to the stream) and this layer's `KVCache`.
    """
    pre = f"layers.{layer}"
    rope_c, rope_s = rope_tables(cfg.head_dim, cfg.max_seq, x.data.dtype)
    q_gain = params.get(f"{pre}.attn.q_gain")
    k_gain = params.get(f"{pre}.attn.k_gain")

    def attn(inp):
        return attention(
            inp,
            params[f"{pre}.attn.wqkv"], params[f"{pre}.attn.wo"],
            cfg.n_heads, cfg.n_kv_heads, rope_c, rope_s,
            q_gain=q_gain, k_gain=k_gain, norm_eps=cfg.norm_eps,
            past_kv=past_kv,
        )

    def ffn(inp):
        return swiglu(
            inp,
            params[f"{pre}.ffn.w_gate"], params[f"{pre}.ffn.w_up"],
            params[f"{pre}.ffn.w_down"],
        )

    attn_gain = params[f"{pre}.attn_norm.gain"]
    ffn_gain = params[f"{pre}.ffn_norm.gain"]

    if cfg.norm_strategy is NormStrategy.PRE_NORM:
        a_out, kv = attn(rms_norm(x, attn_gain, cfg.norm_eps))
        a_inc = dropout(a_out, cfg.dropout, rng, training)
        h = x + a_inc
        f_inc = dropout(ffn(rms_norm(h, ffn_gain, cfg.norm_eps)), cfg.dropout, rng, training)
        out = h + f_inc
    else:
        a_out, kv = attn(x)
        a_inc = dropout(rms_norm(a_out, attn_gain, cfg.norm_eps), cfg.dropout, rng, training)
        h = x + a_inc
        f_inc = dropout(rms_norm(ffn(h), ffn_gain, cfg.norm_eps), cfg.dropout, rng, training)
        out = h + f_inc

    return out, {"attn_increment": a_inc, "ffn_increment": f_inc, "kv": kv}


def model_forward(
    params: dict[str, Tensor],
    cfg: ModelConfig,
    ids,
    rng: np.random.Generator | None = None,
    training: bool = False,
    past_kv: list[KVCache] | None = None,
    last_only: bool = False,
):
    """Full forward pass.  ids is an int array [batch, seq].

    Returns (logits, aux) where aux["hidden"] is the residual stream after
    the last block and before the final norm (the quantity the divergence
    monitor tracks) and aux["kv"] is the per-layer cache for incremental
    decoding: pass it back as past_kv with the next tokens.  A cache with
    room for them is filled in place (see `KVCache`).

    With last_only the final norm and the head read the last position
    alone, so logits is [batch, 1, vocab], the row decoding samples.  At
    one position it is the full head itself; at more it equals the full
    head's last row to rounding, as BLAS sums a one-row product in another
    order.  Its gradient flows into that position.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2:
        raise ValueError("token ids must be a 2-d [batch, seq] int array")
    cached = 0 if past_kv is None else past_kv[0].length
    if cached + ids.shape[1] > cfg.max_seq:
        raise ValueError(
            f"sequence of {cached + ids.shape[1]} exceeds max_seq {cfg.max_seq}"
        )

    x = embedding(params["tok_emb"], ids)
    new_kv = []
    for i in range(cfg.n_layers):
        layer_past = None if past_kv is None else past_kv[i]
        x, info = block_forward(x, params, cfg, i, rng, training, past_kv=layer_past)
        new_kv.append(info["kv"])
    hidden = x
    if last_only and ids.shape[1] > 1:  # one row already is the last position
        index = (slice(None), slice(-1, None))
        x = hidden._make(hidden.data[index], (hidden,),
                         lambda g: hidden._accumulate_slice(index, g))
    logits = rms_norm(x, params["final_norm.gain"], cfg.norm_eps) @ params["lm_head"]
    return logits, {"hidden": hidden, "kv": new_kv}


# ----------------------------------------------------------------------
# checkpointing
# ----------------------------------------------------------------------

FORMAT_VERSION = 2


def parse_bool(raw: str) -> bool:
    if raw in ("true", "1", "yes"):
        return True
    if raw in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


# config dataclass field annotation -> parser of its text form
FIELD_PARSERS = {"int": int, "float": float, "str": str, "bool": parse_bool,
                 "NormStrategy": NormStrategy}


def config_text(value) -> str:
    """A config value as config.txt and the CLI write it; FIELD_PARSERS reads it back."""
    if isinstance(value, NormStrategy):
        return value.value
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _config_to_lines(cfg: ModelConfig) -> list[str]:
    return [f"model.{f.name} {config_text(getattr(cfg, f.name))}" for f in fields(cfg)]


def _config_from_map(kv: dict[str, str]) -> ModelConfig:
    """ModelConfig from a checkpoint's config.txt; keys of no field are ignored."""
    missing = [f"model.{f.name}" for f in fields(ModelConfig) if f"model.{f.name}" not in kv]
    if missing:
        raise ValueError(f"checkpoint config.txt lacks {', '.join(missing)}")
    return ModelConfig(**{f.name: FIELD_PARSERS[f.type](kv[f"model.{f.name}"])
                          for f in fields(ModelConfig)})


def save_checkpoint(
    path,
    params: dict[str, Tensor],
    cfg: ModelConfig,
    opt_state: dict | None = None,
    step: int | None = None,
) -> None:
    """Write a checkpoint directory: manifest.txt, weights.bin, config.txt.

    weights.bin is a flat little-endian float64 blob; the manifest maps
    each array name to its shape and byte span.  Optimizer moments are
    stored under opt.m.<name> / opt.v.<name> so a resumed run continues
    bit-for-bit.

    The files are written to a sibling `<name>.tmp` directory that then
    replaces `path` by rename, so a save that fails partway (including
    one that overwrites the checkpoint it resumed from) leaves the
    previous checkpoint intact.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    old = path.with_name(path.name + ".old")
    shutil.rmtree(tmp, ignore_errors=True)  # left by a save that failed
    tmp.mkdir(parents=True)

    arrays: list[tuple[str, np.ndarray]] = [(k, v.data) for k, v in params.items()]
    if opt_state is not None:
        for k in sorted(opt_state["m"]):
            arrays.append((f"opt.m.{k}", opt_state["m"][k]))
        for k in sorted(opt_state["v"]):
            arrays.append((f"opt.v.{k}", opt_state["v"][k]))

    manifest = []
    offset = 0
    with open(tmp / "weights.bin", "wb") as fh:
        for name, arr in arrays:
            buf = np.ascontiguousarray(arr, dtype="<f8").tobytes()
            shape = ",".join(map(str, arr.shape))
            manifest.append(f"{name} {shape} float64 {offset} {len(buf)}")
            fh.write(buf)
            offset += len(buf)

    (tmp / "manifest.txt").write_text("\n".join(manifest) + "\n")

    lines = [f"format_version {FORMAT_VERSION}"]
    lines.extend(_config_to_lines(cfg))
    if step is not None:
        lines.append(f"opt.step {step}")
    if opt_state is not None:
        lines.append(f"opt.t {opt_state['t']}")
    (tmp / "config.txt").write_text("\n".join(lines) + "\n")

    # the previous checkpoint is deleted only once `path` holds the new
    # one; a crash between the two renames leaves it in `old`, where
    # load_checkpoint finds it
    if path.exists():
        shutil.rmtree(old, ignore_errors=True)
        path.rename(old)
    tmp.rename(path)
    shutil.rmtree(old, ignore_errors=True)


def load_checkpoint(path):
    """Read a checkpoint directory back.

    Returns (params, cfg, opt_state, step); opt_state/step are None when
    the checkpoint was saved without them.  When `path` is missing but
    `<name>.old` exists, a save stopped between its two renames, and the
    previous checkpoint it left in `<name>.old` is read.
    """
    path = Path(path)
    old = path.with_name(path.name + ".old")
    if not path.exists() and old.exists():
        path = old
    kv: dict[str, str] = {}
    for line in (path / "config.txt").read_text().splitlines():
        if line.strip():
            key, _, val = line.partition(" ")
            kv[key] = val
    version = int(kv.get("format_version", "-1"))
    if version != FORMAT_VERSION:
        raise ValueError(f"checkpoint format {version} not supported (expected {FORMAT_VERSION})")
    cfg = _config_from_map(kv)

    blob = (path / "weights.bin").read_bytes()
    params: dict[str, np.ndarray] = {}
    opt_m: dict[str, np.ndarray] = {}
    opt_v: dict[str, np.ndarray] = {}
    for line in (path / "manifest.txt").read_text().splitlines():
        if not line.strip():
            continue
        name, shape_s, dtype, offset_s, length_s = line.split(" ")
        if dtype != "float64":
            raise ValueError(f"unsupported dtype {dtype} in manifest")
        offset, length = int(offset_s), int(length_s)
        if offset + length > len(blob):
            raise ValueError(f"manifest entry {name} overruns weights.bin")
        shape = tuple(int(s) for s in shape_s.split(",") if s)
        arr = np.frombuffer(blob[offset:offset + length], dtype="<f8").reshape(shape).copy()
        if name.startswith("opt.m."):
            opt_m[name[len("opt.m."):]] = arr
        elif name.startswith("opt.v."):
            opt_v[name[len("opt.v."):]] = arr
        else:
            params[name] = arr

    expected = _param_shapes(cfg)
    found = {name: arr.shape for name, arr in params.items()}
    if found != expected:
        missing = sorted(expected.keys() - found.keys())
        unexpected = sorted(found.keys() - expected.keys())
        misshapen = sorted(n for n in expected.keys() & found.keys() if found[n] != expected[n])
        raise ValueError(
            f"checkpoint parameters do not match its config: missing {missing}, "
            f"unexpected {unexpected}, wrong shape {misshapen}"
        )

    opt_state = None
    if opt_m:
        opt_state = {"m": opt_m, "v": opt_v, "t": int(kv.get("opt.t", "0"))}
    step = int(kv["opt.step"]) if "opt.step" in kv else None
    # in init order, not the manifest's: clipping sums gradients in this order
    return {name: Tensor(params[name], requires_grad=True) for name in expected}, cfg, opt_state, step

