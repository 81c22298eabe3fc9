"""A small encoder-decoder transformer with pluggable attention guidance.

Guidance is a per-layer pair of learnable matrices (phi_k, phi_v), each
prompt_len x d_model, prepended to that layer's self-attention keys and
values after the K/V projections. Queries attend over the prefix rows and
the projected token rows together, so the softmax renormalises across
both; the prefix is exempt from the causal mask and carries no positional
embedding. Cross-attention is never guided. With prompt_len zero the
stack reduces exactly to a vanilla transformer.

The prefix is the first prompt_len rows of a layer's key/value memory:
each self-attention call joins one full-width block in front of its
projected keys and values, the rows a DecoderCache holds or else the
(phi_k, phi_v) pair. Heads split that memory by columns, like the token
rows, so each head sees prompt_len prefix slots of width d_model / n_heads.

The decoder runs in one of two ways through the same attention code.
Teacher forcing passes every input row at once. Greedy decoding passes a
DecoderCache and one new row per step: the cache keeps, per layer, one
full-width self-attention key/value memory (the prefix, then the rows
seen so far) and one full-width pair of cross-attention keys and values
of the encoder states, so a step costs one decoder row and decoding a
sentence is linear in its output length. The new row's state equals the
one a teacher-forced pass over the whole prefix gives, up to float
rounding. Either way, each attention call is one ``tensor.attention`` op
over all heads.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .tensor import Parameter, Tensor

INIT_STD = 0.02

LAYER_RANGE_MODES = ("all", "lowest_k", "highest_k")
ACTIVATIONS = {"gelu": T.gelu, "tanh": T.tanh_act}


@dataclass(frozen=True)
class LayerRange:
    """Which layers of a stack receive guidance."""

    mode: str = "all"
    k: int = 0

    def __post_init__(self) -> None:
        if self.mode not in LAYER_RANGE_MODES:
            raise ValueError(f"layer range mode must be one of {LAYER_RANGE_MODES}, got {self.mode!r}")
        if self.mode != "all" and self.k < 1:
            raise ValueError(f"layer range mode {self.mode!r} needs k >= 1, got {self.k}")


def select_guided_layers(layer_range: LayerRange, depth: int) -> tuple[int, ...]:
    """Resolve a LayerRange against a stack depth; 0 is the layer nearest the input."""
    if depth < 1:
        raise ValueError(f"stack depth must be positive, got {depth}")
    if layer_range.mode == "all":
        return tuple(range(depth))
    if layer_range.k > depth:
        raise ValueError(
            f"layer range {layer_range.mode} k={layer_range.k} exceeds stack depth {depth}"
        )
    if layer_range.mode == "lowest_k":
        return tuple(range(layer_range.k))
    return tuple(range(depth - layer_range.k, depth))


# The model keys a config file may set, with their types. vocab_size is not
# among them: the vocabulary fixes it. The guidance LayerRange is spelled
# flat as guidance_mode / guidance_k.
MODEL_KEYS: dict[str, type] = {
    "d_model": int,
    "n_heads": int,
    "enc_layers": int,
    "dec_layers": int,
    "ffn_dim": int,
    "max_len": int,
    "prompt_len": int,
    "alpha": float,
    "guidance_mode": str,
    "guidance_k": int,
    "activation": str,
}


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 32
    n_heads: int = 2
    enc_layers: int = 2
    dec_layers: int = 2
    ffn_dim: int = 64
    max_len: int = 48
    prompt_len: int = 10
    alpha: float = 0.5
    guidance: LayerRange = field(default_factory=LayerRange)
    activation: str = "gelu"

    def __post_init__(self) -> None:
        if self.vocab_size < 3:
            raise ValueError(f"vocab_size must cover the specials, got {self.vocab_size}")
        if self.d_model < 1 or self.n_heads < 1 or self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model ({self.d_model}) must be a positive multiple of n_heads ({self.n_heads})"
            )
        if self.enc_layers < 1 or self.dec_layers < 1:
            raise ValueError("encoder and decoder need at least one layer each")
        if self.ffn_dim < 1:
            raise ValueError(f"ffn_dim must be positive, got {self.ffn_dim}")
        if self.prompt_len < 0:
            raise ValueError(f"prompt_len must be >= 0, got {self.prompt_len}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.max_len < 2:
            raise ValueError(f"max_len must be at least 2, got {self.max_len}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {sorted(ACTIVATIONS)}, got {self.activation!r}")
        # resolving the range validates k against both depths
        select_guided_layers(self.guidance, self.enc_layers)
        select_guided_layers(self.guidance, self.dec_layers)

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    def to_dict(self) -> dict:
        """Flat fields: vocab_size plus every key of MODEL_KEYS."""
        d = {"vocab_size": self.vocab_size, "guidance_mode": self.guidance.mode, "guidance_k": self.guidance.k}
        d.update((key, getattr(self, key)) for key in MODEL_KEYS if key not in d)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        guidance = LayerRange(mode=d.pop("guidance_mode", "all"), k=d.pop("guidance_k", 0))
        return cls(guidance=guidance, **d)


class GuidanceModule:
    """Holds the (phi_k, phi_v) pair for every guided layer of both stacks."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator) -> None:
        self.config = config
        self.guided = {
            "encoder": select_guided_layers(config.guidance, config.enc_layers),
            "decoder": select_guided_layers(config.guidance, config.dec_layers),
        }
        self._params: dict[str, Parameter] = {}
        if config.prompt_len > 0:
            shape = (config.prompt_len, config.d_model)
            for stack in ("encoder", "decoder"):
                for layer in self.guided[stack]:
                    for piece in ("phi_k", "phi_v"):
                        name = f"guidance.{stack}.layer{layer}.{piece}"
                        self._params[name] = Parameter(name, rng.normal(0.0, INIT_STD, shape))

    def pair(self, stack: str, layer: int) -> tuple[Tensor, Tensor] | None:
        """The guidance pair for a layer, or None when that layer is unguided."""
        if self.config.prompt_len == 0 or layer not in self.guided[stack]:
            return None
        k = self._params[f"guidance.{stack}.layer{layer}.phi_k"]
        v = self._params[f"guidance.{stack}.layer{layer}.phi_v"]
        return k.value, v.value

    def parameters(self) -> list[Parameter]:
        return list(self._params.values())

    def param(self, name: str) -> Parameter:
        return self._params[name]

    def reinitialize(self, rng: np.random.Generator) -> None:
        """Redraw every guidance matrix; used for cold-start tuning."""
        for p in self._params.values():
            p.value.data = rng.normal(0.0, INIT_STD, p.value.data.shape)
            p.value.grad = None


@dataclass
class DecoderCache:
    """One sentence's decoder state, for feeding ``decode_states`` a row at a time.

    ``length`` counts the decoder rows consumed so far. Both memories are
    one full-width (keys, values) pair per layer, heads being column
    blocks. ``self_kv`` holds the guidance prefix first, then the keys and
    values of those rows. ``cross_kv`` holds the keys and values of the
    encoder states, which stay fixed for the sentence. Both are filled the
    first time a layer runs.
    """

    length: int = 0
    self_kv: dict[int, tuple[Tensor, Tensor]] = field(default_factory=dict)
    cross_kv: dict[int, tuple[Tensor, Tensor]] = field(default_factory=dict)


class Backbone:
    """Token embeddings plus guided encoder and decoder stacks.

    All parameters are drawn from one seeded generator in a fixed order,
    so equal seeds give bitwise-equal models. The embedding table is
    shared by the encoder input, the decoder input, and the output-side
    scoring done by the prediction head.
    """

    def __init__(self, config: ModelConfig, seed: int = 0) -> None:
        self.config = config
        self._params: dict[str, Parameter] = {}
        self._mask_cache: dict[tuple[int, int], np.ndarray] = {}
        rng = np.random.default_rng(seed)

        d, ffn = config.d_model, config.ffn_dim
        self._weight("embed.tokens", (config.vocab_size, d), rng)
        self._weight("embed.enc_pos", (config.max_len, d), rng)
        self._weight("embed.dec_pos", (config.max_len, d), rng)
        for layer in range(config.enc_layers):
            self._attn_block(f"encoder.layer{layer}.attn", rng)
            self._ln_block(f"encoder.layer{layer}.ln_attn")
            self._ffn_block(f"encoder.layer{layer}.ffn", d, ffn, rng)
            self._ln_block(f"encoder.layer{layer}.ln_ffn")
        for layer in range(config.dec_layers):
            self._attn_block(f"decoder.layer{layer}.attn", rng)
            self._ln_block(f"decoder.layer{layer}.ln_attn")
            self._attn_block(f"decoder.layer{layer}.cross", rng)
            self._ln_block(f"decoder.layer{layer}.ln_cross")
            self._ffn_block(f"decoder.layer{layer}.ffn", d, ffn, rng)
            self._ln_block(f"decoder.layer{layer}.ln_ffn")
        self.guidance = GuidanceModule(config, rng)
        self._act = ACTIVATIONS[config.activation]

    # -- parameter registry -------------------------------------------------

    def _register(self, p: Parameter) -> Parameter:
        assert p.name not in self._params, f"duplicate parameter name {p.name}"
        self._params[p.name] = p
        return p

    def _weight(self, name: str, shape: tuple[int, ...], rng: np.random.Generator) -> None:
        self._register(Parameter(name, rng.normal(0.0, INIT_STD, shape)))

    def _attn_block(self, base: str, rng: np.random.Generator) -> None:
        d = self.config.d_model
        for piece in ("Wq", "Wk", "Wv", "Wo"):
            self._weight(f"{base}.{piece}", (d, d), rng)
        for piece in ("bq", "bk", "bv", "bo"):
            self._register(Parameter(f"{base}.{piece}", np.zeros(d)))

    def _ffn_block(self, base: str, d: int, ffn: int, rng: np.random.Generator) -> None:
        self._weight(f"{base}.W1", (d, ffn), rng)
        self._register(Parameter(f"{base}.b1", np.zeros(ffn)))
        self._weight(f"{base}.W2", (ffn, d), rng)
        self._register(Parameter(f"{base}.b2", np.zeros(d)))

    def _ln_block(self, base: str) -> None:
        d = self.config.d_model
        self._register(Parameter(f"{base}.gain", np.ones(d)))
        self._register(Parameter(f"{base}.bias", np.zeros(d)))

    def param(self, name: str) -> Parameter:
        return self._params[name]

    def iter_params(self) -> dict[str, Parameter]:
        """Backbone weights by name (guidance excluded): what guidance-only tuning keeps frozen."""
        return dict(self._params)

    def parameters(self) -> list[Parameter]:
        """Backbone parameters followed by guidance parameters."""
        return list(self._params.values()) + self.guidance.parameters()

    # -- attention ----------------------------------------------------------

    def _causal_mask(self, n: int, ahead: int) -> np.ndarray:
        """Blocks row i from the rows of x after it; the ``ahead`` rows in front stay visible."""
        key = (n, ahead)
        cached = self._mask_cache.get(key)
        if cached is None:
            mask = np.zeros((n, ahead + n), dtype=bool)
            mask[:, ahead:] = np.triu(np.ones((n, n), dtype=bool), k=1)
            cached = self._mask_cache[key] = mask
        return cached

    def attention_with_guidance(
        self,
        stack: str,
        layer: int,
        x: Tensor,
        phi: tuple[Tensor, Tensor] | None,
        causal: bool,
        kv: Tensor | None = None,
        block: str = "attn",
        cache: DecoderCache | None = None,
    ) -> Tensor:
        """One attention sub-layer: project, attend, W_o, residual, layer norm.

        Self-attention joins one full-width block in front of the projected
        keys and values: the ``cache``'s rows for this layer, else the
        ``phi`` pair, whose rows bypass the K/V projections. A ``cache``
        stores the joined memory back for the next rows. ``kv`` switches
        the key/value source for cross-attention, which never takes a
        prefix and reuses the encoder's cached keys and values.
        """
        cfg = self.config
        base = f"{stack}.layer{layer}.{block}"
        cross = kv is not None
        q = T.add(T.matmul(x, self.param(f"{base}.Wq").value), self.param(f"{base}.bq").value)
        if cross and cache is not None and layer in cache.cross_kv:
            k, v = cache.cross_kv[layer]
        else:
            source = kv if cross else x
            k = T.add(T.matmul(source, self.param(f"{base}.Wk").value), self.param(f"{base}.bk").value)
            v = T.add(T.matmul(source, self.param(f"{base}.Wv").value), self.param(f"{base}.bv").value)

        if phi is not None:
            phi_k, phi_v = phi
            if phi_k.data.shape[1] != cfg.d_model or phi_v.data.shape[1] != cfg.d_model:
                raise ShapeError(
                    f"guidance width {phi_k.data.shape} / {phi_v.data.shape} does not match d_model {cfg.d_model}"
                )
            if phi_k.data.shape != phi_v.data.shape:
                raise ShapeError(
                    f"phi_k shape {phi_k.data.shape} does not match phi_v shape {phi_v.data.shape}"
                )

        n = x.data.shape[0]
        if not cross:
            # the rows in front of x: the cached rows if any, else the guidance prefix
            front = phi if cache is None else cache.self_kv.get(layer, phi)
            if front is not None:
                k = T.concat([front[0], k], axis=0)
                v = T.concat([front[1], v], axis=0)
            if cache is not None:
                cache.self_kv[layer] = (k, v)
        elif cache is not None:
            cache.cross_kv[layer] = (k, v)
        # a single row sees every key in front of it, so it needs no mask
        mask = self._causal_mask(n, k.data.shape[0] - n) if causal and n > 1 else None
        ctx = T.attention(q, k, v, cfg.n_heads, mask)
        out = T.add(T.matmul(ctx, self.param(f"{base}.Wo").value), self.param(f"{base}.bo").value)
        ln = base.replace(f".{block}", f".ln_{block}")
        return self._layer_norm(ln, T.add(x, out))

    def _layer_norm(self, base: str, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.param(f"{base}.gain").value, self.param(f"{base}.bias").value)

    def _ffn(self, stack: str, layer: int, x: Tensor) -> Tensor:
        base = f"{stack}.layer{layer}.ffn"
        h = self._act(T.add(T.matmul(x, self.param(f"{base}.W1").value), self.param(f"{base}.b1").value))
        out = T.add(T.matmul(h, self.param(f"{base}.W2").value), self.param(f"{base}.b2").value)
        return self._layer_norm(f"{stack}.layer{layer}.ln_ffn", T.add(x, out))

    # -- forward passes -------------------------------------------------------

    def embed_tokens(self, token_ids: Sequence[int]) -> Tensor:
        """Raw token embeddings, no positions; also the head's scoring rows."""
        return T.gather_rows(self.param("embed.tokens").value, token_ids)

    def encode(self, token_ids: Sequence[int]) -> Tensor:
        """Encode a sentence into one hidden row per token."""
        n = len(token_ids)
        if n == 0:
            raise ShapeError("cannot encode an empty token sequence")
        if n > self.config.max_len:
            raise ShapeError(f"sequence of {n} tokens exceeds max_len {self.config.max_len}")
        x = T.add(self.embed_tokens(token_ids), T.gather_rows(self.param("embed.enc_pos").value, range(n)))
        for layer in range(self.config.enc_layers):
            x = self.attention_with_guidance(
                "encoder", layer, x, self.guidance.pair("encoder", layer), causal=False
            )
            x = self._ffn("encoder", layer, x)
        return x

    def decode_states(self, h_en: Tensor, dec_inputs: Tensor, cache: DecoderCache | None = None) -> Tensor:
        """Run the decoder over already-embedded inputs; one state per position.

        Self-attention is causal (prefix slots exempt); every layer then
        cross-attends into ``h_en`` unguided. With a ``cache``, the inputs
        continue the rows it has already seen (positions ``cache.length``
        onwards), only their states are computed and returned, and the
        cache takes them in.
        """
        t = dec_inputs.data.shape[0]
        start = cache.length if cache is not None else 0
        if t == 0:
            raise ShapeError("decoder needs at least one input position")
        if start + t > self.config.max_len:
            raise ShapeError(f"decoder input of {start + t} positions exceeds max_len {self.config.max_len}")
        if dec_inputs.data.shape[1] != self.config.d_model:
            raise ShapeError(
                f"decoder input width {dec_inputs.data.shape} does not match d_model {self.config.d_model}"
            )
        x = T.add(dec_inputs, T.gather_rows(self.param("embed.dec_pos").value, range(start, start + t)))
        for layer in range(self.config.dec_layers):
            x = self.attention_with_guidance(
                "decoder", layer, x, self.guidance.pair("decoder", layer), causal=True, cache=cache
            )
            x = self.attention_with_guidance(
                "decoder", layer, x, None, causal=False, kv=h_en, block="cross", cache=cache
            )
            x = self._ffn("decoder", layer, x)
        if cache is not None:
            cache.length += t
        return x
