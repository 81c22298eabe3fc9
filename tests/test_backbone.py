"""Guided attention, encoder/decoder stacks, and layer selection."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plugner import tensor as T
from plugner.backbone import Backbone, DecoderCache, ModelConfig, select_guided_layers
from plugner.errors import ShapeError
from plugner.tensor import Parameter, Tensor, record


def config(prompt_len=0, **kw):
    base = dict(
        vocab_size=20,
        d_model=8,
        n_heads=2,
        enc_layers=2,
        dec_layers=2,
        ffn_dim=16,
        max_len=12,
        prompt_len=prompt_len,
    )
    base.update(kw)
    return ModelConfig(**base)


def set_guidance(backbone, values):
    """Overwrite the named guidance slots; slots not named keep their values."""
    for name, arr in values.items():
        backbone.guidance.param(name).value.data = np.array(arr, dtype=np.float64)


# ---------------------------------------------------------------------------
# an independent plain-numpy mirror of the vanilla (|P|=0) encoder


def np_softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def np_ln(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return xc / np.sqrt(var + eps) * gain + bias


def np_gelu(x):
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))


def vanilla_encoder_oracle(backbone, token_ids):
    cfg = backbone.config
    w = {name: p.value.data for name, p in backbone.iter_params().items()}
    n, dh = len(token_ids), cfg.d_head
    x = w["embed.tokens"][list(token_ids)] + w["embed.enc_pos"][:n]
    for L in range(cfg.enc_layers):
        a = f"encoder.layer{L}.attn"
        q = x @ w[f"{a}.Wq"] + w[f"{a}.bq"]
        k = x @ w[f"{a}.Wk"] + w[f"{a}.bk"]
        v = x @ w[f"{a}.Wv"] + w[f"{a}.bv"]
        heads = []
        for h in range(cfg.n_heads):
            sl = slice(h * dh, (h + 1) * dh)
            scores = q[:, sl] @ k[:, sl].T / math.sqrt(dh)
            heads.append(np_softmax(scores) @ v[:, sl])
        ctx = np.concatenate(heads, axis=1)
        x = np_ln(
            x + ctx @ w[f"{a}.Wo"] + w[f"{a}.bo"],
            w[f"encoder.layer{L}.ln_attn.gain"],
            w[f"encoder.layer{L}.ln_attn.bias"],
        )
        f = f"encoder.layer{L}.ffn"
        hid = np_gelu(x @ w[f"{f}.W1"] + w[f"{f}.b1"])
        x = np_ln(
            x + hid @ w[f"{f}.W2"] + w[f"{f}.b2"],
            w[f"encoder.layer{L}.ln_ffn.gain"],
            w[f"encoder.layer{L}.ln_ffn.bias"],
        )
    return x


def test_no_prefix_encoder_matches_independent_oracle():
    backbone = Backbone(config(prompt_len=0), seed=3)
    rng = np.random.default_rng(0)
    for _ in range(20):
        ids = [int(i) for i in rng.integers(0, 20, size=rng.integers(1, 11))]
        ours = backbone.encode(ids).data
        theirs = vanilla_encoder_oracle(backbone, ids)
        np.testing.assert_allclose(ours, theirs, atol=1e-12)


def test_empty_prefix_equals_vanilla_attention_exactly():
    # prompt_len=0 must take the identical code path as an unguided model
    guided = Backbone(config(prompt_len=0), seed=5)
    ids = [1, 4, 9, 2]
    a = guided.encode(ids).data
    b = guided.encode(ids).data
    np.testing.assert_array_equal(a, b)  # determinism, bitwise
    np.testing.assert_allclose(a, vanilla_encoder_oracle(guided, ids), atol=1e-12)


# ---------------------------------------------------------------------------
# guided attention behavior


def test_value_row_degeneracy_with_single_token():
    # |P|=1 with phi_v equal to the token's projected value row: any split
    # of attention over two identical value rows returns that same row, so
    # the guided output must match the unguided one
    plain = Backbone(config(prompt_len=0), seed=7)
    guided = Backbone(config(prompt_len=1, enc_layers=1, dec_layers=1), seed=7)
    plain_one = Backbone(config(prompt_len=0, enc_layers=1, dec_layers=1), seed=7)
    ids = [6]

    w = {name: p.value.data for name, p in guided.iter_params().items()}
    x0 = w["embed.tokens"][ids] + w["embed.enc_pos"][:1]
    v_row = x0 @ w["encoder.layer0.attn.Wv"] + w["encoder.layer0.attn.bv"]
    set_guidance(
        guided,
        {
            "guidance.encoder.layer0.phi_k": np.full((1, 8), 0.3),
            "guidance.encoder.layer0.phi_v": v_row,
        }
    )
    np.testing.assert_allclose(
        guided.encode(ids).data, plain_one.encode(ids).data, atol=1e-12
    )
    del plain  # only needed to confirm constructors are cheap to vary


def test_guided_attention_matches_straight_line_oracle():
    # d=4, 1 head, seq 2, |P|=1: mirror the whole sub-layer by hand
    cfg = config(d_model=4, n_heads=1, enc_layers=1, dec_layers=1, ffn_dim=8, prompt_len=1)
    backbone = Backbone(cfg, seed=11)
    rng = np.random.default_rng(1)
    phi_k = rng.normal(size=(1, 4))
    phi_v = rng.normal(size=(1, 4))
    set_guidance(
        backbone, {"guidance.encoder.layer0.phi_k": phi_k, "guidance.encoder.layer0.phi_v": phi_v}
    )
    x = rng.normal(size=(2, 4))

    out = backbone.attention_with_guidance(
        "encoder", 0, Tensor(x.copy()), backbone.guidance.pair("encoder", 0), causal=False
    ).data

    w = {name: p.value.data for name, p in backbone.iter_params().items()}
    a = "encoder.layer0.attn"
    q = x @ w[f"{a}.Wq"] + w[f"{a}.bq"]
    k = np.concatenate([phi_k, x @ w[f"{a}.Wk"] + w[f"{a}.bk"]], axis=0)
    v = np.concatenate([phi_v, x @ w[f"{a}.Wv"] + w[f"{a}.bv"]], axis=0)
    ctx = np_softmax(q @ k.T / 2.0) @ v  # sqrt(d_head) = 2
    expected = np_ln(
        x + ctx @ w[f"{a}.Wo"] + w[f"{a}.bo"],
        w["encoder.layer0.ln_attn.gain"],
        w["encoder.layer0.ln_attn.bias"],
    )
    np.testing.assert_allclose(out, expected, atol=1e-12)


def causal_mask(n, m):
    # the causal rule stated apart from tensor.attention (True = blocked):
    # the m - n rows in front stay visible, token row j is hidden from query rows before it
    mask = np.zeros((n, m), dtype=bool)
    mask[:, m - n:] = np.triu(np.ones((n, n), dtype=bool), k=1)
    return mask


def attention_probabilities(q, k, v, n_heads, causal=False):
    # the (heads, rows, keys) weights one attention call puts on its keys
    n, d = q.data.shape
    m, dh = k.data.shape[0], d // n_heads
    qh = q.data.reshape(n, n_heads, dh).transpose(1, 0, 2)
    kh = k.data.reshape(m, n_heads, dh).transpose(1, 0, 2)
    scores = qh @ kh.transpose(0, 2, 1) / math.sqrt(dh)
    if causal:
        scores = scores + np.where(causal_mask(n, m), T.MASK_FILL, 0.0)
    return np_softmax(scores)


def test_attention_rows_sum_to_one_including_prefix(monkeypatch):
    seen = []
    original = T.attention

    def attention(q, k, v, n_heads, causal=False):
        seen.append(attention_probabilities(q, k, v, n_heads, causal))
        return original(q, k, v, n_heads, causal)

    monkeypatch.setattr(T, "attention", attention)
    backbone = Backbone(config(prompt_len=3), seed=2)
    rows = np.random.default_rng(0).normal(size=(4, 8))
    h_en = backbone.encode([1, 2, 3, 4])
    backbone.decode_states(h_en, Tensor(rows[:3].copy()))
    # and one cached row: it attends over the prefix and every row before it
    cache = DecoderCache()
    backbone.decode_states(h_en, Tensor(rows[:3].copy()), cache)
    n_before = len(seen)
    backbone.decode_states(h_en, Tensor(rows[3:].copy()), cache)
    assert len(seen) - n_before == 2 * 2  # (self + cross) x 2 layers, each call over both heads
    assert {a.shape for a in seen[n_before:]} == {(2, 1, 3 + 4), (2, 1, 4)}
    # every layer of the encoder, the decoder and the cached steps contributed
    assert len(seen) == 2 + 3 * (2 * 2)
    for attn in seen:
        np.testing.assert_allclose(attn.sum(axis=2), np.ones(attn.shape[:2]), atol=1e-12)
        assert np.all(attn >= 0)


def per_head_attention(q, k, v, n_heads, mask=None):
    # reference for tensor.attention: the per-head tape ops it replaced, in their order
    dh = q.data.shape[1] // n_heads
    heads = []
    for h in range(n_heads):
        lo, hi = h * dh, (h + 1) * dh
        scores = T.scale(T.matmul(T.slice_cols(q, lo, hi), T.transpose(T.slice_cols(k, lo, hi))), 1.0 / math.sqrt(dh))
        if mask is not None:
            scores = T.masked_fill(scores, mask)
        heads.append(T.matmul(T.softmax_rows(scores), T.slice_cols(v, lo, hi)))
    return heads[0] if n_heads == 1 else T.concat(heads, axis=1)


def assert_attention_is_bitwise_per_head(q0, k0, v0, n_heads, causal, mask, prefix=0, seed=0):
    # tensor.attention(..., causal) against per_head_attention(..., mask):
    # output and gradients, with the inputs built as self-attention builds
    # them: rows take a row bias, as the projections do, and with a prefix
    # its rows are joined in front of k and v. A gradient handed on in
    # another memory order would change the bias sums
    d = q0.shape[1]
    bias = np.random.default_rng(seed).normal(size=(3, d))

    def run(attend):
        leaves = [Parameter("q", q0), Parameter("k", k0[prefix:]), Parameter("v", v0[prefix:])]
        leaves += [Parameter(f"b{name}", b) for name, b in zip("qkv", bias)]
        fronts = [Parameter(name, a[:prefix]) for name, a in (("phi_k", k0), ("phi_v", v0))] if prefix else []
        with record() as tape:
            q, k, v = (T.add(p.value, b.value) for p, b in zip(leaves[:3], leaves[3:]))
            if prefix:
                k, v = (T.concat([front.value, rows], axis=0) for front, rows in zip(fronts, (k, v)))
            out = attend(q, k, v, n_heads)
            loss = weighted_sum(out, seed=seed)
        tape.backward(loss)
        return {"out": out.data, **{p.name: p.grad for p in leaves + fronts}}

    ours = run(lambda *args: T.attention(*args, causal))
    reference = run(lambda *args: per_head_attention(*args, mask))
    assert ours.keys() == reference.keys()
    for name, got in ours.items():
        assert got is not None and np.array_equal(got, reference[name]), name


@pytest.mark.parametrize("n_heads", [1, 2, 4])
@pytest.mark.parametrize("n", [1, 9])
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("prefix", [0, 4])
def test_fused_attention_is_bitwise_the_per_head_ops(n_heads, n, masked, prefix):
    # 9 or 13 key rows: a sum over 8 or more rows takes numpy's pairwise
    # path, where the memory order of a gradient changes the result
    rng = np.random.default_rng(n_heads * 100 + n * 10 + 2 * masked + prefix)
    d, m = 16, prefix + n
    q0, k0, v0 = (rng.normal(size=shape) for shape in ((n, d), (m, d), (m, d)))
    mask = causal_mask(n, m) if masked else None
    assert_attention_is_bitwise_per_head(q0, k0, v0, n_heads, masked, mask, prefix=prefix, seed=n)


def test_cached_step_attends_over_the_cached_full_width_kv(monkeypatch):
    calls = []
    original = T.attention

    def attention(q, k, v, n_heads, causal=False):
        calls.append((q, k, v, n_heads, causal))
        return original(q, k, v, n_heads, causal)

    monkeypatch.setattr(T, "attention", attention)
    backbone = Backbone(config(prompt_len=2), seed=16)
    rng = np.random.default_rng(17)
    set_guidance(backbone, {p.name: rng.normal(size=p.value.data.shape) for p in backbone.guidance.parameters()})
    h_en = backbone.encode([1, 2, 3, 4, 5])
    rows = rng.normal(size=(4, 8))
    cache = DecoderCache()
    backbone.decode_states(h_en, Tensor(rows[:3].copy()), cache)
    first = calls[-4:]
    calls.clear()
    backbone.decode_states(h_en, Tensor(rows[3:].copy()), cache)
    assert len(calls) == 4  # self, cross for each of the 2 layers
    for layer in range(2):
        _, k, v, _, _ = calls[2 * layer]
        assert k.data.shape == v.data.shape == (2 + 4, 8) and (k, v) == cache.self_kv[layer]
        _, k, v, _, _ = calls[2 * layer + 1]
        assert (k, v) == cache.cross_kv[layer] == first[2 * layer + 1][1:3]
        assert k.data.shape == v.data.shape == (5, 8)
    monkeypatch.undo()  # the exactness check below calls tensor.attention itself
    for i, (q, k, v, n_heads, causal) in enumerate(calls):
        # self-attention asks for the causal rule, cross-attention does not;
        # a single query row sees every key either way
        assert q.data.shape == (1, 8) and n_heads == 2 and causal is (i % 2 == 0)
        assert_attention_is_bitwise_per_head(q.data, k.data, v.data, n_heads, causal, None, seed=i)


def per_head_prefix_attention(backbone, stack, layer, x, phi, causal):
    # reference for the attention sub-layer without a cache: each head slices
    # phi by columns and joins it in front of its own keys and values
    cfg = backbone.config
    base = f"{stack}.layer{layer}.attn"
    w = {piece: backbone.param(f"{base}.{piece}").value for piece in ("Wq", "bq", "Wk", "bk", "Wv", "bv", "Wo", "bo")}
    q = T.add(T.matmul(x, w["Wq"]), w["bq"])
    k = T.add(T.matmul(x, w["Wk"]), w["bk"])
    v = T.add(T.matmul(x, w["Wv"]), w["bv"])
    n, prefix, dh = x.data.shape[0], 0 if phi is None else phi[0].data.shape[0], cfg.d_head
    mask = causal_mask(n, prefix + n) if causal else None
    heads = []
    for h in range(cfg.n_heads):
        lo, hi = h * dh, (h + 1) * dh
        qh = T.slice_cols(q, lo, hi)
        kh = T.slice_cols(k, lo, hi)
        vh = T.slice_cols(v, lo, hi)
        if prefix:
            kh = T.concat([T.slice_cols(phi[0], lo, hi), kh], axis=0)
            vh = T.concat([T.slice_cols(phi[1], lo, hi), vh], axis=0)
        scores = T.scale(T.matmul(qh, T.transpose(kh)), 1.0 / math.sqrt(dh))
        if mask is not None:
            scores = T.masked_fill(scores, mask)
        heads.append(T.matmul(T.softmax_rows(scores), vh))
    out = T.add(T.matmul(T.concat(heads, axis=1), w["Wo"]), w["bo"])
    ln = f"{stack}.layer{layer}.ln_attn"
    return T.layer_norm(T.add(x, out), backbone.param(f"{ln}.gain").value, backbone.param(f"{ln}.bias").value)


@pytest.mark.parametrize("prompt_len", [0, 2])
@pytest.mark.parametrize("causal", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_full_width_prefix_is_bitwise_the_per_head_prefix(prompt_len, causal, n):
    backbone = Backbone(config(prompt_len=prompt_len), seed=14)
    rng = np.random.default_rng(15)
    # generic weights and guidance, so every head puts real mass on the prefix
    for name in ("Wq", "Wk", "Wv", "Wo"):
        backbone.param(f"decoder.layer0.attn.{name}").value.data = rng.normal(size=(8, 8)) / math.sqrt(8)
    for name in ("bq", "bk", "bv", "bo"):
        backbone.param(f"decoder.layer0.attn.{name}").value.data = rng.normal(size=8)
    set_guidance(backbone, {p.name: rng.normal(size=p.value.data.shape) for p in backbone.guidance.parameters()})
    x0 = rng.normal(size=(n, 8))
    watched = [f"decoder.layer0.attn.{name}" for name in ("Wq", "Wk", "Wv", "Wo")]
    watched += [f"guidance.decoder.layer0.{name}" for name in ("phi_k", "phi_v") if prompt_len]
    params = {p.name: p for p in backbone.parameters()}

    def run(attend):
        for p in params.values():
            p.value.grad = None
        x = Parameter("x", x0)
        with record() as tape:
            out = attend("decoder", 0, x.value, backbone.guidance.pair("decoder", 0), causal)
            loss = weighted_sum(out, seed=73)
        tape.backward(loss)
        return out.data, x.grad, [params[name].grad for name in watched]

    ours = run(backbone.attention_with_guidance)
    reference = run(lambda *args: per_head_prefix_attention(backbone, *args))
    np.testing.assert_array_equal(ours[0], reference[0])
    np.testing.assert_array_equal(ours[1], reference[1])
    for name, got, want in zip(watched, ours[2], reference[2]):
        assert got is not None and np.array_equal(got, want), name


def test_guidance_width_mismatch_rejected():
    # the ops check the joined memory: concat refuses the width, attention the unequal key/value rows
    backbone = Backbone(config(prompt_len=2), seed=0)
    bad = Tensor(np.zeros((2, 5)))
    good = Tensor(np.zeros((2, 8)))
    short = Tensor(np.zeros((1, 8)))
    x = Tensor(np.zeros((3, 8)))
    with pytest.raises(ShapeError, match=re.escape("[(2, 5), (3, 8)]")):
        backbone.attention_with_guidance("encoder", 0, x, (bad, good), causal=False)
    with pytest.raises(ShapeError, match=re.escape("keys (5, 8) and values (4, 8)")):
        backbone.attention_with_guidance("encoder", 0, x, (good, short), causal=False)


def test_zeroed_guidance_differs_from_no_guidance():
    # a zero prefix still absorbs attention mass: exp(0) rows in the softmax
    plain = Backbone(config(prompt_len=0, enc_layers=1, dec_layers=1), seed=13)
    zeroed = Backbone(config(prompt_len=2, enc_layers=1, dec_layers=1), seed=13)
    set_guidance(
        zeroed,
        {
            name: np.zeros((2, 8))
            for name in (
                "guidance.encoder.layer0.phi_k",
                "guidance.encoder.layer0.phi_v",
                "guidance.decoder.layer0.phi_k",
                "guidance.decoder.layer0.phi_v",
            )
        }
    )
    ids = [1, 2, 3]
    assert not np.allclose(plain.encode(ids).data, zeroed.encode(ids).data, atol=1e-9)


def test_same_seed_same_prompt_len_bitwise_equal_backbones():
    a = Backbone(config(prompt_len=4), seed=21)
    b = Backbone(config(prompt_len=4), seed=21)
    for name, p in a.iter_params().items():
        np.testing.assert_array_equal(p.value.data, b.iter_params()[name].value.data)


def test_prompt_len_does_not_disturb_backbone_draws():
    # guidance is drawn after the backbone, so backbone weights must be
    # bitwise identical across prompt lengths at equal seed
    a = Backbone(config(prompt_len=0), seed=9)
    b = Backbone(config(prompt_len=6), seed=9)
    for name, p in a.iter_params().items():
        np.testing.assert_array_equal(p.value.data, b.iter_params()[name].value.data)


# ---------------------------------------------------------------------------
# encoder and decoder contracts


def test_encode_shape_contract():
    backbone = Backbone(config(), seed=1)
    assert backbone.encode([1, 2, 3]).data.shape == (3, 8)


def test_encode_rejects_empty_and_overlong():
    backbone = Backbone(config(), seed=1)
    with pytest.raises(ShapeError):
        backbone.encode([])
    with pytest.raises(ShapeError):
        backbone.encode(list(range(13)))


def test_positions_matter():
    backbone = Backbone(config(), seed=1)
    a = backbone.encode([3, 5]).data
    b = backbone.encode([5, 3]).data
    assert not np.allclose(a, b)


def test_decode_step_t1_shape():
    # one decoding step: a single row through a fresh cache gives one state
    backbone = Backbone(config(prompt_len=2), seed=1)
    h_en = backbone.encode([1, 2])
    bos = Tensor(np.random.default_rng(0).normal(size=(1, 8)))
    cache = DecoderCache()
    h1 = backbone.decode_states(h_en, bos, cache)
    assert h1.data.shape == (1, 8)
    assert cache.length == 1


def test_decoder_prefix_states_unchanged_by_appended_token():
    backbone = Backbone(config(prompt_len=2), seed=4)
    h_en = backbone.encode([1, 2, 3])
    rng = np.random.default_rng(5)
    three = rng.normal(size=(3, 8))
    short = backbone.decode_states(h_en, Tensor(three[:2].copy())).data
    full = backbone.decode_states(h_en, Tensor(three.copy())).data
    np.testing.assert_allclose(full[:2], short, atol=1e-12)


# ---------------------------------------------------------------------------
# the decoder cache


@settings(max_examples=60, deadline=None)
@given(
    prompt_len=st.integers(min_value=0, max_value=3),
    mode=st.sampled_from(["all", "lowest_k", "highest_k"]),
    n_heads=st.sampled_from([1, 2]),
    length=st.integers(min_value=1, max_value=12),
    chunk=st.sampled_from([1, 1, 2, 3]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_cached_decoding_matches_teacher_forcing(prompt_len, mode, n_heads, length, chunk, seed):
    # max_len is 12: lengths run up to it; lowest_k / highest_k with k=1 leave
    # one of the two decoder layers unguided
    guided = dict(guidance_mode=mode, guidance_k=0 if mode == "all" else 1)
    backbone = Backbone(config(prompt_len=prompt_len, n_heads=n_heads, **guided), seed=seed % 1000)
    rng = np.random.default_rng(seed)
    if prompt_len:
        # guidance at a generic scale, so prefix rows carry real attention mass
        set_guidance(
            backbone, {p.name: rng.normal(size=p.value.data.shape) for p in backbone.guidance.parameters()}
        )
    h_en = backbone.encode([int(i) for i in rng.integers(0, 20, size=int(rng.integers(1, 13)))])
    rows = rng.normal(size=(length, 8))
    full = backbone.decode_states(h_en, Tensor(rows.copy())).data
    cache = DecoderCache()
    steps = [
        backbone.decode_states(h_en, Tensor(rows[lo : lo + chunk].copy()), cache).data
        for lo in range(0, length, chunk)
    ]
    assert cache.length == length
    np.testing.assert_allclose(np.concatenate(steps, axis=0), full, rtol=0, atol=1e-12)


def test_cache_refuses_a_step_past_max_len():
    backbone = Backbone(config(prompt_len=2), seed=3)  # max_len 12
    h_en = backbone.encode([1, 2, 3])
    rows = np.random.default_rng(4).normal(size=(13, 8))
    cache = DecoderCache()
    for i in range(12):
        backbone.decode_states(h_en, Tensor(rows[i : i + 1].copy()), cache)
    with pytest.raises(ShapeError, match="13 positions exceeds max_len 12"):
        backbone.decode_states(h_en, Tensor(rows[12:].copy()), cache)
    assert cache.length == 12
    fresh = DecoderCache()
    backbone.decode_states(h_en, Tensor(rows[:10].copy()), fresh)
    with pytest.raises(ShapeError, match="13 positions exceeds max_len 12"):
        backbone.decode_states(h_en, Tensor(rows[10:].copy()), fresh)


def weighted_sum(x, seed):
    # a plain row sum of a layer-norm output is constant (the normalised
    # row sums to zero), so gradient probes must weight components randomly
    weights = np.random.default_rng(seed).normal(size=x.data.shape)
    return T.reduce_sum(T.mul(x, Tensor(weights)))


def test_causal_gradients_are_exactly_zero():
    backbone = Backbone(config(prompt_len=2), seed=6)
    h_en = backbone.encode([1, 2, 3])
    dec = Parameter("dec_in", np.random.default_rng(7).normal(size=(4, 8)))
    with record() as tape:
        states = backbone.decode_states(h_en, dec.value)
        # position 1's state must not see rows 2..3
        loss = weighted_sum(T.slice_rows(states, 1, 2), seed=70)
    tape.backward(loss)
    assert dec.grad is not None
    assert np.all(dec.grad[2:] == 0.0)
    assert np.abs(dec.grad[:2]).max() > 1e-6


def test_prefix_escapes_causal_mask():
    # gradient of the first decoder position with respect to phi_v nonzero:
    # the prefix is visible even to position 0
    backbone = Backbone(config(prompt_len=2), seed=8)
    h_en = backbone.encode([1, 2])
    dec = Tensor(np.random.default_rng(9).normal(size=(1, 8)))
    phi_v = backbone.guidance.param("guidance.decoder.layer0.phi_v")
    with record() as tape:
        states = backbone.decode_states(h_en, dec)
        loss = weighted_sum(states, seed=71)
    tape.backward(loss)
    assert phi_v.grad is not None and np.abs(phi_v.grad).max() > 1e-9


def test_encoder_guidance_receives_gradient():
    backbone = Backbone(config(prompt_len=2), seed=10)
    phi_k = backbone.guidance.param("guidance.encoder.layer0.phi_k")
    with record() as tape:
        loss = weighted_sum(backbone.encode([1, 2, 3]), seed=72)
    tape.backward(loss)
    assert phi_k.grad is not None and np.abs(phi_k.grad).max() > 1e-12


# ---------------------------------------------------------------------------
# layer selection


def test_select_all_layers():
    assert select_guided_layers("all", 0, 12) == tuple(range(12))


def test_select_highest_six_of_twelve():
    assert select_guided_layers("highest_k", 6, 12) == tuple(range(6, 12))


def test_select_lowest_one():
    assert select_guided_layers("lowest_k", 1, 12) == (0,)


def test_select_rejects_k_beyond_depth():
    with pytest.raises(ValueError):
        select_guided_layers("lowest_k", 13, 12)


def test_select_size_is_k_for_valid_ranges():
    for k in range(1, 5):
        assert len(select_guided_layers("lowest_k", k, 4)) == min(k, 4)
        assert len(select_guided_layers("highest_k", k, 4)) == min(k, 4)


def test_layer_range_validates_mode():
    with pytest.raises(ValueError, match="layer range mode must be one of"):
        select_guided_layers("middle_k", 2, 4)
    with pytest.raises(ValueError, match="layer range mode must be one of"):
        config(guidance_mode="middle_k", guidance_k=2)
    with pytest.raises(ValueError, match="needs k >= 1"):
        config(guidance_mode="highest_k", guidance_k=0)


def test_partial_guidance_leaves_other_layers_plain():
    cfg = config(prompt_len=2, guidance_mode="lowest_k", guidance_k=1)
    backbone = Backbone(cfg, seed=12)
    assert backbone.guidance.pair("encoder", 0) is not None
    assert backbone.guidance.pair("encoder", 1) is None
    names = {p.name for p in backbone.guidance.parameters()}
    assert names == {
        "guidance.encoder.layer0.phi_k",
        "guidance.encoder.layer0.phi_v",
        "guidance.decoder.layer0.phi_k",
        "guidance.decoder.layer0.phi_v",
    }


def test_config_validation():
    with pytest.raises(ValueError):
        config(d_model=7)  # not divisible by heads
    with pytest.raises(ValueError):
        config(alpha=1.5)
    with pytest.raises(ValueError):
        config(prompt_len=-1)
    with pytest.raises(ValueError):
        config(activation="relu6")
    for ffn_dim in (0, -1):
        with pytest.raises(ValueError, match="ffn_dim must be positive"):
            config(ffn_dim=ffn_dim)


def test_config_round_trips_through_dict():
    for mode, k in (("all", 0), ("lowest_k", 2), ("highest_k", 1)):
        cfg = config(prompt_len=3, guidance_mode=mode, guidance_k=k, alpha=0.25)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg
    # a missing key takes its default; an unknown key is refused
    stored = config().to_dict()
    del stored["guidance_mode"], stored["guidance_k"]
    assert ModelConfig.from_dict(stored) == config()
    with pytest.raises(TypeError):
        ModelConfig.from_dict({**stored, "guidance": "all"})
