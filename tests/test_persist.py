"""Checkpoint, prompt, and classifier-head files: round trips and rejections."""
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plugner.backbone import Backbone, ModelConfig
from plugner.data import Vocab
from plugner.errors import ChecksumError, FieldMismatchError, FormatError, VersionError
from plugner.head import LcHead, NerModel, Verbalizer
from plugner.persist import (
    PromptFile,
    apply_prompt,
    backbone_hash,
    check_fields,
    load_checkpoint,
    load_lc_head,
    load_prompt,
    mix_prompts,
    prompt_from_model,
    save_checkpoint,
    save_lc_head,
    save_prompt,
)

WORDS = "red blue fox owl the a one door lamp color animal fruit tool".split()
LABELS = ("animal", "color")


def build_model(seed=1, prompt_len=2, labels=LABELS):
    vocab = Vocab(WORDS)
    config = ModelConfig(
        vocab_size=len(vocab),
        d_model=8,
        n_heads=2,
        enc_layers=1,
        dec_layers=1,
        ffn_dim=16,
        max_len=16,
        prompt_len=prompt_len,
    )
    backbone = Backbone(config, seed=seed)
    verb = Verbalizer(labels, vocab, backbone.param("embed.tokens"))
    return NerModel(backbone, vocab, verb)


def rewrite_header(path: Path, mutate) -> None:
    raw = path.read_bytes()
    header_line, payload = raw.split(b"\n", 1)
    header = json.loads(header_line)
    mutate(header)
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)


def drop_array(path: Path, name: str) -> None:
    """Rewrite a container without one named array; the checksum is made to match."""
    header_line, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    kept, chunks, offset = [], [], 0
    for entry in header["manifest"]:
        nbytes = math.prod(entry["shape"]) * 8
        if entry["name"] != name:
            kept.append(entry)
            chunks.append(payload[offset : offset + nbytes])
        offset += nbytes
    payload = b"".join(chunks)
    header.update(manifest=kept, payload_sha256=hashlib.sha256(payload).hexdigest())
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)


def snapshot(model):
    return {p.name: p.value.data.tobytes() for p in model.parameters()}


def shifted_donor():
    """A model whose every array differs from build_model(seed=2), the usual host."""
    donor = build_model(seed=1)
    for p in donor.parameters():
        p.value.data = p.value.data + 0.5
    return donor


def assert_prompt_refused(host, prompt, match):
    before, verbalizer = snapshot(host), host.verbalizer
    with pytest.raises(FieldMismatchError, match=match):
        apply_prompt(host, prompt)
    # a refused prompt leaves the model as it was, bit for bit
    assert host.verbalizer is verbalizer
    assert snapshot(host) == before


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    model = build_model(seed=3)
    model.verbalizer.raw_weights("color").value.data[:] = [[0.7]]
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, seed=3, trained_steps=17)
    loaded, meta = load_checkpoint(path)

    assert meta["seed"] == 3
    assert meta["trained_steps"] == 17
    assert loaded.config == model.config
    assert loaded.vocab.tokens == model.vocab.tokens
    assert loaded.verbalizer.categories == model.verbalizer.categories

    original = {p.name: p.value.data for p in model.parameters()}
    restored = {p.name: p.value.data for p in loaded.parameters()}
    assert original.keys() == restored.keys()
    for name in original:
        np.testing.assert_array_equal(original[name], restored[name])


# A checkpoint's stored config as the flat-guidance format has written it (key
# order aside; the header is written with sorted keys).
STORED_CONFIG = {
    "vocab_size": 16, "guidance_mode": "highest_k", "guidance_k": 1, "d_model": 8, "n_heads": 2,
    "enc_layers": 2, "dec_layers": 2, "ffn_dim": 16, "max_len": 16, "prompt_len": 2, "alpha": 0.5,
    "activation": "gelu",
}


def test_checkpoint_in_the_stored_config_format_loads(tmp_path):
    backbone, vocab = Backbone(ModelConfig(**STORED_CONFIG), seed=5), Vocab(WORDS)
    model = NerModel(backbone, vocab, Verbalizer(LABELS, vocab, backbone.param("embed.tokens")))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, seed=5)
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert header["meta"]["config"] == STORED_CONFIG

    loaded, _ = load_checkpoint(path)
    assert loaded.config.to_dict() == STORED_CONFIG
    assert loaded.backbone.guidance.guided == {"encoder": (1,), "decoder": (1,)}
    for p, q in zip(model.parameters(), loaded.parameters()):
        assert p.name == q.name and p.value.data.tobytes() == q.value.data.tobytes()

    # the nested placement object the flat keys replaced is not a stored format
    nested = {k: v for k, v in STORED_CONFIG.items() if not k.startswith("guidance_")}
    rewrite_header(path, lambda h: h["meta"].update(config={**nested, "guidance": {"mode": "highest_k", "k": 1}}))
    with pytest.raises(FormatError, match="does not describe a model"):
        load_checkpoint(path)


def test_save_is_canonical(tmp_path):
    model = build_model(seed=4)
    first = tmp_path / "a.ckpt"
    second = tmp_path / "b.ckpt"
    save_checkpoint(first, model, seed=4)
    loaded, _ = load_checkpoint(first)
    save_checkpoint(second, loaded, seed=4)
    assert first.read_bytes() == second.read_bytes()


def test_corrupted_payload_is_rejected(tmp_path):
    model = build_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ChecksumError, match="checksum"):
        load_checkpoint(path)


def test_truncated_payload_is_rejected(tmp_path):
    model = build_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    path.write_bytes(path.read_bytes()[:-100])
    with pytest.raises(ChecksumError):
        load_checkpoint(path)


def test_unknown_version_is_rejected(tmp_path):
    model = build_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    rewrite_header(path, lambda h: h.update(version=2))
    with pytest.raises(VersionError, match="version 2"):
        load_checkpoint(path)


def test_wrong_kind_is_rejected(tmp_path):
    model = build_model()
    path = tmp_path / "adapter.prompt"
    save_prompt(path, prompt_from_model(model))
    with pytest.raises(FormatError, match="'prompt'"):
        load_checkpoint(path)


def test_garbage_file_is_rejected(tmp_path):
    path = tmp_path / "noise.bin"
    path.write_bytes(b"\x00\x01\x02 not json\n12345")
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_headerless_json_is_rejected(tmp_path):
    path = tmp_path / "odd.ckpt"
    path.write_bytes(b'{"version": 1}\n')
    with pytest.raises(FormatError, match="kind"):
        load_checkpoint(path)


def test_config_that_contradicts_arrays_is_rejected(tmp_path):
    model = build_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    rewrite_header(path, lambda h: h["meta"]["config"].update(ffn_dim=32))
    with pytest.raises(FieldMismatchError, match="ffn"):
        load_checkpoint(path)


def test_config_compatibility_names_every_field():
    a = build_model().config
    b = ModelConfig(
        vocab_size=a.vocab_size, d_model=16, n_heads=2, enc_layers=1, dec_layers=1,
        ffn_dim=16, max_len=16, prompt_len=2, alpha=0.25,
    )
    with pytest.raises(FieldMismatchError) as err:
        check_fields("checkpoint config mismatch", a.to_dict(), b.to_dict())
    assert "d_model" in str(err.value)
    assert "alpha" in str(err.value)


def test_backbone_hash_ignores_adapters_but_not_weights():
    model = build_model(seed=6)
    base = backbone_hash(model)
    for p in model.backbone.guidance.parameters():
        p.value.data += 1.0
    model.verbalizer.raw_weights("color").value.data[:] = [[9.0]]
    assert backbone_hash(model) == base
    model.backbone.param("embed.tokens").value.data[0, 0] += 1e-9
    assert backbone_hash(model) != base


# ---------------------------------------------------------------------------
# prompt files


def test_prompt_round_trip(tmp_path):
    model = build_model(seed=2)
    model.verbalizer.raw_weights("animal").value.data[:] = [[1.25]]
    prompt = prompt_from_model(model)
    path = tmp_path / "task.prompt"
    save_prompt(path, prompt)
    loaded = load_prompt(path)

    assert loaded.d_model == prompt.d_model
    assert loaded.prompt_len == prompt.prompt_len
    assert loaded.guided_layers == prompt.guided_layers
    assert loaded.categories == prompt.categories
    assert loaded.beta_policy == prompt.beta_policy
    assert loaded.mapping == prompt.mapping
    assert set(loaded.phi) == set(prompt.phi) == {
        "encoder.layer0.phi_k", "encoder.layer0.phi_v",
        "decoder.layer0.phi_k", "decoder.layer0.phi_v",
    }
    for name in prompt.phi:
        np.testing.assert_array_equal(loaded.phi[name], prompt.phi[name])
    for cat in prompt.raw:
        np.testing.assert_array_equal(loaded.raw[cat], prompt.raw[cat])


def test_apply_prompt_transplants_the_adapter():
    donor = build_model(seed=10)
    for p in donor.backbone.guidance.parameters():
        p.value.data += 0.5
    donor.verbalizer.raw_weights("color").value.data[:] = [[0.4]]
    host = build_model(seed=20)
    frozen = backbone_hash(host)

    prompt = prompt_from_model(donor)
    applied = apply_prompt(host, prompt)

    assert host.verbalizer is applied
    assert applied.categories == donor.verbalizer.categories
    np.testing.assert_array_equal(
        applied.raw_weights("color").value.data, [[0.4]]
    )
    donor_phi = {p.name: p.value.data for p in donor.backbone.guidance.parameters()}
    host_phi = {p.name: p.value.data for p in host.backbone.guidance.parameters()}
    for name in donor_phi:
        np.testing.assert_array_equal(host_phi[name], donor_phi[name])
    assert backbone_hash(host) == frozen


def test_apply_prompt_rejects_architecture_mismatch():
    donor = build_model(seed=1, prompt_len=2)
    host = build_model(seed=1, prompt_len=3)
    with pytest.raises(FieldMismatchError, match="prompt_len"):
        apply_prompt(host, prompt_from_model(donor))


def _widen_raw(prompt):
    prompt.raw["color"] = np.zeros((1, 3))


def _drop_raw(prompt):
    del prompt.raw["color"]


def _drop_phi(prompt):
    del prompt.phi["encoder.layer0.phi_k"]


def _add_phi(prompt):
    prompt.phi["encoder.layer7.phi_k"] = np.zeros((2, 8))


def _reshape_phi(prompt):
    prompt.phi["decoder.layer0.phi_v"] = prompt.phi["decoder.layer0.phi_v"][:1]


@pytest.mark.parametrize(
    "edit, entry",
    [
        (_widen_raw, "verbalizer.raw.color"),
        (_drop_raw, "verbalizer.raw.color"),
        (_drop_phi, "guidance.encoder.layer0.phi_k"),
        (_add_phi, "guidance.encoder.layer7.phi_k"),
        (_reshape_phi, "guidance.decoder.layer0.phi_v"),
    ],
    ids=["raw-width", "missing-raw", "missing-slot", "extra-slot", "reshaped-slot"],
)
def test_apply_prompt_rejects_raw_width_mismatch(edit, entry):
    prompt = prompt_from_model(shifted_donor())
    edit(prompt)
    assert_prompt_refused(build_model(seed=2), prompt, entry)


# ---------------------------------------------------------------------------
# prompt mixing


def test_mix_averages_guidance():
    a = prompt_from_model(build_model(seed=1))
    b = prompt_from_model(build_model(seed=2))
    for name in a.phi:
        a.phi[name] = np.zeros_like(a.phi[name])
        b.phi[name] = np.full_like(b.phi[name], 2.0) * (1 + np.arange(b.phi[name].size)).reshape(b.phi[name].shape)
    mixed = mix_prompts([a, b])
    for name in mixed.phi:
        np.testing.assert_array_equal(mixed.phi[name], b.phi[name] / 2.0)


def test_mix_unions_categories_and_resets_beta():
    a = prompt_from_model(build_model(seed=1, labels=("color", "animal")))
    b = prompt_from_model(build_model(seed=2, labels=("fruit", "tool", "color")))
    a.raw["color"][:] = [[5.0]]
    mixed = mix_prompts([a, b])
    assert mixed.categories == ("animal", "color", "fruit", "tool")
    assert mixed.beta_policy == "uniform"
    for cat in mixed.categories:
        np.testing.assert_array_equal(mixed.raw[cat], np.zeros((1, 1)))


def test_mix_is_commutative_and_idempotent(tmp_path):
    a = prompt_from_model(build_model(seed=1, labels=("color", "animal")))
    b = prompt_from_model(build_model(seed=2, labels=("fruit", "tool")))

    ab, ba = tmp_path / "ab.prompt", tmp_path / "ba.prompt"
    save_prompt(ab, mix_prompts([a, b]))
    save_prompt(ba, mix_prompts([b, a]))
    assert ab.read_bytes() == ba.read_bytes()

    # a uniform-policy mix is a fixed point of mixing with itself
    once = mix_prompts([a, b])
    twice = mix_prompts([once, once])
    first, second = tmp_path / "once.prompt", tmp_path / "twice.prompt"
    save_prompt(first, once)
    save_prompt(second, twice)
    assert first.read_bytes() == second.read_bytes()


def test_mix_phi_self_average_is_exact():
    a = prompt_from_model(build_model(seed=7))
    doubled = mix_prompts([a, a])
    for name in a.phi:
        np.testing.assert_array_equal(doubled.phi[name], a.phi[name])


def test_mix_rejects_incompatible_prompts():
    a = prompt_from_model(build_model(seed=1, prompt_len=2))
    b = prompt_from_model(build_model(seed=1, prompt_len=4))
    with pytest.raises(FieldMismatchError, match="prompt_len"):
        mix_prompts([a, b])
    reshaped = prompt_from_model(build_model(seed=2, prompt_len=2))
    _reshape_phi(reshaped)
    with pytest.raises(FieldMismatchError, match=r"decoder\.layer0\.phi_v: expected \(2, 8\), found \(1, 8\)"):
        mix_prompts([a, reshaped])
    with pytest.raises(ValueError, match="at least one"):
        mix_prompts([])


def test_mix_rejects_conflicting_label_words():
    a = prompt_from_model(build_model(seed=1, labels=("color",)))
    b = prompt_from_model(build_model(seed=2, labels=("color",)))
    b.mapping = {"color": ("color", "tone")}
    b.raw = {"color": np.zeros((1, 2))}
    with pytest.raises(FieldMismatchError, match="conflicting"):
        mix_prompts([a, b])


# ---------------------------------------------------------------------------
# LC baseline head files


def test_lc_head_round_trip(tmp_path):
    head = LcHead(8, ("A", "B"), seed=3)
    head.b.value.data[:] = np.linspace(-1, 1, head.n_tags)
    path = tmp_path / "head.lc"
    save_lc_head(path, head)
    loaded = load_lc_head(path, ("A", "B"), d_model=8)
    assert loaded.tags == head.tags
    np.testing.assert_array_equal(loaded.W.value.data, head.W.value.data)
    np.testing.assert_array_equal(loaded.b.value.data, head.b.value.data)


def test_lc_head_rejects_different_tag_set(tmp_path):
    path = tmp_path / "head.lc"
    save_lc_head(path, LcHead(8, ("A", "B", "C", "D"), seed=0))
    with pytest.raises(FieldMismatchError) as err:
        load_lc_head(path, ("A", "B", "C", "D", "E"), d_model=8)
    message = str(err.value)
    assert "(8, 9)" in message and "(8, 11)" in message
    assert "B-E" in message and "B-A" in message


def test_lc_head_rejects_wrong_bias_length(tmp_path):
    head = LcHead(8, ("A", "B"), seed=0)
    head.b.value.data = np.zeros(head.n_tags + 1)
    path = tmp_path / "head.lc"
    save_lc_head(path, head)
    with pytest.raises(FieldMismatchError, match=r"lc\.b: expected \(5,\), found \(6,\)"):
        load_lc_head(path, ("A", "B"), d_model=8)


def test_lc_head_rejects_a_file_without_w(tmp_path):
    path = tmp_path / "head.lc"
    save_lc_head(path, LcHead(8, ("A", "B"), seed=0))
    drop_array(path, "W")
    with pytest.raises(FieldMismatchError, match=r"lc\.W: expected \(8, 5\), found None"):
        load_lc_head(path, ("A", "B"), d_model=8)


@pytest.mark.parametrize("key, value", [("tags", None), ("tags", "B-A I-A"), ("d_model", None), ("d_model", "8")])
def test_lc_head_with_damaged_meta_is_a_format_error(tmp_path, key, value):
    path = tmp_path / "head.lc"
    save_lc_head(path, LcHead(8, ("A", "B"), seed=0))
    rewrite_header(path, lambda h: h["meta"].pop(key) if value is None else h["meta"].__setitem__(key, value))
    with pytest.raises(FormatError, match=f"lc-head meta field '{key}' is missing or ill-typed"):
        load_lc_head(path, ("A", "B"), d_model=8)


# ---------------------------------------------------------------------------
# property: a prompt either fits every slot or changes nothing

PHI_SLOTS = ("encoder.layer0.phi_k", "encoder.layer0.phi_v", "decoder.layer0.phi_k", "decoder.layer0.phi_v")
# every entry of a prompt for build_model(), plus one guidance slot and one category it lacks
ENTRIES = [f"phi.{slot}" for slot in PHI_SLOTS + ("decoder.layer1.phi_k",)]
ENTRIES += [f"raw.{cat}" for cat in LABELS + ("fruit",)]
SHAPES = st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3).map(tuple)


@settings(deadline=None, max_examples=60)
@given(edits=st.dictionaries(st.sampled_from(ENTRIES), st.one_of(st.none(), SHAPES), max_size=4))
def test_edited_prompt_installs_whole_or_not_at_all(edits):
    # edits: entry -> None (drop it) or a shape (store an array of that shape under it)
    donor = shifted_donor()
    prompt = prompt_from_model(donor)
    edited = prompt_from_model(donor)
    for entry, shape in edits.items():
        table = edited.phi if entry.startswith("phi.") else edited.raw
        if shape is None:
            table.pop(entry[4:], None)
        else:
            table[entry[4:]] = np.full(shape, 0.25)

    def shapes(p):
        return {**{f"phi.{k}": v.shape for k, v in p.phi.items()}, **{f"raw.{k}": v.shape for k, v in p.raw.items()}}

    host = build_model(seed=2)
    if shapes(edited) == shapes(prompt):
        verbalizer = apply_prompt(host, edited)
        for name, arr in edited.phi.items():
            assert host.backbone.guidance.param(f"guidance.{name}").value.data.tobytes() == arr.tobytes()
        for cat, arr in edited.raw.items():
            assert verbalizer.raw_weights(cat).value.data.tobytes() == arr.tobytes()
    else:
        assert_prompt_refused(host, edited, "prompt arrays do not fit")

    for pair in ([prompt, edited], [edited, prompt]):
        try:
            mix_prompts(pair)
        except FieldMismatchError:
            pass
