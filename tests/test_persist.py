"""Checkpoint, prompt, and classifier-head files: round trips and rejections."""
import json
from pathlib import Path

import numpy as np
import pytest

from plugner.backbone import Backbone, ModelConfig
from plugner.data import Vocab
from plugner.errors import ChecksumError, FieldMismatchError, FormatError, VersionError
from plugner.head import LcHead, NerModel, Verbalizer
from plugner.persist import (
    PromptFile,
    apply_prompt,
    backbone_hash,
    check_config_compatible,
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
        check_config_compatible(a, b)
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


def test_apply_prompt_rejects_raw_width_mismatch():
    donor = build_model(seed=1)
    host = build_model(seed=2)
    before = {p.name: p.value.data.copy() for p in host.parameters()}
    prompt = prompt_from_model(donor)
    prompt.raw["color"] = np.zeros((1, 3))
    with pytest.raises(FieldMismatchError, match="color"):
        apply_prompt(host, prompt)
    # a refused prompt leaves the model as it was
    for p in host.parameters():
        np.testing.assert_array_equal(p.value.data, before[p.name])


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
