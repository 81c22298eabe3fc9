"""Binary artifacts: checkpoints, prompt files, and the LC baseline head.

One container format serves all three: a single-line JSON header (kind,
format version, metadata, a payload manifest, and a SHA-256 checksum)
followed by the named float64 arrays little-endian and back to back, in
manifest order. The manifest is sorted by name and the header is dumped
with sorted keys, so serialization is canonical: equal contents give
equal bytes, and loading then saving is the identity.

A prompt file carries the guidance matrices AND the verbalizer, so one
file is a complete task adapter for any checkpoint with a matching
architecture.

Stored arrays enter a model one way, ``install_arrays``: every parameter
slot must be present at its shape, and nothing is written until all are.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .backbone import Backbone, ModelConfig
from .data import Vocab
from .errors import ChecksumError, FieldMismatchError, FormatError, VersionError
from .head import BETA_POLICIES, LcHead, NerModel, Verbalizer
from .tensor import Parameter

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# container


def _write_container(path: str | Path, kind: str, meta: dict, arrays: Mapping[str, np.ndarray]) -> None:
    assert kind in _META
    names = sorted(arrays)
    payload = b"".join(np.ascontiguousarray(arrays[name], dtype="<f8").tobytes() for name in names)
    header = {
        "kind": kind,
        "version": FORMAT_VERSION,
        "meta": meta,
        "manifest": [{"name": name, "shape": list(arrays[name].shape)} for name in names],
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    with Path(path).open("wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(payload)


def _read_container(path: str | Path, kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    """The one check of a stored file: kind, version, manifest, checksum, payload, then the kind's meta."""
    path = Path(path)
    with path.open("rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: not a recognizable artifact ({exc})") from None
    if not isinstance(header, dict) or "kind" not in header:
        raise FormatError(f"{path}: header lacks an artifact kind")
    if header.get("version") != FORMAT_VERSION:
        raise VersionError(
            f"{path}: format version {header.get('version')!r} unsupported (this build reads {FORMAT_VERSION})"
        )
    if header["kind"] != kind:
        raise FormatError(f"{path}: artifact is a {header['kind']!r}, expected a {kind!r}")
    meta, manifest = header.get("meta"), header.get("manifest")
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: header lacks a meta object")
    if not isinstance(manifest, list) or not all(_is_manifest_entry(entry) for entry in manifest):
        raise FormatError(f"{path}: header lacks a manifest of {{name, shape}} entries")
    if hashlib.sha256(payload).hexdigest() != header.get("payload_sha256"):
        raise ChecksumError(f"{path}: payload checksum mismatch (file truncated or corrupted)")
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for entry in manifest:
        shape = tuple(entry["shape"])
        count = math.prod(shape)  # Python ints: a huge shape cannot wrap to a small count
        nbytes = count * 8
        chunk = payload[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise ChecksumError(f"{path}: payload shorter than its manifest")
        arrays[entry["name"]] = np.frombuffer(chunk, dtype="<f8").astype(np.float64).reshape(shape)
        offset += nbytes
    if offset != len(payload):
        raise FormatError(f"{path}: {len(payload) - offset} payload bytes past the end of the manifest")
    for key, check in _META[kind].items():
        fault = check(meta.get(key), meta)
        if fault:
            raise FormatError(f"{path}: {kind} meta field {key!r} {fault}")
    return meta, arrays


def _is_manifest_entry(entry) -> bool:
    return (
        isinstance(entry, dict)
        and isinstance(entry.get("name"), str)
        and isinstance(entry.get("shape"), list)
        and all(_is_int(dim) and dim >= 0 for dim in entry["shape"])
    )


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _typed(test):
    """A meta check from a test of the field's value alone."""
    return lambda value, meta: "" if test(value) else "is missing or ill-typed"


def _label_words(mapping, meta) -> str:
    """A verbalizer's mapping gives every stored category at least one label word."""
    if not (isinstance(mapping, dict) and all(_is_str_list(words) for words in mapping.values())):
        return "is missing or ill-typed"
    bare = [cat for cat in meta["categories"] if not mapping.get(cat)]
    return f"gives category {bare[0]!r} no label words" if bare else ""


# Each kind's meta: field -> check(value, meta), which returns the fault or "" (mapping after categories).
_VERBALIZER_META = {
    "categories": _typed(lambda v: _is_str_list(v) and len(v) > 0),
    "beta_policy": _typed(lambda v: v in BETA_POLICIES),
    "mapping": _label_words,
}
_META = {
    "checkpoint": {"config": _typed(lambda v: isinstance(v, dict)), "vocab": _typed(_is_str_list), **_VERBALIZER_META},
    "prompt": {
        "d_model": _typed(_is_int),
        "prompt_len": _typed(_is_int),
        "guided_layers": _typed(lambda v: isinstance(v, dict) and all(
            isinstance(layers, list) and all(_is_int(i) for i in layers) for layers in v.values())),
        **_VERBALIZER_META,
    },
    "lc-head": {"tags": _typed(_is_str_list), "d_model": _typed(_is_int)},
}


def check_fields(what: str, expected: Mapping, found: Mapping) -> None:
    """The one compatibility rule: raise FieldMismatchError naming every field that differs."""
    diffs = [
        f"{key}: expected {expected.get(key)!r}, found {found.get(key)!r}"
        for key in sorted(set(expected) | set(found))
        if expected.get(key) != found.get(key)
    ]
    if diffs:
        raise FieldMismatchError(f"{what}: " + "; ".join(diffs))


def install_arrays(what: str, params: Sequence[Parameter], arrays: Mapping[str, np.ndarray]) -> None:
    """Copy stored arrays into parameters by name, all or none.

    The name->shape maps must match exactly (check_fields); only then is
    each array copied in as float64 and its parameter's gradient cleared.
    """
    check_fields(
        what,
        {p.name: p.value.data.shape for p in params},
        {name: arr.shape for name, arr in arrays.items()},
    )
    for p in params:
        p.value.data = np.array(arrays[p.name], dtype=np.float64)
        p.value.grad = None


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path: str | Path, model: NerModel, seed: int = 0, trained_steps: int = 0) -> None:
    meta = {
        "config": model.config.to_dict(),
        "vocab": list(model.vocab.tokens),
        "categories": list(model.verbalizer.categories),
        "beta_policy": model.verbalizer.policy,
        "mapping": {c: list(w) for c, w in model.verbalizer.mapping.items()},
        "seed": seed,
        "trained_steps": trained_steps,
    }
    arrays = {p.name: p.value.data for p in model.parameters()}
    _write_container(path, "checkpoint", meta, arrays)


def load_checkpoint(path: str | Path) -> tuple[NerModel, dict]:
    """Reconstruct a model bitwise from a checkpoint; returns (model, meta)."""
    meta, arrays = _read_container(path, "checkpoint")
    try:
        config = ModelConfig.from_dict(meta["config"])
        vocab = Vocab(meta["vocab"])
        backbone = Backbone(config, seed=0)
        verbalizer = Verbalizer(
            meta["categories"],
            vocab,
            backbone.param("embed.tokens"),
            policy=meta["beta_policy"],
            mapping={c: tuple(w) for c, w in meta["mapping"].items()},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: checkpoint meta does not describe a model ({exc})") from None
    model = NerModel(backbone, vocab, verbalizer)
    install_arrays(f"{path}: stored parameters do not fit the stored config", model.parameters(), arrays)
    return model, meta


def backbone_hash(model: NerModel) -> str:
    """SHA-256 over the frozen section: every non-guidance, non-verbalizer array."""
    digest = hashlib.sha256()
    params = model.backbone.iter_params()
    for name in sorted(params):
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(params[name].value.data, dtype="<f8").tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# prompt files


def prompt_signature(d_model: int, prompt_len: int, guided_layers: Mapping[str, Sequence[int]]) -> dict:
    """What a prompt and a model (or two prompts) must share for guidance to plug in."""
    return {
        "d_model": d_model,
        "prompt_len": prompt_len,
        "guided_layers": {k: list(v) for k, v in sorted(guided_layers.items())},
    }


@dataclass
class PromptFile:
    """A detachable task adapter: guidance matrices plus verbalizer."""

    d_model: int
    prompt_len: int
    guided_layers: dict[str, tuple[int, ...]]
    categories: tuple[str, ...]
    beta_policy: str
    mapping: dict[str, tuple[str, ...]]
    phi: dict[str, np.ndarray]  # "encoder.layer0.phi_k" -> (|P|, d)
    raw: dict[str, np.ndarray]  # category -> (1, n_words)

    def signature(self) -> dict:
        return prompt_signature(self.d_model, self.prompt_len, self.guided_layers)

    def header(self) -> dict:
        return {
            **self.signature(),
            "categories": list(self.categories),
            "beta_policy": self.beta_policy,
            "mapping": {c: list(w) for c, w in self.mapping.items()},
        }


def prompt_from_model(model: NerModel) -> PromptFile:
    guidance = model.backbone.guidance
    phi = {p.name[len("guidance."):]: p.value.data.copy() for p in guidance.parameters()}
    verb = model.verbalizer
    return PromptFile(
        d_model=model.config.d_model,
        prompt_len=model.config.prompt_len,
        guided_layers={k: tuple(v) for k, v in guidance.guided.items()},
        categories=verb.categories,
        beta_policy=verb.policy,
        mapping=dict(verb.mapping),
        phi=phi,
        raw={cat: verb.raw_weights(cat).value.data.copy() for cat in verb.categories},
    )


def save_prompt(path: str | Path, prompt: PromptFile) -> None:
    arrays = {f"phi.{name}": arr for name, arr in prompt.phi.items()}
    arrays.update({f"raw.{cat}": arr for cat, arr in prompt.raw.items()})
    _write_container(path, "prompt", prompt.header(), arrays)


def load_prompt(path: str | Path) -> PromptFile:
    meta, arrays = _read_container(path, "prompt")
    stray = [name for name in arrays if not name.startswith(("phi.", "raw."))]
    if stray:
        raise FormatError(f"{path}: prompt arrays {stray} are neither phi.<slot> nor raw.<category>")
    phi = {name[len("phi."):]: arr for name, arr in arrays.items() if name.startswith("phi.")}
    raw = {name[len("raw."):]: arr for name, arr in arrays.items() if name.startswith("raw.")}
    return PromptFile(
        d_model=meta["d_model"],
        prompt_len=meta["prompt_len"],
        guided_layers={k: tuple(v) for k, v in meta["guided_layers"].items()},
        categories=tuple(meta["categories"]),
        beta_policy=meta["beta_policy"],
        mapping={c: tuple(w) for c, w in meta["mapping"].items()},
        phi=phi,
        raw=raw,
    )


def apply_prompt(model: NerModel, prompt: PromptFile) -> Verbalizer:
    """Install a prompt file's guidance and verbalizer into a model."""
    cfg = model.config
    check_fields(
        "prompt does not fit this model",
        prompt_signature(cfg.d_model, cfg.prompt_len, model.backbone.guidance.guided),
        prompt.signature(),
    )
    verbalizer = Verbalizer(
        prompt.categories,
        model.vocab,
        model.backbone.param("embed.tokens"),
        policy=prompt.beta_policy,
        mapping=dict(prompt.mapping),
    )
    arrays = {f"guidance.{name}": arr for name, arr in prompt.phi.items()}
    arrays.update({f"verbalizer.raw.{cat}": arr for cat, arr in prompt.raw.items()})
    install_arrays(
        "prompt arrays do not fit this model's guidance slots and label words",
        model.backbone.guidance.parameters() + verbalizer.parameters(),
        arrays,
    )
    model.verbalizer = verbalizer
    return verbalizer


def mix_prompts(prompts: Sequence[PromptFile]) -> PromptFile:
    """Average compatible prompts into one zero-shot adapter.

    Guidance matrices are averaged elementwise. Categories are unioned
    (sorted) and the mixed verbalizer is forced to the uniform policy, so
    every category weighs its label words equally. Averaging is
    commutative, and mixing a prompt with itself reproduces it.
    """
    if not prompts:
        raise ValueError("mix_prompts needs at least one prompt")
    first = prompts[0]
    for other in prompts[1:]:
        check_fields("prompts are not mixable", first.signature(), other.signature())
        check_fields(
            "prompts are not mixable: guidance slots differ",
            {name: arr.shape for name, arr in first.phi.items()},
            {name: arr.shape for name, arr in other.phi.items()},
        )

    phi = {name: sum(p.phi[name] for p in prompts) / len(prompts) for name in first.phi}
    categories = tuple(sorted(set().union(*(p.categories for p in prompts))))
    mapping: dict[str, tuple[str, ...]] = {}
    for p in prompts:
        for cat, words in p.mapping.items():
            if cat in mapping and mapping[cat] != tuple(words):
                raise FieldMismatchError(
                    f"category {cat!r} has conflicting label words: {mapping[cat]} vs {tuple(words)}"
                )
            mapping[cat] = tuple(words)
    raw = {cat: np.zeros((1, len(mapping[cat]))) for cat in categories}
    return PromptFile(
        d_model=first.d_model,
        prompt_len=first.prompt_len,
        guided_layers=dict(first.guided_layers),
        categories=categories,
        beta_policy="uniform",
        mapping={cat: mapping[cat] for cat in categories},
        phi=phi,
        raw=raw,
    )


# ---------------------------------------------------------------------------
# LC baseline head


def save_lc_head(path: str | Path, head: LcHead) -> None:
    meta = {"tags": list(head.tags), "d_model": int(head.W.value.data.shape[0])}
    _write_container(path, "lc-head", meta, {"W": head.W.value.data, "b": head.b.value.data})


def load_lc_head(path: str | Path, categories: Sequence[str], d_model: int) -> LcHead:
    """Load a classifier head for a category set; shape mismatches are fatal.

    The stored W is (d, 2*m1+1) and the requested head is (d, 2*m2+1); if
    those differ the load is rejected naming both shapes and both tag
    lists, because a BIO classifier cannot be transplanted across tag sets.
    """
    meta, arrays = _read_container(path, "lc-head")
    head = LcHead(d_model, categories)
    install_arrays(
        f"{path}: stored classifier for tags {meta.get('tags')} does not fit a head for tags {list(head.tags)}",
        head.parameters(),
        {f"lc.{name}": arr for name, arr in arrays.items()},
    )
    return head
