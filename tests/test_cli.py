"""Exit codes, error lines, and an end-to-end run of every subcommand."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import plugner
from plugner.backbone import Backbone, ModelConfig
from plugner.cli import main
from plugner.data import Vocab, read_column_file
from plugner.head import NerModel, Verbalizer
from plugner.persist import load_checkpoint, load_prompt, save_prompt, prompt_from_model


TINY_CFG = """\
# architecture small enough for test-speed training
d_model = 8
n_heads = 2
enc_layers = 1
dec_layers = 1
ffn_dim = 16
max_len = 32
prompt_len = 2
epochs = 2
"""


@pytest.fixture()
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return str(path)


@pytest.fixture()
def tiny_ckpt(tmp_path, tiny_cfg):
    corpus = tmp_path / "src.bio"
    assert main(["gen-synth", "--domain", "source", "--n", "8", "--seed", "1", "--out", str(corpus)]) == 0
    ckpt = tmp_path / "model.ckpt"
    assert main(["pretrain", "--train", str(corpus), "--out", str(ckpt), "--config", tiny_cfg]) == 0
    return ckpt, corpus


def test_unknown_command_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("USAGE:")
    assert "--help" in err


def test_unknown_flag_is_a_usage_error(tmp_path, capsys):
    code = main(["gen-synth", "--domain", "source", "--out", str(tmp_path / "x.bio"), "--frob"])
    assert code == 1
    assert "USAGE:" in capsys.readouterr().err


def test_gen_synth_needs_exactly_one_source(tmp_path, capsys):
    out = str(tmp_path / "x.bio")
    assert main(["gen-synth", "--out", out]) == 1
    assert main(["gen-synth", "--domain", "source", "--spec", "f.txt", "--out", out]) == 1
    assert "exactly one" in capsys.readouterr().err


def test_gen_synth_is_byte_deterministic(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.bio", "b.bio", "c.bio"))
    assert main(["gen-synth", "--domain", "source", "--n", "15", "--seed", "4", "--out", str(a)]) == 0
    assert main(["gen-synth", "--domain", "source", "--n", "15", "--seed", "4", "--out", str(b)]) == 0
    assert main(["gen-synth", "--domain", "source", "--n", "15", "--seed", "5", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_config_with_unknown_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("d_model = 8\nlearning_rate = 0.1\n")
    out = str(tmp_path / "x.bio")
    code = main(["gen-synth", "--domain", "source", "--out", out, "--config", str(cfg)])
    assert code == 1
    err = capsys.readouterr().err
    assert "bad.cfg:2" in err
    assert "learning_rate" in err


def test_config_with_bad_number_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("d_model = eight\n")
    gold = tmp_path / "g.bio"
    main(["gen-synth", "--domain", "source", "--n", "4", "--out", str(gold)])
    code = main(["pretrain", "--train", str(gold), "--out", str(tmp_path / "m.ckpt"),
                 "--config", str(cfg)])
    assert code == 1
    assert "d_model" in capsys.readouterr().err


@pytest.mark.parametrize("command, text, detail", [
    ("pretrain", "n_heads = 3\nd_model = 8\n", "n_heads (3)"),
    ("pretrain", "guidance_mode = sideways\n", "'sideways'"),
    ("tune", "peak_lr = -1\n", "peak_lr must be positive"),
    ("pretrain", "eval_every = 0\n", "eval_every must be at least 1, got 0"),
    ("tune", "eval_every = -2\n", "eval_every must be at least 1, got -2"),
    ("pretrain", "ffn_dim = -1\n", "ffn_dim must be positive, got -1"),
    ("pretrain", "ffn_dim = 0\n", "ffn_dim must be positive, got 0"),
], ids=["n_heads", "guidance_mode", "peak_lr", "eval_every-zero", "eval_every-negative", "ffn_dim-negative",
        "ffn_dim-zero"])
def test_config_with_invalid_value_is_rejected(tmp_path, capsys, tiny_ckpt, command, text, detail):
    ckpt, corpus = tiny_ckpt
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    argv = {
        "pretrain": ["pretrain", "--train", str(corpus), "--out", str(tmp_path / "new.ckpt")],
        "tune": ["tune", "--checkpoint", str(ckpt), "--train", str(corpus),
                 "--out-prompt", str(tmp_path / "task.prompt")],
    }[command]
    capsys.readouterr()
    assert main([*argv, "--config", str(cfg)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("USAGE:")
    assert "bad.cfg" in lines[0] and detail in lines[0]


def test_tune_and_decode_refuse_a_config_that_conflicts_with_the_checkpoint(tmp_path, capsys, tiny_ckpt):
    ckpt, corpus = tiny_ckpt
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(TINY_CFG.replace("ffn_dim = 16", "ffn_dim = 32"))
    for argv in (
        ["tune", "--checkpoint", str(ckpt), "--train", str(corpus), "--out-prompt", str(tmp_path / "t.prompt")],
        ["decode", "--checkpoint", str(ckpt), "--input", str(corpus), "--out", str(tmp_path / "p.jsonl")],
    ):
        capsys.readouterr()
        assert main([*argv, "--config", str(cfg)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("CONFIG_MISMATCH:")
        assert "ffn_dim: expected 16, found 32" in lines[0]


def test_decode_leaves_overlong_sentences_unlabelled(tmp_path, capsys, tiny_ckpt):
    ckpt, corpus = tiny_ckpt
    mixed = tmp_path / "mixed.bio"
    mixed.write_text(corpus.read_text().rstrip("\n") + "\n\n" + "the O\n" * 33)  # max_len is 32
    pred = tmp_path / "pred.jsonl"
    capsys.readouterr()
    assert main(["decode", "--checkpoint", str(ckpt), "--input", str(mixed), "--out", str(pred)]) == 0
    assert "1 sentences longer than max_len 32 were left unlabelled" in capsys.readouterr().out
    rows = [json.loads(line) for line in pred.read_text().splitlines()]
    assert len(rows) == 9
    assert rows[-1]["spans"] == [] and len(rows[-1]["tokens"]) == 33


def test_missing_input_file_is_a_runtime_error(tmp_path, capsys):
    code = main(["sample", "--input", str(tmp_path / "absent.bio"), "--k", "3",
                 "--out", str(tmp_path / "out.bio")])
    assert code == 2
    assert capsys.readouterr().err.startswith("IO_ERROR:")


@pytest.mark.parametrize(
    "argv, code, prefix",
    [
        (["pretrain", "--train", "{empty}", "--out", "{tmp}/m.ckpt"], 2, "FORMAT_ERROR: {empty}:"),
        (["pretrain", "--train", "{all_o}", "--out", "{tmp}/m.ckpt"], 2, "FORMAT_ERROR: {all_o}:"),
        (["tune", "--checkpoint", "{ckpt}", "--train", "{empty}", "--out-prompt", "{tmp}/t.prompt"],
         2, "FORMAT_ERROR: {empty}:"),
        (["tune", "--checkpoint", "{ckpt}", "--train", "{all_o}", "--out-prompt", "{tmp}/t.prompt"],
         2, "FORMAT_ERROR: {all_o}:"),
        (["sample", "--input", "{all_o}", "--k", "0", "--out", "{tmp}/s.bio"], 1, "USAGE: argument --k"),
        (["sample", "--input", "{all_o}", "--k", "-3", "--out", "{tmp}/s.bio"], 1, "USAGE: argument --k"),
        (["gen-synth", "--domain", "source", "--n", "-1", "--out", "{tmp}/g.bio"], 1, "USAGE: argument --n"),
        (["gradcheck", "--seed", "-1"], 1, "USAGE: argument --seed"),
        (["gradcheck", "--h", "1"], 1, "USAGE: argument --h"),
        (["gradcheck", "--config", "{latin1}"], 1, "USAGE: {latin1}: not UTF-8 text"),
        (["sample", "--input", "{latin1}", "--k", "1", "--out", "{tmp}/s.bio"], 2, "FORMAT_ERROR: {latin1}: not UTF-8"),
        (["gen-synth", "--spec", "{latin1}", "--out", "{tmp}/g.bio"], 2, "FORMAT_ERROR: {latin1}: not UTF-8"),
        (["eval", "--gold", "{all_o}", "--pred", "{latin1}", "--out", "{tmp}/e.json"],
         2, "FORMAT_ERROR: {latin1}: not UTF-8"),
        (["eval", "--gold", "{all_o}", "--pred", "{malformed_x}", "--out", "{tmp}/e.json"],
         2, "FORMAT_ERROR: {malformed_x}:2: bad prediction row"),
        (["eval", "--gold", "{all_o}", "--pred", "{malformed_null}", "--out", "{tmp}/e.json"],
         2, "FORMAT_ERROR: {malformed_null}:2: bad prediction row"),
        (["mix-prompts", "{huge}", "{huge}", "--out", "{tmp}/m.prompt"],
         2, "CHECKSUM_MISMATCH: {huge}: payload shorter than its manifest"),
        (["decode", "--checkpoint", "{ckpt}", "--prompt", "{slotless}", "--input", "{src}", "--out", "{tmp}/p.jsonl"],
         2, "CONFIG_MISMATCH: prompt arrays do not fit this model's guidance slots and label words: "
            "guidance.encoder.layer0.phi_k: expected (2, 8), found None"),
        (["mix-prompts", "{tiny}", "{reshaped}", "--out", "{tmp}/m.prompt"],
         2, "CONFIG_MISMATCH: prompts are not mixable: guidance slots differ: "
            "decoder.layer0.phi_v: expected (2, 8), found (1, 8)"),
    ],
    ids=["pretrain-empty", "pretrain-all-O", "tune-empty", "tune-all-O", "sample-k-0", "sample-k-neg",
         "gen-synth-n-neg", "seed-neg", "gradcheck-h-1", "config-not-utf8", "corpus-not-utf8",
         "spec-not-utf8", "pred-not-utf8", "pred-malformed-str", "pred-malformed-null", "prompt-huge-shape",
         "decode-prompt-missing-slot", "mix-reshaped-slot"],
)
def test_bad_input_ends_in_one_coded_line_without_traceback(request, tmp_path, argv, code, prefix):
    # a separate process, so an escaping exception shows up as a traceback on stderr
    (tmp_path / "empty.bio").write_text("")
    (tmp_path / "all_o.bio").write_text("red O\nfox O\n\nthe O\n")
    (tmp_path / "latin1.txt").write_bytes("caf\u00e9 O\n".encode("latin-1"))
    row = '{"spans": [], "tokens": ["red", "fox"]'
    (tmp_path / "malformed_x.jsonl").write_text(f'{row}}}\n{row}, "malformed": "x"}}\n')
    (tmp_path / "malformed_null.jsonl").write_text(f'{row}}}\n{row}, "malformed": null}}\n')
    names = {"tmp": str(tmp_path), **{path.stem: str(path) for path in tmp_path.iterdir()}}
    if "{ckpt}" in argv:
        ckpt, corpus = request.getfixturevalue("tiny_ckpt")
        names.update(ckpt=str(ckpt), src=str(corpus))
    if "{slotless}" in argv:
        prompt = prompt_from_model(load_checkpoint(ckpt)[0])
        del prompt.phi["encoder.layer0.phi_k"]
        names["slotless"] = str(tmp_path / "slotless.prompt")
        save_prompt(names["slotless"], prompt)
    if "{reshaped}" in argv:
        prompt = prompt_from_model(tiny_model())
        names["tiny"] = str(tmp_path / "tiny.prompt")
        save_prompt(names["tiny"], prompt)
        prompt.phi["decoder.layer0.phi_v"] = prompt.phi["decoder.layer0.phi_v"][:1]
        names["reshaped"] = str(tmp_path / "reshaped.prompt")
        save_prompt(names["reshaped"], prompt)
    if "{huge}" in argv:
        # 2**32 x 2**32 elements: an int64 count wraps to 0
        names["huge"] = str(tmp_path / "huge.prompt")
        save_prompt(names["huge"], prompt_from_model(tiny_model()))
        rewrite_container(Path(names["huge"]), lambda header: header["manifest"][0].__setitem__("shape", [2**32, 2**32]))
    env = {**os.environ, "PYTHONPATH": str(Path(plugner.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "plugner.cli", *(a.format(**names) for a in argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == code
    lines = proc.stderr.splitlines()
    assert lines[0].startswith(prefix.format(**names))
    assert lines[1:] == []


def test_gradcheck_command_passes(capsys):
    assert main(["gradcheck", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "max rel err" in out
    assert "guidance.encoder.layer0.phi_k" in out


def test_param_report_needs_exactly_one_model_source(tmp_path, capsys, tiny_cfg):
    assert main(["param-report"]) == 1
    assert main(["param-report", "--config", tiny_cfg]) == 0
    out = capsys.readouterr().out
    assert "closed form" in out
    assert "2.2%" in out


def test_eval_rejects_misaligned_files(tmp_path, capsys):
    gold = tmp_path / "gold.bio"
    main(["gen-synth", "--domain", "source", "--n", "6", "--out", str(gold)])
    pred = tmp_path / "pred.jsonl"
    pred.write_text('{"spans": [], "tokens": ["x"]}\n')
    code = main(["eval", "--gold", str(gold), "--pred", str(pred),
                 "--out", str(tmp_path / "m.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("EVAL_LENGTH_MISMATCH:")
    assert "6" in err and "1" in err


def tiny_model():
    vocab = Vocab("red blue fox owl color animal".split())
    config = ModelConfig(vocab_size=len(vocab), d_model=8, n_heads=2, enc_layers=1,
                         dec_layers=1, ffn_dim=16, max_len=16, prompt_len=2)
    backbone = Backbone(config, seed=0)
    return NerModel(backbone, vocab, Verbalizer(("color",), vocab, backbone.param("embed.tokens")))


def test_checkpoint_and_prompt_kinds_are_not_interchangeable(tmp_path, capsys):
    prompt_path = tmp_path / "task.prompt"
    save_prompt(prompt_path, prompt_from_model(tiny_model()))

    gold = tmp_path / "g.bio"
    main(["gen-synth", "--domain", "source", "--n", "3", "--out", str(gold)])
    code = main(["decode", "--checkpoint", str(prompt_path), "--input", str(gold),
                 "--out", str(tmp_path / "p.jsonl")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("FORMAT_ERROR:")
    assert "'prompt'" in err and "'checkpoint'" in err


def rewrite_container(path, mutate_header, extra_payload=b""):
    """Rewrite a container's header; appended payload bytes get a matching checksum."""
    header_line, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    mutate_header(header)
    payload += extra_payload
    if extra_payload:
        header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)


def without(key):
    return lambda header: header.pop(key)


def set_meta(key, value):
    return lambda header: header["meta"].__setitem__(key, value)


@pytest.mark.parametrize(
    "mutate, extra, detail",
    [
        (without("manifest"), b"", "manifest"),
        (without("meta"), b"", "meta"),
        (lambda header: None, np.zeros(2).tobytes(), "16 payload bytes past the end of the manifest"),
        (lambda header: header["meta"].pop("config"), b"", "'config'"),
        (set_meta("vocab", "red blue"), b"", "'vocab'"),
        (set_meta("categories", [1, 2]), b"", "'categories'"),
        (set_meta("beta_policy", None), b"", "'beta_policy'"),
        (set_meta("mapping", {"animal": "fox"}), b"", "'mapping'"),
        (set_meta("config", {"vocab_size": 40, "d_model": "8"}), b"", "does not describe a model"),
    ],
    ids=["no-manifest", "no-meta", "appended-bytes", "no-config", "vocab-string",
         "categories-ints", "beta-policy-null", "mapping-string", "config-ill-typed"],
)
def test_damaged_checkpoint_is_one_format_error(tmp_path, capsys, tiny_ckpt, mutate, extra, detail):
    ckpt, corpus = tiny_ckpt
    rewrite_container(ckpt, mutate, extra)
    capsys.readouterr()
    code = main(["decode", "--checkpoint", str(ckpt), "--input", str(corpus),
                 "--out", str(tmp_path / "p.jsonl")])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("FORMAT_ERROR:")
    assert detail in lines[0]


def test_damaged_prompt_is_one_format_error(tmp_path, capsys, tiny_cfg, tiny_ckpt):
    ckpt, corpus = tiny_ckpt
    prompt = tmp_path / "task.prompt"
    assert main(["tune", "--checkpoint", str(ckpt), "--train", str(corpus), "--out-prompt", str(prompt),
                 "--config", tiny_cfg]) == 0
    rewrite_container(prompt, lambda header: header["meta"].pop("categories"))
    capsys.readouterr()
    code = main(["decode", "--checkpoint", str(ckpt), "--prompt", str(prompt), "--input", str(corpus),
                 "--out", str(tmp_path / "p.jsonl")])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"FORMAT_ERROR: {prompt}: prompt meta field 'categories' is missing or ill-typed"]


def test_full_pipeline_round_trip(tmp_path, capsys, tiny_cfg):
    src = tmp_path / "src.bio"
    tgt = tmp_path / "tgt.bio"
    assert main(["gen-synth", "--domain", "source", "--n", "12", "--seed", "1", "--out", str(src)]) == 0
    assert main(["gen-synth", "--domain", "target", "--n", "12", "--seed", "2", "--out", str(tgt)]) == 0

    ckpt = tmp_path / "model.ckpt"
    code = main(["pretrain", "--train", str(src), "--vocab-extra", str(tgt),
                 "--out", str(ckpt), "--config", tiny_cfg, "--seed", "1"])
    assert code == 0
    assert ckpt.exists()

    sampled = tmp_path / "tgt_k2.bio"
    assert main(["sample", "--input", str(tgt), "--k", "2", "--seed", "1",
                 "--out", str(sampled)]) == 0
    assert "kept" in capsys.readouterr().out
    assert len(read_column_file(str(sampled))) > 0

    prompt = tmp_path / "task.prompt"
    metrics = tmp_path / "tune.json"
    results = tmp_path / "results.csv"
    code = main(["tune", "--checkpoint", str(ckpt), "--train", str(sampled), "--dev", str(tgt),
                 "--out-prompt", str(prompt), "--metrics", str(metrics), "--csv", str(results),
                 "--k-shot", "2", "--source", "source", "--target", "target",
                 "--config", tiny_cfg, "--seed", "1"])
    assert code == 0
    assert json.loads(metrics.read_text())["schema"] == 1
    assert results.read_text().startswith("seed,k_shot,source,target,P,R,F1")

    pred = tmp_path / "pred.jsonl"
    code = main(["decode", "--checkpoint", str(ckpt), "--prompt", str(prompt),
                 "--input", str(tgt), "--out", str(pred)])
    assert code == 0

    report = tmp_path / "eval.json"
    code = main(["eval", "--gold", str(tgt), "--pred", str(pred), "--out", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    assert "F1" in out
    data = json.loads(report.read_text())
    assert data["n_sentences"] == 12

    # a second prompt with fresh guidance, then a zero-shot mix of the two
    prompt2 = tmp_path / "task2.prompt"
    code = main(["tune", "--checkpoint", str(ckpt), "--train", str(sampled),
                 "--out-prompt", str(prompt2), "--fresh-guidance",
                 "--config", tiny_cfg, "--seed", "9"])
    assert code == 0
    mixed = tmp_path / "mixed.prompt"
    assert main(["mix-prompts", "--out", str(mixed), str(prompt), str(prompt2)]) == 0
    loaded = load_prompt(mixed)
    assert loaded.beta_policy == "uniform"
    first = load_prompt(prompt)
    second = load_prompt(prompt2)
    for name in loaded.phi:
        np.testing.assert_allclose(
            loaded.phi[name], (first.phi[name] + second.phi[name]) / 2.0, atol=0
        )

    # checkpoints and prompts rewrite byte-identically under the same flags
    ckpt2 = tmp_path / "model2.ckpt"
    assert main(["pretrain", "--train", str(src), "--vocab-extra", str(tgt),
                 "--out", str(ckpt2), "--config", tiny_cfg, "--seed", "1"]) == 0
    assert ckpt.read_bytes() == ckpt2.read_bytes()


def test_checkpoint_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, tiny_cfg):
    # the README promises identical bytes for the same flags and seed; attention
    # runs stacked matmuls, so pretrain under 1 and 2 BLAS threads, set on the
    # child processes only
    corpus = tmp_path / "src.bio"
    assert main(["gen-synth", "--domain", "source", "--n", "8", "--seed", "1", "--out", str(corpus)]) == 0
    digests = []
    for threads in ("1", "2"):
        ckpt = tmp_path / f"threads{threads}.ckpt"
        env = {**os.environ, "PYTHONPATH": str(Path(plugner.__file__).parents[1]), "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-m", "plugner.cli", "pretrain", "--train", str(corpus), "--out", str(ckpt),
             "--config", tiny_cfg, "--seed", "1"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(hashlib.sha256(ckpt.read_bytes()).hexdigest())
    assert digests[0] == digests[1]
