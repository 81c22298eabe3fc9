"""Acceptance gate: eleven numbered end-to-end checks over the whole stack.

Each check prints one verdict line with the measured quantities it gates on
(run with -s to watch them live). The transfer experiment in check 06 trains
a real model and takes a few minutes; its artifacts are shared with checks
07 and 09 through a module-scoped fixture. Everything is seeded, so reruns
reproduce the same numbers bit for bit.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from plugner.backbone import Backbone, LayerRange, ModelConfig
from plugner.data import (
    SOURCE_DOMAIN,
    TARGET_DOMAIN,
    AnnotatedSentence,
    Corpus,
    DomainSpec,
    EntitySpan,
    SamplerConfig,
    Vocab,
    few_shot_sample,
    synthetic_corpus,
    vocab_for_domains,
)
from plugner.errors import FieldMismatchError
from plugner.evaluate import evaluate
from plugner.head import (
    LcHead,
    NerModel,
    Verbalizer,
    indices_from_spans,
    spans_from_indices,
    step_distribution,
)
from plugner.persist import (
    apply_prompt,
    backbone_hash,
    load_checkpoint,
    load_lc_head,
    load_prompt,
    mix_prompts,
    prompt_from_model,
    save_checkpoint,
    save_lc_head,
    save_prompt,
)
from plugner.tensor import Tensor
from plugner.training import (
    OptimizerConfig,
    decode_corpus,
    guidance_gradcheck,
    lr_at_step,
    param_ratio,
    pretrain_backbone,
    steps_for_epochs,
    train_lc_head,
    tune_guidance,
    warmup_steps,
)

# `pytest -m "not acceptance"` skips this module: the fast inner loop
pytestmark = pytest.mark.acceptance

PAPER_SEEDS = (1, 2, 49, 4321, 1234)

# transfer experiment recipe (check 06), frozen after calibration
TRANSFER_CFG = dict(
    d_model=64, n_heads=4, enc_layers=2, dec_layers=2, ffn_dim=128,
    max_len=48, prompt_len=16,
)
PRETRAIN_LR = 3e-3
PRETRAIN_DEV_TARGET = 0.98
TUNE_LR = 5e-2
TUNE_STEPS = 4000
WARM_FRESH_STEPS = 600  # check 07: equal budget for both arms


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"[acceptance {tag}] {'PASS' if ok else 'FAIL'}: {detail}")


def _model(backbone: Backbone, vocab: Vocab, label_set, policy: str = "learned") -> NerModel:
    verbalizer = Verbalizer(label_set, vocab, backbone.param("embed.tokens"), policy)
    return NerModel(backbone, vocab, verbalizer)


# ---------------------------------------------------------------------------
# independent span reconstruction, used as the oracle in check 04. Written
# directly against the index-space layout (0 = eos, 1..n = positions,
# n+1..n+m = categories) and kept free of any parser imports; the library
# parser is first called further down this file.


def reconstruct_spans_bruteforce(indices, n, categories):
    """Walk an index sequence and rebuild (start, end, category) triples.

    Pointers accumulate until a category index closes them into a span
    covering min..max of the accumulator. A category with an empty
    accumulator counts as one malformed event and is skipped, as does an
    accumulator left open at the end. Duplicates keep their first copy.
    A 0 ends the walk wherever it appears.
    """
    m = len(categories)
    spans: list[tuple[int, int, str]] = []
    seen: set[tuple[int, int, str]] = set()
    acc: list[int] = []
    malformed = 0
    for y in indices:
        if not 0 <= y <= n + m:
            raise ValueError(f"index {y} outside [0, {n + m}]")
        if y == 0:
            break
        if y <= n:
            acc.append(y)
            continue
        if acc:
            span = (min(acc), max(acc), categories[y - n - 1])
            if span not in seen:
                seen.add(span)
                spans.append(span)
        else:
            malformed += 1
        acc = []
    if acc:
        malformed += 1
    return spans, malformed


def _random_span_case(rng):
    n = int(rng.integers(1, 31))
    m = int(rng.integers(1, 11))
    categories = tuple(f"c{i}" for i in range(m))
    triples = set()
    for _ in range(int(rng.integers(0, 6))):
        start = int(rng.integers(1, n + 1))
        end = int(rng.integers(start, n + 1))
        triples.add((start, end, categories[int(rng.integers(m))]))
    spans = [EntitySpan(*t) for t in triples]
    return spans, n, categories


def _malformed_case(rng, lead_category: bool):
    spans, n, categories = _random_span_case(rng)
    body = indices_from_spans(spans, n, categories)
    if lead_category:
        # category arrives before any pointer: one guaranteed skip event
        return [n + 1 + int(rng.integers(len(categories)))] + body, n, categories
    # strip the terminator and leave pointers dangling at the end
    return body[:-1] + [int(rng.integers(1, n + 1))], n, categories


# ---------------------------------------------------------------------------
# 01: analytic gradients of the tuning loss vs central differences


def test_01_gradient_fidelity():
    t0 = time.monotonic()
    reports = [guidance_gradcheck(seed=s) for s in (1, 2, 3)]
    elapsed = time.monotonic() - t0
    worst = max(r.max_rel_error for r in reports)
    coords = sum(r.coords_checked for r in reports)
    ok = (
        all(r.passed for r in reports)
        and not any(r.nonfinite for r in reports)
        and elapsed < 60.0
    )
    _verdict(
        "01 gradient fidelity",
        ok,
        f"max rel err {worst:.3e} (tol 1e-05) over {coords} coordinates, "
        f"3 seeds, {elapsed:.1f}s (budget 60s)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 02: a zero-length guidance prefix leaves attention exactly vanilla


def _np_softmax_rows(x):
    z = x - x.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _np_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def _np_vanilla_attention(weights, gain, bias, x, n_heads, causal):
    q = x @ weights["Wq"] + weights["bq"]
    k = x @ weights["Wk"] + weights["bk"]
    v = x @ weights["Wv"] + weights["bv"]
    n, d = x.shape
    dh = d // n_heads
    outs = []
    for h in range(n_heads):
        cols = slice(h * dh, (h + 1) * dh)
        scores = q[:, cols] @ k[:, cols].T / math.sqrt(dh)
        if causal:
            scores = np.where(np.triu(np.ones((n, n), dtype=bool), k=1), -1e30, scores)
        outs.append(_np_softmax_rows(scores) @ v[:, cols])
    ctx = np.concatenate(outs, axis=1)
    out = ctx @ weights["Wo"] + weights["bo"]
    return _np_layer_norm(x + out, gain, bias)


def test_02_guidance_off_matches_vanilla():
    cfg = ModelConfig(
        vocab_size=16, d_model=8, n_heads=2, enc_layers=1, dec_layers=1,
        ffn_dim=16, max_len=32, prompt_len=0,
    )
    backbone = Backbone(cfg, seed=5)
    rng = np.random.default_rng(17)
    base = "encoder.layer0.attn"
    weights = {}
    for nm in ("Wq", "Wk", "Wv", "Wo", "bq", "bk", "bv", "bo"):
        p = backbone.param(f"{base}.{nm}")
        p.value.data[...] = rng.normal(0.0, 0.7, size=p.value.data.shape)
        weights[nm] = p.value.data
    gain = backbone.param("encoder.layer0.ln_attn.gain").value.data
    bias = backbone.param("encoder.layer0.ln_attn.bias").value.data

    empty = (Tensor(np.zeros((0, 8))), Tensor(np.zeros((0, 8))))
    worst = 0.0
    for case in range(100):
        n = 1 + case % 12
        scale = (0.02, 1.0, 3.0)[case % 3]
        causal = case % 2 == 1
        x = rng.normal(0.0, scale, size=(n, 8))
        expected = _np_vanilla_attention(weights, gain, bias, x, cfg.n_heads, causal)
        got_none = backbone.attention_with_guidance("encoder", 0, Tensor(x), None, causal)
        got_empty = backbone.attention_with_guidance("encoder", 0, Tensor(x), empty, causal)
        worst = max(
            worst,
            float(np.max(np.abs(got_none.data - expected))),
            float(np.max(np.abs(got_empty.data - got_none.data))),
        )
    ok = worst <= 1e-12
    _verdict(
        "02 guidance-off equivalence",
        ok,
        f"max |guided(|P|=0) - vanilla| = {worst:.2e} over 100 inputs (tol 1e-12)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 03: one hundred tuning steps leave every serialized backbone byte alone


def test_03_backbone_frozen_under_tuning(tmp_path):
    domain = DomainSpec(
        name="probe",
        categories={
            "color.tone": ("red", "blue", "green", "amber", "teal"),
            "animal.kind": ("fox", "otter", "heron", "lynx", "mole"),
        },
        templates=(
            "the {animal.kind} slept near a {color.tone} door",
            "a {color.tone} boat carried one {animal.kind} home",
            "guards saw the {color.tone} flag by the {animal.kind}",
        ),
    )
    vocab = vocab_for_domains([domain])
    cfg = ModelConfig(
        vocab_size=len(vocab.tokens), d_model=16, n_heads=2, enc_layers=1,
        dec_layers=1, ffn_dim=32, max_len=32, prompt_len=4,
    )
    model = _model(Backbone(cfg, seed=9), vocab, domain.label_set)
    before = tmp_path / "before.ckpt"
    after = tmp_path / "after.ckpt"
    save_checkpoint(before, model, seed=9)

    tuned, _ = load_checkpoint(before)
    corpus = synthetic_corpus(domain, 16, seed=4)
    tune_guidance(
        tuned, corpus, None,
        OptimizerConfig(peak_lr=1e-2, total_steps=100, batch_size=8),
        seed=2,
    )
    save_checkpoint(after, tuned, seed=9)

    pre_model, _ = load_checkpoint(before)
    post_model, _ = load_checkpoint(after)
    pre_hash = backbone_hash(pre_model)
    post_hash = backbone_hash(post_model)
    pre_guidance = {p.name: p.value.data for p in pre_model.backbone.guidance.parameters()}
    guidance_moved = any(
        not np.array_equal(pre_guidance[p.name], p.value.data)
        for p in post_model.backbone.guidance.parameters()
    )
    ok = pre_hash == post_hash and guidance_moved
    _verdict(
        "03 frozen backbone",
        ok,
        f"backbone hash {pre_hash[:12]}.. unchanged after 100 tune steps; "
        f"guidance moved: {guidance_moved}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 04: span codec round trips and agrees with the brute-force reconstruction


def test_04_span_codec_round_trip_and_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        spans, n, categories = _random_span_case(rng)
        encoded = indices_from_spans(spans, n, categories)
        parsed = spans_from_indices(encoded, n, categories)
        got = {(s.start, s.end, s.category) for s in parsed.spans}
        want = {(s.start, s.end, s.category) for s in spans}
        assert got == want and parsed.malformed == 0, (spans, encoded, parsed)

        oracle_spans, oracle_bad = reconstruct_spans_bruteforce(encoded, n, categories)
        assert set(oracle_spans) == got and oracle_bad == 0

    disagreements = 0
    for i in range(200):
        seq, n, categories = _malformed_case(rng, lead_category=i % 2 == 0)
        oracle_spans, oracle_bad = reconstruct_spans_bruteforce(seq, n, categories)
        assert oracle_bad >= 1, "malformed generator produced a clean sequence"
        parsed = spans_from_indices(seq, n, categories)
        got = [(s.start, s.end, s.category) for s in parsed.spans]
        if got != oracle_spans or parsed.malformed != oracle_bad:
            disagreements += 1
    ok = disagreements == 0
    _verdict(
        "04 span codec",
        ok,
        "1000 round trips exact; brute-force agreement on 1000 clean + 200 "
        f"malformed sequences, {disagreements} disagreements",
    )
    assert ok


# ---------------------------------------------------------------------------
# 05: step distributions normalize; verbalizer simplexes sum to exactly 1


def test_05_step_distribution_normalization():
    words = "red blue door tree lamp iron fox owl near the".split()
    labels = ("color.tone", "animal.kind")
    vocab = Vocab.build([words], [labels])
    cfg = ModelConfig(
        vocab_size=len(vocab.tokens), d_model=8, n_heads=2, enc_layers=1,
        dec_layers=1, ffn_dim=16, max_len=32, prompt_len=2,
    )
    backbone = Backbone(cfg, seed=7)
    verbalizer = Verbalizer(labels, vocab, backbone.param("embed.tokens"))
    m = len(labels)
    rng = np.random.default_rng(55)

    worst_sum = 0.0
    beta_checks = 0
    for case in range(1000):
        if case % 50 == 0:
            for p in verbalizer.parameters():
                p.value.data[...] = rng.normal(0.0, 2.0, size=p.value.data.shape)
            for cat in verbalizer.categories:
                beta = verbalizer.beta(cat)
                assert float(beta.sum()) == 1.0, (cat, beta)
                beta_checks += 1
        n = 1 + case % 30
        scale = (0.02, 1.0, 10.0)[case % 3]
        h_en = Tensor(rng.normal(0.0, scale, size=(n, 8)))
        e_seq = Tensor(rng.normal(0.0, scale, size=(n, 8)))
        h_dec = Tensor(rng.normal(0.0, scale, size=(1, 8)))
        dist = step_distribution(h_en, e_seq, h_dec, verbalizer, alpha=0.5).data
        assert dist.shape == (1, n + m + 1)
        worst_sum = max(worst_sum, abs(float(dist.sum()) - 1.0))
    ok = worst_sum <= 1e-9
    _verdict(
        "05 normalization",
        ok,
        f"1000 distributions: worst |sum-1| = {worst_sum:.2e} (tol 1e-09), "
        f"lengths n+m+1 all correct; {beta_checks} beta simplexes summed to exactly 1.0",
    )
    assert ok


# ---------------------------------------------------------------------------
# transfer experiment shared by checks 06, 07, 09


@pytest.fixture(scope="module")
def transfer_lab(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("transfer")
    vocab = vocab_for_domains([SOURCE_DOMAIN, TARGET_DOMAIN])
    src_train = synthetic_corpus(SOURCE_DOMAIN, 200, seed=11)
    src_dev = synthetic_corpus(SOURCE_DOMAIN, 50, seed=12)
    tgt_pool = synthetic_corpus(TARGET_DOMAIN, 200, seed=13)
    tgt_test = synthetic_corpus(TARGET_DOMAIN, 100, seed=14)

    t0 = time.monotonic()
    cfg = ModelConfig(vocab_size=len(vocab.tokens), **TRANSFER_CFG)
    model = _model(Backbone(cfg, seed=1), vocab, SOURCE_DOMAIN.label_set)
    pre_cfg = OptimizerConfig(
        peak_lr=PRETRAIN_LR,
        total_steps=steps_for_epochs(len(src_train), 80, 8),
        batch_size=8,
    )
    pretrain = pretrain_backbone(
        model, src_train, src_dev, pre_cfg, seed=1, f1_target=PRETRAIN_DEV_TARGET
    )
    ckpt = workdir / "source.ckpt"
    save_checkpoint(ckpt, model, seed=1, trained_steps=pretrain.steps)

    sample = few_shot_sample(tgt_pool, SamplerConfig(k=20, seed=1))
    tuned, _ = load_checkpoint(ckpt)
    tune = tune_guidance(
        tuned, sample.corpus, None,
        OptimizerConfig(peak_lr=TUNE_LR, total_steps=TUNE_STEPS, batch_size=8),
        seed=1,
    )
    predictions, _ = decode_corpus(tuned, tgt_test)
    test_report = evaluate(tgt_test, predictions)
    elapsed = time.monotonic() - t0

    return SimpleNamespace(
        workdir=workdir,
        vocab=vocab,
        ckpt=ckpt,
        src_train=src_train,
        tgt_test=tgt_test,
        sample=sample,
        pretrain=pretrain,
        tune=tune,
        test_report=test_report,
        elapsed=elapsed,
    )


# ---------------------------------------------------------------------------
# 06: few-shot class + domain transfer with a bitwise-frozen backbone


def test_06_class_and_domain_transfer(transfer_lab, tmp_path):
    lab = transfer_lab
    dev_ok = lab.pretrain.final_f1 >= 0.95
    test_ok = lab.test_report.f1 >= 0.90
    time_ok = lab.elapsed <= 600.0
    counts_ok = all(v == 20 for v in lab.sample.counts.values())

    # the token-classifier contrast: its output matrix is welded to the
    # source tag set, so the target tag set must be refused at load time
    lc_model, _ = load_checkpoint(lab.ckpt)
    head = LcHead(lc_model.config.d_model, SOURCE_DOMAIN.label_set, seed=0)
    slice_corpus = Corpus(
        sentences=lab.src_train.sentences[:16],
        label_set=lab.src_train.label_set,
        name="lc-slice",
    )
    train_lc_head(lc_model, head, slice_corpus, steps=5, lr=1e-2, seed=1)
    lc_path = tmp_path / "source.lchead"
    save_lc_head(lc_path, head)
    load_lc_head(lc_path, SOURCE_DOMAIN.label_set, lc_model.config.d_model)
    with pytest.raises(FieldMismatchError) as err:
        load_lc_head(lc_path, TARGET_DOMAIN.label_set, lc_model.config.d_model)
    rejected = "shape" in str(err.value).lower() or "tag" in str(err.value).lower()

    ok = dev_ok and test_ok and time_ok and counts_ok and rejected
    _verdict(
        "06 class+domain transfer",
        ok,
        f"source dev F1 {lab.pretrain.final_f1:.4f} (>=0.95), target test F1 "
        f"{lab.test_report.f1:.4f} (>=0.90), {lab.elapsed:.0f}s (<=600s), "
        f"k=20 quotas {dict(lab.sample.counts)}, lc-head target load rejected: {rejected}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 07: warm-started guidance is non-inferior to fresh at the same budget


def test_07_warm_start_non_inferiority(transfer_lab):
    lab = transfer_lab
    curve_dev = Corpus(
        sentences=lab.tgt_test.sentences[:25],
        label_set=lab.tgt_test.label_set,
        name="curve-dev",
    )
    budget = WARM_FRESH_STEPS
    cadence = budget // 3
    finals: dict[bool, list[float]] = {True: [], False: []}
    curves: dict[bool, dict[int, list[float]]] = {True: {}, False: {}}
    for warm in (True, False):
        for seed in PAPER_SEEDS:
            model, _ = load_checkpoint(lab.ckpt)
            result = tune_guidance(
                model, lab.sample.corpus, curve_dev,
                OptimizerConfig(peak_lr=TUNE_LR, total_steps=budget, batch_size=8),
                seed=seed, warm_start=warm, eval_every=cadence,
            )
            for step, _loss, f1 in result.history:
                curves[warm].setdefault(step, []).append(f1)
            preds, _ = decode_corpus(model, lab.tgt_test)
            finals[warm].append(evaluate(lab.tgt_test, preds).f1)

    warm_mean = float(np.mean(finals[True]))
    fresh_mean = float(np.mean(finals[False]))
    for warm, label in ((True, "warm "), (False, "fresh")):
        pts = ", ".join(
            f"{step}:{np.mean(f1s):.3f}" for step, f1s in sorted(curves[warm].items())
        )
        print(f"[acceptance 07 curves] {label} mean dev-slice F1 by step: {pts}")
        print(
            f"[acceptance 07 finals] {label} per-seed test F1 "
            f"{['%.3f' % f for f in finals[warm]]} mean {np.mean(finals[warm]):.4f}"
        )
    ok = warm_mean >= fresh_mean - 0.02
    _verdict(
        "07 warm-start non-inferiority",
        ok,
        f"warm mean {warm_mean:.4f} vs fresh mean {fresh_mean:.4f} over seeds "
        f"{list(PAPER_SEEDS)} at {budget} steps each (allowed gap 0.02)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 08: learning-rate schedule peaks once at ceil(0.10 T) and ends at zero


def test_08_lr_schedule_shape():
    details = []
    ok = True
    for total in (10, 100, 1000, 1001):
        cfg = OptimizerConfig(peak_lr=3e-3, total_steps=total)
        rates = [lr_at_step(cfg, step) for step in range(total + 1)]
        peak_step = warmup_steps(cfg)
        expected_peak = math.ceil(0.10 * total)
        unique_max = rates.count(max(rates)) == 1
        here = (
            peak_step == expected_peak
            and rates[peak_step] == max(rates)
            and unique_max
            and rates[total] == 0.0
        )
        ok = ok and here
        details.append(f"T={total}: peak at {peak_step} (expect {expected_peak}), lr(T)={rates[total]}")
    _verdict("08 lr schedule", ok, "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 09: prompt mixing is idempotent, commutative, and usable zero-shot

COLOR_ONLY = DomainSpec(
    name="colors",
    categories={"color": SOURCE_DOMAIN.categories["color"]},
    templates=(
        "a {color} banner hung over the market square",
        "the mayor praised the {color} parade float",
        "vendors sold bread beside the {color} fountain",
        "a ladder vanished from the shed near the {color} mill",
    ),
)

ANIMAL_ONLY = DomainSpec(
    name="animals",
    categories={"animal": SOURCE_DOMAIN.categories["animal"]},
    templates=(
        "witnesses saw a {animal} near the old station",
        "reporters described the {animal} as calm",
        "guards found a {animal} asleep in the depot",
        "the {animal} knocked over a basket at the fair",
    ),
)

# third domain: both categories, template contexts unseen during the single
# source tunes, surface words restricted to the shared vocabulary
THIRD_DOMAIN = DomainSpec(
    name="third",
    categories={
        "color": SOURCE_DOMAIN.categories["color"],
        "animal": SOURCE_DOMAIN.categories["animal"],
    },
    templates=(
        "a {animal} slipped past the {color} fountain at dawn",
        "the {color} banner was last seen near the {animal}",
        "guards found the {animal} beside the {color} tram",
        "the {animal} crossed the road into the {color} market",
    ),
)


def test_09_prompt_mixing(transfer_lab, tmp_path):
    lab = transfer_lab
    tune_cfg = OptimizerConfig(peak_lr=TUNE_LR, total_steps=800, batch_size=8)
    prompt_paths = {}
    for domain, seed in ((COLOR_ONLY, 21), (ANIMAL_ONLY, 22)):
        model, _ = load_checkpoint(lab.ckpt)
        tune_guidance(model, synthetic_corpus(domain, 40, seed=seed), None, tune_cfg, seed=1)
        path = tmp_path / f"{domain.name}.prompt"
        save_prompt(path, prompt_from_model(model))
        prompt_paths[domain.name] = path

    prompt_a = load_prompt(prompt_paths["colors"])
    prompt_b = load_prompt(prompt_paths["animals"])

    mixed = mix_prompts([prompt_a, prompt_b])
    mixed_path = tmp_path / "mixed.prompt"
    save_prompt(mixed_path, mixed)

    # idempotence at file level: mixing a file with itself reproduces it
    remixed_path = tmp_path / "remixed.prompt"
    save_prompt(remixed_path, mix_prompts([load_prompt(mixed_path), load_prompt(mixed_path)]))
    idempotent = mixed_path.read_bytes() == remixed_path.read_bytes()

    swapped_path = tmp_path / "swapped.prompt"
    save_prompt(swapped_path, mix_prompts([prompt_b, prompt_a]))
    commutative = mixed_path.read_bytes() == swapped_path.read_bytes()

    union_ok = mixed.categories == ("animal", "color") and mixed.beta_policy == "uniform"

    third_test = synthetic_corpus(THIRD_DOMAIN, 60, seed=23)
    f1 = {}
    for name, prompt in (("colors", prompt_a), ("animals", prompt_b), ("mixed", mixed)):
        host, _ = load_checkpoint(lab.ckpt)
        apply_prompt(host, prompt)
        preds, _ = decode_corpus(host, third_test)
        f1[name] = evaluate(third_test, preds).f1

    soft_floor = max(f1["colors"], f1["animals"]) - 0.05
    soft_ok = f1["mixed"] >= soft_floor
    print(
        f"[acceptance 09 report] zero-shot on third domain: colors-only {f1['colors']:.4f}, "
        f"animals-only {f1['animals']:.4f}, mixed {f1['mixed']:.4f} "
        f"(soft floor {soft_floor:.4f}: {'met' if soft_ok else 'MISSED, report only'})"
    )
    ok = idempotent and commutative and union_ok
    _verdict(
        "09 prompt mixing",
        ok,
        f"self-mix bitwise: {idempotent}, commutative bytes: {commutative}, "
        f"union {mixed.categories} beta {mixed.beta_policy}; mixed zero-shot "
        f"F1 {f1['mixed']:.4f} decoded without error",
    )
    assert ok


# ---------------------------------------------------------------------------
# 10: guidance parameter count equals the closed form on random shapes


def test_10_parameter_accounting():
    rng = np.random.default_rng(31)
    words = [f"w{i}" for i in range(6)]
    labels = ("cat.a", "cat.b")
    vocab = Vocab.build([words], [labels])
    details = []
    ok = True
    for i in range(5):
        heads = int(rng.choice((1, 2, 4)))
        d_model = heads * int(rng.integers(2, 9))
        layers = int(rng.integers(1, 4))
        prompt_len = int(rng.integers(1, 9))
        if i < 3:
            guidance = LayerRange()  # every layer guided
            guided_layers = 2 * layers
        else:
            k = int(rng.integers(1, layers + 1))
            guidance = LayerRange(mode="lowest_k" if i == 3 else "highest_k", k=k)
            guided_layers = 2 * min(k, layers)
        cfg = ModelConfig(
            vocab_size=len(vocab.tokens), d_model=d_model, n_heads=heads,
            enc_layers=layers, dec_layers=layers, ffn_dim=2 * d_model,
            max_len=16, prompt_len=prompt_len, guidance=guidance,
        )
        model = _model(Backbone(cfg, seed=i), vocab, labels)
        report = param_ratio(model, "guidance_only")
        enumerated = sum(
            p.value.data.size
            for p in model.parameters()
            if p.name.startswith("guidance.")
        )
        formula = 2 * guided_layers * prompt_len * d_model
        here = report.guidance == report.guidance_closed_form == enumerated == formula
        ok = ok and here
        details.append(
            f"(d={d_model},L={layers},P={prompt_len},guided={guided_layers}): "
            f"{enumerated}=={formula}"
        )
        assert here, details[-1]
    context_documented = any("2.2%" in line for line in param_ratio(model, "guidance_only").lines())
    ok = ok and context_documented
    _verdict(
        "10 parameter accounting",
        ok,
        "; ".join(details) + f"; production-scale share documented as context: {context_documented}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 11: the few-shot sampler reproduces a hand-traced run on a fixed pool


def _fixture_pool():
    # per-sentence category multisets; token text is irrelevant to sampling
    layout = [
        ["a"], ["a", "b"], ["a"], ["b"], ["a", "a"], ["b"],
        ["a"], [], ["a", "b"], ["a"], ["b", "b"], ["a"],
    ]
    sentences = []
    for cats in layout:
        tokens = ("t0", "t1", "t2", "t3", "t4")
        positions = ((1, 1), (3, 3), (5, 5))
        spans = tuple(
            EntitySpan(p[0], p[1], cat) for p, cat in zip(positions, cats)
        )
        sentences.append(AnnotatedSentence(tokens=tokens, spans=spans))
    return Corpus(sentences=sentences, label_set=("a", "b"), name="fixture")


def test_11_sampler_hand_trace():
    pool = _fixture_pool()
    # occurrence totals: a appears 9 times, b 6 times, so tags are visited
    # in order (b, a) - ascending by (count, name).
    #
    # seed 11 shuffles the twelve indices to [2,10,8,1,6,9,4,5,11,3,7,0].
    #   phase b: sent 2 has no b; sent 10 carries {b:2}, fits the k=2 quota
    #     exactly -> take it, b is full, phase ends.
    #   phase a: sent 2 {a:1} -> take (a=1). sent 10 already taken. sent 8
    #     {a:1,b:1} would push b to 3 -> discard forever. sent 1 {a:1,b:1}
    #     same overflow -> discard. sent 6 {a:1} -> take (a=2), phase ends.
    #   result: kept {2,6,10}, both quotas exactly 2, discarded {1,8}.
    result = few_shot_sample(pool, SamplerConfig(k=2, seed=11))
    trace_11 = (
        result.indices == (2, 6, 10)
        and result.counts == {"a": 2, "b": 2}
        and result.discarded == 2
        and result.shortfall == {}
    )

    # seed 12 shuffles to [4,1,10,9,6,5,7,0,3,2,11,8].
    #   phase b: sent 4 has no b; sent 1 {a:1,b:1} -> take (a=1,b=1); sent 10
    #     {b:2} would push b to 3 -> discard forever; sent 5 {b:1} -> take
    #     (b=2), phase ends.
    #   phase a: sent 4 {a:2} would push a to 3 -> discard; sents 1 and 10
    #     already taken/discarded; sent 9 {a:1} -> take (a=2), phase ends.
    #   result: kept {1,5,9}, quotas exact, discarded {4,10}.
    result = few_shot_sample(pool, SamplerConfig(k=2, seed=12))
    trace_12 = (
        result.indices == (1, 5, 9)
        and result.counts == {"a": 2, "b": 2}
        and result.discarded == 2
        and result.shortfall == {}
    )

    ok = trace_11 and trace_12
    _verdict(
        "11 sampler conformance",
        ok,
        f"seed 11 trace reproduced: {trace_11}; seed 12 trace reproduced: {trace_12} "
        "(tag order, quota decrements, permanent discard-on-overflow)",
    )
    assert ok
