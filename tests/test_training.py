"""Loss, schedule, optimizer behavior, and the two training phases."""
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from plugner import tensor as T
from plugner.backbone import Backbone, ModelConfig
from plugner.data import AnnotatedSentence, Corpus, DomainSpec, EntitySpan, synthetic_corpus, vocab_for_domains
from plugner.errors import DivergedError, ShapeError
from plugner.evaluate import evaluate
from plugner.head import LcHead, NerModel, Verbalizer, decoder_inputs, step_scores
from plugner.persist import backbone_hash
from plugner.tensor import Parameter, Tensor, record
from plugner.training import (
    AdamW,
    OptimizerConfig,
    decode_corpus,
    gold_indices,
    guidance_gradcheck,
    lr_at_step,
    param_ratio,
    partition_parameters,
    pretrain_backbone,
    run_training,
    sequence_loss,
    steps_for_epochs,
    train_lc_head,
    tune_guidance,
    warmup_steps,
)

PROBE = DomainSpec(
    name="probe",
    categories={
        "color": ("red", "blue", "green", "amber", "teal"),
        "animal": ("fox", "owl", "hen", "lynx", "mole"),
    },
    templates=(
        "the {animal} sat near a {color} door",
        "a {color} lamp lit the {animal}",
        "one {animal} found a {color} stone",
    ),
)


# the same sentences with two label words per category
PROBE_TWO_WORD = DomainSpec(
    name="probe2",
    categories={
        "color.tone": PROBE.categories["color"],
        "animal.kind": PROBE.categories["animal"],
    },
    templates=tuple(t.replace("{color}", "{color.tone}").replace("{animal}", "{animal.kind}") for t in PROBE.templates),
)


def build_model(seed=1, prompt_len=2, d_model=16, layers=1, guided=("all", 0), max_len=32, domain=PROBE):
    vocab = vocab_for_domains([domain])
    config = ModelConfig(
        vocab_size=len(vocab),
        d_model=d_model,
        n_heads=2,
        enc_layers=layers,
        dec_layers=layers,
        ffn_dim=2 * d_model,
        max_len=max_len,
        prompt_len=prompt_len,
        guidance_mode=guided[0],
        guidance_k=guided[1],
    )
    backbone = Backbone(config, seed=seed)
    verb = Verbalizer(domain.label_set, vocab, backbone.param("embed.tokens"))
    return NerModel(backbone, vocab, verb)


# ---------------------------------------------------------------------------
# learning-rate schedule


def test_lr_is_piecewise_linear():
    cfg = OptimizerConfig(peak_lr=1.0, total_steps=100)
    assert warmup_steps(cfg) == 10
    assert lr_at_step(cfg, 0) == 0.0
    assert lr_at_step(cfg, 5) == pytest.approx(0.5)
    assert lr_at_step(cfg, 10) == 1.0
    assert lr_at_step(cfg, 55) == pytest.approx(0.5)
    assert lr_at_step(cfg, 100) == 0.0
    assert lr_at_step(cfg, 101) == 0.0


@pytest.mark.parametrize("total", [10, 100, 1000, 1001])
def test_lr_peaks_exactly_once_at_warmup_end(total):
    cfg = OptimizerConfig(peak_lr=0.3, total_steps=total)
    w = warmup_steps(cfg)
    assert w == math.ceil(0.10 * total)
    rates = [lr_at_step(cfg, s) for s in range(total + 2)]
    assert max(rates) == rates[w] == cfg.peak_lr
    assert rates.count(cfg.peak_lr) == 1
    assert rates[total] == 0.0


def test_warmup_rounds_up():
    assert warmup_steps(OptimizerConfig(total_steps=19)) == 2
    assert warmup_steps(OptimizerConfig(total_steps=1001)) == 101


def test_optimizer_config_validation():
    with pytest.raises(ValueError, match="total_steps"):
        OptimizerConfig(total_steps=0)
    with pytest.raises(ValueError, match="peak_lr"):
        OptimizerConfig(peak_lr=0.0)
    with pytest.raises(ValueError, match="warmup"):
        OptimizerConfig(warmup_fraction=1.0)
    with pytest.raises(ValueError, match="batch"):
        OptimizerConfig(batch_size=0)
    with pytest.raises(ValueError, match="weight_decay must be >= 0"):
        OptimizerConfig(weight_decay=-0.01)
    with pytest.raises(ValueError, match="clip_norm must be >= 0"):
        OptimizerConfig(clip_norm=-1.0)
    OptimizerConfig(weight_decay=0.0, clip_norm=0.0)  # 0 turns each off


def test_steps_for_epochs():
    assert steps_for_epochs(10, 2, 8) == 4
    assert steps_for_epochs(8, 300, 8) == 300
    assert steps_for_epochs(3, 1, 8) == 1
    for epochs in (0, -5):
        with pytest.raises(ValueError, match=f"epochs must be at least 1, got {epochs}"):
            steps_for_epochs(3, epochs, 8)


# ---------------------------------------------------------------------------
# optimizer


def test_zero_grad_without_decay_is_a_noop():
    p = Parameter("w", np.array([[1.0, -2.0]]))
    p.trainable = True
    opt = AdamW([p], OptimizerConfig(peak_lr=0.1, total_steps=10, weight_decay=0.0))
    before = p.value.data.copy()
    opt.step()
    np.testing.assert_array_equal(p.value.data, before)


def test_decay_shrinks_matrices_but_not_vectors():
    w = Parameter("w", np.full((2, 2), 4.0))
    b = Parameter("b", np.full(2, 4.0))
    for p in (w, b):
        p.trainable = True
    cfg = OptimizerConfig(peak_lr=0.5, total_steps=10, weight_decay=0.01)
    opt = AdamW([w, b], cfg)
    opt.step()
    lr = lr_at_step(cfg, 1)
    np.testing.assert_allclose(w.value.data, 4.0 - lr * 0.01 * 4.0, atol=1e-15)
    np.testing.assert_array_equal(b.value.data, np.full(2, 4.0))


def test_untrainable_params_are_never_touched():
    frozen = Parameter("frozen", np.ones((2, 2)), trainable=False)
    frozen.value.grad = np.ones((2, 2))
    opt = AdamW([frozen], OptimizerConfig(peak_lr=0.5, total_steps=10))
    opt.step()
    np.testing.assert_array_equal(frozen.value.data, np.ones((2, 2)))
    assert opt.params == []


def test_clipping_matches_prescaled_gradients():
    cfg = OptimizerConfig(peak_lr=0.1, total_steps=10, weight_decay=0.0, clip_norm=1.0)
    big = Parameter("w", np.zeros(2))
    small = Parameter("w", np.zeros(2))
    for p in (big, small):
        p.trainable = True
    # [30, 40] has norm 50; clipping should land exactly on [0.6, 0.8]
    big.value.grad = np.array([30.0, 40.0])
    small.value.grad = np.array([0.6, 0.8])
    AdamW([big], cfg).step()
    AdamW([small], cfg).step()
    np.testing.assert_allclose(big.value.data, small.value.data, atol=1e-15)


def test_exhausted_optimizer_stops_moving():
    p = Parameter("w", np.array([[1.0]]))
    p.trainable = True
    p.value.grad = np.array([[0.5]])
    opt = AdamW([p], OptimizerConfig(peak_lr=0.1, total_steps=2))
    opt.step()
    opt.step()
    after_budget = p.value.data.copy()
    p.value.grad = np.array([[0.5]])
    opt.step()  # lr is 0 past total_steps
    np.testing.assert_array_equal(p.value.data, after_budget)


# ---------------------------------------------------------------------------
# partitioning


def test_guidance_only_trains_adapters_and_raw_weights():
    model = build_model(layers=2)
    trainable, frozen = partition_parameters(model, "guidance_only")
    names = sorted(p.name for p in trainable)
    assert len([n for n in names if n.startswith("guidance.")]) == 2 * 2 * 2
    assert [n for n in names if n.startswith("verbalizer.raw.")] == [
        "verbalizer.raw.animal",
        "verbalizer.raw.color",
    ]
    assert len(names) == 10
    assert all(p.trainable for p in trainable)
    assert all(not p.trainable for p in frozen)
    assert all(
        not (p.name.startswith("guidance.") or p.name.startswith("verbalizer.")) for p in frozen
    )


def test_full_mode_trains_everything():
    model = build_model()
    trainable, frozen = partition_parameters(model, "full")
    assert frozen == []
    assert len(trainable) == len(model.parameters())


def test_uniform_verbalizer_stays_frozen_in_guidance_mode():
    model = build_model()
    model.replace_verbalizer(PROBE.label_set, policy="uniform")
    trainable, _ = partition_parameters(model, "guidance_only")
    assert all(p.name.startswith("guidance.") for p in trainable)


def test_partition_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        partition_parameters(build_model(), "adapters")


def test_param_ratio_closed_form_and_fraction():
    model = build_model(prompt_len=3, d_model=16, layers=2)
    report = param_ratio(model, "guidance_only")
    assert report.guidance == 2 * (2 + 2) * 3 * 16
    assert report.guidance == report.guidance_closed_form
    enumerated = sum(p.value.data.size for p in model.backbone.guidance.parameters())
    assert report.guidance == enumerated
    assert report.fraction == Fraction(report.trainable, report.total)
    assert 0 < report.ratio < 1
    assert any("closed form" in line for line in report.lines())


def test_param_ratio_partial_guidance_counts_guided_layers_only():
    model = build_model(prompt_len=2, d_model=16, layers=2, guided=("highest_k", 1))
    report = param_ratio(model, "guidance_only")
    assert report.guidance == 2 * (1 + 1) * 2 * 16


@pytest.mark.parametrize("mode", ["full", "guidance_only"])
def test_param_ratio_leaves_trainable_flags_unchanged(mode):
    model = build_model()
    partition_parameters(model, "guidance_only" if mode == "full" else "full")
    before = {p.name: p.trainable for p in model.parameters()}
    param_ratio(model, mode)
    assert {p.name: p.trainable for p in model.parameters()} == before


def test_param_ratio_zero_prompt_has_no_guidance():
    model = build_model(prompt_len=0)
    report = param_ratio(model, "guidance_only")
    assert report.guidance == 0
    assert report.guidance_closed_form == 0
    assert report.trainable == sum(
        p.value.data.size for p in model.verbalizer.parameters()
    )


# ---------------------------------------------------------------------------
# loss


def test_uniform_model_loss_is_log_alphabet_size():
    model = build_model()
    for p in model.parameters():
        p.value.data[:] = 0.0
    corpus = synthetic_corpus(PROBE, 3, seed=5)
    for sent in corpus.sentences:
        token_ids, gold = gold_indices(model, sent)
        size = len(token_ids) + len(model.verbalizer) + 1
        loss = sequence_loss(model, token_ids, gold)
        assert float(loss.data) == pytest.approx(len(gold) * math.log(size), abs=1e-9)


def test_sequence_loss_validates_gold():
    model = build_model()
    with pytest.raises(ValueError, match="empty"):
        sequence_loss(model, [3, 4, 5], [])
    with pytest.raises(ValueError):
        sequence_loss(model, [3, 4, 5], [99])
    with pytest.raises(ValueError, match="never fed back"):
        sequence_loss(model, [3, 4, 5], [1, 0, 0])


def reference_sequence_loss(model, token_ids, gold):
    """The composition sequence_loss replaced: decoder_inputs and step_scores each build their own tables."""
    h_en = model.backbone.encode(token_ids)
    e_seq = model.backbone.embed_tokens(token_ids)
    states = model.backbone.decode_states(h_en, decoder_inputs(model, token_ids, gold[:-1]))
    logp = T.log_softmax_rows(step_scores(h_en, e_seq, states, model.verbalizer, model.config.alpha))
    onehot = np.zeros(logp.data.shape)
    onehot[np.arange(len(gold)), list(gold)] = 1.0
    return T.scale(T.reduce_sum(T.mul(logp, Tensor(onehot))), -1.0)


def test_sequence_loss_builds_each_table_once(monkeypatch):
    model = build_model()
    calls = Counter()
    for owner, name in ((Verbalizer, "rep_matrix"), (Backbone, "embed_tokens")):
        def counted(self, *args, _original=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _original(self, *args)
        monkeypatch.setattr(owner, name, counted)
    token_ids, gold = gold_indices(model, synthetic_corpus(PROBE, 1, seed=4).sentences[0])
    sequence_loss(model, token_ids, gold)
    # one embed_tokens inside the encoder, one for the shared e_seq
    assert calls == {"rep_matrix": 1, "embed_tokens": 2}


@pytest.mark.parametrize("domain", [PROBE, PROBE_TWO_WORD], ids=["one-word", "two-word"])
def test_sequence_loss_matches_the_reference_composition(domain):
    model = build_model(seed=3, domain=domain)
    rng = np.random.default_rng(5)
    for p in model.parameters():  # generic weights, so no gradient hides near zero
        if p.value.data.ndim == 2:
            p.value.data[...] = rng.normal(0.0, 0.4, size=p.value.data.shape)
    trainable, _ = partition_parameters(model, "guidance_only")
    for sent in synthetic_corpus(domain, 4, seed=6).sentences:
        token_ids, gold = gold_indices(model, sent)
        results = []
        for loss_fn in (sequence_loss, reference_sequence_loss):
            for p in model.parameters():
                p.value.grad = None
            with record() as tape:
                loss = loss_fn(model, token_ids, gold)
            tape.backward(loss)
            results.append((loss.data.copy(), {p.name: p.value.grad.copy() for p in trainable}))
        (loss, grads), (ref_loss, ref_grads) = results
        assert np.array_equal(loss, ref_loss)
        for name, ref in ref_grads.items():
            if name.startswith("guidance.") or ref.size == 1:  # a one-word beta has a zero gradient
                assert np.array_equal(grads[name], ref), name
            else:
                assert np.abs(grads[name] - ref).max() <= 1e-12 * np.abs(ref).max(), name
            assert ref.size == 1 or np.abs(ref).max() > 0, name


def test_gold_indices_round_trip():
    model = build_model()
    corpus = synthetic_corpus(PROBE, 5, seed=9)
    for sent in corpus.sentences:
        token_ids, gold = gold_indices(model, sent)
        assert len(token_ids) == len(sent.tokens)
        assert gold[-1] == 0
        assert len(gold) == 3 * len(sent.spans) + 1


# ---------------------------------------------------------------------------
# training loop


def tiny_corpus(n=8, seed=3):
    return synthetic_corpus(PROBE, n, seed=seed)


def test_training_rejects_empty_corpus():
    model = build_model()
    empty = Corpus(sentences=[], label_set=PROBE.label_set)
    opt = AdamW(partition_parameters(model, "full")[0], OptimizerConfig(total_steps=2))
    with pytest.raises(ValueError, match="empty"):
        run_training(model, empty, None, opt, seed=1)


def test_training_is_bitwise_reproducible():
    runs = []
    for _ in range(2):
        model = build_model(seed=7)
        corpus = tiny_corpus()
        trainable, _ = partition_parameters(model, "full")
        opt = AdamW(trainable, OptimizerConfig(peak_lr=3e-3, total_steps=6))
        result = run_training(model, corpus, None, opt, seed=11)
        assert result.steps == 6
        runs.append({p.name: p.value.data.copy() for p in model.parameters()})
    assert runs[0].keys() == runs[1].keys()
    for name in runs[0]:
        np.testing.assert_array_equal(runs[0][name], runs[1][name])


@pytest.mark.parametrize("overlong", [
    AnnotatedSentence(tokens=("the",) * 33, spans=()),
    # 11 tokens but 11 one-token entities: 3 * 11 + 1 = 34 gold indices
    AnnotatedSentence(tokens=("fox",) * 11, spans=tuple(EntitySpan(i, i, "animal") for i in range(1, 12))),
], ids=["tokens", "gold-indices"])
def test_training_refuses_overlong_sentences_before_the_first_step(overlong):
    model = build_model(max_len=32)
    before = {p.name: p.value.data.copy() for p in model.parameters()}
    first, last = tiny_corpus(2).sentences
    corpus = Corpus(sentences=[first, overlong, last], label_set=PROBE.label_set)
    opt = AdamW(partition_parameters(model, "full")[0], OptimizerConfig(total_steps=4, batch_size=1))
    with pytest.raises(ShapeError, match="training sentence 2 of 3"):
        run_training(model, corpus, None, opt, seed=1)
    assert opt.step_count == 0
    for p in model.parameters():
        np.testing.assert_array_equal(p.value.data, before[p.name])


@pytest.mark.parametrize("eval_every", [0, -2])
def test_run_training_refuses_eval_every_below_one(eval_every):
    model = build_model()
    opt = AdamW(partition_parameters(model, "full")[0], OptimizerConfig(total_steps=2))
    with pytest.raises(ValueError, match="eval_every must be at least 1"):
        run_training(model, tiny_corpus(2), tiny_corpus(2), opt, seed=1, eval_every=eval_every)
    assert opt.step_count == 0


def test_diverged_loss_raises_with_step_number():
    model = build_model()
    model.backbone.param("embed.tokens").value.data[0, 0] = np.nan
    corpus = tiny_corpus(4)
    trainable, _ = partition_parameters(model, "full")
    opt = AdamW(trainable, OptimizerConfig(total_steps=4))
    with pytest.raises(DivergedError, match="step 1"):
        run_training(model, corpus, None, opt, seed=1)


def test_tune_leaves_backbone_bytes_untouched():
    model = build_model(seed=5)
    corpus = tiny_corpus()
    before = backbone_hash(model)
    guidance_before = {
        p.name: p.value.data.copy() for p in model.backbone.guidance.parameters()
    }
    result = tune_guidance(
        model, corpus, None, OptimizerConfig(peak_lr=1e-2, total_steps=10), seed=2
    )
    assert result.steps == 10
    assert backbone_hash(model) == before
    moved = any(
        not np.array_equal(p.value.data, guidance_before[p.name])
        for p in model.backbone.guidance.parameters()
    )
    assert moved


def test_cold_start_redraws_guidance():
    warm = build_model(seed=5)
    cold = build_model(seed=5)
    corpus = tiny_corpus(4)
    cfg = OptimizerConfig(peak_lr=1e-3, total_steps=1)
    tune_guidance(warm, corpus, None, cfg, seed=2, warm_start=True)
    tune_guidance(cold, corpus, None, cfg, seed=2, warm_start=False)
    warm_params = {p.name: p.value.data for p in warm.backbone.guidance.parameters()}
    cold_params = {p.name: p.value.data for p in cold.backbone.guidance.parameters()}
    assert any(not np.array_equal(warm_params[n], cold_params[n]) for n in warm_params)


def test_decode_corpus_reports_malformed_per_sentence():
    model = build_model()
    for p in model.parameters():
        p.value.data[:] = 0.0
    corpus = tiny_corpus(3)
    predictions, malformed = decode_corpus(model, corpus)
    assert len(predictions) == len(malformed) == 3
    assert all(spans == [] for spans in predictions)
    assert all(count == 0 for count in malformed)


def test_decode_corpus_skips_only_the_overlong_sentence():
    model = build_model(max_len=48)
    first, last = tiny_corpus(2).sentences
    overlong = AnnotatedSentence(tokens=("the",) * 49, spans=())
    corpus = Corpus(sentences=[first, overlong, last], label_set=PROBE.label_set)
    predictions, malformed = decode_corpus(model, corpus)
    alone = decode_corpus(model, Corpus(sentences=[first, last], label_set=PROBE.label_set))
    assert predictions == [alone[0][0], [], alone[0][1]]
    assert malformed == [alone[1][0], 0, alone[1][1]]


def test_memorizes_a_small_corpus():
    # full training on a handful of sentences should reach perfect dev F1
    model = build_model(seed=1, d_model=16, layers=1)
    corpus = tiny_corpus(8, seed=13)
    result = pretrain_backbone(
        model,
        corpus,
        corpus,
        OptimizerConfig(peak_lr=1e-2, total_steps=300, batch_size=8),
        seed=1,
        eval_every=20,
        f1_target=1.0,
    )
    assert result.dev_report.f1 == 1.0
    assert result.stopped_early
    assert result.history, "expected at least one recorded evaluation"
    steps, losses, f1s = zip(*result.history)
    assert losses[0] > losses[-1]


def test_early_stop_respects_target():
    model = build_model(seed=1)
    corpus = tiny_corpus(4)
    # target 0 is met by the very first evaluation
    result = run_training(
        model,
        corpus,
        corpus,
        AdamW(partition_parameters(model, "full")[0], OptimizerConfig(total_steps=50)),
        seed=1,
        eval_every=2,
        f1_target=0.0,
    )
    assert result.stopped_early
    assert result.steps == 2


def test_dev_report_scores_the_final_model():
    model = build_model(seed=3)
    corpus = tiny_corpus(4)
    result = tune_guidance(model, corpus, corpus, OptimizerConfig(peak_lr=1e-2, total_steps=5, batch_size=2),
                           seed=1, eval_every=2)
    assert [step for step, _, _ in result.history] == [2, 4, 5]
    predictions, malformed = decode_corpus(model, corpus)
    assert result.dev_report == evaluate(corpus, predictions, malformed_outputs=sum(malformed))
    assert result.dev_report.f1 == result.history[-1][2]
    assert tune_guidance(model, corpus, None, OptimizerConfig(total_steps=1)).dev_report is None


# ---------------------------------------------------------------------------
# gradient audit


def test_guidance_gradcheck_passes():
    report = guidance_gradcheck(seed=1)
    assert report.passed, report.summary()
    assert report.max_rel_error <= 1e-5
    assert report.nonfinite == []
    assert report.coords_checked > 0


# ---------------------------------------------------------------------------
# linear-classifier baseline training


def test_lc_head_learns_better_than_uniform():
    model = build_model(seed=2)
    corpus = tiny_corpus(6)
    head = LcHead(model.config.d_model, corpus.label_set, seed=0)
    train_lc_head(model, head, corpus, steps=40, lr=5e-2, seed=1)

    correct = total = 0
    from plugner.data import spans_to_bio

    for sent in corpus.sentences:
        h_en = model.backbone.encode(model.vocab.encode(sent.tokens))
        dist = T.linear(Tensor(h_en.data), head.W.value, head.b.value)
        gold = spans_to_bio(sent.spans, len(sent.tokens))
        for row, tag in zip(dist.data, gold):
            correct += head.tags[int(np.argmax(row))] == tag
            total += 1
    assert correct / total > 1.0 / head.n_tags
