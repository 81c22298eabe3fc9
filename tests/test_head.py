"""Index space, verbalizer, step distributions, and the span codec."""
import numpy as np
import pytest

from plugner.backbone import Backbone, ModelConfig
from plugner.data import EntitySpan, Vocab
from plugner.errors import ShapeError, VocabError
from plugner.head import (
    IndexSpace,
    LcHead,
    NerModel,
    Verbalizer,
    bio_tag_names,
    convert_index_to_token,
    decoder_inputs,
    greedy_decode,
    indices_from_spans,
    lc_baseline_logits,
    spans_from_indices,
    step_distribution,
    step_scores,
)
from plugner.tensor import Tensor, record
from plugner import tensor as T


WORDS = "red blue door tree lamp iron fox owl near the a one fruit tool".split()
LABELS = ("color", "animal.kind")


@pytest.fixture(scope="module")
def vocab():
    return Vocab.build([WORDS], [LABELS])


@pytest.fixture()
def model(vocab):
    config = ModelConfig(
        vocab_size=len(vocab),
        d_model=8,
        n_heads=2,
        enc_layers=1,
        dec_layers=1,
        ffn_dim=16,
        max_len=16,
        prompt_len=0,
    )
    backbone = Backbone(config, seed=3)
    verb = Verbalizer(LABELS, vocab, backbone.param("embed.tokens"))
    return NerModel(backbone, vocab, verb)


# ---------------------------------------------------------------------------
# index space


def test_index_space_layout():
    space = IndexSpace(4, 2)
    assert space.size == 7
    assert not space.is_pointer(0) and not space.is_category(0)
    assert all(space.is_pointer(y) for y in (1, 2, 3, 4))
    assert all(space.is_category(y) for y in (5, 6))
    assert space.category_offset(5) == 0
    assert space.category_offset(6) == 1


def test_index_space_rejects_out_of_range():
    space = IndexSpace(4, 2)
    with pytest.raises(ValueError):
        space.check(7)
    with pytest.raises(ValueError):
        space.check(-1)
    with pytest.raises(ValueError):
        space.category_offset(3)
    with pytest.raises(ValueError):
        IndexSpace(0, 2)
    with pytest.raises(ValueError):
        IndexSpace(3, 0)


# ---------------------------------------------------------------------------
# verbalizer


def test_categories_sorted_and_deduped(vocab, model):
    verb = Verbalizer(("color", "animal.kind", "color"), vocab, model.backbone.param("embed.tokens"))
    assert verb.categories == ("animal.kind", "color")


def test_beta_starts_uniform_and_sums_exactly_one(model):
    verb = model.verbalizer
    for cat in verb.categories:
        b = verb.beta(cat)
        assert np.allclose(b, 1.0 / len(b), atol=1e-15)
        assert float(b.sum()) == 1.0


def test_beta_sums_exactly_one_after_updates(model):
    verb = model.verbalizer
    raw = verb.raw_weights("animal.kind")
    raw.value.data[:] = [[0.31, -1.7]]
    b = verb.beta("animal.kind")
    assert float(b.sum()) == 1.0
    assert b[0] > b[1]


def test_single_word_category_rep_is_word_row(model):
    verb = model.verbalizer
    assert verb.mapping["color"] == ("color",)
    rep = verb.category_rep("color")
    row = verb._embed.value.data[model.vocab.id_strict("color")]
    assert rep.data.shape == (1, 8)
    np.testing.assert_array_equal(rep.data[0], row)


def test_multi_word_rep_is_beta_mixture(model):
    verb = model.verbalizer
    raw = verb.raw_weights("animal.kind")
    raw.value.data[:] = [[0.4, -0.9]]
    ids = [model.vocab.id_strict(w) for w in ("animal", "kind")]
    rows = verb._embed.value.data[ids]
    beta = verb.beta("animal.kind")
    np.testing.assert_allclose(verb.category_rep("animal.kind").data[0], beta @ rows, atol=1e-12)


def test_rep_matrix_order_matches_categories(model):
    verb = model.verbalizer
    reps = verb.rep_matrix()
    assert reps.data.shape == (2, 8)
    np.testing.assert_array_equal(reps.data[0], verb.category_rep(verb.categories[0]).data[0])
    np.testing.assert_array_equal(reps.data[1], verb.category_rep(verb.categories[1]).data[0])


def test_eos_bos_rows_come_from_embedding(model):
    embed = model.backbone.param("embed.tokens").value.data
    np.testing.assert_array_equal(model.verbalizer.eos_embedding().data[0], embed[model.vocab.eos_id])
    np.testing.assert_array_equal(model.verbalizer.bos_embedding().data[0], embed[model.vocab.bos_id])


def test_raw_weights_receive_gradient(model):
    verb = model.verbalizer
    raw = verb.raw_weights("animal.kind")
    raw.value.data[:] = [[0.2, -0.5]]
    with record() as tape:
        rep = verb.category_rep("animal.kind")
        loss = T.reduce_sum(T.mul(rep, rep))
        tape.backward(loss)
    assert raw.value.grad is not None
    assert np.abs(raw.value.grad).max() > 1e-8


def test_uniform_policy_freezes_raw(vocab, model):
    verb = Verbalizer(LABELS, vocab, model.backbone.param("embed.tokens"), policy="uniform")
    assert all(not p.trainable for p in verb.parameters())
    with pytest.raises(ValueError, match="policy"):
        Verbalizer(LABELS, vocab, model.backbone.param("embed.tokens"), policy="fixed")


def test_unknown_label_word_is_rejected(model):
    bare = Vocab(WORDS)  # no label words folded in
    with pytest.raises(VocabError, match="animal"):
        Verbalizer(LABELS, bare, model.backbone.param("embed.tokens"))


def test_empty_label_set_rejected(vocab, model):
    with pytest.raises(ValueError, match="category"):
        Verbalizer((), vocab, model.backbone.param("embed.tokens"))


def test_replace_verbalizer_keeps_backbone_shapes(model):
    before = {name: p.value.data.shape for name, p in model.backbone.iter_params().items()}
    swapped = model.replace_verbalizer(("fruit", "tool"))
    assert model.verbalizer is swapped
    assert swapped.categories == ("fruit", "tool")
    after = {name: p.value.data.shape for name, p in model.backbone.iter_params().items()}
    assert before == after


def test_model_rejects_vocab_size_mismatch(vocab, model):
    small = ModelConfig(
        vocab_size=5, d_model=8, n_heads=2, enc_layers=1, dec_layers=1,
        ffn_dim=16, max_len=16, prompt_len=0,
    )
    with pytest.raises(ShapeError, match="vocab"):
        NerModel(Backbone(small, seed=0), vocab, model.verbalizer)


# ---------------------------------------------------------------------------
# step distributions


def np_softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def encode_probe(model, words="red fox near the door"):
    token_ids = model.vocab.encode(words.split())
    h_en = model.backbone.encode(token_ids)
    e_seq = model.backbone.embed_tokens(token_ids)
    return token_ids, h_en, e_seq


def test_step_distribution_layout_and_mass(model):
    token_ids, h_en, e_seq = encode_probe(model)
    h_t = Tensor(np.random.default_rng(0).normal(size=(1, 8)))
    dist = step_distribution(h_en, e_seq, h_t, model.verbalizer, alpha=0.5)
    n, m = len(token_ids), len(model.verbalizer)
    assert dist.data.shape == (1, n + m + 1)
    assert abs(dist.data.sum() - 1.0) < 1e-9
    assert (dist.data > 0).all()


def test_step_distribution_matches_plain_numpy(model):
    token_ids, h_en, e_seq = encode_probe(model)
    verb = model.verbalizer
    verb.raw_weights("animal.kind").value.data[:] = [[0.8, -0.3]]
    embed = model.backbone.param("embed.tokens").value.data
    h = np.random.default_rng(7).normal(size=(1, 8))

    mixed = 0.5 * h_en.data + 0.5 * e_seq.data
    cat_rows = np.stack([verb.beta(c) @ embed[verb.word_ids[c]] for c in verb.categories])
    scores = np.concatenate(
        [h @ embed[[model.vocab.eos_id]].T, h @ mixed.T, h @ cat_rows.T], axis=1
    )
    expected = np_softmax(scores)

    got = step_distribution(h_en, e_seq, Tensor(h), verb, alpha=0.5)
    np.testing.assert_allclose(got.data, expected, atol=1e-12)


def test_alpha_endpoints_select_encoder_or_embeddings(model):
    token_ids, h_en, e_seq = encode_probe(model)
    h = Tensor(np.random.default_rng(11).normal(size=(1, 8)))
    n = len(token_ids)
    only_states = step_scores(h_en, e_seq, h, model.verbalizer, alpha=1.0)
    only_embeds = step_scores(h_en, e_seq, h, model.verbalizer, alpha=0.0)
    np.testing.assert_allclose(only_states.data[0, 1 : n + 1], (h.data @ h_en.data.T)[0], atol=1e-12)
    np.testing.assert_allclose(only_embeds.data[0, 1 : n + 1], (h.data @ e_seq.data.T)[0], atol=1e-12)


def test_distribution_argmax_matches_score_argmax(model):
    token_ids, h_en, e_seq = encode_probe(model)
    for seed in range(5):
        h = Tensor(np.random.default_rng(seed).normal(size=(1, 8)))
        scores = step_scores(h_en, e_seq, h, model.verbalizer, alpha=0.5)
        dist = step_distribution(h_en, e_seq, h, model.verbalizer, alpha=0.5)
        assert int(np.argmax(dist.data)) == int(np.argmax(scores.data))


def test_step_scores_shape_contracts(model):
    token_ids, h_en, e_seq = encode_probe(model)
    short = Tensor(e_seq.data[:-1])
    with pytest.raises(ShapeError):
        step_scores(h_en, short, Tensor(np.zeros((1, 8))), model.verbalizer, alpha=0.5)
    with pytest.raises(ShapeError, match="width"):
        step_scores(h_en, e_seq, Tensor(np.zeros((1, 4))), model.verbalizer, alpha=0.5)


# ---------------------------------------------------------------------------
# feedback embedding of generated indices


def test_pointer_feedback_embeds_pointed_token(model):
    token_ids = model.vocab.encode("red fox near door".split())
    out = convert_index_to_token(2, token_ids, model.verbalizer)
    embed = model.backbone.param("embed.tokens").value.data
    np.testing.assert_array_equal(out.data[0], embed[token_ids[1]])


def test_category_feedback_embeds_verbalizer_row(model):
    token_ids = model.vocab.encode("red fox near door".split())
    out = convert_index_to_token(5, token_ids, model.verbalizer)  # first category, n=4
    rep = model.verbalizer.category_rep(model.verbalizer.categories[0])
    np.testing.assert_array_equal(out.data, rep.data)


def test_eos_feedback_rejected(model):
    token_ids = model.vocab.encode("red fox near door".split())
    with pytest.raises(ValueError, match="eos"):
        convert_index_to_token(0, token_ids, model.verbalizer)
    with pytest.raises(ValueError):
        convert_index_to_token(7, token_ids, model.verbalizer)


# ---------------------------------------------------------------------------
# greedy decoding


def test_zeroed_model_emits_plain_eos(model):
    # all-zero weights give a flat distribution; argmax ties resolve to index 0
    for p in model.parameters():
        p.value.data[:] = 0.0
    token_ids = model.vocab.encode("red fox near door".split())
    result = greedy_decode(model, token_ids)
    assert result.indices == [0]
    assert not result.truncated


def test_greedy_decode_is_deterministic(model):
    token_ids = model.vocab.encode("red fox near the door".split())
    first = greedy_decode(model, token_ids)
    second = greedy_decode(model, token_ids)
    assert first.indices == second.indices
    assert first.truncated == second.truncated
    space = IndexSpace(len(token_ids), len(model.verbalizer))
    assert all(0 <= y <= space.n + space.m for y in first.indices)


def test_default_budget_stops_at_max_len(vocab):
    # an untrained desk model never emits eos; 3n + 1 = 49 steps would need
    # 49 decoder positions, one more than max_len allows
    config = ModelConfig(vocab_size=len(vocab), d_model=64, n_heads=4, enc_layers=2,
                         dec_layers=2, ffn_dim=128, max_len=48, prompt_len=16)
    backbone = Backbone(config, seed=0)
    desk = NerModel(backbone, vocab, Verbalizer(LABELS, vocab, backbone.param("embed.tokens")))
    sentence = "the red fox near a blue door one owl near the iron lamp a tree fruit".split()
    assert len(sentence) == 16
    result = greedy_decode(desk, vocab.encode(sentence))
    assert result.truncated
    assert len(result.indices) == 48
    assert 0 not in result.indices


def test_greedy_decode_budget_truncates(model):
    token_ids = model.vocab.encode("red fox near the door".split())
    result = greedy_decode(model, token_ids, max_steps=2)
    if result.truncated:
        assert len(result.indices) == 2
        assert 0 not in result.indices
    else:
        assert result.indices[-1] == 0


def full_recompute_decode(model, token_ids, max_steps=None):
    """Greedy decoding that re-runs the decoder over the whole emitted prefix at every step."""
    budget = min(max_steps if max_steps is not None else 3 * len(token_ids) + 1, model.config.max_len)
    h_en = model.backbone.encode(token_ids)
    e_seq = model.backbone.embed_tokens(token_ids)
    out = []
    for _ in range(budget):
        states = model.backbone.decode_states(h_en, decoder_inputs(model, token_ids, out))
        last = T.slice_rows(states, len(out), len(out) + 1)
        y = int(np.argmax(step_distribution(h_en, e_seq, last, model.verbalizer, model.config.alpha).data))
        out.append(y)
        if y == IndexSpace.EOS:
            return out, False
    return out, True


@pytest.mark.parametrize("prompt_len", [0, 2])
def test_greedy_decode_matches_full_recompute(vocab, prompt_len):
    config = ModelConfig(vocab_size=len(vocab), d_model=8, n_heads=2, enc_layers=1, dec_layers=2,
                         ffn_dim=16, max_len=12, prompt_len=prompt_len)
    sentences = ["red fox", "one owl near the blue door", "the iron lamp a tree fruit tool near red"]
    truncated_at_max_len = 0
    fed_back = set()
    for seed in range(6):
        backbone = Backbone(config, seed=seed)
        m = NerModel(backbone, vocab, Verbalizer(LABELS, vocab, backbone.param("embed.tokens")))
        # generic weights (raw verbalizer weights included) give varied outputs
        rng = np.random.default_rng(seed)
        for p in m.parameters():
            if p.value.data.ndim == 2:
                p.value.data[...] = rng.normal(0.0, 0.4, size=p.value.data.shape)
        for words in sentences:
            token_ids = vocab.encode(words.split())
            space = IndexSpace(len(token_ids), len(LABELS))
            for max_steps in (None, 3):
                got = greedy_decode(m, token_ids, max_steps=max_steps)
                assert (got.indices, got.truncated) == full_recompute_decode(m, token_ids, max_steps)
                truncated_at_max_len += got.truncated and len(got.indices) == config.max_len
                fed_back.update("pointer" if space.is_pointer(y) else "category" for y in got.indices[:-1])
    # the default budget 3n + 1 was clamped at max_len, and both kinds of feedback row ran
    assert truncated_at_max_len > 0
    assert fed_back == {"pointer", "category"}


# ---------------------------------------------------------------------------
# span codec


def test_spans_serialize_as_triples():
    spans = {EntitySpan(1, 2, "C1")}
    assert indices_from_spans(spans, n=4, categories=("C1", "C2")) == [1, 2, 5, 0]
    assert indices_from_spans((), n=4, categories=("C1", "C2")) == [0]


def test_spans_serialize_sorted_by_position():
    spans = [EntitySpan(3, 3, "C2"), EntitySpan(1, 1, "C1")]
    assert indices_from_spans(spans, n=4, categories=("C1", "C2")) == [1, 1, 5, 3, 3, 6, 0]


def test_serialize_rejects_bad_spans():
    with pytest.raises(ValueError, match="category"):
        indices_from_spans({EntitySpan(1, 1, "GHOST")}, n=4, categories=("C1",))
    with pytest.raises(ValueError, match="length"):
        indices_from_spans({EntitySpan(4, 5, "C1")}, n=4, categories=("C1",))


def test_parse_reconstructs_spans():
    parse = spans_from_indices([1, 2, 5], n=4, categories=("C1", "C2"))
    assert parse.spans == [EntitySpan(1, 2, "C1")]
    assert parse.malformed == 0

    parse = spans_from_indices([3, 3, 6, 1, 1, 5, 0], n=4, categories=("C1", "C2"))
    assert set(parse.spans) == {EntitySpan(3, 3, "C2"), EntitySpan(1, 1, "C1")}
    assert parse.malformed == 0


def test_parse_takes_min_max_of_pointer_run():
    parse = spans_from_indices([2, 1, 5, 0], n=4, categories=("C1",))
    assert parse.spans == [EntitySpan(1, 2, "C1")]


def test_parse_counts_malformed_pieces():
    # category with nothing accumulated
    assert spans_from_indices([5, 0], n=4, categories=("C1",)).malformed == 1
    # pointers left dangling at the end
    dangling = spans_from_indices([1, 2], n=4, categories=("C1",))
    assert dangling.spans == []
    assert dangling.malformed == 1
    # one good span, then a dangling tail
    mixed = spans_from_indices([1, 2, 5, 3], n=4, categories=("C1",))
    assert mixed.spans == [EntitySpan(1, 2, "C1")]
    assert mixed.malformed == 1


def test_parse_keeps_duplicates_once():
    parse = spans_from_indices([1, 2, 5, 1, 2, 5, 0], n=4, categories=("C1",))
    assert parse.spans == [EntitySpan(1, 2, "C1")]
    assert parse.malformed == 0


def test_parse_stops_at_first_terminator():
    parse = spans_from_indices([1, 2, 5, 0, 3, 4, 5], n=4, categories=("C1",))
    assert parse.spans == [EntitySpan(1, 2, "C1")]
    assert parse.malformed == 0


def test_parse_rejects_out_of_range_indices():
    with pytest.raises(ValueError):
        spans_from_indices([9], n=4, categories=("C1",))


def test_span_round_trips_random():
    rng = np.random.default_rng(42)
    categories = ("C1", "C2", "C3")
    for _ in range(300):
        n = int(rng.integers(1, 25))
        picks = set()
        for _ in range(int(rng.integers(0, 6))):
            start = int(rng.integers(1, n + 1))
            end = int(rng.integers(start, n + 1))
            picks.add(EntitySpan(start, end, categories[int(rng.integers(0, 3))]))
        seq = indices_from_spans(picks, n, categories)
        parse = spans_from_indices(seq, n, categories)
        assert set(parse.spans) == picks
        assert parse.malformed == 0


# ---------------------------------------------------------------------------
# linear-classifier baseline


def test_bio_tag_names_sorted():
    assert bio_tag_names(("PER", "LOC")) == ("O", "B-LOC", "I-LOC", "B-PER", "I-PER")


def test_lc_head_shapes_and_zero_init_bias():
    head = LcHead(8, ("A", "B", "C"), seed=1)
    assert head.n_tags == 7
    assert head.W.value.data.shape == (8, 7)
    assert head.b.value.data.shape == (7,)
    assert np.all(head.b.value.data == 0.0)


def test_lc_logits_uniform_at_zero_weights():
    head = LcHead(8, ("A",), seed=0)
    head.W.value.data[:] = 0.0
    h = Tensor(np.random.default_rng(0).normal(size=(4, 8)))
    dist = lc_baseline_logits(h, head.W.value, head.b.value)
    np.testing.assert_allclose(dist.data, 1.0 / 3.0, atol=1e-15)


def test_lc_logits_match_plain_numpy():
    head = LcHead(6, ("A", "B", "C"), seed=5)
    head.b.value.data[:] = np.linspace(-0.2, 0.2, 7)
    h = np.random.default_rng(9).normal(size=(3, 6))
    got = lc_baseline_logits(Tensor(h), head.W.value, head.b.value)
    np.testing.assert_allclose(got.data, np_softmax(h @ head.W.value.data + head.b.value.data), atol=1e-12)


def test_lc_logits_reject_width_mismatch():
    head = LcHead(8, ("A",))
    with pytest.raises(ShapeError):
        lc_baseline_logits(Tensor(np.zeros((2, 5))), head.W.value, head.b.value)
