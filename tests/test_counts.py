"""Exact op counts at the desk config, held as a ratchet.

Counts depend on the code, not on the machine or the BLAS, so they hold on
every runner. A change that lowers a count tightens its bound here. The
model is ``tools/bitwise.py``'s: the desk config on the built-in domains'
vocabulary, the source domain's two categories in the verbalizer.
"""
import importlib.util
from pathlib import Path

import pytest

from plugner.data import BUILTIN_DOMAINS, synthetic_corpus
from plugner.tensor import record
from plugner.training import gold_indices, partition_parameters, sequence_loss

TAPE_ENTRIES_PER_SENTENCE = 97
FROZEN_PARAMS_WITH_GRAD = 87

_spec = importlib.util.spec_from_file_location(
    "bitwise_tool", Path(__file__).resolve().parents[1] / "tools" / "bitwise.py"
)
bitwise = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bitwise)


@pytest.fixture(scope="module")
def desk():
    model = bitwise.generic_model()
    corpus = synthetic_corpus(BUILTIN_DOMAINS["source"], 8, seed=bitwise.SEED)
    return model, [gold_indices(model, s) for s in corpus.sentences]


def guidance_only_backward(model, token_ids, gold):
    """One teacher-forced sentence in guidance-only mode; returns the tape length and the frozen partition."""
    _, frozen = partition_parameters(model, "guidance_only")
    for p in model.parameters():
        p.value.grad = None
    with record() as tape:
        loss = sequence_loss(model, token_ids, gold)
    entries = len(tape)
    tape.backward(loss)
    return entries, frozen


def test_tape_entries_per_teacher_forced_sentence(desk):
    model, examples = desk
    assert model.verbalizer.categories == BUILTIN_DOMAINS["source"].label_set
    counts = {guidance_only_backward(model, *example)[0] for example in examples}
    assert max(counts) <= TAPE_ENTRIES_PER_SENTENCE, counts


def test_frozen_parameters_holding_a_gradient(desk):
    model, examples = desk
    _, frozen = guidance_only_backward(model, *examples[0])
    assert sum(p.value.grad is not None for p in frozen) <= FROZEN_PARAMS_WITH_GRAD
