"""Output checks. Each one rests on an independent computation or on a property
the method must have, and depends only on the inputs and the seed: none reads
the clock, the amount of work done, or a stored copy of earlier output."""
from __future__ import annotations

import hashlib
import importlib

import numpy as np

head = importlib.import_module("plugner.head")
tensor = importlib.import_module("plugner.tensor")
training = importlib.import_module("plugner.training")

FD_STEP = 1e-5
# Central differences in float64 at h = 1e-5 carry roundoff of about
# 1e-16 * |loss| / h, below 1e-9 for these losses; the 1e-7 floor also covers
# true gradients near 1e-7 that near-uniform attention at 0.02 init gives.
FD_ATOL = 1e-7
FD_RTOL = 1e-4
GRAD_COORDS = 24
# Greedy decoding and one teacher-forced pass compute the same rows with
# matrices of different heights, so probabilities may differ in the last bits.
CHOICE_TOL = 1e-9
SUM_TOL = 1e-12


def check(name: str, ok: bool, detail: str) -> dict:
    return {"check": name, "ok": bool(ok), "detail": detail}


def gradient_check(model, sentence, names: set[str], seed: int, label: str) -> dict:
    """Tape gradient against central differences of the loss on sampled coordinates."""
    token_ids, gold = training.gold_indices(model, sentence)
    params = [p for p in model.parameters() if p.name in names]

    def loss() -> float:
        return float(training.sequence_loss(model, token_ids, gold).data)

    for p in model.parameters():
        p.value.grad = None
    with tensor.record() as tape:
        out = training.sequence_loss(model, token_ids, gold)
    tape.backward(out)
    rng = np.random.default_rng(seed)
    worst, worst_at = 0.0, ""
    for pick in rng.integers(len(params), size=GRAD_COORDS):
        p = params[int(pick)]
        flat = p.value.data.reshape(-1)
        i = int(rng.integers(flat.size))
        analytic = 0.0 if p.value.grad is None else float(p.value.grad.reshape(-1)[i])
        orig = flat[i]
        flat[i] = orig + FD_STEP
        hi = loss()
        flat[i] = orig - FD_STEP
        lo = loss()
        flat[i] = orig
        numeric = (hi - lo) / (2 * FD_STEP)
        excess = abs(analytic - numeric) / (FD_ATOL + FD_RTOL * max(abs(analytic), abs(numeric)))
        if excess > worst:
            worst, worst_at = excess, f"{p.name}[{i}] tape {analytic:.6e} fd {numeric:.6e}"
    for p in model.parameters():
        p.value.grad = None
    return check(
        f"gradient_{label}",
        worst <= 1.0,
        f"{GRAD_COORDS} coordinates, worst error {worst:.3g} of the allowance "
        f"(atol {FD_ATOL:g} + rtol {FD_RTOL:g}){': ' + worst_at if worst_at else ''}",
    )


def section_hash(model, frozen: bool) -> str:
    """SHA-256 of the frozen section (frozen=True) or of the guidance arrays."""
    digest = hashlib.sha256()
    for p in sorted(model.parameters(), key=lambda p: p.name):
        selected = not p.name.startswith(("guidance.", "verbalizer.")) if frozen else p.name.startswith("guidance.")
        if selected:
            digest.update(p.name.encode("utf-8"))
            digest.update(np.ascontiguousarray(p.value.data, dtype="<f8").tobytes())
    return digest.hexdigest()


def beta_check(verbalizer) -> dict:
    worst, lowest = 0.0, 1.0
    for cat in verbalizer.categories:
        beta = verbalizer.beta(cat)
        worst = max(worst, abs(float(beta.sum()) - 1.0))
        lowest = min(lowest, float(beta.min()))
    return check(
        "beta_simplex",
        worst <= SUM_TOL and lowest >= 0.0,
        f"{len(verbalizer.categories)} categories, worst |sum - 1| {worst:.3g} (tol {SUM_TOL:g}), "
        f"smallest weight {lowest:.3g}",
    )


def decode_rederivation(model, sentences, outputs) -> list[dict]:
    """One teacher-forced pass over [bos | emitted prefix] per decoded sentence."""
    alpha = model.config.alpha
    worst_gap = worst_sum = 0.0
    wrong = choices = 0
    for sent, out in zip(sentences, outputs):
        if out is None:
            continue
        ids = model.vocab.encode(sent.tokens)
        h_en = model.backbone.encode(ids)
        e_seq = model.backbone.embed_tokens(ids)
        states = model.backbone.decode_states(h_en, head.decoder_inputs(model, ids, out[:-1]))
        dist = head.step_distribution(h_en, e_seq, states, model.verbalizer, alpha).data
        gap = dist.max(axis=1) - dist[np.arange(len(out)), out]
        wrong += int((gap > CHOICE_TOL).sum())
        choices += len(out)
        worst_gap = max(worst_gap, float(gap.max()))
        worst_sum = max(worst_sum, float(np.abs(dist.sum(axis=1) - 1.0).max()))
    return [
        check(
            "greedy_choices",
            wrong == 0 and choices > 0,
            f"{choices} choices re-derived, {wrong} off by more than {CHOICE_TOL:g} "
            f"(largest gap {worst_gap:.3g})",
        ),
        check("step_distributions", worst_sum <= SUM_TOL,
              f"worst |row sum - 1| {worst_sum:.3g} (tol {SUM_TOL:g})"),
    ]


def f1_floor(name: str, f1: float, floor: float) -> dict:
    return check(name, f1 >= floor, f"F1 {f1:.4f}, floor {floor}")
