"""Traced mode: spans around the library's public functions, installed from outside it.

The tracer replaces public functions and methods of the ``plugner`` modules
with wrappers that record a span per call (name, phase, parent, start, end)
and restores the originals when the traced part of the run is over. The
library itself is not changed.

Tensor primitives are the leaves of the call tree and run millions of times
in one traced run, so they are not stored one by one: each leaf call adds
its count and duration to its phase's per-op totals and its duration to the
parent span's ``leaf_ns``. Every other layer call is stored as a full span.
A span's self time is its duration minus its child spans and its leaf time.
"""
from __future__ import annotations

import functools
import importlib
import json
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import numpy as np

tensor = importlib.import_module("plugner.tensor")
backbone = importlib.import_module("plugner.backbone")
head = importlib.import_module("plugner.head")
training = importlib.import_module("plugner.training")
persist = importlib.import_module("plugner.persist")
data = importlib.import_module("plugner.data")
evaluate = importlib.import_module("plugner.evaluate")

TENSOR_OPS = (
    "matmul", "add", "mul", "scale", "softmax_rows", "log_softmax_rows", "layer_norm",
    "gather_rows", "concat", "slice_rows", "slice_cols", "transpose", "gelu", "tanh_act",
    "masked_fill", "reduce_sum",
)

PHASES = ("setup", "train", "decode")

# (modules whose global name is rebound, attribute, span name); every module
# that imported the function by name is listed, so its callers see the wrapper
FUNCTION_SPANS = (
    ((data,), "synthetic_corpus", "data.synthetic_corpus"),
    ((data,), "few_shot_sample", "data.few_shot_sample"),
    ((persist,), "save_checkpoint", "persist.save_checkpoint"),
    ((persist,), "load_checkpoint", "persist.load_checkpoint"),
    ((evaluate, training), "evaluate", "evaluate.evaluate"),
    ((training,), "run_training", "training.run_training"),
    ((training,), "sequence_loss", "training.sequence_loss"),
    ((head, training), "decoder_inputs", "head.decoder_inputs"),
    ((head, training), "step_scores", "head.step_scores"),
)


def _attention_name(args, kwargs) -> str:
    stack = args[0] if args else kwargs["stack"]
    block = kwargs.get("block", args[6] if len(args) > 6 else "attn")
    if stack == "encoder":
        return "backbone.enc_self_attn"
    return "backbone.dec_cross_attn" if block == "cross" else "backbone.dec_self_attn"


class Tracer:
    """Spans and counters of one traced run, kept in memory until ``write``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_phase = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.leaf_ns = array("q")
        self._stack = [-1]
        self.active = False  # calls outside a phase (the checks) are not recorded
        self.phase = "setup"
        self._phase_id = 0
        self.ops = {p: {} for p in PHASES}  # phase -> op -> [calls, ns]
        self.counters = {p: {} for p in PHASES}  # phase -> counter -> value
        self.units = {p: 0 for p in PHASES}  # work units a phase's numbers are divided by
        self.model = None  # set by the workload; frozen_grads inspects its parameters
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_phase.append(self._phase_id)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self.leaf_ns.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def count(self, key: str, value: float = 1) -> None:
        counters = self.counters[self.phase]
        counters[key] = counters.get(key, 0) + value

    @contextmanager
    def in_phase(self, phase: str):
        """Root span for one phase of the workload; layer spans nest inside it."""
        self.phase, self._phase_id = phase, PHASES.index(phase)
        self.active = True
        idx = self._open(f"phase.{phase}")
        try:
            yield
        finally:
            self._close(idx)
            self.active = False

    def _span(self, fn, name=None, namer=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(name or namer(args[1:], kwargs))
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _leaf(self, fn, op: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = perf_counter_ns()
            out = fn(*args, **kwargs)
            dt = perf_counter_ns() - t0
            parent = tracer._stack[-1]
            if parent >= 0:
                tracer.leaf_ns[parent] += dt
            acc = tracer.ops[tracer.phase].get(op)
            if acc is None:
                acc = tracer.ops[tracer.phase][op] = [0, 0]
            acc[0] += 1
            acc[1] += dt
            return out

        return wrapper

    # -- installing wrappers --------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner[attr] if isinstance(owner, dict) else getattr(owner, attr)))
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def install(self) -> None:
        for op in TENSOR_OPS:
            self._set(tensor, op, self._leaf(getattr(tensor, op), op))
        # activations are looked up through this table when a Backbone is built
        for key, fn in list(backbone.ACTIVATIONS.items()):
            self._set(backbone.ACTIVATIONS, key, getattr(tensor, fn.__name__))

        for modules, attr, name in FUNCTION_SPANS:
            wrapped = self._span(getattr(modules[0], attr), name=name)
            for module in modules:
                self._set(module, attr, wrapped)

        def after_decode(args, result):
            self.count("decode_steps", len(result.indices))
            self.count("truncated", int(result.truncated))

        wrapped = self._span(head.greedy_decode, name="head.greedy_decode", after=after_decode)
        for module in (head, training):
            self._set(module, "greedy_decode", wrapped)

        B = backbone.Backbone
        self._set(B, "encode", self._span(B.encode, name="backbone.encode"))
        self._set(B, "decode_states", self._span(
            B.decode_states, name="backbone.decode_states",
            after=lambda args, states: self.count("decoder_rows", states.data.shape[0]),
        ))
        self._set(B, "attention_with_guidance", self._span(B.attention_with_guidance, namer=_attention_name))
        V = head.Verbalizer
        self._set(V, "rep_matrix", self._span(V.rep_matrix, name="head.rep_matrix"))

        Tape = tensor.Tape
        self._set(Tape, "backward", self._span(
            Tape.backward, name="tensor.backward",
            after=lambda args, _: self.count("tape_entries", len(args[0])),
        ))

        def after_step(args, _):
            # zero_grad clears trainable parameters only, so a frozen array
            # that holds a gradient now got it from a backward pass
            if self.model is not None:
                self.count("frozen_grads", sum(
                    1 for p in self.model.parameters() if not p.trainable and p.value.grad is not None
                ))

        AdamW = training.AdamW
        self._set(AdamW, "step", self._span(AdamW.step, name="training.adamw_step", after=after_step))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- results --------------------------------------------------------------

    def _arrays(self) -> dict[str, np.ndarray]:
        name = np.frombuffer(self.span_name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        leaf = np.frombuffer(self.leaf_ns, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {
            "name": name,
            "phase": np.frombuffer(self.span_phase, dtype=np.int64),
            "parent": parent,
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "leaf_ns": leaf,
            "self_ns": dur - child.astype(np.int64) - leaf,
        }

    def _span_ms(self, arrays, span: str, phase: str | None) -> tuple[float, int]:
        """Summed duration (ms) and call count of one span name, in one phase or all."""
        nid = self._ids.get(span)
        if nid is None:
            return 0.0, 0
        sel = arrays["name"] == nid
        if phase is not None:
            sel &= arrays["phase"] == PHASES.index(phase)
        dur = arrays["end_ns"][sel] - arrays["start_ns"][sel]
        return float(dur.sum()) / 1e6, int(sel.sum())

    def per_layer(self, primary: str) -> dict[str, float]:
        """Layer numbers: ``primary`` phase per unit, head.* per decoded sentence, setup layers per run."""
        arrays = self._arrays()
        out: dict[str, float] = {}
        units = max(1, self.units[primary])
        ops = self.ops[primary]
        counters = self.counters[primary]
        out["tensor.tape_entries"] = counters.get("tape_entries", 0) / units
        out["tensor.op_calls"] = sum(c for c, _ in ops.values()) / units
        out["tensor.op_self_ms"] = sum(ns for _, ns in ops.values()) / 1e6 / units
        out["tensor.matmul_self_ms"] = ops.get("matmul", [0, 0])[1] / 1e6 / units
        for metric, span in (
            ("tensor.backward_ms", "tensor.backward"),
            ("training.sequence_loss_ms", "training.sequence_loss"),
            ("training.adamw_step_ms", "training.adamw_step"),
            ("backbone.encode_ms", "backbone.encode"),
            ("backbone.decode_states_ms", "backbone.decode_states"),
            ("backbone.enc_self_attn_ms", "backbone.enc_self_attn"),
            ("backbone.dec_self_attn_ms", "backbone.dec_self_attn"),
            ("backbone.dec_cross_attn_ms", "backbone.dec_cross_attn"),
        ):
            out[metric] = self._span_ms(arrays, span, primary)[0] / units
        out["training.frozen_grads"] = counters.get("frozen_grads", 0) / units
        out["backbone.decoder_rows"] = counters.get("decoder_rows", 0) / units

        sentences = max(1, self.units["decode"])
        decode = self.counters["decode"]
        for metric, span in (
            ("head.greedy_decode_ms", "head.greedy_decode"),
            ("head.step_scores_ms", "head.step_scores"),
            ("head.decoder_inputs_ms", "head.decoder_inputs"),
        ):
            out[metric] = self._span_ms(arrays, span, "decode")[0] / sentences
        out["head.rep_matrix_calls"] = self._span_ms(arrays, "head.rep_matrix", "decode")[1] / sentences
        out["head.decode_steps"] = decode.get("decode_steps", 0) / sentences
        out["head.decoder_row_yield"] = decode.get("decode_steps", 0) / max(1, decode.get("decoder_rows", 0))
        out["head.truncated"] = decode.get("truncated", 0) / sentences

        for metric, span in (
            ("persist.save_checkpoint_ms", "persist.save_checkpoint"),
            ("persist.load_checkpoint_ms", "persist.load_checkpoint"),
            ("data.synthetic_corpus_ms", "data.synthetic_corpus"),
            ("data.few_shot_sample_ms", "data.few_shot_sample"),
            ("evaluate.evaluate_ms", "evaluate.evaluate"),
        ):
            out[metric] = self._span_ms(arrays, span, None)[0]
        return out

    def write(self, path: Path) -> None:
        """Spans, per-phase op totals and counters, as one ``.npz`` file."""
        op_names = sorted({op for phase in PHASES for op in self.ops[phase]})
        op_table = np.array(
            [[self.ops[p].get(op, [0, 0]) for op in op_names] for p in PHASES], dtype=np.int64
        ).reshape(len(PHASES), len(op_names), 2)
        np.savez(
            path,
            names=np.array(self.names),
            phases=np.array(PHASES),
            op_names=np.array(op_names),
            op_calls_ns=op_table,
            counters=np.array(json.dumps(self.counters)),
            units=np.array([self.units[p] for p in PHASES], dtype=np.int64),
            **self._arrays(),
        )
