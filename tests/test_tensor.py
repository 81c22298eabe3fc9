"""Tensor substrate: forward values, VJPs, tape discipline, finite differences."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plugner import tensor as T
from plugner.errors import GatherIndexError, ShapeError, TapeError
from plugner.tensor import Parameter, Tensor, finite_diff_check, record


def t(data):
    return Tensor(np.asarray(data, dtype=np.float64))


# ---------------------------------------------------------------------------
# forward values


def test_softmax_of_zeros_is_uniform():
    out = T.softmax_rows(t([[0.0, 0.0, 0.0]]))
    np.testing.assert_array_equal(out.data, [[1 / 3, 1 / 3, 1 / 3]])


def test_matmul_1x1():
    out = T.matmul(t([[2.0]]), t([[3.0]]))
    assert out.data.item() == 6.0


def test_layer_norm_two_points():
    # mean 2, population var 1: (x - 2) / sqrt(1 + eps) -> almost exactly [-1, 1]
    out = T.layer_norm(t([[1.0, 3.0]]), gain=t([1.0, 1.0]), bias=t([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-5)
    expected = 1.0 / np.sqrt(1.0 + T.LN_EPS)
    np.testing.assert_allclose(out.data, [[-expected, expected]], rtol=1e-15)


@pytest.mark.parametrize(
    "name,op",
    [
        ("softmax_rows", T.softmax_rows),
        ("log_softmax_rows", T.log_softmax_rows),
        ("layer_norm", lambda x: T.layer_norm(x, t([1.0, 1.0]), t([0.0, 0.0]))),
    ],
)
def test_row_ops_refuse_a_1d_operand(name, op):
    with pytest.raises(ShapeError, match=rf"{name} needs a 2-D operand, got shape \(2,\)"):
        op(t([1.0, 3.0]))


@pytest.mark.parametrize("shape", [(1, 64), (17, 64), (5, 8), (3, 12)])
def test_layer_norm_is_bitwise_the_mean_based_formula(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    x = rng.normal(0.0, 3.0, size=shape)
    gain = rng.normal(1.0, 0.5, size=shape[1])
    bias = rng.normal(0.0, 0.5, size=shape[1])
    g = rng.normal(size=shape)

    mu = x.mean(axis=1, keepdims=True)
    xc = x - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=1, keepdims=True) + T.LN_EPS)
    xhat = xc * inv
    dxhat = g * gain
    want_dx = inv * (
        dxhat - dxhat.mean(axis=1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
    )

    xt = Tensor(x)
    with record() as tape:
        out = T.layer_norm(xt, t(gain), t(bias))
        loss = T.reduce_sum(T.mul(out, t(g)))
    tape.backward(loss)
    np.testing.assert_array_equal(out.data, xhat * gain + bias)
    np.testing.assert_array_equal(xt.grad, want_dx)


def test_add_broadcasts_rows():
    out = T.add(t([[1.0, 2.0], [3.0, 4.0]]), t([10.0, 20.0]))
    np.testing.assert_array_equal(out.data, [[11.0, 22.0], [13.0, 24.0]])


@pytest.mark.parametrize("shape", [(3, 3), (2, 3)])
def test_add_refuses_a_column(shape):
    # a (3, 1) column has as many elements as a row of width 3, and was once added as the row [1, 2, 3]
    with pytest.raises(ShapeError, match=re.escape(f"{shape} + (3, 1)")):
        T.add(t(np.zeros(shape)), t([[1.0], [2.0], [3.0]]))


@pytest.mark.parametrize("axis,shapes", [(0, [(2, 3), (2, 4)]), (1, [(2, 3), (3, 3)]), (1, [(2, 3), (2, 1), (1, 3)])])
def test_concat_refuses_operands_that_disagree_off_the_axis(axis, shapes):
    with pytest.raises(ShapeError, match=re.escape(str(shapes))):
        T.concat([t(np.zeros(s)) for s in shapes], axis=axis)


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        T.matmul(t(np.zeros((2, 3))), t(np.zeros((2, 3))))


def test_gather_rejects_out_of_range_index():
    with pytest.raises(GatherIndexError, match="5"):
        T.gather_rows(t(np.zeros((4, 2))), [0, 5])


def test_tensor_rejects_3d():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 2, 2)))


def test_forward_values_stay_finite_after_masking():
    x = t(np.array([[800.0, -800.0, 3.0]]))
    mask = np.array([[0.0, 1.0, 0.0]])
    out = T.masked_fill(x, mask)
    assert np.all(np.isfinite(out.data))
    w = T.softmax_rows(out)
    assert np.all(np.isfinite(w.data))


# ---------------------------------------------------------------------------
# backward values


def test_grad_of_sum_is_ones():
    p = Parameter("p", [1.0, 5.0])
    with record() as tape:
        loss = T.reduce_sum(p.value)
    tape.backward(loss)
    np.testing.assert_array_equal(p.grad, [1.0, 1.0])


def test_grad_of_square_is_2x():
    p = Parameter("p", [3.0])
    with record() as tape:
        loss = T.reduce_sum(T.mul(p.value, p.value))
    tape.backward(loss)
    np.testing.assert_array_equal(p.grad, [6.0])


def test_softmax_cross_entropy_grad_is_softmax_minus_onehot():
    # z = [0, 0], target 0: p = [1/2, 1/2], dL/dz = p - onehot = [-0.5, 0.5]
    z = Parameter("z", [[0.0, 0.0]])
    with record() as tape:
        logp = T.log_softmax_rows(z.value)
        loss = T.scale(T.reduce_sum(T.mul(logp, t([[1.0, 0.0]]))), -1.0)
    tape.backward(loss)
    np.testing.assert_allclose(z.grad, [[-0.5, 0.5]], atol=1e-15)


def test_backward_twice_without_reset_is_rejected():
    p = Parameter("p", [1.0])
    with record() as tape:
        loss = T.reduce_sum(p.value)
    tape.backward(loss)
    with pytest.raises(TapeError):
        tape.backward(loss)


def test_backward_requires_scalar():
    p = Parameter("p", [1.0, 2.0])
    with record() as tape:
        out = T.scale(p.value, 2.0)
    with pytest.raises(ShapeError):
        tape.backward(out)


def test_untracked_op_gets_no_grad():
    p = Parameter("p", [1.0, 2.0])
    out = T.scale(p.value, 3.0)  # outside any record(): pure forward
    assert out.grad is None and p.grad is None


def test_grads_accumulate_across_multiple_uses():
    p = Parameter("p", [2.0])
    with record() as tape:
        loss = T.reduce_sum(T.add(T.mul(p.value, p.value), p.value))
    tape.backward(loss)
    np.testing.assert_array_equal(p.grad, [5.0])  # 2x + 1 at x=2


# ---------------------------------------------------------------------------
# finite differences


def test_finite_diff_on_sum_of_squares():
    p = Parameter("p", [1.0, 2.0])
    with record() as tape:
        loss = T.reduce_sum(T.mul(p.value, p.value))
    tape.backward(loss)
    np.testing.assert_array_equal(p.grad, [2.0, 4.0])
    p.value.grad = None
    rep = finite_diff_check(lambda: T.reduce_sum(T.mul(p.value, p.value)), [p], h=1e-5)
    assert rep.max_rel_error < 1e-8
    assert rep.passed


def test_finite_diff_on_constant_reports_zero():
    p = Parameter("p", [1.0, -1.0])
    rep = finite_diff_check(lambda: T.reduce_sum(T.mul(t([0.0, 0.0]), p.value)), [p], h=1e-5)
    assert rep.max_rel_error == 0.0


def test_finite_diff_rejects_h_outside_range():
    p = Parameter("p", [1.0])
    f = lambda: T.reduce_sum(p.value)
    with pytest.raises(ValueError):
        finite_diff_check(f, [p], h=1e-8)
    with pytest.raises(ValueError):
        finite_diff_check(f, [p], h=1e-3)


def test_finite_diff_reports_nonfinite_probes():
    # log goes non-finite at the p - h probe (1e-6 - 1e-5 < 0); the sweep
    # must record the coordinate instead of raising
    p = Parameter("p", [1e-6])

    def f():
        with np.errstate(invalid="ignore"):
            return T.scale(t([float(np.log(p.value.data[0]))]), 1.0)

    rep = finite_diff_check(f, [p], h=1e-5)
    assert ("p", 0) in rep.nonfinite


def attention_probe(p, c):
    # q, k and v all depend on p; 2 heads of width 2, the causal rule leaves
    # the 2 prefix keys visible to both query rows
    x = T.matmul(p.value, t(c["B"]))
    k = T.concat([t(c["A24"]), x], axis=0)
    v = T.concat([x, t(c["A24"])], axis=0)
    return T.reduce_sum(T.mul(T.attention(x, k, v, 2, c["causal"]), t(c["C24"])))


@pytest.mark.parametrize("prefix", [0, 3])
def test_causal_single_query_row_is_bitwise_unmasked(prefix):
    # a cached decode step: one query row sees every key, so the causal rule masks nothing
    rng = np.random.default_rng(prefix)
    arrays = {"q": rng.normal(size=(1, 4)), "k": rng.normal(size=(prefix + 1, 4)), "v": rng.normal(size=(prefix + 1, 4))}
    weights = rng.normal(size=(1, 4))

    def run(causal):
        leaves = {name: Parameter(name, a) for name, a in arrays.items()}
        with record() as tape:
            out = T.attention(*(p.value for p in leaves.values()), 2, causal)
            loss = T.reduce_sum(T.mul(out, t(weights)))
        tape.backward(loss)
        return [out.data] + [p.grad for p in leaves.values()]

    for got, want in zip(run(True), run(False)):
        assert np.array_equal(got, want)


def test_causal_attention_refuses_fewer_keys_than_queries():
    q, kv = t(np.zeros((3, 4))), t(np.zeros((2, 4)))
    with pytest.raises(ShapeError, match=r"keys \(2\).*queries \(3\)"):
        T.attention(q, kv, kv, 2, causal=True)
    assert T.attention(q, kv, kv, 2).data.shape == (3, 4)  # without the causal rule any key count serves


@pytest.mark.parametrize(
    "name,builder",
    [
        ("matmul", lambda p, c: T.reduce_sum(T.mul(T.matmul(p.value, t(c["B"])), t(c["C24"])))),
        ("add_rowvec", lambda p, c: T.reduce_sum(T.mul(T.add(t(c["A23"]), T.slice_rows(p.value, 0, 1)), t(c["C23"])))),
        ("mul", lambda p, c: T.reduce_sum(T.mul(T.mul(p.value, t(c["A23"])), t(c["C23"])))),
        ("scale", lambda p, c: T.reduce_sum(T.mul(T.scale(p.value, -1.7), t(c["C23"])))),
        ("softmax", lambda p, c: T.reduce_sum(T.mul(T.softmax_rows(p.value), t(c["C23"])))),
        ("log_softmax", lambda p, c: T.reduce_sum(T.mul(T.log_softmax_rows(p.value), t(c["C23"])))),
        ("layer_norm", lambda p, c: T.reduce_sum(T.mul(T.layer_norm(p.value, t(c["g"]), t(c["b"])), t(c["C23"])))),
        ("transpose", lambda p, c: T.reduce_sum(T.mul(T.transpose(p.value), t(c["C32"])))),
        ("gelu", lambda p, c: T.reduce_sum(T.mul(T.gelu(p.value), t(c["C23"])))),
        ("tanh", lambda p, c: T.reduce_sum(T.mul(T.tanh_act(p.value), t(c["C23"])))),
        ("concat_slice", lambda p, c: T.reduce_sum(T.mul(T.slice_rows(T.concat([p.value, t(c["A23"])], axis=0), 1, 3), t(c["C23"])))),
        ("masked_softmax", lambda p, c: T.reduce_sum(T.mul(T.softmax_rows(T.masked_fill(p.value, c["mask"])), t(c["C23"])))),
        ("attention", attention_probe),
    ],
)
def test_primitive_gradients_match_finite_differences(name, builder):
    rng = np.random.default_rng(hash(name) % 2**32)
    consts = {
        "B": rng.normal(size=(3, 4)),
        "C24": rng.normal(size=(2, 4)),
        "C23": rng.normal(size=(2, 3)),
        "C32": rng.normal(size=(3, 2)),
        "A24": rng.normal(size=(2, 4)),
        "A23": rng.normal(size=(2, 3)),
        "g": rng.normal(size=3) + 1.5,
        "b": rng.normal(size=3),
        "mask": np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        "causal": True,  # for 2 query rows over 4 keys: row 0 does not see key 3
    }
    p = Parameter("p", rng.normal(size=(2, 3)))
    rep = finite_diff_check(lambda: builder(p, consts), [p], h=3e-5, tol=1e-5)
    assert rep.passed, rep.summary()


def test_gather_gradient_scatters_with_duplicates():
    table = Parameter("table", np.arange(8.0).reshape(4, 2))
    with record() as tape:
        rows = T.gather_rows(table.value, [1, 1, 3])
        loss = T.reduce_sum(rows)
    tape.backward(loss)
    np.testing.assert_array_equal(table.grad, [[0, 0], [2, 2], [0, 0], [1, 1]])


# ---------------------------------------------------------------------------
# invariants


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_softmax_rows_form_a_distribution(rows, cols, seed):
    x = np.random.default_rng(seed).normal(scale=20.0, size=(rows, cols))
    out = T.softmax_rows(t(x)).data
    assert np.all(out >= 0)
    np.testing.assert_allclose(out.sum(axis=1), np.ones(rows), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=0, max_value=1),
)
def test_concat_then_slice_recovers_operands(rows_a, rows_b, cols, seed, axis):
    rng = np.random.default_rng(seed)
    if axis == 0:
        a, b = rng.normal(size=(rows_a, cols)), rng.normal(size=(rows_b, cols))
        joined = T.concat([t(a), t(b)], axis=0)
        back_a = T.slice_rows(joined, 0, rows_a).data
        back_b = T.slice_rows(joined, rows_a, rows_a + rows_b).data
    else:
        a, b = rng.normal(size=(rows_a, cols)), rng.normal(size=(rows_a, cols + 1))
        joined = T.concat([t(a), t(b)], axis=1)
        back_a = T.slice_cols(joined, 0, cols).data
        back_b = T.slice_cols(joined, cols, cols + cols + 1).data
    np.testing.assert_array_equal(back_a, a)
    np.testing.assert_array_equal(back_b, b)


def test_masked_positions_get_vanishing_attention():
    rng = np.random.default_rng(0)
    x = rng.normal(scale=5.0, size=(4, 6))
    mask = (rng.random((4, 6)) < 0.3).astype(float)
    mask[:, 0] = 0.0  # keep one live column per row
    w = T.softmax_rows(T.masked_fill(t(x), mask)).data
    assert np.all(w[mask.astype(bool)] < 1e-30)


def test_masked_positions_get_exactly_zero_gradient():
    rng = np.random.default_rng(1)
    p = Parameter("p", rng.normal(size=(2, 4)))
    mask = np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]])
    downstream = rng.normal(size=(2, 4))
    with record() as tape:
        w = T.softmax_rows(T.masked_fill(p.value, mask))
        loss = T.reduce_sum(T.mul(w, t(downstream)))
    tape.backward(loss)
    assert np.all(p.grad[mask.astype(bool)] == 0.0)
