"""Forward/backward correctness of the tensor engine.

Analytic gradients are checked against central finite differences; the
reference values for scalar cases come from closed forms evaluated at high
precision.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from lsnpc.autodiff import (
    ComputeGraph,
    Tensor,
    _gelu,
    _gelu_grad,
    _toposort,
    backward,
    concat,
    dense,
    grad_check,
)


def scalar_graph(fn, x0):
    p = Tensor(np.asarray(x0, dtype=float), requires_grad=True, name="x")
    return ComputeGraph(lambda t: fn(t["x"]), {"x": p}), p


# ---------------------------------------------------------------------------
# forward evaluation


def test_square_at_three():
    g, _ = scalar_graph(lambda x: x * x, 3.0)
    assert g.eval().item() == 9.0


def test_sigmoid_at_zero():
    g, _ = scalar_graph(lambda x: x.sigmoid(), 0.0)
    assert g.eval().item() == 0.5


def test_softplus_at_zero_is_ln2():
    g, _ = scalar_graph(lambda x: x.softplus(), 0.0)
    assert g.eval().item() == pytest.approx(math.log(2.0), abs=1e-12)


def test_eval_is_pure():
    rng = np.random.default_rng(0)
    W = Tensor(rng.standard_normal((4, 3)), requires_grad=True, name="W")
    x = rng.standard_normal((2, 4))
    g = ComputeGraph(lambda t: ((t["x"] @ t["W"]).gelu()).sum(), {"W": W})
    first = g.eval({"x": x}).data.copy()
    for _ in range(5):
        assert np.array_equal(g.eval({"x": x}).data, first)


def test_matmul_shape_mismatch_names_operands():
    a = Tensor(np.zeros((2, 3)), name="lhs")
    b = Tensor(np.zeros((4, 2)), name="rhs")
    with pytest.raises(ValueError, match="lhs"):
        a @ b


def test_broadcast_only_over_leading_batch():
    a = Tensor(np.zeros((5, 3)))
    b = Tensor(np.zeros(3))
    assert (a + b).shape == (5, 3)
    with pytest.raises(ValueError, match="broadcast"):
        Tensor(np.zeros((5, 3))) + Tensor(np.zeros((5, 4)))


def test_nonfinite_flag_propagates():
    g, _ = scalar_graph(lambda x: x.log(), -1.0)
    out = g.eval()
    assert out.nonfinite_op is not None


def test_huge_finite_values_are_not_flagged():
    # the sum overflows to inf, but every element is finite
    assert Tensor(np.array([1e308, 1e308])).nonfinite_op is None
    assert (Tensor(np.array([1e308, 1e308])) * 1.0).nonfinite_op is None


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_first_non_finite_op_is_named(bad):
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True, name="w")
    out = (w * np.array([bad, 1.0])).square().sum()
    assert out.nonfinite_op == "leaf"
    assert Tensor(np.array([bad, 1.0]), name="v").nonfinite_op == "leaf(v)"
    assert Tensor(np.array([np.inf, -np.inf])).nonfinite_op == "leaf"
    assert ((w - 3.0).log() + w).nonfinite_op == "log"
    assert (Tensor(np.array([1e200, 1.0])).square() + w).nonfinite_op == "square"


def test_non_broadcasting_operands_are_named():
    a = Tensor(np.zeros((5, 3)), name="a")
    b = Tensor(np.zeros((5, 4)), name="b")
    with pytest.raises(ValueError) as err:
        a - b
    assert str(err.value) == "sub: operands leaf(a) (5, 3) and leaf(b) (5, 4) do not broadcast"


def test_constant_operands_get_no_gradient():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True, name="w")
    c = Tensor(np.array([3.0, 4.0]))
    product = w * c
    _, rule, _, ctx = product._rec
    assert rule(ctx, np.ones(2), w.data, c.data)[1] is None
    g = ComputeGraph(lambda t: (t["w"] * c / c - c).sum(), {"w": w})
    g.eval()
    np.testing.assert_array_equal(g.backward()["w"], [1.0, 1.0])


# ---------------------------------------------------------------------------
# backward


def test_derivative_of_square():
    g, p = scalar_graph(lambda x: x * x, 3.0)
    g.eval()
    grads = g.backward()
    assert grads["x"] == pytest.approx(6.0)


def test_backward_before_forward_errors():
    g, _ = scalar_graph(lambda x: x * x, 3.0)
    with pytest.raises(RuntimeError):
        g.backward()


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    A = Tensor(rng.standard_normal((3, 4)), requires_grad=True, name="A")
    B = Tensor(rng.standard_normal((4, 2)), requires_grad=True, name="B")
    g = ComputeGraph(lambda t: (t["A"] @ t["B"]).sum(), {"A": A, "B": B})
    assert grad_check(g) < 1e-5


def test_two_layer_gelu_mlp_gradient():
    rng = np.random.default_rng(2)
    params = {
        "W1": Tensor(rng.standard_normal((5, 8)) * 0.5, requires_grad=True),
        "b1": Tensor(rng.standard_normal(8) * 0.1, requires_grad=True),
        "W2": Tensor(rng.standard_normal((8, 3)) * 0.5, requires_grad=True),
        "b2": Tensor(rng.standard_normal(3) * 0.1, requires_grad=True),
    }
    x = rng.standard_normal((6, 5))

    def fn(t):
        h = (t["x"] @ t["W1"] + t["b1"]).gelu()
        return (h @ t["W2"] + t["b2"]).sigmoid().sum()

    g = ComputeGraph(fn, params)
    assert grad_check(g, {"x": x}) < 1e-4


def test_gradient_accumulates_over_reused_node():
    # x used twice: d/dx (x*x + x) = 2x + 1
    g, _ = scalar_graph(lambda x: x * x + x, 2.0)
    g.eval()
    assert g.backward()["x"] == pytest.approx(5.0)


def test_backward_linearity_over_graph_copies():
    rng = np.random.default_rng(3)
    w0 = rng.standard_normal(4)
    x1, x2 = rng.standard_normal(4), rng.standard_normal(4)

    def run(xs):
        W = Tensor(w0.copy(), requires_grad=True, name="W")
        g = ComputeGraph(
            lambda t: sum(((t["W"] * x).gelu().sum() for x in xs), start=Tensor(0.0)),
            {"W": W},
        )
        g.eval()
        return g.backward()["W"]

    combined = run([x1, x2])
    separate = run([x1]) + run([x2])
    np.testing.assert_allclose(combined, separate, rtol=1e-12)


def test_seed_gradient_shape_checked():
    g, _ = scalar_graph(lambda x: x * x, 3.0)
    g.eval()
    with pytest.raises(ValueError, match="seed"):
        g.backward(np.ones(3))


# ---------------------------------------------------------------------------
# grad_check


def test_grad_check_linear_is_exact():
    rng = np.random.default_rng(4)
    w0 = rng.standard_normal(6)
    c = rng.standard_normal(6)
    # The transposed view is not C-contiguous: the probe must move the
    # parameter's own array, not a copy of it.
    for data, const in ((w0, c), (w0.reshape(2, 3).T, c.reshape(2, 3).T)):
        w = Tensor(data, requires_grad=True, name="w")
        g = ComputeGraph(lambda t: (t["w"] * const).sum(), {"w": w})
        assert grad_check(g) < 1e-9


def test_grad_check_constant_function():
    w = Tensor(np.ones(3), requires_grad=True, name="w")
    g = ComputeGraph(lambda t: (t["w"] * 0.0).sum(), {"w": w})
    g.eval()
    grads = g.backward()
    assert np.array_equal(grads["w"], np.zeros(3))
    assert grad_check(g) == 0.0


def test_grad_check_rejects_nonscalar():
    w = Tensor(np.ones(3), requires_grad=True, name="w")
    g = ComputeGraph(lambda t: t["w"] * 2.0, {"w": w})
    with pytest.raises(ValueError, match="scalar"):
        grad_check(g)


UNARY_OPS = [
    ("square", lambda x: x.square(), (-3.0, 3.0)),
    ("sqrt", lambda x: x.sqrt(), (0.1, 4.0)),
    ("log", lambda x: x.log(), (0.1, 5.0)),
    ("sigmoid", lambda x: x.sigmoid(), (-4.0, 4.0)),
    ("softplus", lambda x: x.softplus(), (-4.0, 4.0)),
    ("gelu", lambda x: x.gelu(), (-3.0, 3.0)),
    ("lgamma", lambda x: x.lgamma(), (0.5, 5.0)),
]


@pytest.mark.parametrize("name,op,rng_range", UNARY_OPS, ids=[u[0] for u in UNARY_OPS])
def test_unary_gradients_match_finite_differences(name, op, rng_range):
    lo, hi = rng_range
    rng = np.random.default_rng(hash(name) % 2**32)
    for trial in range(12):
        x0 = rng.uniform(lo, hi, size=5)
        w = Tensor(x0, requires_grad=True, name="w")
        g = ComputeGraph(lambda t: op(t["w"]).sum(), {"w": w})
        assert grad_check(g) < 1e-4, f"{name} trial {trial}"


@given(
    data=st.lists(st.floats(-3, 3), min_size=2, max_size=6),
    scale=st.floats(0.2, 2.0),
)
def test_binary_chain_gradients(data, scale):
    x0 = np.asarray(data)
    w = Tensor(x0, requires_grad=True, name="w")
    g = ComputeGraph(
        lambda t: ((t["w"] * scale + 1.0).square() / (scale + 0.5)).mean(), {"w": w}
    )
    assert grad_check(g) < 1e-4


def test_concat_gradient_splits():
    a = Tensor(np.ones((2, 2)), requires_grad=True, name="a")
    b = Tensor(np.ones((2, 3)), requires_grad=True, name="b")
    g = ComputeGraph(lambda t: concat([t["a"], t["b"]], axis=-1).sum(), {"a": a, "b": b})
    assert grad_check(g) < 1e-9


def test_clamp_gradient_zero_outside():
    w = Tensor(np.array([-2.0, 0.0, 2.0]), requires_grad=True, name="w")
    g = ComputeGraph(lambda t: t["w"].clamp(-1.0, 1.0).sum(), {"w": w})
    g.eval()
    np.testing.assert_array_equal(g.backward()["w"], [0.0, 1.0, 0.0])


def test_mean_and_sum_reductions_with_axis():
    w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True, name="w")
    g = ComputeGraph(lambda t: t["w"].mean(axis=0).sum(), {"w": w})
    g.eval()
    np.testing.assert_allclose(g.backward()["w"], np.full((2, 3), 0.5))


# ---------------------------------------------------------------------------
# fused dense layer


def chain_layer(x, W, b, ln, gelu):
    """The dense layer spelled out in tape primitives."""
    h = x @ W + b
    if ln is not None:
        centered = h - h.mean(axis=-1, keepdims=True)
        var = centered.square().mean(axis=-1, keepdims=True)
        h = centered / (var + 1e-5).sqrt() * ln[0] + ln[1]
    return h.gelu() if gelu else h


LAYER_SHAPES = {"hidden": (True, True), "trunk": (False, True), "head": (False, False)}


@pytest.mark.parametrize("x_grad", [False, True], ids=["x_const", "x_grad"])
@pytest.mark.parametrize("shape", sorted(LAYER_SHAPES))
def test_dense_is_bit_identical_to_primitive_chain(shape, x_grad):
    has_ln, gelu = LAYER_SHAPES[shape]
    rng = np.random.default_rng(13)
    B, n_in, n_out = 33, 21, 17
    x = rng.standard_normal((B, n_in)) * 2.0
    weights = rng.standard_normal((B, n_out))
    arrays = {
        "W": rng.standard_normal((n_in, n_out)) * 0.4,
        "b": rng.standard_normal(n_out) * 0.2,
    }
    if has_ln:
        arrays["g"] = 1.0 + 0.3 * rng.standard_normal(n_out)
        arrays["s"] = 0.3 * rng.standard_normal(n_out)
    if x_grad:
        arrays["x"] = x

    def run(layer):
        params = {k: Tensor(v.copy(), requires_grad=True, name=k) for k, v in arrays.items()}
        kept = {}

        def fn(t):
            ln = (t["g"], t["s"]) if has_ln else None
            kept["out"] = layer(t["x"], t["W"], t["b"], ln, gelu)
            return (kept["out"] * weights).sum()

        graph = ComputeGraph(fn, params)
        graph.eval({} if x_grad else {"x": x})
        return graph, kept["out"].data, graph.backward()

    fused, fused_out, fused_grads = run(dense)
    _, chain_out, chain_grads = run(chain_layer)
    assert np.array_equal(fused_out, chain_out)
    assert sorted(fused_grads) == sorted(arrays)
    for name in arrays:
        assert np.array_equal(fused_grads[name], chain_grads[name]), name
    assert grad_check(fused, {} if x_grad else {"x": x}, sample=40) < 1e-4


@pytest.mark.parametrize("shape", sorted(LAYER_SHAPES))
def test_untaped_dense_returns_the_taped_values_bit_for_bit(shape):
    has_ln, gelu = LAYER_SHAPES[shape]
    rng = np.random.default_rng(14)
    x = rng.standard_normal((33, 21)) * 2.0
    W = Tensor(rng.standard_normal((21, 17)) * 0.4, requires_grad=True, name="W")
    b = Tensor(rng.standard_normal(17) * 0.2, requires_grad=True)
    ln = None
    if has_ln:
        ln = (Tensor(1.0 + 0.3 * rng.standard_normal(17), requires_grad=True),
              Tensor(0.3 * rng.standard_normal(17), requires_grad=True))
    kept = x.copy()
    untaped = dense(x, W, b, ln, gelu)
    taped = dense(Tensor(x), W, b, ln, gelu)
    assert type(untaped) is np.ndarray and isinstance(taped, Tensor)
    assert untaped.tobytes() == taped.data.tobytes()
    assert x.tobytes() == kept.tobytes()


def test_dense_backward_leaves_a_shared_gradient_intact():
    # add hands one gradient array to both layers: the first backward pass
    # must not write into the array the second one reads
    rng = np.random.default_rng(15)
    x = rng.standard_normal((9, 5))
    weights = rng.standard_normal((9, 4))
    arrays = {name: rng.standard_normal(shape) * 0.5 for name, shape in (
        ("W1", (5, 4)), ("b1", (4,)), ("g1", (4,)), ("s1", (4,)),
        ("W2", (5, 4)), ("b2", (4,)), ("g2", (4,)), ("s2", (4,)))}

    def run(layer):
        params = {k: Tensor(v.copy(), requires_grad=True, name=k) for k, v in arrays.items()}

        def fn(t):
            a = layer(t["x"], t["W1"], t["b1"], (t["g1"], t["s1"]), True)
            b = layer(t["x"], t["W2"], t["b2"], (t["g2"], t["s2"]), True)
            return ((a + b) * weights).sum()

        graph = ComputeGraph(fn, params)
        graph.eval({"x": x})
        return graph.backward()

    fused, chain = run(dense), run(chain_layer)
    for name in arrays:
        assert np.array_equal(fused[name], chain[name]), name


def expression_form_backward(g, x, W, b, gain, shift, gelu):
    """The dense layer's backward pass as whole-array expressions (the form
    it had before it reused its temporaries), over a forward of np.mean."""
    o = x @ W + b
    centered = o - np.mean(o, axis=-1, keepdims=True)
    std = np.sqrt(np.mean(np.square(centered), axis=-1, keepdims=True) + 1e-5)
    normed = centered / std
    o = normed * gain + shift
    n = W.shape[1]
    if gelu:
        g = _gelu_grad(g, o, _gelu(o)[1])
    ln_grads = ((g * normed).sum(axis=0), g.sum(axis=0))
    g = g * gain
    g_var = 0.5 * (-g * centered / (std * std)).sum(axis=1, keepdims=True) / std
    g = g / std + 2.0 * centered * (g_var / n)
    g = g + (-g).sum(axis=1, keepdims=True) / n
    return {"x": g @ W.T, "W": x.T @ g, "b": g.sum(axis=0),
            "gain": ln_grads[0], "shift": ln_grads[1]}


@pytest.mark.parametrize("gelu", [True, False], ids=["gelu", "no_gelu"])
@pytest.mark.parametrize("width", [64, 128])
@pytest.mark.parametrize("rows", [1, 7, 128])
def test_dense_backward_equals_the_expression_form_bit_for_bit(rows, width, gelu):
    rng = np.random.default_rng(rows * width)
    arrays = {"x": rng.standard_normal((rows, 40)) * 2.0,
              "W": rng.standard_normal((40, width)) * 0.3,
              "b": rng.standard_normal(width) * 0.2,
              "gain": 1.0 + 0.3 * rng.standard_normal(width),
              "shift": 0.3 * rng.standard_normal(width)}
    params = {k: Tensor(v, requires_grad=True, name=k) for k, v in arrays.items()}
    out = dense(params["x"], params["W"], params["b"], (params["gain"], params["shift"]), gelu)
    g = rng.standard_normal((rows, width))
    incoming = g.copy()
    grads = backward(out, params, seed_grad=g)
    assert g.tobytes() == incoming.tobytes()
    expected = expression_form_backward(incoming, *arrays.values(), gelu)
    for name in arrays:
        assert grads[name].tobytes() == expected[name].tobytes(), name


def tuple_dfs_order(root):
    """The topological order of a DFS whose stack holds (node, expanded) tuples."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen and parent.requires_grad:
                stack.append((parent, False))
    return order


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_toposort_keeps_the_tuple_dfs_order(data):
    n_leaves = data.draw(st.integers(1, 5))
    nodes = [Tensor(np.zeros(1), requires_grad=data.draw(st.booleans()))
             for _ in range(n_leaves)]
    for _ in range(data.draw(st.integers(0, 25))):
        # repeated and shared parents; a node whose parents all lack
        # requires_grad lacks it too, so whole branches drop out
        picks = data.draw(st.lists(st.integers(0, len(nodes) - 1), min_size=1, max_size=4))
        nodes.append(Tensor(np.zeros(1), _op="op", _parents=tuple(nodes[i] for i in picks)))
    root = nodes[data.draw(st.integers(0, len(nodes) - 1))]
    assert [id(t) for t in _toposort(root)] == [id(t) for t in tuple_dfs_order(root)]


def test_concat_of_arrays_builds_no_tensor():
    a, b = np.ones((2, 3)), np.zeros((2, 1))
    out = concat([a, b], axis=-1)
    assert type(out) is np.ndarray
    np.testing.assert_array_equal(out, np.concatenate([a, b], axis=-1))
    assert isinstance(concat([a, Tensor(b)], axis=-1), Tensor)


def test_dense_node_is_labelled_with_its_weight():
    W = Tensor(np.ones((2, 3)), requires_grad=True, name="net.W0")
    W.data[0, 0] = np.nan
    out = dense(Tensor(np.ones((4, 2))), W, Tensor(np.zeros(3)))
    assert out.nonfinite_op == "dense(net.W0)"


def test_dense_flags_layer_norm_overflow_with_finite_output():
    # squares of 1e200 overflow the variance; the normalised output is
    # finite (x / inf == 0) but the layer still reports a non-finite value
    W = Tensor(np.eye(3), requires_grad=True, name="net.W0")
    ln = (Tensor(np.ones(3), requires_grad=True), Tensor(np.zeros(3), requires_grad=True))
    x = Tensor(np.array([[1e200, -1e200, 0.0]]))
    out = dense(x, W, Tensor(np.zeros(3)), ln, gelu=True)
    assert np.all(np.isfinite(out.data))
    assert out.nonfinite_op == "dense(net.W0)"


@pytest.mark.parametrize("has_ln,bound", [(True, 2.5), (False, 2.1)], ids=["hidden", "trunk"])
def test_untaped_dense_peak_memory_stays_near_two_outputs(has_ln, bound):
    # the untaped chain runs in the output buffer plus one more of its shape;
    # an allocating step (``x ** 3``, an out-of-place temporary) breaks the bound
    rng = np.random.default_rng(16)
    x = rng.standard_normal((200, 64))
    W = Tensor(rng.standard_normal((64, 128)) * 0.2, name="W")
    b = Tensor(np.zeros(128))
    ln = (Tensor(np.ones(128)), Tensor(np.zeros(128))) if has_ln else None
    dense(x, W, b, ln, gelu=True)
    tracemalloc.start()
    try:
        out = dense(x, W, b, ln, gelu=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound * out.nbytes


# ---------------------------------------------------------------------------
# GELU: the tanh form of Hendrycks & Gimpel (2016)


def gelu_of(x):
    return Tensor(np.asarray(x, dtype=np.float64)).gelu().data


def test_gelu_stays_within_its_known_gap_of_exact_gelu():
    x = np.linspace(-12.0, 12.0, 240_001)
    gap = np.abs(gelu_of(x) - x * ndtr(x))
    assert gap.max() <= 4.8e-4
    assert 2.6 < abs(x[gap.argmax()]) < 2.8


def test_gelu_is_exactly_zero_at_zero():
    assert gelu_of([0.0])[0] == 0.0
    W = Tensor(np.eye(1), name="W")
    assert dense(np.zeros((1, 1)), W, Tensor(np.zeros(1)), gelu=True)[0, 0] == 0.0


def test_gelu_minus_its_mirror_image_is_the_identity():
    # gelu(x) - gelu(-x) = x holds for the tanh form as for x Phi(x)
    x = np.concatenate([np.linspace(-12.0, 12.0, 24_001), [1e-300, 1e-8, 50.0, 1e6, 1e200]])
    gap = np.abs(gelu_of(x) - gelu_of(-x) - x)
    assert np.all(gap <= 2 * np.spacing(np.abs(x)))


def test_gelu_gradient_is_finite_at_huge_pre_activations():
    # x^2 overflows past |x| ~ 1.3e154, long after tanh saturates: the
    # gradient is exactly 1 for x > 0 and 0 for x < 0, as exact GELU's is
    x0 = np.array([[1e160, -1e160]])
    params = {"x": Tensor(x0.copy(), requires_grad=True, name="x"),
              "W": Tensor(np.eye(2), requires_grad=True, name="W"),
              "b": Tensor(np.zeros(2), requires_grad=True, name="b")}
    graph = ComputeGraph(lambda t: dense(t["x"], t["W"], t["b"], None, True).sum(), params)
    assert graph.eval().item() == 1e160
    grads = graph.backward()
    np.testing.assert_array_equal(grads["x"], [[1.0, 0.0]])
    np.testing.assert_array_equal(grads["W"], [[1e160, 0.0], [-1e160, 0.0]])
    np.testing.assert_array_equal(grads["b"], [1.0, 0.0])
    w = Tensor(x0[0].copy(), requires_grad=True, name="w")
    graph = ComputeGraph(lambda t: t["w"].gelu().sum(), {"w": w})
    graph.eval()
    np.testing.assert_array_equal(graph.backward()["w"], [1.0, 0.0])
