import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from conftest import REPO, SCENARIOS, make_net, make_rng
from oracles import backward
from greenlight import cli
from greenlight.qnet import (
    Adam,
    QNetwork,
    WeightsFormatError,
    Workspace,
    backward_batch,
    clone,
    deserialize,
    forward,
    forward_batch,
    init_network,
    serialize,
)


def _linear_net(w, b):
    return make_net([w], [b])


def test_forward_identity_layer():
    net = _linear_net([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
    assert forward(net, [1.0, -2.0]) == pytest.approx([1.0, -2.0])


def test_forward_rectifier_clips_hidden():
    net = make_net([np.eye(2), np.eye(2)], [np.zeros(2), np.zeros(2)])
    # hidden activation of (-1, 2) is (0, 2); the linear output passes it through
    assert forward(net, [-1.0, 2.0]) == pytest.approx([0.0, 2.0])


def test_forward_matches_straight_line_oracle():
    rng = make_rng(11)
    net = init_network((4, 8, 3), rng)
    x = rng.normal(size=4)
    expected = oracles.straight_line_forward(
        net.sizes,
        [w.tolist() for w in net.weights],
        [b.tolist() for b in net.biases],
        x.tolist(),
    )
    assert forward(net, x) == pytest.approx(expected, abs=1e-12)


def test_forward_batch_matches_forward():
    rng = make_rng(12)
    net = init_network((4, 8, 3), rng)
    xs = rng.normal(size=(6, 4))
    batch = forward_batch(net, xs)
    for i in range(6):
        assert batch[i] == pytest.approx(forward(net, xs[i]), abs=1e-12)


def test_forward_rejects_dimension_mismatch():
    net = _linear_net([[1.0, 0.0]], [0.0])
    with pytest.raises(ValueError):
        forward(net, [1.0, 2.0, 3.0])


def test_backward_zero_error_means_zero_gradients():
    net = _linear_net([[1.0]], [0.0])
    loss, grads = backward(net, [2.0], td_target=2.0, action=0)
    assert loss == 0.0
    assert np.all(grads.weights[0] == 0.0)
    assert np.all(grads.biases[0] == 0.0)


def test_backward_hand_chain_rule():
    # q = w*x = 2, target 0: loss 4, dL/dq = 4, dL/dw = 4*x = 4, dL/db = 4
    net = _linear_net([[2.0]], [0.0])
    loss, grads = backward(net, [1.0], td_target=0.0, action=0)
    assert loss == pytest.approx(4.0)
    assert grads.weights[0] == pytest.approx(np.array([[4.0]]))
    assert grads.biases[0] == pytest.approx([4.0])


def test_backward_nonselected_outputs_get_no_gradient():
    net = _linear_net([[2.0], [3.0]], [0.0, 0.0])
    _, grads = backward(net, [1.0], td_target=0.0, action=0)
    assert grads.weights[0][1] == pytest.approx([0.0])
    assert grads.biases[0][1] == 0.0


def test_backward_rejects_bad_action():
    net = _linear_net([[1.0]], [0.0])
    with pytest.raises(ValueError):
        backward(net, [1.0], 0.0, action=3)


def _loss_only(net, x, target, action):
    return float((forward(net, x)[action] - target) ** 2)


def test_gradients_match_central_finite_differences():
    rng = make_rng(21)
    worst = 0.0
    for _ in range(10):
        net = init_network((4, 8, 3), rng)
        x = rng.normal(size=4)
        target = float(rng.normal())
        action = int(rng.integers(0, 3))
        _, grads = backward(net, x, target, action)
        fd_w, fd_b = oracles.finite_difference_grads(net, x, target, action, 1e-5, _loss_only)
        for layer in range(len(net.weights)):
            diff_w = np.abs(grads.weights[layer] - np.asarray(fd_w[layer]))
            scale_w = np.maximum(1.0, np.abs(grads.weights[layer]) + np.abs(fd_w[layer]))
            diff_b = np.abs(grads.biases[layer] - np.asarray(fd_b[layer]))
            scale_b = np.maximum(1.0, np.abs(grads.biases[layer]) + np.abs(fd_b[layer]))
            worst = max(worst, float((diff_w / scale_w).max()), float((diff_b / scale_b).max()))
    assert worst < 1e-4


def test_batch_gradients_equal_mean_of_single_gradients():
    rng = make_rng(31)
    net = init_network((5, 6, 3), rng)
    xs = rng.normal(size=(8, 5))
    targets = rng.normal(size=8)
    actions = rng.integers(0, 3, size=8)
    batch_grads = QNetwork(net.sizes)
    batch_loss = backward_batch(net, xs, targets, actions, batch_grads)

    losses = []
    acc_w = [np.zeros_like(w) for w in net.weights]
    acc_b = [np.zeros_like(b) for b in net.biases]
    for i in range(8):
        loss, grads = backward(net, xs[i], float(targets[i]), int(actions[i]))
        losses.append(loss)
        for layer in range(len(acc_w)):
            acc_w[layer] += grads.weights[layer] / 8.0
            acc_b[layer] += grads.biases[layer] / 8.0
    assert batch_loss == pytest.approx(np.mean(losses), rel=1e-12)
    for layer in range(len(acc_w)):
        assert batch_grads.weights[layer] == pytest.approx(acc_w[layer], abs=1e-12)
        assert batch_grads.biases[layer] == pytest.approx(acc_b[layer], abs=1e-12)


def test_adam_zero_gradients_leave_parameters_unchanged():
    net = _linear_net([[2.0, -1.0]], [0.5])
    before_w = net.weights[0].copy()
    before_b = net.biases[0].copy()
    opt = Adam(net)
    zero = QNetwork(net.sizes)
    opt.step(net, zero, lr=0.1)
    assert np.array_equal(net.weights[0], before_w)
    assert np.array_equal(net.biases[0], before_b)


def test_adam_first_step_is_signed_lr():
    net = _linear_net([[1.0, 1.0]], [1.0])
    opt = Adam(net)
    grads = make_net([[[0.5, -2.0]]], [[3.0]])
    opt.step(net, grads, lr=0.01)
    # bias-corrected first step moves each parameter by ~lr against the gradient sign
    assert net.weights[0] == pytest.approx(np.array([[1.0 - 0.01, 1.0 + 0.01]]), rel=1e-5)
    assert net.biases[0] == pytest.approx([1.0 - 0.01], rel=1e-5)


def test_adam_two_steps_match_reference_trace():
    net = _linear_net([[1.0, -1.0]], [0.5])
    opt = Adam(net)
    g1 = make_net([[[0.3, -0.7]]], [[0.1]])
    g2 = make_net([[[-0.2, 0.4]]], [[0.6]])
    opt.step(net, g1, lr=0.05)
    after_one = (net.weights[0].copy(), net.biases[0].copy())
    opt.step(net, g2, lr=0.05)

    trace = oracles.adam_reference(
        [1.0, -1.0, 0.5],
        [[0.3, -0.7, 0.1], [-0.2, 0.4, 0.6]],
        lr=0.05,
    )
    assert after_one[0][0] == pytest.approx(trace[0][:2], abs=1e-12)
    assert after_one[1] == pytest.approx(trace[0][2:], abs=1e-12)
    assert net.weights[0][0] == pytest.approx(trace[1][:2], abs=1e-12)
    assert net.biases[0] == pytest.approx(trace[1][2:], abs=1e-12)


def test_adam_rejects_shape_mismatch():
    net = _linear_net([[1.0, 1.0]], [1.0])
    opt = Adam(net)
    with pytest.raises(ValueError, match="sizes"):
        opt.step(net, QNetwork((2, 2)), lr=0.1)
    # a layout with as many parameters but other sizes is rejected too
    net = _linear_net([[1.0], [1.0]], [1.0, 1.0])
    bad = QNetwork((1, 1, 1))
    assert bad.flat.size == net.flat.size
    with pytest.raises(ValueError, match="sizes"):
        Adam(net).step(net, bad, lr=0.1)


def test_serialize_round_trip_is_bitwise():
    net = init_network((4, 8, 3), make_rng(77))
    again = deserialize(serialize(net))
    assert again.sizes == net.sizes
    for w1, w2 in zip(net.weights, again.weights):
        assert np.array_equal(w1, w2)
    for b1, b2 in zip(net.biases, again.biases):
        assert np.array_equal(b1, b2)
    assert serialize(again) == serialize(net)


def test_per_junction_document_round_trips():
    nets = {"a": init_network((4, 8, 3), make_rng(78)), "b": init_network((6, 8, 3), make_rng(79))}
    text = serialize(nets)
    again = deserialize(text)
    assert list(again) == ["a", "b"] and [n.sizes for n in again.values()] == [(4, 8, 3), (6, 8, 3)]
    assert serialize(again) == text
    with pytest.raises(WeightsFormatError, match="weights: 'multi' must be an object"):
        deserialize(json.dumps({"format_version": 1, "multi": ["a"]}))


def test_deserialize_truncated_document_errors():
    text = serialize(init_network((4, 8, 3), make_rng(1)))
    with pytest.raises(WeightsFormatError):
        deserialize(text[: len(text) // 2])


def test_deserialize_mismatched_dims_names_layer():
    doc = json.loads(serialize(init_network((4, 8, 3), make_rng(2))))
    doc["layers"][1]["w"] = doc["layers"][1]["w"][:-1]
    with pytest.raises(WeightsFormatError) as err:
        deserialize(json.dumps(doc))
    assert "weights.layers[1]" in str(err.value)


def test_deserialize_wrong_arch_chain_names_layer():
    doc = json.loads(serialize(init_network((4, 8, 3), make_rng(3))))
    doc["layers"][0]["rows"] = 9
    with pytest.raises(WeightsFormatError) as err:
        deserialize(json.dumps(doc))
    assert "weights.layers[0]" in str(err.value)


@pytest.mark.parametrize("sizes", [(4,), (4, 0, 3), (0, 3)])
def test_init_network_rejects_fewer_than_two_sizes_and_a_size_below_1(sizes):
    with pytest.raises(ValueError, match=r"^need at least input and output dimensions, got \("):
        init_network(sizes, make_rng(5))


def test_init_network_is_deterministic_per_seed():
    a = init_network((4, 8, 3), make_rng(5))
    b = init_network((4, 8, 3), make_rng(5))
    assert serialize(a) == serialize(b)


# --- parameter layout -------------------------------------------------------------


def test_layers_are_views_into_flat_in_order():
    net = init_network((4, 8, 3), make_rng(8))
    for w, b in zip(net.weights, net.biases):
        assert np.shares_memory(w, net.flat) and np.shares_memory(b, net.flat)
    layout = np.concatenate([p.ravel() for w, b in zip(net.weights, net.biases) for p in (w, b)])
    assert np.array_equal(layout, net.flat)
    assert net.flat.size == (4 * 8 + 8) + (8 * 3 + 3)
    net.flat[4 * 8] = 7.0  # first entry after W0 is b0[0]
    assert net.biases[0][0] == 7.0


def test_backward_batch_gradients_share_the_network_layout():
    rng = make_rng(9)
    net = init_network((4, 8, 3), rng)
    grads = QNetwork(net.sizes)
    buffer = grads.flat
    backward_batch(net, rng.normal(size=(5, 4)), rng.normal(size=5), [0, 1, 2, 0, 1], grads)
    assert grads.sizes == net.sizes and grads.flat is buffer and np.any(buffer != 0.0)
    for w, b in zip(grads.weights, grads.biases):
        assert np.shares_memory(w, grads.flat) and np.shares_memory(b, grads.flat)


def test_clone_copies_and_freezes():
    rng = make_rng(6)
    net = init_network((3, 4, 2), rng)
    target = clone(net)
    assert not np.shares_memory(target.flat, net.flat)
    for w, b in zip(target.weights, target.biases):
        assert np.shares_memory(w, target.flat) and np.shares_memory(b, target.flat)
    xs = rng.normal(size=(5, 3))
    for x in xs:
        assert forward(net, x) == pytest.approx(forward(target, x), abs=0.0)
    # a training step moves the online net but not the frozen copy
    opt = Adam(net)
    _, grads = backward(net, xs[0], 1.0, 0)
    opt.step(net, grads, lr=0.05)
    assert not np.array_equal(net.weights[0], target.weights[0])
    resynced = clone(net)
    assert np.array_equal(net.weights[0], resynced.weights[0])


@pytest.mark.parametrize(
    "field, value",
    [("arch", [4, 8.5, 3]), ("arch", [4.2, 8, 3]), ("arch", [4, True, 3]), ("arch", [4, 0, 3]), ("arch", "483"),
     ("arch", [4]), ("rows", 8.5), ("rows", -8), ("cols", True), ("cols", "4"), ("arch", [4.0, 8.0, 3.0]),
     ("rows", 8.0)],
)
def test_deserialize_rejects_non_integral_dimensions(field, value):
    doc = json.loads(serialize(init_network((4, 8, 3), make_rng(4))))
    if field == "arch":
        doc["arch"] = value
    else:
        doc["layers"][0][field] = value
    with pytest.raises(WeightsFormatError, match=field):
        deserialize(json.dumps(doc))


@pytest.mark.parametrize(
    "fault, where",
    [
        (lambda doc: doc["layers"][1].pop("rows"), "weights.layers[1]: missing key 'rows'"),
        (lambda doc: doc["layers"][0].pop("b"), "weights.layers[0]: missing key 'b'"),
        (lambda doc: doc.update(layers=5), "layers"),
        (lambda doc: doc.update(layers={"0": 1}), "layers"),
        (lambda doc: doc["layers"].__setitem__(1, 7), "weights.layers[1]: expected an object"),
        # A bad parameter list is named by its layer and key: "layer 0: w0" is the first such case.
        pytest.param(lambda doc: doc["layers"][0].update(w="abc"),
                     "weights.layers[0]: 'w' must be a list, got 'abc'", id="<lambda>-layer 0: w0"),
        pytest.param(lambda doc: doc["layers"][1].update(b=["0.5", 1.0, 2.0]),
                     "weights.layers[1]: 'b[0]' must be a number, got '0.5'", id="<lambda>-layer 1: b0"),
        pytest.param(lambda doc: doc["layers"][0].update(w=[[1.0, 2.0], [3.0]]),
                     "weights.layers[0]: 'w[0]' must be a number", id="<lambda>-layer 0: w1"),
        pytest.param(lambda doc: doc["layers"][0].update(w=None),
                     "weights.layers[0]: 'w' must be a list, got None", id="<lambda>-layer 0: w2"),
        pytest.param(lambda doc: doc["layers"][1].update(b=[True, False, True]),
                     "weights.layers[1]: 'b[0]' must be a number, got True", id="<lambda>-layer 1: b1"),
        (lambda doc: doc["layers"][1].update(w=[float("nan")] * 6),
         "weights.layers[1]: 'w[0]' must be finite, got nan"),
        (lambda doc: doc.update(note="x"), "weights: unknown key 'note'"),
        (lambda doc: doc["layers"][0].update(bias=[0.0]), "weights.layers[0]: unknown key 'bias'"),
        (lambda doc: doc.pop("format_version"), "weights: missing key 'format_version'"),
        (lambda doc: doc.update(format_version=99), "weights: format_version 99 is not supported, expected 1"),
        (lambda doc: doc.update(multi={"J1": dict(doc)}), "weights: unknown key 'arch'"),
        (lambda doc: doc["layers"].pop(), "weights: arch [2, 2, 3] expects 2 layers, document has 1"),
    ],
)
def test_deserialize_structural_faults_name_layer_and_key(fault, where):
    doc = json.loads(serialize(init_network((2, 2, 3), make_rng(4))))
    fault(doc)
    with pytest.raises(WeightsFormatError) as err:
        deserialize(json.dumps(doc))
    assert where in str(err.value)


@pytest.mark.parametrize(
    "fault, message",
    [
        (lambda one: one["layers"][0].pop("rows"), "weights.multi.J1.layers[0]: missing key 'rows'"),
        (lambda one: one["layers"][1].update(b=[0.0]),
         "weights.multi.J1.layers[1]: rows, cols, len(w), len(b) are (3, 2, 6, 1), arch [2, 2, 3] needs (3, 2, 6, 3)"),
        (lambda one: one.update(format_version=2), "weights.multi.J1: format_version 2 is not supported, expected 1"),
    ],
    ids=["missing key", "short biases", "entry version"],
)
def test_per_junction_fault_names_the_junction_path(fault, message):
    nets = {"J0": init_network((2, 2, 3), make_rng(5)), "J1": init_network((2, 2, 3), make_rng(6))}
    doc = json.loads(serialize(nets))
    fault(doc["multi"]["J1"])
    with pytest.raises(WeightsFormatError) as err:
        deserialize(json.dumps(doc))
    assert str(err.value) == message


def test_fixture_weights_document_reads_and_writes_its_own_bytes():
    text = (REPO / "perfbench" / "inputs" / "single-seed7-ep200.weights.json").read_text()
    assert serialize(deserialize(text)) == text


_PARAMETER = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _networks(draw) -> QNetwork:
    sizes = tuple(draw(st.lists(st.integers(1, 8), min_size=2, max_size=4)))
    n = QNetwork(sizes).flat.size
    return QNetwork(sizes, np.array(draw(st.lists(_PARAMETER, min_size=n, max_size=n)), dtype=np.float64))


_DOCUMENTS = _networks() | st.dictionaries(st.text(min_size=1, max_size=4), _networks(), min_size=1, max_size=3)


@given(_DOCUMENTS)
def test_weights_round_trip_property(original):
    text = serialize(original)
    again = deserialize(text)
    if isinstance(original, QNetwork):
        assert isinstance(again, QNetwork)
        pairs = [(original, again)]
    else:
        assert sorted(again) == sorted(original)
        pairs = [(original[jid], again[jid]) for jid in original]
    for net, read in pairs:
        assert read.sizes == net.sizes
        assert read.flat.tobytes() == net.flat.tobytes()  # identical bits, -0.0 and subnormals included
    assert serialize(again) == text


def test_cli_eval_reports_structural_weights_fault(tmp_path, capsys):
    doc = json.loads(serialize(init_network((16, 64, 64, 3), make_rng(4))))
    del doc["layers"][0]["rows"]
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps(doc))
    rc = cli.main(["eval", "--scenario", str(SCENARIOS / "single.xn"), "--controller", "dqn", "--weights", str(weights),
                   "--seeds", "1", "--out", str(tmp_path / "r.json")])
    assert rc == 1
    error = json.loads(capsys.readouterr().err.strip())
    assert error["kind"] == "WeightsFormatError" and "layers[0]" in error["error"] and "rows" in error["error"]


# --- stacked networks -------------------------------------------------------------


def _stacked(nets):
    return QNetwork(nets[0].sizes, np.stack([net.flat for net in nets]))


@pytest.mark.parametrize("count", [1, 2, 4, 36])
@pytest.mark.parametrize("d_in", [16, 10, 13])  # single.xn, grid2x2.xn and mixed.xn's networks
def test_forward_batch_of_one_state_per_network_equals_forward_bit_for_bit(d_in, count):
    """A (K, P) network's ``forward`` of one state per network, the one-row batched product, gives each network's
    ``w @ a + b`` q-values exactly, so acting on every junction in one call changes no greedy action and no
    evaluation report.  A reused workspace, as the policy passes at every decision, gives the same bits."""
    rng = make_rng(100 * d_in + count)
    nets = [init_network((d_in, 64, 64, 3), rng) for _ in range(count)]
    stacked = _stacked(nets)
    work = Workspace(stacked.sizes, (count, 1))
    for xs in rng.uniform(0.0, 1.0, size=(2, count, d_in)):  # features lie in [0, 1]
        expected = [oracles.forward(net, x).tobytes() for net, x in zip(nets, xs)]
        for q in (forward(stacked, xs), forward(stacked, xs, work)):
            assert q.shape == (count, 3)
            assert [row.tobytes() for row in q] == expected
    one = forward(nets[0], xs[0], Workspace(nets[0].sizes, (1,)))  # a (P,) network too
    assert one.shape == (3,) and one.tobytes() == forward(nets[0], xs[0]).tobytes() == expected[0]


def test_stacked_layers_are_views_per_network():
    nets = [init_network((4, 8, 3), make_rng(seed)) for seed in range(3)]
    stacked = _stacked(nets)
    for layer in range(2):
        assert stacked.weights[layer].shape == (3, *nets[0].weights[layer].shape)
        assert stacked.biases[layer].shape == (3, *nets[0].biases[layer].shape)
        assert np.shares_memory(stacked.weights[layer], stacked.flat)
        assert np.shares_memory(stacked.biases[layer], stacked.flat)
        for k, net in enumerate(nets):
            assert np.array_equal(stacked.weights[layer][k], net.weights[layer])
            assert np.array_equal(stacked.biases[layer][k], net.biases[layer])
    with pytest.raises(ValueError, match="parameters"):
        QNetwork((4, 8, 3), np.zeros((3, 10)))


def test_stacked_batches_match_each_network_bit_for_bit():
    rng = make_rng(13)
    nets = [init_network((5, 6, 3), rng) for _ in range(3)]
    stacked = _stacked(nets)
    xs = rng.normal(size=(3, 8, 5))
    targets = rng.normal(size=(3, 8))
    actions = rng.integers(0, 3, size=(3, 8))
    assert np.array_equal(forward_batch(stacked, xs), np.stack([forward_batch(n, x) for n, x in zip(nets, xs)]))
    grads = QNetwork(stacked.sizes, np.zeros_like(stacked.flat))
    losses = backward_batch(stacked, xs, targets, actions, grads)
    assert losses.shape == (3,)
    for k, net in enumerate(nets):
        one = QNetwork(net.sizes)
        assert losses[k] == backward_batch(net, xs[k], targets[k], actions[k], one)
        assert np.array_equal(grads.flat[k], one.flat)


def test_a_reused_workspace_gives_the_losses_and_gradients_of_a_fresh_one():
    """One workspace over two different batches in a row gives what a fresh workspace gives, bit for bit."""
    rng = make_rng(16)
    stacked = _stacked([init_network((10, 64, 64, 3), rng) for _ in range(4)])
    work = Workspace(stacked.sizes, (4, 32))
    for _ in range(2):
        xs, targets, actions = rng.uniform(size=(4, 32, 10)), rng.normal(size=(4, 32)), rng.integers(0, 3, (4, 32))
        assert forward_batch(stacked, xs, work).tobytes() == forward_batch(stacked, xs).tobytes()
        reused, fresh = (QNetwork(stacked.sizes, np.zeros_like(stacked.flat)) for _ in range(2))
        losses = backward_batch(stacked, xs, targets, actions, reused, work)
        assert losses.tobytes() == backward_batch(stacked, xs, targets, actions, fresh).tobytes()
        assert reused.flat.tobytes() == fresh.flat.tobytes()


def test_backward_batch_rejects_gradients_of_another_layout():
    rng = make_rng(14)
    net = init_network((4, 8, 3), rng)
    xs, targets = rng.normal(size=(5, 4)), rng.normal(size=5)
    for bad in (QNetwork((4, 8, 2)), QNetwork(net.sizes, np.zeros((2, net.flat.size)))):
        with pytest.raises(ValueError, match="sizes"):
            backward_batch(net, xs, targets, [0, 1, 2, 0, 1], bad)


def test_adam_over_a_stack_matches_one_adam_per_network():
    """One Adam over a (K, P) network steps each row as an Adam of its own steps that network."""
    rng = make_rng(15)
    nets = [init_network((5, 4, 2), rng) for _ in range(3)]
    stack = _stacked(nets)
    opt, opts = Adam(stack), [Adam(net) for net in nets]
    for _ in range(3):
        grads = QNetwork(stack.sizes, rng.normal(size=stack.flat.shape))
        opt.step(stack, grads, lr=0.01)
        for net, one, g in zip(nets, opts, grads.flat):
            one.step(net, QNetwork(net.sizes, g.copy()), lr=0.01)
    assert np.array_equal(stack.flat, np.stack([net.flat for net in nets]))
    copy = clone(stack)
    assert copy.sizes == stack.sizes and np.array_equal(copy.flat, stack.flat)
    assert not np.shares_memory(copy.flat, stack.flat)
    for bad in (QNetwork((5, 4, 2), np.zeros((2, stack.flat.shape[1]))), QNetwork((3, 4, 2), np.zeros((3, 26)))):
        with pytest.raises(ValueError, match="sizes"):
            opt.step(stack, bad, lr=0.01)
