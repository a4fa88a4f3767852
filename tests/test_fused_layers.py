"""The fused ``linear`` / ``batch_norm_*`` ops against the primitive composition.

``Linear`` and ``BatchNorm1d`` dispatch one registry op per layer.  The
primitive composition they replaced is frozen below as the oracle, and every
result of the fused ops — forward output, every input cotangent, the running
statistics, and whole PILOTE training runs — must equal it bit for bit.
"""

from __future__ import annotations

import copy
import functools

import numpy as np
import pytest

from repro.autodiff import ops
from repro.autodiff.gradcheck import check_gradients
from repro.autodiff.tensor import Tensor
from repro.backend.policy import precision
from repro.core import pilote as pilote_module
from repro.core.config import PiloteConfig
from repro.core.pilote import PILOTE
from repro.data.activities import Activity
from repro.data.streams import build_incremental_scenario
from repro.data.synthetic import make_feature_dataset
from repro.exceptions import ShapeError
from repro.nn.layers import BatchNorm1d, Linear
from repro.nn.trainer import Trainer


# --------------------------------------------------------------------------- #
# the oracle: the layers' primitive composition, one registry op per primitive
# --------------------------------------------------------------------------- #


def oracle_linear_forward(self, inputs):
    inputs = inputs if isinstance(inputs, Tensor) else Tensor(inputs)
    if inputs.shape[-1] != self.in_features:
        raise ShapeError(
            f"Linear expected input with {self.in_features} features, got {inputs.shape}"
        )
    output = inputs @ self.weight
    if self.bias is not None:
        output = output + self.bias
    return output


def oracle_batch_norm_forward(self, inputs):
    inputs = inputs if isinstance(inputs, Tensor) else Tensor(inputs)
    if inputs.ndim != 2 or inputs.shape[1] != self.num_features:
        raise ShapeError(
            f"BatchNorm1d expected (batch, {self.num_features}) input, got {inputs.shape}"
        )
    if self.training and inputs.shape[0] > 1:
        mean = inputs.mean(axis=0, keepdims=True)
        centred = inputs - mean
        variance = (centred * centred).mean(axis=0, keepdims=True)
        normalised = centred / (variance + self.epsilon).sqrt()
        self._update_running(mean.data.reshape(-1), variance.data.reshape(-1), inputs.shape[0])
    else:
        mean = Tensor(self.running_mean.reshape(1, -1))
        variance = Tensor(self.running_var.reshape(1, -1))
        normalised = (inputs - mean) / (variance + self.epsilon).sqrt()
    return normalised * self.gamma + self.beta


ORACLES = {Linear: oracle_linear_forward, BatchNorm1d: oracle_batch_norm_forward}


def assert_bitwise(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _random_batch_norm(features, rng):
    layer = BatchNorm1d(features)
    layer.gamma.data[...] = rng.uniform(0.5, 1.5, features)
    layer.beta.data[...] = rng.normal(size=features)
    layer.update_buffer("running_mean", rng.normal(size=features))
    layer.update_buffer("running_var", rng.uniform(0.2, 2.0, features))
    return layer


def _fused_and_oracle(layer, x, cotangent):
    """Run ``layer`` (fused) and a copy of it (oracle) forward and backward."""
    twin = copy.deepcopy(layer)
    results = []
    for module, forward in ((layer, type(layer).forward), (twin, ORACLES[type(layer)])):
        inputs = Tensor(x.copy(), requires_grad=True, dtype=x.dtype)
        output = forward(module, inputs)
        output.backward(cotangent.astype(output.dtype))
        grads = {name: p.grad for name, p in module.named_parameters()}
        results.append((module, inputs, output, grads))
    return results


# --------------------------------------------------------------------------- #
# bit-exactness of each layer against the oracle
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("batch", [2, 32])
@pytest.mark.parametrize("training", [True, False])
class TestBitExactWithOracle:
    def test_linear(self, dtype, batch, training):
        rng = np.random.default_rng(batch)
        with precision(dtype):
            for bias in (True, False):
                layer = Linear(7, 5, bias=bias, rng=3)
                layer.train(training)
                x = rng.normal(size=(batch, 7)).astype(dtype)
                cotangent = rng.normal(size=(batch, 5))
                fused, oracle = _fused_and_oracle(layer, x, cotangent)
                assert fused[2].op == "linear"
                assert_bitwise(fused[2].data, oracle[2].data)
                assert_bitwise(fused[1].grad, oracle[1].grad)
                assert fused[3].keys() == oracle[3].keys()
                for name, grad in oracle[3].items():
                    assert_bitwise(fused[3][name], grad)

    def test_batch_norm(self, dtype, batch, training):
        rng = np.random.default_rng(100 + batch)
        with precision(dtype):
            layer = _random_batch_norm(6, rng)
            layer.train(training)
            x = (rng.normal(size=(batch, 6)) * 3.0 + 1.0).astype(dtype)
            cotangent = rng.normal(size=(batch, 6))
            fused, oracle = _fused_and_oracle(layer, x, cotangent)
        assert fused[2].op == ("batch_norm_train" if training else "batch_norm_eval")
        assert_bitwise(fused[2].data, oracle[2].data)
        assert_bitwise(fused[1].grad, oracle[1].grad)
        for name in ("gamma", "beta"):
            assert_bitwise(fused[3][name], oracle[3][name])
        for buffer in ("running_mean", "running_var"):
            assert_bitwise(getattr(fused[0], buffer), getattr(oracle[0], buffer))


@pytest.mark.parametrize("training", [True, False])
def test_float32_layers_under_float64_policy_follow_promotion(training):
    # The constants (1/n, epsilon) follow the policy, so interior nodes are
    # float64 while the input and the parameters are float32: every cotangent
    # must be cast back per node exactly as the composition does.
    rng = np.random.default_rng(21)
    with precision("float32"):
        linear = Linear(5, 4, rng=1)
        norm = _random_batch_norm(4, rng)
    x = rng.normal(size=(8, 5)).astype(np.float32)
    for layer, inputs in ((linear, x), (norm, x[:, :4] * 2.0)):
        layer.train(training)
        fused, oracle = _fused_and_oracle(layer, inputs, rng.normal(size=(8, 4)))
        assert_bitwise(fused[2].data, oracle[2].data)
        assert_bitwise(fused[1].grad, oracle[1].grad)
        for name, grad in oracle[3].items():
            assert_bitwise(fused[3][name], grad)


def test_single_row_training_batch_uses_running_statistics():
    rng = np.random.default_rng(9)
    layer = _random_batch_norm(4, rng)
    fused, oracle = _fused_and_oracle(layer, rng.normal(size=(1, 4)), rng.normal(size=(1, 4)))
    assert fused[2].op == "batch_norm_eval"
    assert_bitwise(fused[2].data, oracle[2].data)
    assert_bitwise(fused[1].grad, oracle[1].grad)
    assert_bitwise(fused[0].running_mean, oracle[0].running_mean)


def test_frozen_input_still_trains_gamma_and_beta():
    rng = np.random.default_rng(4)
    layer = _random_batch_norm(3, rng)
    twin = copy.deepcopy(layer)
    x = rng.normal(size=(5, 3))
    cotangent = rng.normal(size=(5, 3))
    layer(Tensor(x)).backward(cotangent)
    oracle_batch_norm_forward(twin, Tensor(x)).backward(cotangent)
    for name in ("gamma", "beta"):
        assert_bitwise(getattr(layer, name).grad, getattr(twin, name).grad)


def test_backbone_emits_one_tape_record_per_layer():
    from repro.core.embedding import EmbeddingNetwork

    config = PiloteConfig(hidden_dims=(16, 8), embedding_dim=4, normalize_embeddings=False)
    network = EmbeddingNetwork(10, config=config, rng=0)
    network.train()
    output = network(Tensor(np.random.default_rng(0).normal(size=(6, 10))))
    ops_in_tape = [name for name, _ in output.trace() if name != "leaf"]
    assert ops_in_tape == [
        "linear", "batch_norm_train", "relu",
        "linear", "batch_norm_train", "relu",
        "linear",
    ]


# --------------------------------------------------------------------------- #
# finite-difference gradients of the new ops
# --------------------------------------------------------------------------- #


class TestFusedOpGradients:
    def _leaves(self, rng, *shapes):
        return [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]

    def test_linear(self):
        rng = np.random.default_rng(0)
        inputs = self._leaves(rng, (4, 3), (3, 2), (2,))
        weights = Tensor(rng.normal(size=(4, 2)))
        check_gradients(lambda t: (ops.linear(*t) * weights).sum(), inputs)

    def test_linear_without_bias(self):
        rng = np.random.default_rng(1)
        inputs = self._leaves(rng, (4, 3), (3, 2))
        weights = Tensor(rng.normal(size=(4, 2)))
        check_gradients(lambda t: (ops.linear(t[0], t[1]) * weights).sum(), inputs)

    def test_batch_norm_train(self):
        rng = np.random.default_rng(2)
        inputs = self._leaves(rng, (5, 3), (3,), (3,))
        weights = Tensor(rng.normal(size=(5, 3)))
        check_gradients(
            lambda t: (ops.batch_norm_train(*t, 1e-5)[0] * weights).sum(), inputs
        )

    def test_batch_norm_eval(self):
        rng = np.random.default_rng(3)
        inputs = self._leaves(rng, (5, 3), (3,), (3,))
        weights = Tensor(rng.normal(size=(5, 3)))
        running_mean = rng.normal(size=3)
        running_var = rng.uniform(0.5, 2.0, size=3)
        check_gradients(
            lambda t: (ops.batch_norm_eval(*t, running_mean, running_var, 1e-5) * weights).sum(),
            inputs,
        )

    def test_batch_norm_train_hands_back_batch_statistics(self):
        x = np.arange(12.0).reshape(4, 3)
        _, mean, variance = ops.batch_norm_train(
            Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)), 1e-5
        )
        assert np.allclose(mean, x.mean(axis=0, keepdims=True))
        assert np.allclose(variance, x.var(axis=0, keepdims=True))


# --------------------------------------------------------------------------- #
# end to end: PILOTE trained on the fused layers vs on the oracle
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def scenario():
    dataset = make_feature_dataset(samples_per_class=60, seed=17)
    return build_incremental_scenario(dataset, [Activity.RUN], rng=5)


E2E_CONFIG = PiloteConfig(
    hidden_dims=(24, 12),
    embedding_dim=8,
    batch_size=16,
    max_epochs_pretrain=3,
    max_epochs_increment=3,
    cache_size=60,
    max_pairs_per_batch=48,
    seed=0,
)


def _train(scenario, **kwargs):
    learner = PILOTE(E2E_CONFIG, seed=0, **kwargs)
    try:
        learner.pretrain(scenario.old_train, scenario.old_validation, exemplars_per_class=12)
        pretrained = learner.model.state_dict()
        learner.learn_new_classes(scenario.new_train, scenario.new_validation)
        return pretrained, learner.model.state_dict(), learner.predict(scenario.test.features)
    finally:
        learner.close()


@pytest.mark.parametrize("variant", ["serial", "sharded", "grad_shards"])
def test_training_run_bit_identical_to_oracle(scenario, variant, monkeypatch):
    kwargs = {"backend": "sharded", "shards": 2} if variant == "sharded" else {}
    if variant == "grad_shards":
        monkeypatch.setattr(pilote_module, "Trainer", functools.partial(Trainer, grad_shards=2))
    fused = _train(scenario, **kwargs)
    for layer_cls, forward in ORACLES.items():
        monkeypatch.setattr(layer_cls, "forward", forward)
    oracle = _train(scenario, **kwargs)
    for fused_state, oracle_state in zip(fused[:2], oracle[:2]):
        assert fused_state.keys() == oracle_state.keys()
        for key, value in oracle_state.items():
            assert_bitwise(fused_state[key], value)
    assert_bitwise(fused[2], oracle[2])
