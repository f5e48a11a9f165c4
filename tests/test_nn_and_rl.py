"""Tests for the numpy autograd engine, the NN layers and the RL stack."""

import gc
import threading
import tracemalloc

import numpy as np
import pytest

from repro.ir import parse
from repro.ir.tokenize import ICITokenizer
from repro.nn import (
    GRU,
    MLP,
    Adam,
    Embedding,
    LayerNorm,
    Linear,
    SGD,
    Tensor,
    TransformerEncoder,
    load_module,
    save_module,
)
from repro.rl import (
    ChehabAgent,
    EnvConfig,
    FheRewriteEnv,
    FlatActorCritic,
    HierarchicalActorCritic,
    PPOConfig,
    PPOTrainer,
    PolicyConfig,
    RewardConfig,
    RolloutBuffer,
)
from repro.nn.tensor import is_grad_enabled, no_grad
from repro.rl.env import dataset_source
from repro.rl.autoencoder import AutoencoderConfig, GRUAutoencoder, TransformerAutoencoder, train_autoencoder


def _numeric_gradient(fn, x, eps=1e-6):
    grad = np.zeros_like(x)
    for index in np.ndindex(*x.shape):
        x[index] += eps
        upper = fn(x)
        x[index] -= 2 * eps
        lower = fn(x)
        x[index] += eps
        grad[index] = (upper - lower) / (2 * eps)
    return grad


class TestAutograd:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda t: (t * t).sum(),
            lambda t: (t * 3.0 + 1.0).sum(),
            lambda t: t.exp().sum(),
            lambda t: (t.tanh() * t).sum(),
            lambda t: t.sigmoid().sum(),
            lambda t: t.relu().sum(),
            lambda t: (t @ Tensor(np.ones((3, 2)))).sum(),
            lambda t: t.log_softmax(axis=-1).sum(),
            lambda t: t.mean(axis=0).sum(),
        ],
    )
    def test_gradients_match_numeric(self, builder):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(4, 3)) + 1.5  # keep log/exp well-behaved
        tensor = Tensor(data.copy(), requires_grad=True)
        loss = builder(tensor)
        loss.backward()
        numeric = _numeric_gradient(lambda x: builder(Tensor(x)).item(), data.copy())
        assert np.allclose(tensor.grad, numeric, atol=1e-4)

    def test_broadcast_addition_gradient(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((3,)), requires_grad=True)
        ((a + b) * 2.0).sum().backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (3,)
        assert np.allclose(b.grad, 4.0)

    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError):
            Tensor(np.ones(3), requires_grad=True).backward()

    def test_concatenate_and_stack_gradients(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 2)), requires_grad=True)
        Tensor.concatenate([a, b], axis=1).sum().backward()
        assert np.allclose(a.grad, 1.0) and np.allclose(b.grad, 1.0)
        c = Tensor(np.ones(3), requires_grad=True)
        Tensor.stack([c, c], axis=0).sum().backward()
        assert np.allclose(c.grad, 2.0)

    def test_getitem_gradient_accumulates(self):
        t = Tensor(np.zeros(4), requires_grad=True)
        (t[np.array([0, 0, 2])]).sum().backward()
        assert list(t.grad) == [2.0, 0.0, 1.0, 0.0]

    @pytest.mark.parametrize(
        "index",
        [
            (slice(None), 0, slice(None)),
            -1,
            (Ellipsis, 1),
            (0, slice(1, None), np.int64(2)),
            (slice(None, None, -1), slice(0, 3, 2)),
        ],
    )
    def test_basic_index_gradient_matches_add_at(self, index):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(2, 3, 4))
        t = Tensor(data, requires_grad=True)
        upstream = rng.normal(size=data[index].shape)
        upstream.flat[0] = -0.0
        t[index].backward(upstream)
        expected = np.zeros_like(data)
        np.add.at(expected, index, upstream)
        assert t.grad.tobytes() == expected.tobytes()

    def test_mean_over_a_tuple_of_axes(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(2, 3, 4))
        t = Tensor(data, requires_grad=True)
        out = t.mean(axis=(0, 2))
        assert np.allclose(out.numpy(), data.mean(axis=(0, 2)))
        assert t.mean(axis=(1, 2), keepdims=True).shape == (2, 1, 1)
        weights = rng.normal(size=3)
        (out * Tensor(weights)).sum().backward()
        expected = np.broadcast_to(weights[None, :, None] / 8.0, data.shape)
        assert np.allclose(t.grad, expected)
        numeric = _numeric_gradient(
            lambda x: (Tensor(x).mean(axis=(0, 2)) * Tensor(weights)).sum().item(), data.copy()
        )
        assert np.allclose(t.grad, numeric, atol=1e-6)

    def test_backward_releases_the_graph(self):
        # Each intermediate's closure refers to the intermediate itself; the
        # graph must be cut after backward so plain refcounting frees it.
        leaf = Tensor(np.ones(3), requires_grad=True)
        middle = leaf * 3.0
        loss = (middle + 1.0).sum()
        loss.backward()
        assert np.allclose(leaf.grad, 3.0)
        for node in (middle, loss):
            assert node._backward is None and node._prev == ()
            assert node.grad is None  # interior gradients are not retained
        assert leaf._prev == ()

    def test_first_gradient_keeps_the_parameter_layout(self):
        # A transposed (Fortran-ordered) parameter must get a gradient with
        # the strides zeros_like would give it: later matmuls round by layout.
        weight = Tensor(np.arange(6.0).reshape(2, 3).T, requires_grad=True)
        assert not weight.data.flags.c_contiguous
        inputs = Tensor(np.ones((4, 3)))
        (inputs @ weight).sum().backward()
        assert weight.grad.strides == np.zeros_like(weight.data).strides
        assert np.array_equal(weight.grad, np.full((3, 2), 4.0))

    def test_first_gradient_turns_negative_zero_positive(self):
        # zeros + (-0.0) is +0.0; the fill-free first write must agree.
        leaf = Tensor(np.ones(2), requires_grad=True)
        (leaf * -0.0).sum().backward()
        assert not np.signbit(leaf.grad).any()

    def test_no_grad_builds_no_graph(self):
        leaf = Tensor(np.ones((2, 2)), requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            outputs = [
                (leaf * 2.0 + 1.0).tanh(),
                leaf @ leaf,
                Tensor.concatenate([leaf, leaf], axis=0),
                Tensor.stack([leaf, leaf]),
                leaf[0].log_softmax(),
                leaf.masked_softmax(0.5),
                leaf.layer_norm(leaf[0], leaf[1], 1e-5),
            ]
        assert is_grad_enabled()
        for out in outputs:
            assert not out.requires_grad
            assert out._prev == () and out._backward is None
        assert (leaf * 2.0)._backward is not None

    def test_no_grad_is_per_thread(self):
        leaf = Tensor(np.ones(2), requires_grad=True)
        seen = {}

        def other_thread():
            seen["enabled"] = is_grad_enabled()
            seen["out"] = leaf * 2.0

        with no_grad():
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
        assert seen["enabled"] and seen["out"].requires_grad


def _composed_masked_softmax(scores, scale, mask):
    """Attention's softmax as the chain of ops ``masked_softmax`` fuses."""
    scaled = scores * scale
    if mask is not None:
        scaled = scaled + Tensor(mask)
    return scaled.log_softmax(axis=-1).exp()


def _composed_layer_norm(inputs, gain, shift, eps):
    """Layer normalisation as the chain of ops ``layer_norm`` fuses."""
    mean = inputs.mean(axis=-1, keepdims=True)
    centred = inputs - mean
    variance = (centred * centred).mean(axis=-1, keepdims=True)
    normalised = centred * (variance + eps) ** -0.5
    return normalised * gain + shift


def _bits(array):
    return np.asarray(array).tobytes()


class TestFusedOps:
    """The fused ops give the composed chains' bits, values and gradients."""

    @pytest.mark.parametrize("masked", [False, True])
    def test_masked_softmax_matches_the_composed_chain(self, masked):
        rng = np.random.default_rng(7)
        data = rng.normal(scale=4.0, size=(3, 2, 5, 5))
        real = np.ones((3, 5))
        real[0, 3:] = 0.0  # padded keys
        real[2, :] = 0.0  # a fully padded row
        mask = np.where(real[:, None, None, :] > 0, 0.0, -1e9) if masked else None
        upstream = rng.normal(size=data.shape)
        upstream[rng.random(data.shape) < 0.3] = -0.0
        upstream[1, 0, 2, :] = -0.0
        scale = 1.0 / np.sqrt(4.0)

        fused_input = Tensor(data.copy(), requires_grad=True)
        fused = fused_input.masked_softmax(scale, mask)
        composed_input = Tensor(data.copy(), requires_grad=True)
        composed = _composed_masked_softmax(composed_input, scale, mask)
        assert _bits(fused.data) == _bits(composed.data)
        fused.backward(upstream)
        composed.backward(upstream)
        assert _bits(fused_input.grad) == _bits(composed_input.grad)
        if masked:
            assert np.all(fused.data[2] > 0.0)  # uniform over the padded keys
            assert np.all(fused.data[0, ..., 3:] == 0.0)

    @pytest.mark.parametrize("gain_trains", [True, False])
    def test_layer_norm_matches_the_composed_chain(self, gain_trains):
        # The input also feeds a residual add, as in the encoder layers, so
        # its gradient accumulates from three places in a fixed order.
        rng = np.random.default_rng(8)
        data = rng.normal(loc=1.0, scale=3.0, size=(2, 5, 8))
        weights = rng.normal(size=(2, 5, 8))
        weights[rng.random(weights.shape) < 0.3] = -0.0
        gain_data = rng.normal(size=8)
        results = []
        for build in (
            lambda h, g, b: h.layer_norm(g, b, 1e-5),
            lambda h, g, b: _composed_layer_norm(h, g, b, 1e-5),
        ):
            leaf = Tensor(data.copy(), requires_grad=True)
            gain = Tensor(gain_data, requires_grad=gain_trains)
            shift = Tensor(np.linspace(-1.0, 1.0, 8), requires_grad=True)
            hidden = leaf * 0.5
            out = build(hidden, gain, shift)
            ((hidden + out) * Tensor(weights)).sum().backward()
            results.append((out.data, leaf.grad, gain.grad, shift.grad))
        for fused, composed in zip(*results):
            assert (fused is None) == (composed is None)
            assert fused is None or _bits(fused) == _bits(composed)
        assert (results[0][2] is None) == (not gain_trains)


class TestModules:
    def test_linear_shapes_and_training(self):
        layer = Linear(4, 2, seed=0)
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 2)
        assert layer.parameter_count() == 4 * 2 + 2

    def test_mlp_learns_xor_like_regression(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(32, 2))
        y = (x[:, :1] * x[:, 1:]).copy()
        model = MLP(2, [16], 1, seed=0)
        optimizer = Adam(model.parameters(), learning_rate=0.02)
        first_loss, last_loss = None, None
        for _ in range(150):
            prediction = model(Tensor(x))
            error = prediction - Tensor(y)
            loss = (error * error).mean()
            if first_loss is None:
                first_loss = loss.item()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            last_loss = loss.item()
        assert last_loss < 0.5 * first_loss

    def test_layer_norm_normalises(self):
        out = LayerNorm(8)(Tensor(np.random.default_rng(0).normal(2.0, 3.0, size=(4, 8))))
        assert np.allclose(out.numpy().mean(axis=-1), 0.0, atol=1e-6)

    def test_embedding_lookup(self):
        emb = Embedding(10, 4, seed=0)
        out = emb(np.array([[1, 2], [3, 3]]))
        assert out.shape == (2, 2, 4)
        assert np.allclose(out.numpy()[1, 0], out.numpy()[1, 1])

    def test_transformer_encoder_shapes_and_mask(self):
        encoder = TransformerEncoder(vocab_size=12, model_dim=16, num_layers=1, num_heads=2, max_length=8, seed=0)
        ids = np.array([[1, 2, 3, 0, 0, 0, 0, 0]])
        mask = (ids != 0).astype(int)
        pooled = encoder.encode(ids, mask)
        assert pooled.shape == (1, 16)

    def test_gru_shapes(self):
        gru = GRU(6, 5, num_layers=2, bidirectional=True, seed=0)
        out = gru(Tensor(np.random.default_rng(0).normal(size=(3, 4, 6))))
        assert out.shape == (3, 4, 10)
        assert gru.encode(Tensor(np.zeros((2, 4, 6)))).shape == (2, 10)

    def test_sgd_momentum_decreases_loss(self):
        layer = Linear(3, 1, seed=1)
        optimizer = SGD(layer.parameters(), learning_rate=0.05, momentum=0.9)
        x = Tensor(np.eye(3))
        target = Tensor(np.array([[1.0], [2.0], [3.0]]))
        losses = []
        for _ in range(50):
            error = layer(x) - target
            loss = (error * error).mean()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0]

    def test_save_and_load_round_trip(self, tmp_path):
        model = MLP(3, [4], 2, seed=0)
        path = tmp_path / "model.npz"
        save_module(model, path)
        clone = MLP(3, [4], 2, seed=99)
        load_module(clone, path)
        x = Tensor(np.ones((1, 3)))
        assert np.allclose(model(x).numpy(), clone(x).numpy())

    def test_load_rejects_shape_mismatch(self, tmp_path):
        model = MLP(3, [4], 2, seed=0)
        path = tmp_path / "model.npz"
        save_module(model, path)
        with pytest.raises(ValueError):
            load_module(MLP(3, [5], 2, seed=0), path)


def _small_env(expressions, seed=0, max_steps=6):
    tokenizer = ICITokenizer(max_length=48)
    config = EnvConfig(max_steps=max_steps, max_locations=8, max_tokens=48)
    return FheRewriteEnv(dataset_source(expressions, seed=seed), tokenizer=tokenizer, config=config)


_TRAIN_EXPRS = [
    parse("(Vec (+ (* a b) (* c d)) (+ (* e f) (* g h)))"),
    parse("(+ (+ (* a b) (* c d)) (+ (* e f) (* g h)))"),
    parse("(Vec (+ a b) (+ c d))"),
    parse("(* (+ x 0) (* y 1))"),
]


class TestEnvironment:
    def test_reset_returns_observation(self, ruleset):
        env = _small_env(_TRAIN_EXPRS)
        obs = env.reset()
        assert obs.tokens.shape == (48,)
        assert obs.rule_mask.shape == (ruleset.action_count,)
        assert obs.rule_mask[-1]

    def test_step_applies_rule_and_rewards_improvement(self, ruleset):
        env = _small_env([parse("(+ (* a b) (* a c))")])
        env.reset()
        action = (ruleset.index_of("comm-factor"), 0)
        _obs, reward, done, info = env.step(action)
        assert info["rule"] == "comm-factor"
        assert reward > 0
        assert not done

    def test_end_action_terminates_with_terminal_reward(self, ruleset):
        env = _small_env([parse("(+ (* a b) (* a c))")])
        env.reset()
        env.step((ruleset.index_of("comm-factor"), 0))
        _obs, reward, done, info = env.step((ruleset.end_index, 0))
        assert done
        assert info["improvement"] > 0
        assert reward > 0  # terminal reward reflects the total improvement

    def test_invalid_action_penalised(self, ruleset):
        env = _small_env([parse("(+ a b)")])
        env.reset()
        _obs, reward, _done, info = env.step((ruleset.index_of("rotate-zero"), 0))
        assert info["invalid"]
        assert reward < 0

    def test_episode_length_limit(self, ruleset):
        env = _small_env([parse("(+ a b)")], max_steps=2)
        env.reset()
        env.step((ruleset.end_index - 1, 0))
        _obs, _reward, done, _info = env.step((ruleset.end_index - 1, 0))
        assert done

    def test_step_only_reward_config(self, ruleset):
        config = RewardConfig(use_terminal_reward=False)
        assert config.terminal_reward(100.0, 10.0) == 0.0
        assert RewardConfig().terminal_reward(100.0, 10.0) == pytest.approx(90.0)


@pytest.fixture(scope="module")
def small_policy_setup(ruleset):
    tokenizer = ICITokenizer(max_length=48)
    config = PolicyConfig.small(vocab_size=tokenizer.vocab_size, max_tokens=48, seed=0)
    return tokenizer, config


class TestPoliciesAndPPO:
    def test_hierarchical_act_respects_mask(self, ruleset, small_policy_setup):
        _tokenizer, config = small_policy_setup
        policy = HierarchicalActorCritic(ruleset.action_count, config)
        env = _small_env([parse("(+ (* a b) (* a c))")])
        obs = env.reset()
        for _ in range(5):
            (rule_index, location_index), log_prob, value = policy.act(obs)
            assert obs.rule_mask[rule_index]
            assert location_index < config.max_locations
            assert np.isfinite(log_prob) and np.isfinite(value)

    def test_distributions_match_the_update_path_and_build_no_graph(
        self, ruleset, small_policy_setup, monkeypatch
    ):
        _tokenizer, config = small_policy_setup
        policy = HierarchicalActorCritic(ruleset.action_count, config)
        obs = _small_env(_TRAIN_EXPRS).reset()
        made = []
        make = Tensor._make

        def recording_make(data, prev):
            out = make(data, prev)
            made.append(out)
            return out

        monkeypatch.setattr(Tensor, "_make", staticmethod(recording_make))
        rule_log_probs, location_log_probs_fn, value = policy.distributions(obs)
        rules = [int(rule) for rule in np.flatnonzero(obs.rule_mask)]
        location_log_probs = {rule: location_log_probs_fn(rule) for rule in rules}
        assert made and all(
            not out.requires_grad and out._prev == () and out._backward is None
            for out in made
        )
        made.clear()

        # The grad-mode update path gives the same bits, rule by rule.
        for rule in rules:
            evaluation = policy.evaluate_actions(
                obs.tokens[None, :],
                obs.padding_mask[None, :],
                obs.rule_mask[None, :],
                obs.location_counts[None, :],
                np.array([rule]),
                np.array([0]),
            )
            expected = rule_log_probs[rule] + location_log_probs[rule][0]
            assert evaluation["log_prob"].numpy()[0] == expected
            assert evaluation["value"].numpy()[0] == value
        assert any(out._backward is not None for out in made)

    def test_acting_leaves_no_tensor_in_a_cycle(self, ruleset, small_policy_setup):
        _tokenizer, config = small_policy_setup
        policy = HierarchicalActorCritic(ruleset.action_count, config)
        obs = _small_env(_TRAIN_EXPRS).reset()
        rule = int(np.flatnonzero(obs.rule_mask)[0])

        def cyclic_tensors(run):
            gc.collect()
            gc.disable()
            try:
                run()
                gc.set_debug(gc.DEBUG_SAVEALL)
                gc.collect()
                return sum(isinstance(item, Tensor) for item in gc.garbage)
            finally:
                gc.set_debug(0)
                gc.garbage.clear()
                gc.enable()

        def act():
            for _ in range(8):
                _rule_log_probs, location_log_probs_fn, _value = policy.distributions(obs)
                location_log_probs_fn(rule)
            policy.act(obs)
            policy.value(obs)

        def grad_mode_forward():
            # Control: a forward pass that is never back-propagated does
            # leave cycles, so the check above can see them.
            policy.evaluate_actions(
                obs.tokens[None, :], obs.padding_mask[None, :], obs.rule_mask[None, :],
                obs.location_counts[None, :], np.array([rule]), np.array([0]),
            )

        assert cyclic_tensors(act) == 0
        assert cyclic_tensors(grad_mode_forward) > 0

    def test_ppo_update_never_accumulates_into_a_constant(
        self, ruleset, small_policy_setup, monkeypatch
    ):
        # Advantages, returns, masks, positional encodings and scalar
        # constants need no gradient: no backward closure may compute one.
        _tokenizer, config = small_policy_setup
        policy = HierarchicalActorCritic(ruleset.action_count, config)
        envs = [_small_env(_TRAIN_EXPRS, seed=i) for i in range(2)]
        trainer = PPOTrainer(policy, envs, PPOConfig.small(seed=0))
        reached, constants = [0], []
        accumulate = Tensor._accumulate

        def recording_accumulate(tensor, grad):
            reached[0] += 1
            if not tensor.requires_grad:
                constants.append(tensor.shape)
            accumulate(tensor, grad)

        monkeypatch.setattr(Tensor, "_accumulate", recording_accumulate)
        trainer.train(total_timesteps=64)
        assert reached[0] > 0
        assert constants == []

    def test_ppo_update_memory_is_bounded(self, ruleset, small_policy_setup):
        # One PPO update (64 rollout steps, 2 epochs of 16-row minibatches)
        # peaks near 10.3 MB of traced allocations with the cyclic collector
        # off (12.8 MB before dead operand gradients were skipped and the
        # attention softmax and layer norm were fused).  Holding the rollout
        # graphs (about 61 MB) or keeping interior gradients through
        # backward (about 25 MB) breaks the bound.
        _tokenizer, config = small_policy_setup
        policy = HierarchicalActorCritic(ruleset.action_count, config)
        envs = [_small_env(_TRAIN_EXPRS, seed=i) for i in range(2)]
        trainer = PPOTrainer(policy, envs, PPOConfig.small(seed=0))
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            trainer.train(total_timesteps=64)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert len(trainer.history.timesteps) == 1
        assert peak < 16 * 2**20, f"one PPO update peaked at {peak / 2**20:.1f} MB"

    def test_flat_policy_action_round_trip(self, ruleset, small_policy_setup):
        _tokenizer, config = small_policy_setup
        policy = FlatActorCritic(ruleset.action_count, config)
        flat = policy.flatten_action(3, 2)
        assert policy.unflatten_action(flat) == (3, 2)
        assert policy.unflatten_action(policy.end_flat_index) == (ruleset.end_index, 0)

    def test_evaluate_actions_shapes(self, ruleset, small_policy_setup):
        _tokenizer, config = small_policy_setup
        policy = HierarchicalActorCritic(ruleset.action_count, config)
        env = _small_env(_TRAIN_EXPRS)
        obs = env.reset()
        batch_tokens = np.stack([obs.tokens, obs.tokens])
        batch_mask = np.stack([obs.padding_mask, obs.padding_mask])
        rule_masks = np.stack([obs.rule_mask, obs.rule_mask])
        counts = np.stack([obs.location_counts, obs.location_counts])
        out = policy.evaluate_actions(batch_tokens, batch_mask, rule_masks, counts, np.array([0, 1]), np.array([0, 0]))
        assert out["log_prob"].shape == (2,)
        assert out["entropy"].shape == (2,)
        assert out["value"].shape == (2,)

    def test_rollout_buffer_gae(self):
        buffer = RolloutBuffer(gamma=0.9, gae_lambda=0.9)
        env = _small_env(_TRAIN_EXPRS)
        obs = env.reset()
        for index in range(4):
            buffer.add(obs, (0, 0), -0.1, 0.0, reward=float(index), done=(index == 3))
        buffer.compute_advantages(last_value=0.0)
        assert len(buffer) == 4
        assert buffer.returns.shape == (4,)
        batches = list(buffer.minibatches(2, np.random.default_rng(0)))
        assert sum(batch["tokens"].shape[0] for batch in batches) == 4

    def test_ppo_training_runs_and_records_history(self, ruleset, small_policy_setup):
        tokenizer, config = small_policy_setup
        policy = HierarchicalActorCritic(ruleset.action_count, config)
        envs = [_small_env(_TRAIN_EXPRS, seed=i) for i in range(2)]
        trainer = PPOTrainer(policy, envs, PPOConfig.small(seed=0))
        history = trainer.train(total_timesteps=48)
        assert history.timesteps
        assert len(history.mean_episode_reward) == len(history.policy_loss)

    def test_agent_optimize_improves_cost_and_is_deterministic(self, small_policy_setup):
        tokenizer, config = small_policy_setup
        agent = ChehabAgent(policy_config=config, max_steps=8)
        agent.tokenizer = tokenizer
        expr = parse("(+ (+ (* a b) (* c d)) (+ (* e f) (* g h)))")
        first = agent.optimize(expr)
        second = agent.optimize(expr)
        assert first.final_cost <= first.initial_cost
        assert first.final_cost == second.final_cost
        assert first.optimized == second.optimized

    def test_agent_save_load_round_trip(self, tmp_path, small_policy_setup):
        tokenizer, config = small_policy_setup
        agent = ChehabAgent(policy_config=config, max_steps=8)
        agent.tokenizer = tokenizer
        agent.save(tmp_path / "agent")
        restored = ChehabAgent.load(tmp_path / "agent")
        expr = parse("(Vec (+ a b) (+ c d))")
        assert restored.optimize(expr).final_cost == agent.optimize(expr).final_cost


class TestAutoencoders:
    def test_autoencoders_train_and_reconstruct(self):
        expressions = [parse(t) for t in ("(+ a b)", "(* a b)", "(+ (* a b) c)", "(- a b)")]
        config = AutoencoderConfig(vocab_size=ICITokenizer().vocab_size, model_dim=16, latent_dim=16, num_layers=1, num_heads=2, max_tokens=24, seed=0)
        tokenizer = ICITokenizer(max_length=24)
        transformer = TransformerAutoencoder(config)
        history = train_autoencoder(transformer, expressions, tokenizer=tokenizer, epochs=3, batch_size=2)
        assert len(history["loss"]) == 3
        assert history["loss"][-1] <= history["loss"][0]
        gru = GRUAutoencoder(config)
        gru_history = train_autoencoder(gru, expressions, tokenizer=tokenizer, epochs=2, batch_size=2)
        assert len(gru_history["loss"]) == 2
