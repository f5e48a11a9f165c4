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

    def test_ppo_update_memory_is_bounded(self, ruleset, small_policy_setup):
        # One PPO update (64 rollout steps, 2 epochs of 16-row minibatches)
        # peaks near 13 MB of traced allocations with the cyclic collector
        # off.  Holding the rollout graphs (about 61 MB) or keeping interior
        # gradients through backward (about 25 MB) breaks the bound.
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
        assert peak < 20 * 2**20, f"one PPO update peaked at {peak / 2**20:.1f} MB"

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
