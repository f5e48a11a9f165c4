"""Fuzz test: the compiled plaintext check against the full-vector ``evaluate``.

:func:`repro.ir.plaintext.compile_check` (behind ``reference_output`` and
the server's per-circuit check) computes only the output slots, as scalar
ops mod ``t``.  :func:`repro.ir.evaluate.evaluate` is the specification.
Random trees over every IR node — shared subtrees, rotations that wrap
around or step by multiples of the slot count, vector-valued bindings,
negative and beyond-int64 inputs — must give the centred
``evaluate(...)[:arity] mod t`` exactly, and malformed cases must raise the
same :class:`EvaluationError`.
"""

from __future__ import annotations

import io
import random
import re
import tokenize

import numpy as np
import pytest

from repro.compiler.executor import reference_check, reference_output
from repro.fhe.params import BFVParameters
from repro.kernels import benchmark_suite
from repro.ir.analysis import variables
from repro.ir.evaluate import EvaluationError, evaluate, output_arity
from repro.ir.nodes import (
    Add,
    Const,
    Mul,
    Neg,
    Rotate,
    Sub,
    Var,
    Vec,
    VecAdd,
    VecMul,
    VecNeg,
    VecSub,
)
from repro.ir.parser import parse
from repro.ir.plaintext import compile_check
from repro.ir.printer import to_sexpr

T = BFVParameters.default().plain_modulus
SEED = 20261017
NAMES = ("a", "b", "c", "d", "e")
BINARY = (Add, Sub, Mul, VecAdd, VecSub, VecMul)


def centred(values, modulus=T):
    half = modulus // 2
    return [value - modulus if value > half else value for value in values]


def spec(expr, env, slot_count, modulus=T):
    """The reference semantics: full-vector evaluate, first arity slots."""
    length = output_arity(expr)
    slots = evaluate(expr, env, slot_count=max(slot_count, length), modulus=modulus)
    return centred(slots[:length], modulus)


def random_expr(rng: random.Random, depth: int, shared: list):
    """A random tree; ``shared`` collects subtrees that later draws reuse
    by identity (a DAG) or rebuild structurally (equal, distinct objects)."""
    roll = rng.random()
    if depth == 0 or roll < 0.15:
        if shared and rng.random() < 0.3:
            node = rng.choice(shared)
            return node if rng.random() < 0.5 else parse(to_sexpr(node))
        if rng.random() < 0.7:
            return Var(rng.choice(NAMES))
        return Const(rng.choice((-3, -1, 0, 1, 2, 5, 2**65)))
    kind = rng.random()
    if kind < 0.45:
        node = rng.choice(BINARY)(
            random_expr(rng, depth - 1, shared), random_expr(rng, depth - 1, shared)
        )
    elif kind < 0.55:
        node = rng.choice((Neg, VecNeg))(random_expr(rng, depth - 1, shared))
    elif kind < 0.75:
        step = rng.choice((1, 2, 3, -1, -5, 63, 64, 65, 128, 70, 7))
        node = Rotate(random_expr(rng, depth - 1, shared), step)
    else:
        width = rng.randint(1, 5)
        node = Vec(*[random_expr(rng, depth - 1, shared) for _ in range(width)])
    shared.append(node)
    return node


def random_env(rng: random.Random, names, slot_count: int):
    env = {}
    for name in names:
        roll = rng.random()
        if roll < 0.2:
            env[name] = rng.choice((2**70, -(2**70), 2**63, -(2**63) - 1))
        elif roll < 0.45:
            width = rng.randint(1, min(slot_count, 6))
            env[name] = [rng.randint(-9, 9) for _ in range(width)]
            if rng.random() < 0.2:
                env[name] = tuple(env[name])
        else:
            env[name] = rng.randint(-9, 9)
    return env


CHUNKS = 30
PER_CHUNK = 10


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_compiled_check_equals_evaluate(chunk):
    rng = random.Random(SEED + chunk)
    for _ in range(PER_CHUNK):
        expr = random_expr(rng, rng.randint(1, 5), [])
        slot_count = rng.choice((8, 16, 64, max(64, output_arity(expr) + 8)))
        check = compile_check(expr, modulus=T, slot_count=slot_count)
        for _ in range(4):
            env = random_env(rng, variables(expr), slot_count)
            expected = spec(expr, env, slot_count)
            assert check.run(env) == expected, to_sexpr(expr)
            assert reference_output(expr, env, slot_count=slot_count) == expected


def test_server_slot_count_and_small_modulus():
    rng = random.Random(SEED)
    for index in range(60):
        expr = random_expr(rng, 4, [])
        slot_count = max(64, output_arity(expr) + 8)
        env = random_env(rng, variables(expr), slot_count)
        for modulus in (T, 257, 2):
            check = compile_check(expr, modulus=modulus, slot_count=slot_count)
            assert check.run(env) == spec(expr, env, slot_count, modulus), index


def test_rotation_wraps_and_multiples_are_identity():
    vec = Vec(Var("a"), Var("b"), Var("c"))
    env = {"a": 1, "b": -2, "c": 3}
    for step in (0, 1, 2, -1, 16, 32, 17, -15):
        expr = Rotate(vec, step)
        assert reference_output(expr, env, slot_count=16) == spec(expr, env, 16)
    # A rotation by the slot count is the identity on every slot.
    assert reference_output(Rotate(vec, 16), env, slot_count=16) == [1, -2, 3]


def test_shared_subtrees_compile_to_shared_registers():
    inner = Mul(Add(Var("a"), Var("b")), Var("c"))
    twin = parse(to_sexpr(inner))  # equal, not identical
    expr = Vec(Add(inner, twin), Sub(inner, Neg(twin)))
    check = reference_check(expr)
    env = {"a": 4, "b": -1, "c": 2**70}
    assert check.run(env) == spec(expr, env, 64)
    # a+b, *c once, then the + and - of the two elements (0 - x is the neg).
    assert len(check._ops) == 5


def test_unneeded_slots_are_not_computed():
    # Slot 0 of the rotation reads Vec element 1; element 0's product and
    # everything past the Vec are never needed.
    expr = Rotate(Vec(Mul(Var("a"), Var("b")), Var("c")), 1)
    check = reference_check(expr, length=1)
    assert check._ops == []
    assert check.run({"a": 3, "b": 4, "c": 5}) == [5]


def _same_error(expr, env, slot_count):
    with pytest.raises(EvaluationError) as expected:
        spec(expr, env, slot_count)
    with pytest.raises(EvaluationError) as compiled:
        reference_output(expr, env, slot_count=slot_count)
    assert str(compiled.value) == str(expected.value)
    return str(expected.value)


def test_unbound_variable_raises_like_evaluate():
    assert "unbound variable 'b'" in _same_error(Add(Var("a"), Var("b")), {"a": 1}, 64)
    # Even when the variable only feeds a slot no output reads.
    expr = Rotate(Vec(Var("b"), Var("a")), 1)
    assert "unbound variable 'b'" in _same_error(expr, {"a": 1}, 64)


def test_wide_binding_raises_like_evaluate():
    message = _same_error(Add(Var("a"), Const(1)), {"a": list(range(9))}, 8)
    assert "vector value of length 9 exceeds 8 slots" in message


def test_wide_vec_raises_like_evaluate():
    wide = Vec(*[Const(index) for index in range(70)])
    message = _same_error(Add(wide, Var("a")), {"a": 1}, 64)
    assert "Vec of 70 elements exceeds 64 slots" in message
    # A top-level Vec widens the slot count to its arity instead.
    assert reference_output(wide, {}, slot_count=64) == list(range(70))


def test_first_error_in_evaluation_order_wins():
    wide = Vec(*[Const(0) for _ in range(70)])
    assert "unbound" in _same_error(Add(Var("x"), wide), {}, 64)
    assert "Vec of 70" in _same_error(Add(wide, Var("x")), {}, 64)
    assert "vector value" in _same_error(
        Add(Var("v"), Var("x")), {"v": list(range(65))}, 64
    )
    assert "unbound" in _same_error(
        Add(Var("x"), Var("v")), {"v": list(range(65))}, 64
    )


def test_check_is_reusable_across_input_sets():
    expr = parse("(Vec (+ (* a b) c) (- a (<< (Vec c d) 1)))")
    check = reference_check(expr, slot_count=16)
    rng = random.Random(SEED)
    for _ in range(20):
        env = {name: rng.randint(-(2**40), 2**40) for name in "abcd"}
        assert check.run(env) == spec(expr, env, 16)


# -- the generated function -------------------------------------------------


def _full_spec(expr, env, slot_count=64):
    """``spec`` with the slot count the server uses for ``expr``."""
    return spec(expr, env, max(slot_count, output_arity(expr) + 8))


#: Every word the generated source may hold besides ``r<register>``.
SOURCE_WORDS = {
    "def", "run", "inputs", "try", "values", "get", "except", "KeyError",
    "None", "if", "is", "not", "and", "ints", "map", "type", "else", "bind",
    "return", "_",
}


def assert_source_is_closed(source):
    """Only fixed words, registers, integers and operators: no strings."""
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        assert token.type != tokenize.STRING, token
        if token.type == tokenize.NAME:
            assert token.string in SOURCE_WORDS or re.fullmatch(r"r\d+", token.string), token


@pytest.mark.parametrize("name", ['a"]', "__import__('os').getcwd()", "x\\", "r1", "values"])
def test_hostile_variable_names_bind_like_evaluate(name):
    # Names reach the generated function only through its itemgetter.
    expr = Vec(Mul(Var(name), Var("r0")), Add(Var(name), Const(3)), Var(name))
    check = reference_check(expr)
    assert_source_is_closed(check._source)
    for env in ({name: 5, "r0": -7}, {name: [2, 3], "r0": 4}, {name: True, "r0": 2**70}):
        assert check.run(env) == _full_spec(expr, env)
    assert "unbound variable" in _same_error(expr, {"r0": 1}, 64)
    # The parser takes any token without spaces or parentheses as a name.
    if "(" not in name:
        parsed = parse(f"(+ (* {name} b) {name})")
        env = {name: 6, "b": -2}
        check = reference_check(parsed)
        assert_source_is_closed(check._source)
        assert check.run(env) == _full_spec(parsed, env)


def test_one_check_serves_fast_and_slow_bindings():
    expr = parse("(Vec (+ (* a b) c) (- a (<< (Vec c d) 1)) (* d d))")
    check = reference_check(expr, slot_count=16)
    batch = [
        {"a": 3, "b": -4, "c": 5, "d": 2**70},  # plain ints: fast path
        {"a": [1, 2, 3], "b": 2, "c": (4, 5), "d": 6},  # vectors
        {"a": True, "b": False, "c": 7, "d": 8},  # bool is not int here
        {"a": np.int64(9), "b": 2, "c": np.int64(-3), "d": 1},  # NumPy ints
        {"a": 1, "b": 2, "c": 3, "d": 4, "unused": [1, 2]},  # extra names ignored
    ]
    for env in batch:
        assert check.run(env) == spec(expr, env, 16), env
    for env in ({"a": 1, "b": 2, "c": 3}, {"a": 1, "b": 2, "d": 3}):
        with pytest.raises(EvaluationError) as compiled:
            check.run(env)
        with pytest.raises(EvaluationError) as expected:
            spec(expr, env, 16)
        assert str(compiled.value) == str(expected.value)
    # The check carries no state from one input set to the next.
    assert check.run(batch[0]) == spec(expr, batch[0], 16)


def test_deep_golden_trees_equal_evaluate():
    shallow = {benchmark.name for benchmark in benchmark_suite(include_deep_trees=False)}
    deep = [b for b in benchmark_suite(include_deep_trees=True) if b.name not in shallow]
    assert len(deep) == 3
    rng = random.Random(SEED)
    for benchmark in deep:
        expr = benchmark.expression()
        check = reference_check(expr, slot_count=max(64, output_arity(expr) + 8))
        assert_source_is_closed(check._source)
        for seed in range(3):
            env = benchmark.sample_inputs(seed=seed)
            assert check.run(env) == _full_spec(expr, env), benchmark.name
        env = {name: rng.randint(-(2**40), 2**40) for name in variables(expr)}
        assert check.run(env) == _full_spec(expr, env), benchmark.name


def test_constant_outputs_and_variable_free_checks():
    # Every output folds to a constant, though the variable is still bound.
    expr = Vec(Mul(Var("a"), Const(0)), Const(T - 1), Sub(Const(2), Const(9)))
    check = reference_check(expr)
    assert check._ops == []
    assert check.run({"a": 4}) == _full_spec(expr, {"a": 4}) == [0, -1, -7]
    assert "unbound variable 'a'" in _same_error(expr, {}, 64)
    # No variables at all: any mapping works and nothing is read from it.
    constant = parse("(Vec (* 3 4) (- 0 5) (<< (Vec 1 2) 1))")
    check = reference_check(constant)
    assert check.run({}) == check.run({"a": [1]}) == _full_spec(constant, {}) == [12, -5, 2]
    assert reference_output(Const(2**65), {}) == _full_spec(Const(2**65), {})
