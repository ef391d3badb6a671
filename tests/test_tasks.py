"""Task generator tests: structure, target oracles, baselines, determinism."""

import json

import numpy as np
import pytest

from ncgru.errors import ContractError
from ncgru.tasks import (
    TaskBatch,
    adding_baseline_mse,
    copying_baseline_xent,
    dump_jsonl,
    gen_adding,
    gen_copying,
    gen_denoise,
    gen_parenthesis,
    make_batch,
    memoryless_copying_xent,
    task_dims,
)


def test_adding_structure():
    batch = gen_adding(T=20, batch=16, seed=0)
    assert batch.inputs.shape == (16, 20, 2)
    assert batch.targets.shape == (16,)
    assert batch.loss_kind == "mse"
    markers = batch.inputs[:, :, 0]
    values = batch.inputs[:, :, 1]
    assert np.all(np.sum(markers, axis=1) == 2.0)
    # One marker in each half of the sequence.
    assert np.all(np.sum(markers[:, :10], axis=1) == 1.0)
    assert np.all(np.sum(markers[:, 10:], axis=1) == 1.0)
    assert np.all(values >= 0.0) and np.all(values < 1.0)


def test_adding_targets_are_marked_sums():
    batch = gen_adding(T=30, batch=8, seed=1)
    for i in range(8):
        idx = np.flatnonzero(batch.inputs[i, :, 0])
        want = batch.inputs[i, idx, 1].sum()
        assert abs(batch.targets[i] - want) < 1e-15


def test_adding_baseline_monte_carlo():
    # Constant predictor 1.0 scores the target variance, 1/6.
    assert adding_baseline_mse() == pytest.approx(1.0 / 6.0)
    batch = gen_adding(T=10, batch=20000, seed=2)
    mse = float(np.mean((batch.targets - 1.0) ** 2))
    assert abs(mse - 1.0 / 6.0) < 0.01


def test_adding_validation():
    with pytest.raises(ContractError):
        gen_adding(T=1, batch=4, seed=0)
    with pytest.raises(ContractError):
        gen_adding(T=10, batch=0, seed=0)


def test_copying_structure():
    T = 50
    batch = gen_copying(T=T, batch=12, seed=3)
    assert batch.inputs.shape == (12, T + 20, 10)
    assert batch.targets.shape == (12, T + 20)
    assert np.all((batch.targets >= 0) & (batch.targets < task_dims("copying")[1]))
    # One-hot rows.
    assert np.all(np.sum(batch.inputs, axis=2) == 1.0)
    stream = np.argmax(batch.inputs, axis=2)
    assert np.all((stream[:, :10] >= 1) & (stream[:, :10] <= 8))
    assert np.all(stream[:, 10 : T + 10] == 0)
    assert np.all(stream[:, T + 10] == 9)
    assert np.all(stream[:, T + 11 :] == 0)
    # Targets blank until the marker, then replay the ten digits.
    assert np.all(batch.targets[:, : T + 10] == 0)
    assert np.array_equal(batch.targets[:, T + 10 :], stream[:, :10])


def test_copying_baseline_formula():
    want = 10.0 * np.log(8.0) / 120.0
    assert copying_baseline_xent(100) == pytest.approx(want, rel=1e-12)
    # T=1000 reproduces the familiar 2.039e-2 plateau value.
    assert abs(copying_baseline_xent(1000) - 2.039e-2) < 1e-4


def test_memoryless_strategy_matches_formula():
    for T in (30, 100):
        batch = gen_copying(T=T, batch=200, seed=4)
        got = memoryless_copying_xent(batch)
        want = copying_baseline_xent(T)
        assert abs(got - want) / want < 0.01


def test_memoryless_rejects_other_tasks():
    batch = gen_adding(T=10, batch=2, seed=0)
    with pytest.raises(ContractError):
        memoryless_copying_xent(batch)


def test_parenthesis_structure_and_oracle():
    batch = gen_parenthesis(T=40, batch=10, seed=5)
    assert batch.inputs.shape == (10, 40, 21)
    assert batch.targets.shape == (10, 40)
    assert np.all((batch.targets >= 0) & (batch.targets < task_dims("parenthesis")[1]))
    assert np.all(np.sum(batch.inputs, axis=2) == 1.0)
    symbols = np.argmax(batch.inputs, axis=2)
    # Independent stack simulation per sample.
    for b in range(10):
        depth = 0
        per_type = np.zeros(10, dtype=int)
        for t in range(40):
            s = int(symbols[b, t])
            if s < 20:
                k, closing = divmod(s, 2)
                if closing:
                    # The generator only closes types that are open.
                    assert per_type[k] > 0
                    per_type[k] -= 1
                    depth -= 1
                else:
                    per_type[k] += 1
                    depth += 1
            assert batch.targets[b, t] == min(depth, 10)


def test_parenthesis_targets_cap_at_ten():
    # long streams open more than 10 brackets at once; the class stays 10
    batch = gen_parenthesis(T=400, batch=4, seed=3)
    symbols = np.argmax(batch.inputs, axis=2)
    is_bracket = symbols < 20
    depth = np.cumsum(is_bracket * np.where(symbols % 2 == 0, 1, -1), axis=1)
    assert np.any(depth > 10)
    assert np.array_equal(batch.targets, np.minimum(depth, 10))


def test_parenthesis_noise_only_targets_zero():
    # a stream that has only seen noise has nothing open
    batch = gen_parenthesis(T=6, batch=64, seed=0)
    quiet = np.cumsum(np.argmax(batch.inputs, axis=2) != 20, axis=1) == 0
    assert quiet[:, -1].any()   # some streams are noise throughout
    assert np.all(batch.targets[quiet] == 0)


def test_denoise_structure_and_oracle():
    T = 25
    alphabet = 10
    batch = gen_denoise(T=T, batch=8, seed=8)
    assert batch.inputs.shape == (8, T + 10, alphabet + 2)
    assert task_dims("denoise") == (alphabet + 2, alphabet + 1)
    stream = np.argmax(batch.inputs, axis=2)
    noise, marker = alphabet, alphabet + 1
    assert np.all(stream[:, T] == marker)
    assert np.all(stream[:, T + 1 :] == noise)
    for b in range(8):
        data_pos = np.flatnonzero(stream[b, :T] != noise)
        assert data_pos.size == 10
        data = stream[b, data_pos]
        assert np.all(data < alphabet)
        # Replay = the data subsequence in arrival order.
        assert np.array_equal(batch.targets[b, T:], data)
        assert np.all(batch.targets[b, :T] == alphabet)


def test_denoise_validation():
    with pytest.raises(ContractError):
        gen_denoise(T=10, batch=2, seed=0)


def test_generators_deterministic():
    for task in ("adding", "copying", "parenthesis", "denoise"):
        a = make_batch(task, T=15, batch=5, seed=42)
        b = make_batch(task, T=15, batch=5, seed=42)
        assert np.array_equal(a.inputs, b.inputs), task
        assert np.array_equal(a.targets, b.targets), task
        c = make_batch(task, T=15, batch=5, seed=43)
        assert not np.array_equal(a.inputs, c.inputs), task


def test_make_batch_dispatch_and_unknown():
    batch = make_batch("parenthesis", T=12, batch=3, seed=0)
    assert batch.task == "parenthesis"
    assert np.array_equal(batch.inputs, gen_parenthesis(T=12, batch=3, seed=0).inputs)
    with pytest.raises(TypeError):   # a task has no options
        make_batch("parenthesis", T=12, batch=3, seed=0, n_pairs=2)
    with pytest.raises(ContractError):
        make_batch("sorting", T=10, batch=2, seed=0)


def test_task_dims():
    assert task_dims("adding") == (2, 1)
    assert task_dims("copying") == (10, 9)
    assert task_dims("parenthesis") == (21, 11)
    assert task_dims("denoise") == (12, 11)
    with pytest.raises(ContractError):
        task_dims("sorting")


def test_step_inputs_layout():
    batch = gen_adding(T=7, batch=4, seed=9)
    steps = batch.step_inputs()
    assert len(steps) == 7
    for t, s in enumerate(steps):
        assert s.shape == (2, 4)
        assert np.array_equal(s, batch.inputs[:, t, :].T)


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "adding.jsonl"
    batch = gen_adding(T=6, batch=3, seed=10)
    n = dump_jsonl(batch, path)
    assert n == 3
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == 3
    for i, rec in enumerate(records):
        assert rec["task"] == "adding"
        assert rec["T"] == 6
        assert rec["seed"] == 10
        assert np.array_equal(np.array(rec["input"]), batch.inputs[i])
        assert rec["target"] == [batch.targets[i]]

    path2 = tmp_path / "copying.jsonl"
    cb = gen_copying(T=5, batch=2, seed=11)
    dump_jsonl(cb, path2)
    recs = [json.loads(line) for line in path2.read_text().splitlines()]
    for i, rec in enumerate(recs):
        assert rec["target"] == [int(v) for v in cb.targets[i]]
        assert np.array_equal(np.array(rec["input"]), cb.inputs[i])
