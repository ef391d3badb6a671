"""Training harness tests: config validation, run artifacts, checkpoints,
ablations, gradient checks, and the CLI entry point."""

import copy
import dataclasses
import itertools
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ncgru import harness, orthocore
from ncgru.cells import sequence_bptt, sequence_states, step_store
from ncgru.cli import main
from ncgru.codec import encode
from ncgru.errors import ConfigError, ContractError, ShapeError
from ncgru.harness import (
    ExperimentConfig,
    LinearReadoutMse,
    METRICS_HEADER,
    ORTHO_HEADER,
    SoftmaxReadoutXent,
    build_model,
    load_checkpoint,
    read_metrics_csv,
    run_ablation,
    run_gradcheck,
    run_training,
    save_checkpoint,
    train_steps,
)
from ncgru.orthocore import SkewOrthogonal
from ncgru.tasks import make_batch


BASE_CFG = {
    "task": {"name": "adding", "T": 5},
    "model": {"variant": "NC-GRU", "hidden": 8},
    "optimizer": {"kind": "adam", "lr": 1e-3},
    "train": {"iterations": 4, "batch_size": 6, "seed": 0, "eval_every": 2},
}


def make_cfg(**edits):
    blob = copy.deepcopy(BASE_CFG)
    for dotted, value in edits.items():
        section, key = dotted.split(".")
        if value is _DROP:
            blob[section].pop(key, None)
        else:
            blob[section][key] = value
    return blob


_DROP = object()


def test_config_minimal_valid():
    cfg = ExperimentConfig.from_dict(copy.deepcopy(BASE_CFG))
    assert cfg.task.name == "adding"
    assert cfg.model.variant == "ncgru"
    assert cfg.model.ortho_set == ("u_r", "u_c")
    assert cfg.optimizer.lr_a is None
    assert cfg.train.eval_every == 2


def test_config_variant_aliases():
    for alias in ("GRU", "gru"):
        cfg = ExperimentConfig.from_dict(make_cfg(**{"model.variant": alias}))
        assert cfg.model.variant == "gru"
        assert cfg.model.ortho_set == ()
    for alias in ("NC-GRU", "nc-gru", "ncgru", "NCGRU"):
        cfg = ExperimentConfig.from_dict(make_cfg(**{"model.variant": alias}))
        assert cfg.model.variant == "ncgru"


def test_config_unknown_keys_rejected_everywhere():
    blob = copy.deepcopy(BASE_CFG)
    blob["mystery"] = 1
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(blob)
    for section in ("task", "model", "optimizer", "train"):
        blob = copy.deepcopy(BASE_CFG)
        blob[section]["mystery"] = 1
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(blob)


def test_config_missing_sections_rejected():
    for section in ("task", "model", "optimizer", "train"):
        blob = copy.deepcopy(BASE_CFG)
        del blob[section]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(blob)


def test_config_gru_with_ortho_set_rejected():
    blob = make_cfg(**{"model.variant": "GRU", "model.ortho_set": ["u_c"]})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(blob)


def test_config_ortho_set_normalized():
    blob = make_cfg(**{"model.ortho_set": ["U_c", "u_r"]})
    cfg = ExperimentConfig.from_dict(blob)
    # Canonical ordering regardless of input order or case.
    assert cfg.model.ortho_set == ("u_r", "u_c")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(make_cfg(**{"model.ortho_set": ["u_q"]}))


@pytest.mark.parametrize("key,value", [("alphabet_n", 10), ("n_pairs", 10),
                                       ("final_only", False)],
                         ids=["alphabet_n", "n_pairs", "final_only"])
def test_config_rejects_task_options(tmp_path, key, value):
    # a task is its name and T; the sizes these keys once set are fixed
    for name in ("adding", "copying", "parenthesis", "denoise"):
        blob = make_cfg(**{"task.name": name, "task.T": 20, f"task.{key}": value})
        with pytest.raises(ConfigError, match=f"unknown key.*{key}"):
            ExperimentConfig.from_dict(blob)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(blob))
        assert main(["train", "--config", str(path)]) == 2


def test_config_value_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(make_cfg(**{"task.name": "sorting"}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(make_cfg(**{"task.T": 1}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(make_cfg(**{"model.hidden": 1}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(make_cfg(**{"model.neumann_order": 4}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(make_cfg(**{"optimizer.kind": "adagrad"}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(make_cfg(**{"optimizer.lr": 0.0}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(make_cfg(**{"train.iterations": -1}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(make_cfg(**{"train.batch_size": 0}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(make_cfg(**{"model.num_neg": 9}))


@pytest.mark.parametrize("edit", [
    {"model.exact_inverse_mode": "false"},
    {"task.T": "abc"},
    {"task.T": [5]},
    {"train.seed": 1.5},
    {"train.seed": -3},
    {"train.iterations": True},
    {"optimizer.lr": float("nan")},
    {"optimizer.lr": 10**400},
])
def test_config_rejects_wrong_json_type_or_range(edit):
    # bool("false") is True, so a cast would silently run the exact arm
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(make_cfg(**edit))


def test_configs_built_by_replace_are_checked():
    cfg = ExperimentConfig.from_dict(copy.deepcopy(BASE_CFG))
    with pytest.raises(ConfigError):
        run_training(cfg, seed=-1)
    with pytest.raises(ConfigError):
        dataclasses.replace(cfg.model, exact_inverse_mode="false")
    with pytest.raises(ConfigError):
        dataclasses.replace(cfg.optimizer, lr=float("inf"))


_ROOT = Path(__file__).resolve().parents[1]
_SHIPPED = sorted([*_ROOT.glob("configs/*.json"), *_ROOT.glob("trainbench/ortho_wide*.json")])


def test_shipped_configs_load_and_round_trip():
    # config.json and the config inside checkpoints are cfg.to_dict(); reading
    # it back must give the same config.
    assert len(_SHIPPED) == 9
    for path in _SHIPPED:
        cfg = ExperimentConfig.load(path)
        assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg, path


def test_config_load_and_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE_CFG))
    cfg = ExperimentConfig.load(path)
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        ExperimentConfig.load(bad)


def test_run_zero_iterations(tmp_path):
    cfg = ExperimentConfig.from_dict(make_cfg(**{"train.iterations": 0}))
    run = run_training(cfg, out_dir=str(tmp_path / "out"))
    assert run.status == "completed"
    assert run.metrics == []
    assert run.final_eval is None
    text = (tmp_path / "out" / "metrics.csv").read_text()
    assert text == METRICS_HEADER + "\n"
    ck = load_checkpoint(tmp_path / "out" / "checkpoint.json")
    assert ck.step == 0


def test_run_metrics_format(tmp_path):
    cfg = ExperimentConfig.from_dict(copy.deepcopy(BASE_CFG))
    run = run_training(cfg, out_dir=str(tmp_path / "out"))
    assert run.status == "completed"
    lines = (tmp_path / "out" / "metrics.csv").read_text().strip().split("\n")
    assert lines[0] == METRICS_HEADER
    assert len(lines) == 5
    rows = read_metrics_csv(tmp_path / "out" / "metrics.csv")
    steps = [r.step for r in rows]
    assert steps == [1, 2, 3, 4]
    # eval_every=2 fills steps 2 and 4, leaves 1 and 3 blank.
    assert rows[0].eval_loss is None
    assert rows[1].eval_loss is not None
    assert rows[2].eval_loss is None
    assert rows[3].eval_loss is not None
    assert run.final_eval == rows[3].eval_loss
    # wall clock lives in the sidecar, the metrics column is pinned to 0.
    assert all(r.wall_ms == 0 for r in rows)
    timing = (tmp_path / "out" / "timing.csv").read_text().strip().split("\n")
    assert timing[0] == "step,wall_ms"
    assert len(timing) == 5


@pytest.mark.parametrize("row", ["x,1,,0,0,0", "1,1,,0,0,0.5", "1,nan,oops,0,0,0",
                                 "1,1,,0,0", "1,1,,0,0,0,7", ""])
def test_read_metrics_csv_rejects_malformed_rows(tmp_path, row):
    path = tmp_path / "metrics.csv"
    path.write_text(f"{METRICS_HEADER}\n1,0.5,,0.0,0.0,0\n{row}\n")
    with pytest.raises(ContractError, match="malformed metrics row"):
        read_metrics_csv(path)


def test_run_final_iteration_always_evaluated():
    cfg = ExperimentConfig.from_dict(
        make_cfg(**{"train.iterations": 7, "train.eval_every": 3}))
    run = run_training(cfg)
    evals = [r.step for r in run.metrics if r.eval_loss is not None]
    assert evals == [3, 6, 7]


def test_run_byte_determinism(tmp_path):
    cfg = ExperimentConfig.from_dict(copy.deepcopy(BASE_CFG))
    run_training(cfg, out_dir=str(tmp_path / "a"))
    run_training(cfg, out_dir=str(tmp_path / "b"))
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert a == b


# each task's shortest T
_MIN_T = {"adding": 2, "copying": 1, "parenthesis": 1, "denoise": 11}


@pytest.mark.parametrize("task", sorted(_MIN_T))
@pytest.mark.parametrize("model", [
    {"variant": "GRU"},
    *({"variant": "NC-GRU", "ortho_set": ["U_r", "U_u", "U_c"], "num_neg": k} for k in (0, 1, 2)),
], ids=["gru", "ncgru_neg0", "ncgru_neg1", "ncgru_neg2"])
def test_smallest_models_complete_and_rerun_byte_identical(tmp_path, task, model):
    """hidden 2 at each task's shortest T completes, and a rerun writes the
    same metrics.csv, orthogonal.csv and checkpoint.json."""
    cfg = ExperimentConfig.from_dict({
        "task": {"name": task, "T": _MIN_T[task]},
        "model": {**model, "hidden": 2},
        "optimizer": {"kind": "adam", "lr": 1e-3},
        "train": {"iterations": 5, "batch_size": 3, "seed": 0, "eval_every": 2}})
    for out in ("a", "b"):
        assert run_training(cfg, out_dir=str(tmp_path / out)).status == "completed"
    for name in ("metrics.csv", "orthogonal.csv", "checkpoint.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_run_seed_override_changes_results():
    cfg = ExperimentConfig.from_dict(copy.deepcopy(BASE_CFG))
    r0 = run_training(cfg)
    r1 = run_training(cfg, seed=1)
    assert r0.metrics[0].train_loss != r1.metrics[0].train_loss
    r0b = run_training(cfg)
    assert r0.metrics[-1].train_loss == r0b.metrics[-1].train_loss


def test_run_contraction_column_populated_every_ortho_step():
    cfg = ExperimentConfig.from_dict(copy.deepcopy(BASE_CFG))
    run = run_training(cfg)
    for row in run.metrics:
        assert row.contraction_norm > 0.0
    gru = ExperimentConfig.from_dict(make_cfg(**{"model.variant": "GRU"}))
    run2 = run_training(gru)
    for row in run2.metrics:
        assert row.contraction_norm == 0.0
        assert row.drift == 0.0


def test_exact_arm_reports_contraction_only_at_eval_iterations(tmp_path):
    """The exact arm forms E only on sampled (eval) steps: metrics.csv
    reads contraction 0.0 on the other rows, and max_contraction covers
    the eval rows alone."""
    cfg = ExperimentConfig.from_dict(make_cfg(**{"train.iterations": 5,
                                                 "model.exact_inverse_mode": True}))
    run = run_training(cfg, out_dir=str(tmp_path))
    rows = read_metrics_csv(tmp_path / "metrics.csv")
    assert [r.eval_loss is not None for r in rows] == [False, True, False, True, True]
    for row in rows:
        assert (row.contraction_norm > 0.0) == (row.eval_loss is not None)
    assert run.max_contraction == max(r.contraction_norm for r in rows) > 0.0


def _ortho_rows(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0] == ORTHO_HEADER
    rows = []
    for line in lines[1:]:
        step, weight, contraction, spectral, drift = line.split(",")
        rows.append((int(step), weight, float(contraction), float(spectral), float(drift)))
    return rows


THREE_ORTHO = {"model.ortho_set": ["U_r", "U_u", "U_c"]}
# diverges: iteration 2 needs an exact inverse of an I + A too
# ill-conditioned to invert
SGD_1E8 = {"optimizer.kind": "sgd", "optimizer.lr": 1e8}


def test_orthogonal_csv_samples_eval_iterations(tmp_path):
    cfg = ExperimentConfig.from_dict(make_cfg(**THREE_ORTHO, **{"train.iterations": 7,
                                                               "train.eval_every": 3}))
    run = run_training(cfg, out_dir=str(tmp_path))
    rows = _ortho_rows(tmp_path / "orthogonal.csv")
    assert [(r[0], r[1]) for r in rows] == [(k, name) for k in (3, 6, 7)
                                            for name in ("u_r", "u_u", "u_c")]
    for _, _, contraction, spectral, _ in rows:
        assert 0.0 < spectral <= contraction < 1.0
    drift_at = {r.step: r.drift for r in run.metrics}
    for k in (3, 6, 7):
        assert max(r[4] for r in rows if r[0] == k) == drift_at[k]


def test_orthogonal_csv_header_only_without_orthogonal_weights(tmp_path):
    cfg = ExperimentConfig.from_dict(make_cfg(**{"model.variant": "GRU"}))
    run_training(cfg, out_dir=str(tmp_path))
    assert (tmp_path / "orthogonal.csv").read_text() == ORTHO_HEADER + "\n"


def test_numeric_abort_writes_no_orthogonal_row(tmp_path):
    # At SGD lr 1e8 iteration 2 aborts in the step of u_c, after u_r and
    # u_u were already stepped and sampled.
    cfg = ExperimentConfig.from_dict(make_cfg(**THREE_ORTHO, **SGD_1E8,
                                              **{"train.eval_every": 1}))
    run = run_training(cfg, out_dir=str(tmp_path))
    assert run.status == "numeric_error"
    assert len(run.metrics) == 2
    rows = _ortho_rows(tmp_path / "orthogonal.csv")
    assert [(r[0], r[1]) for r in rows] == [(1, "u_r"), (1, "u_u"), (1, "u_c")]


def test_exact_spectral_norm_runs_only_at_eval_iterations(monkeypatch):
    calls = []
    exact = orthocore.spectral_norm

    def counted(m):
        calls.append(m.shape)
        return exact(m)

    monkeypatch.setattr(orthocore, "spectral_norm", counted)
    for mode in (False, True):
        calls.clear()
        cfg = ExperimentConfig.from_dict(make_cfg(**THREE_ORTHO, **{
            "train.iterations": 10, "train.eval_every": 5, "model.exact_inverse_mode": mode}))
        assert run_training(cfg).status == "completed"
        assert len(calls) == 6


def test_timing_csv_has_a_row_for_every_metrics_row(tmp_path):
    # iteration 2 aborts; its metrics row has a timing row too
    cfg = ExperimentConfig.from_dict(make_cfg(**THREE_ORTHO, **SGD_1E8))
    assert run_training(cfg, out_dir=str(tmp_path)).status == "numeric_error"
    steps = [row.step for row in read_metrics_csv(tmp_path / "metrics.csv")]
    timing = (tmp_path / "timing.csv").read_text().splitlines()
    assert steps == [1, 2]
    assert timing[0] == "step,wall_ms"
    assert [int(line.split(",")[0]) for line in timing[1:]] == steps


def test_run_numeric_error_aborts_with_structured_row():
    cfg = ExperimentConfig.from_dict(make_cfg(**SGD_1E8))
    run = run_training(cfg)
    assert run.status == "numeric_error"
    last = run.metrics[-1]
    assert np.isnan(last.train_loss)
    assert last.step <= cfg.train.iterations


def test_numeric_abort_writes_no_checkpoint(tmp_path, capsys):
    # The abort strikes inside an iteration after some weights were already
    # updated, so no checkpoint may be written; one left by an earlier run in
    # the same directory would not match the new metrics.csv either.
    out = tmp_path / "out"
    run_training(ExperimentConfig.from_dict(copy.deepcopy(BASE_CFG)), out_dir=str(out))
    assert (out / "checkpoint.json").exists()
    blob = make_cfg(**SGD_1E8)
    run = run_training(ExperimentConfig.from_dict(blob), out_dir=str(out))
    assert run.status == "numeric_error"
    assert run.checkpoint_path is None
    assert not (out / "checkpoint.json").exists()
    rows = read_metrics_csv(out / "metrics.csv")
    assert np.isnan(rows[-1].train_loss)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(blob))
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
    printed = capsys.readouterr().out
    assert "metrics:" in printed
    assert "checkpoint:" not in printed
    assert not (out / "checkpoint.json").exists()


def test_non_finite_eval_loss_aborts(tmp_path, capsys):
    # At lr 1e100 the training loss of iteration 1 is still finite, but the
    # update it applies makes the eval after it overflow.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_cfg(**{"optimizer.lr": 1e100,
                                               "train.iterations": 1})))
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().out.startswith("status=numeric_error ")
    rows = read_metrics_csv(out / "metrics.csv")
    assert len(rows) == 1 and np.isnan(rows[0].train_loss)
    assert not (out / "checkpoint.json").exists()


@pytest.mark.parametrize("lr", [1e3, 1e8])
def test_uncertified_neumann_step_reinverts(lr):
    # Adam's first step at this lr puts ||E||_2 far past 1 on every weight;
    # each re-inverts instead of applying the diverging series.
    cfg = ExperimentConfig.from_dict(make_cfg(**THREE_ORTHO, **{"optimizer.lr": lr}))
    first = run_training(cfg).metrics[0]
    assert first.contraction_norm >= 1.0
    assert first.drift < 1e-10 * 8


def test_cli_singular_inverse_is_a_numeric_abort(tmp_path, capsys):
    # SGD at lr 1e6 drives I + A past what exact_inverse can invert.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_cfg(**THREE_ORTHO, **{
        "model.hidden": 7, "model.num_neg": 1, "model.exact_inverse_mode": True,
        "optimizer.kind": "sgd", "optimizer.lr": 1e6})))
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().out.startswith("status=numeric_error ")
    rows = read_metrics_csv(out / "metrics.csv")
    assert np.isnan(rows[-1].train_loss)
    assert not (out / "checkpoint.json").exists()


def _bits(arr):
    return np.ascontiguousarray(arr).tobytes()


@pytest.mark.parametrize("edits", [
    {"model.variant": "GRU"},
    {},
    {"model.exact_inverse_mode": True},
], ids=["gru", "ncgru", "exact"])
def test_checkpoint_round_trip_bit_exact(tmp_path, monkeypatch, edits):
    saved = {}

    def keep_params(path, state):
        saved.update(state.params.named_arrays())
        return save_checkpoint(path, state)

    monkeypatch.setattr(harness, "save_checkpoint", keep_params)
    cfg = ExperimentConfig.from_dict(make_cfg(**edits))
    run = run_training(cfg, out_dir=str(tmp_path / "out"))
    path = tmp_path / "out" / "checkpoint.json"
    ck = load_checkpoint(path)
    assert ck.step == 4
    assert ck.config == run.config
    assert set(ck.opt_a._m) == set(ck.skews)   # none on GRU
    # every weight, u_r, u_u and u_c included, is the run's bit for bit
    assert {name: _bits(arr) for name, arr in ck.params.named_arrays()} == \
        {name: _bits(arr) for name, arr in saved.items()}
    # Save the loaded state and compare bytes: the arrays' bytes are stored.
    again = tmp_path / "again.json"
    save_checkpoint(again, ck)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("edits, k", [
    ({"model.reset_every": 3, "train.iterations": 5}, 2),   # resets at step 3, after the load
    ({"model.exact_inverse_mode": True}, 2),
    ({"model.variant": "GRU"}, 3),
], ids=["neumann_reset", "exact", "gru"])
def test_continuing_a_checkpoint_is_bit_exact(tmp_path, edits, k):
    """k iterations of train_steps, a save and a load, then the rest: the
    metric rows, the orthogonal.csv rows and the final checkpoint are
    those of the uninterrupted run."""
    cfg = ExperimentConfig.from_dict(make_cfg(**edits))
    whole = run_training(cfg, out_dir=str(tmp_path / "whole"))
    state = build_model(cfg)
    steps = list(itertools.islice(train_steps(state), k))
    assert state.step == k
    path = tmp_path / "part.json"
    save_checkpoint(path, state)
    state = load_checkpoint(path)
    steps += train_steps(state)
    assert [row for row, _ in steps] == whole.metrics
    ortho = (tmp_path / "whole" / "orthogonal.csv").read_text().splitlines()[1:]
    assert [line for _, sampled in steps for line in sampled] == ortho
    save_checkpoint(path, state)
    assert path.read_bytes() == (tmp_path / "whole" / "checkpoint.json").read_bytes()


def test_config_output_key_rejected(tmp_path):
    """--out is the one place a run's directory is named: a config naming
    one is an unknown key, exit 2, and nothing is written. config.json
    reruns to the same artifacts wherever it is sent."""
    blob = make_cfg()
    blob["output"] = str(tmp_path / "a")
    with pytest.raises(ConfigError, match="unknown key.*output"):
        ExperimentConfig.from_dict(blob)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(blob))
    b, c = tmp_path / "b", tmp_path / "c"
    assert main(["train", "--config", str(cfg_path), "--out", str(b)]) == 2
    assert main(["ablate", "--mode", "neumann-vs-inverse", "--config", str(cfg_path)]) == 2
    assert not (tmp_path / "a").exists() and not b.exists()
    del blob["output"]
    cfg_path.write_text(json.dumps(blob))
    assert main(["train", "--config", str(cfg_path), "--out", str(b)]) == 0
    assert main(["train", "--config", str(b / "config.json"), "--out", str(c)]) == 0
    for name in ("config.json", "checkpoint.json"):
        assert (b / name).read_bytes() == (c / name).read_bytes()


def _parent_layout(blob):
    """blob with copies of the settings in its skew and optimizer states,
    each set against BASE_CFG's, which a load does not read."""
    old = copy.deepcopy(blob)
    for skew in old["skews"].values():
        skew.update(d=encode(np.ones(8)), neumann_order=3, reset_every=7, step=99)
    for key in ("optimizer", "optimizer_A"):
        old[key].update(kind="sgd", lr=5.0, beta1=0.5, beta2=0.5, decay=0.5, eps=1.0)
    return old


def test_checkpoint_in_the_parent_layout_loads_to_the_config(tmp_path):
    cfg = ExperimentConfig.from_dict(make_cfg(**{"model.reset_every": 3}))
    run_training(cfg, out_dir=str(tmp_path / "out"))
    path = tmp_path / "out" / "checkpoint.json"
    old_path = tmp_path / "old.json"
    old_path.write_text(json.dumps(_parent_layout(json.loads(path.read_text()))))
    new, old = load_checkpoint(path), load_checkpoint(old_path)
    for ck in (new, old):
        assert ck.step == 4
        for skew in ck.skews.values():
            assert (skew.neumann_order, skew.reset_every, skew.step) == (2, 3, 4)
            assert skew.d.tolist() == [-1.0] * 4 + [1.0] * 4
        for opt in (ck.opt, ck.opt_a):
            assert (opt.kind, opt.lr) == ("adam", 1e-3)
    assert {name: _bits(arr) for name, arr in old.params.named_arrays()} == \
        {name: _bits(arr) for name, arr in new.params.named_arrays()}
    # the stored arrays too: both save to the file the run wrote
    save_checkpoint(old_path, old)
    assert old_path.read_bytes() == path.read_bytes()


def test_checkpoint_config_gives_every_setting(tmp_path):
    cfg = ExperimentConfig.from_dict(copy.deepcopy(BASE_CFG))
    run_training(cfg, out_dir=str(tmp_path / "out"))
    blob = json.loads((tmp_path / "out" / "checkpoint.json").read_text())
    blob["config"]["model"].update(neumann_order=3, reset_every=7, num_neg=0)
    blob["config"]["optimizer"] = {"kind": "sgd", "lr": 5.0}
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(blob))
    with pytest.raises(ContractError, match="sgd state") as info:  # Adam's buffers under sgd
        load_checkpoint(path)
    assert isinstance(info.value.__cause__, ShapeError)
    for key in ("optimizer", "optimizer_A"):
        blob[key] = {"m": {}, "v": {}, "t": {}}
    path.write_text(json.dumps(blob))
    ck = load_checkpoint(path)
    for skew in ck.skews.values():
        assert (skew.neumann_order, skew.reset_every) == (3, 7)
        assert np.all(skew.d == 1.0)
    for opt in (ck.opt, ck.opt_a):
        assert (opt.kind, opt.lr) == ("sgd", 5.0)


def three_ortho_checkpoint(tmp_path, hidden=8):
    blob = make_cfg(**{"model.ortho_set": ["U_r", "U_u", "U_c"], "model.hidden": hidden})
    run_training(ExperimentConfig.from_dict(blob), out_dir=str(tmp_path / "out"))
    return tmp_path / "out" / "checkpoint.json"


def test_checkpoint_keeps_special_values_bit_for_bit(tmp_path):
    path = three_ortho_checkpoint(tmp_path)
    ck = load_checkpoint(path)
    special = np.array([-0.0, 5e-324, 1e308, -1e308])
    ck.readout_w[0, :4] = special
    save_checkpoint(path, ck)
    back = load_checkpoint(path).readout_w
    assert back[0, :4].view(np.uint64).tolist() == special.view(np.uint64).tolist()
    assert np.array_equal(back.view(np.uint64), ck.readout_w.view(np.uint64))


def test_checkpoint_size_is_near_raw_bytes(tmp_path):
    # base64 is 4/3 of the raw float64 bytes; decimal lists take ~3x
    path = three_ortho_checkpoint(tmp_path, hidden=64)
    ck = load_checkpoint(path)
    # an orthogonal weight is stored once, as its skew state
    assert set(json.loads(path.read_text())["params"]).isdisjoint(["u_r", "u_u", "u_c"])
    stored = list(ck.trained().values())
    stored += [arr for skew in ck.skews.values() for arr in (skew.a, skew.a_tilde)]
    for opt in (ck.opt, ck.opt_a):
        stored += [*opt._m.values(), *opt._v.values()]
    entries = sum(arr.size for arr in stored)
    assert entries > 12 * 64 * 64
    assert path.stat().st_size <= 1.4 * 8 * entries + 64 * 1024


def test_v1_checkpoint_is_rejected(tmp_path):
    # v1 files held every array as nested decimal lists, v2 files the
    # readout in a section of its own and the skew buffers under A_ names
    path = three_ortho_checkpoint(tmp_path)
    blob = json.loads(path.read_text())
    assert blob["format"] == "ncgru-checkpoint-v3"
    for old in ("ncgru-checkpoint-v1", "ncgru-checkpoint-v2"):
        blob["format"] = old
        path.write_text(json.dumps(blob))
        with pytest.raises(ContractError, match="not an ncgru checkpoint"):
            load_checkpoint(path)


@pytest.mark.parametrize("edits", [
    {"model.variant": "GRU"},
    {},
    {"model.exact_inverse_mode": True},
], ids=["gru", "ncgru", "exact"])
def test_checkpoint_sections_are_what_each_optimizer_steps(tmp_path, edits):
    """params holds the arrays the optimizer steps and skews those the
    skew optimizer steps, each under the name its buffers carry."""
    cfg = ExperimentConfig.from_dict(make_cfg(**edits))
    run_training(cfg, out_dir=str(tmp_path / "out"))
    blob = json.loads((tmp_path / "out" / "checkpoint.json").read_text())
    for arrays, opt in (("params", "optimizer"), ("skews", "optimizer_A")):
        assert set(blob[opt]) == {"m", "v", "t"}
        for buffers in blob[opt].values():
            assert set(buffers) == set(blob[arrays])
    assert list(blob["params"])[-3:] == ["b_c", "readout_w", "readout_b"]
    if cfg.model.variant == "gru":
        assert blob["skews"] == {}
        assert blob["optimizer_A"] == {"m": {}, "v": {}, "t": {}}
    else:
        assert set(blob["skews"]) == {"u_r", "u_c"}


def test_failed_checkpoint_write_keeps_the_earlier_file(tmp_path):
    path = three_ortho_checkpoint(tmp_path)
    before = path.read_bytes()
    names = sorted(os.listdir(path.parent))
    ck = load_checkpoint(path)
    # the readout comes last in params, so json.dump has written part of
    # the file when the encoder rejects it
    ck.readout_b = {"not": {"an", "array"}}
    with pytest.raises(TypeError):
        save_checkpoint(path, ck)
    assert path.read_bytes() == before
    assert sorted(os.listdir(path.parent)) == names


@pytest.mark.parametrize("edit", [
    lambda b: b["params"].update(w_r=np.array([[0.1, 0.2]])),  # shape (1, 2), not (8, 2)
    lambda b: b["params"].update(readout_w=np.zeros((1, 5))),  # (1, 5), not (1, 8)
    lambda b: b["params"].update(readout_b=np.zeros((1, 5))),  # (1, 5), not (1,)
    lambda b: b["params"].update(bogus=np.ones(1)),            # no such parameter
    lambda b: b["params"].update(modrelu_b=np.zeros(8)),       # b_c's name before v3
    lambda b: b["params"].update(u_r=np.eye(8)),               # stored as its skew state
    lambda b: b["skews"].pop("u_r"),                         # ortho_set names u_r
    lambda b: b["skews"].update(u_u=b["skews"]["u_r"]),      # and not u_u
    lambda b: b["skews"].update(u_c=SkewOrthogonal.create(4, seed=0).to_dict()),  # hidden is 8
    lambda b: [b["optimizer"][key].update(w_r=np.zeros((3, 3))) for key in "mv"],  # w_r is 8x2
    lambda b: [b["optimizer"][key].update(nonsense=value)                  # nothing trains it
               for key, value in (("m", np.zeros(2)), ("v", np.zeros(2)), ("t", 2))],
    lambda b: b["params"].pop("w_r"),                          # the run trains w_r
    lambda b: [b["optimizer"][key].pop("w_r") for key in "mvt"],  # and steps it with Adam
], ids=["param_shape", "readout_w_shape", "readout_b_shape", "unknown_param",
        "other_variant_param", "ortho_param", "missing_skew", "extra_skew", "skew_size",
        "optimizer_buffer_shape", "optimizer_unknown_buffer", "missing_param",
        "missing_optimizer_buffers"])
def test_load_checkpoint_rejects_mismatched_arrays(tmp_path, edit):
    cfg = ExperimentConfig.from_dict(copy.deepcopy(BASE_CFG))
    run_training(cfg, out_dir=str(tmp_path / "out"))
    blob = json.loads((tmp_path / "out" / "checkpoint.json").read_text())
    edit(blob)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(blob, default=encode))
    with pytest.raises(ContractError, match="has shape|unknown array|ortho_set|are not"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit", [
    lambda b: [opt["t"].update({name: 1000 for name in opt["t"]})
               for opt in (b["optimizer"], b["optimizer_A"])],
    lambda b: b["optimizer_A"]["t"].update(u_c=3),
    lambda b: b.update(step=5),
    lambda b: [skew.update(steps_since_reset=999) for skew in b["skews"].values()],
    lambda b: b["skews"]["u_r"].update(steps_since_reset=3),   # <= step, not < reset_every
], ids=["adam_t_1000", "adam_t_off_by_one", "step_past_counts", "skew_counter_999",
        "skew_counter_at_reset_every"])
def test_load_checkpoint_rejects_counters_off_step(tmp_path, edit):
    # 4 steps at reset_every 3: every Adam t is 4, every skew counter 1
    cfg = ExperimentConfig.from_dict(make_cfg(**{"model.reset_every": 3}))
    run_training(cfg, out_dir=str(tmp_path / "out"))
    blob = json.loads((tmp_path / "out" / "checkpoint.json").read_text())
    load_checkpoint(tmp_path / "out" / "checkpoint.json")   # the unedited file loads
    edit(blob)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(blob))
    with pytest.raises(ContractError, match="are not what|cannot follow"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit", [
    lambda b: [b["params"].pop(name) for name in ("readout_w", "readout_b")],
    lambda b: b.pop("optimizer_A"),
    lambda b: b.pop("skews"),
    lambda b: b.pop("format"),
    lambda b: b["skews"]["u_r"].update(a="x"),
    lambda b: b["params"]["w_r"].update(f8="AAAA*AAA"),
    lambda b: b["params"]["w_r"].update(f8=encode(np.zeros(15))["f8"]),  # w_r is 8x2
    lambda b: b["params"]["w_r"].update(shape=[8, 2.0]),
    lambda b: b["params"]["w_r"].update(shape=[-8, -2]),
    lambda b: b["params"].update(readout_w={"f8": "", "shape": [0], "dtype": "f4"}),
    lambda b: b.update(step=3.0),
    lambda b: b["skews"]["u_r"].update(steps_since_reset=1.5),
    lambda b: b.update(optimizer_A=None),   # ortho_set is U_r, U_c
    lambda b: b.update(step=-3),
    # states that break the rules fresh state keeps
    lambda b: b["optimizer"]["t"].update(bogus=4),             # a t without m and v
    lambda b: b["optimizer"]["v"].update(w_r=encode(np.full((8, 2), -1.0))),
    lambda b: b["skews"]["u_r"].update(a=encode(np.eye(8))),  # not skew
    lambda b: b["skews"]["u_r"].update(a_tilde=encode(np.full((8, 8), np.nan))),
], ids=["no_readout", "no_optimizer_A", "no_skews", "no_format", "skew_a_string",
        "bad_base64", "byte_length", "float_shape", "negative_shape", "extra_key",
        "step_float", "skew_counter_float", "null_optimizer_A", "step_negative",
        "adam_extra_t", "negative_v", "non_skew_a", "nan_a_tilde"])
def test_load_checkpoint_rejects_malformed_file(tmp_path, edit):
    cfg = ExperimentConfig.from_dict(copy.deepcopy(BASE_CFG))
    run_training(cfg, out_dir=str(tmp_path / "out"))
    blob = json.loads((tmp_path / "out" / "checkpoint.json").read_text())
    edit(blob)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(blob))
    with pytest.raises(ContractError):
        load_checkpoint(path)


def test_load_checkpoint_rejects_non_json(tmp_path):
    path = tmp_path / "checkpoint.json"
    path.write_text('{"format": "ncgru-checkpoint-v3", ')
    with pytest.raises(ContractError):
        load_checkpoint(path)
    path.write_text("[1, 2]")
    with pytest.raises(ContractError):
        load_checkpoint(path)


@pytest.mark.parametrize("task, old_keys", [
    ({"name": "parenthesis", "T": 5}, {"n_pairs": 10, "final_only": False}),
    ({"name": "denoise", "T": 11}, {"alphabet_n": 10}),
], ids=["parenthesis", "denoise"])
def test_load_checkpoint_with_retired_task_keys_is_a_contract_error(tmp_path, task, old_keys):
    """A checkpoint written while the task still took these keys holds a
    config that no longer validates: the load raises ContractError naming
    the key, chained from the ConfigError."""
    blob = make_cfg(**{"train.iterations": 1})
    blob["task"] = task
    run_training(ExperimentConfig.from_dict(blob), out_dir=str(tmp_path / "out"))
    ck = json.loads((tmp_path / "out" / "checkpoint.json").read_text())
    ck["config"]["task"].update(old_keys)
    path = tmp_path / "old.json"
    path.write_text(json.dumps(ck))
    with pytest.raises(ContractError, match=sorted(old_keys)[0]) as info:
        load_checkpoint(path)
    assert isinstance(info.value.__cause__, ConfigError)


def test_checkpoint_skews_recomputed_consistently(tmp_path):
    cfg = ExperimentConfig.from_dict(copy.deepcopy(BASE_CFG))
    run_training(cfg, out_dir=str(tmp_path / "out"))
    ck = load_checkpoint(tmp_path / "out" / "checkpoint.json")
    for name in ck.config.model.ortho_set:
        sk = ck.skews[name]
        assert np.array_equal(getattr(ck.params, name), sk.u)


def test_ablation_neumann_vs_inverse(tmp_path):
    cfg = ExperimentConfig.from_dict(make_cfg(**{"train.iterations": 3}))
    results = run_ablation("neumann-vs-inverse", cfg, out_dir=str(tmp_path / "ab"))
    labels = [lab for lab, _ in results]
    assert labels == ["order1", "order2", "order3", "exact"]
    for lab, run in results:
        assert run.status == "completed"
        assert len(run.metrics) == 3
    by_label = dict(results)
    # The exact arm refactorizes every step, so it accumulates no drift.
    assert by_label["exact"].max_drift < 1e-10 * 8
    assert by_label["order1"].max_drift >= by_label["exact"].max_drift
    summary = json.loads((tmp_path / "ab" / "summary.json").read_text())
    assert set(summary) == {"order1", "order2", "order3", "exact"}
    assert (tmp_path / "ab" / "order2" / "metrics.csv").exists()


def test_ablation_ortho_placement():
    cfg = ExperimentConfig.from_dict(make_cfg(**{"train.iterations": 2}))
    results = run_ablation("ortho-placement", cfg)
    labels = [lab for lab, _ in results]
    assert labels == ["uc", "ur_uc", "ur_uu_uc"]
    gru = ExperimentConfig.from_dict(
        make_cfg(**{"model.variant": "GRU", "train.iterations": 2}))
    with pytest.raises(ConfigError):
        run_ablation("ortho-placement", gru)


@pytest.mark.parametrize("model", [{"model.variant": "GRU"}, {"model.ortho_set": []}],
                         ids=["gru", "ncgru_without_ortho"])
def test_neumann_vs_inverse_without_orthogonal_weights_is_a_config_error(
        tmp_path, monkeypatch, model):
    """Without an orthogonal weight the four arms would be one run four
    times; the ablation refuses before any arm trains or writes."""
    calls = []
    monkeypatch.setattr(harness, "make_batch", lambda *args: calls.append(args))
    cfg = ExperimentConfig.from_dict(make_cfg(**model))
    assert cfg.model.ortho_set == ()
    with pytest.raises(ConfigError, match="ortho_set is empty"):
        run_ablation("neumann-vs-inverse", cfg, out_dir=str(tmp_path / "ab"))
    assert calls == []
    assert not (tmp_path / "ab").exists()


def test_unwritable_out_fails_before_training(tmp_path, monkeypatch):
    """The output directory is made before the first batch is drawn, so a
    path under a regular file fails at once, not after the run; a config
    error still comes first and leaves no directory."""
    calls = []
    monkeypatch.setattr(harness, "make_batch", lambda *args: calls.append(args))
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = ExperimentConfig.from_dict(make_cfg())
    for run in (lambda out: run_training(cfg, out_dir=out),
                lambda out: run_ablation("neumann-vs-inverse", cfg, out_dir=out)):
        with pytest.raises(OSError):
            run(str(blocker / "sub"))
    assert calls == []
    with pytest.raises(ConfigError):
        run_training(cfg, out_dir=str(tmp_path / "out"), seed=-1)
    assert not (tmp_path / "out").exists()


def test_ablation_rejects_unknown_mode():
    cfg = ExperimentConfig.from_dict(make_cfg(**{"train.iterations": 2}))
    for mode in ("nonsense", "norm-monitor"):
        with pytest.raises(ContractError, match="unknown ablation mode"):
            run_ablation(mode, cfg)


def test_gradcheck_scopes_pass():
    for scope, tol in (("cayley", 1e-6), ("cell", 1e-5), ("bptt", 1e-5)):
        rep = run_gradcheck(scope, seed=0, instances=3)
        assert rep.scope == scope
        assert rep.tol == tol
        assert rep.passed, f"{scope}: {rep.max_rel_err:.3e}"
        assert rep.max_rel_err < tol
    with pytest.raises(ContractError):
        run_gradcheck("everything")
    with pytest.raises(ContractError):
        run_gradcheck("cayley", instances=0)
    with pytest.raises(ContractError):
        run_gradcheck("cell", seed=-1)


def test_gradchecks_cover_the_readouts():
    """cell runs through LinearReadoutMse and bptt through SoftmaxReadoutXent,
    each with a case for the readout's w and b per variant and instance."""
    for scope in ("cell", "bptt"):
        cases = run_gradcheck(scope, seed=0, instances=2).per_case
        for variant in ("gru", "ncgru"):
            for i in range(2):
                assert f"{variant}_readout_w_i{i}" in cases
                assert f"{variant}_readout_b_i{i}" in cases


def _final_step_only(loss_and_grads):
    def wrapped(self, hs):
        loss, grads = loss_and_grads(self, hs)
        return loss, [None] * (len(grads) - 1) + [grads[-1]]
    return wrapped


def _grad_w_scaled(loss_and_grads):
    def wrapped(self, hs):
        out = loss_and_grads(self, hs)
        self.grad_w = 1.01 * self.grad_w
        return out
    return wrapped


@pytest.mark.parametrize("cls,scope,broken,failing", [
    (LinearReadoutMse, "cell", _grad_w_scaled, "_readout_w_"),
    (SoftmaxReadoutXent, "bptt", _grad_w_scaled, "_readout_w_"),
    # sequence_bptt then sees the final step's gradient only
    (SoftmaxReadoutXent, "bptt", _final_step_only, "_u_c_"),
], ids=["cell_grad_w", "bptt_grad_w", "bptt_final_step_only"])
def test_gradcheck_catches_a_wrong_readout_gradient(monkeypatch, cls, scope, broken, failing):
    monkeypatch.setattr(cls, "loss_and_grads", broken(cls.loss_and_grads))
    rep = run_gradcheck(scope, seed=0, instances=1)
    assert not rep.passed
    assert all(err > rep.tol for case, err in rep.per_case.items() if failing in case)


@pytest.mark.parametrize("make", [
    lambda: LinearReadoutMse(np.ones((3, 4)), np.zeros(3), np.arange(5.0)),
    lambda: LinearReadoutMse(np.ones((1, 4)), np.zeros(1), np.zeros(4)),
    lambda: LinearReadoutMse(np.ones((3, 4)), np.zeros(3), np.zeros((5, 3))),
    lambda: SoftmaxReadoutXent(np.ones((3, 4)), np.zeros(3), np.zeros((2, 6), int)),
    lambda: SoftmaxReadoutXent(np.ones((3, 4)), np.zeros(3), np.zeros((5, 5), int)),
    lambda: SoftmaxReadoutXent(np.ones((3, 4)), np.zeros(3), np.zeros(6, int)),
], ids=["mse_row_target", "mse_batch_length", "mse_transposed", "xent_two_examples",
        "xent_five_steps", "xent_1d"])
def test_readouts_reject_mis_shaped_targets(make):
    """Six steps of a (4, 5) state: the MSE wants (out, 5) targets (or (5,)
    when out is 1), the cross-entropy (5, 6); the loss-only pass over a
    stream of the states agrees."""
    block = np.full((6, 4, 5), 0.1)
    with pytest.raises(ContractError, match="targets shape"):
        make().loss_and_grads(block)
    with pytest.raises(ContractError, match="targets shape"):
        make().loss(iter(block))


@pytest.mark.parametrize("method", ["loss", "loss_and_grads"])
@pytest.mark.parametrize("bad", [-1, 3, 7, 1.7, np.nan])
def test_softmax_readout_rejects_targets_that_are_not_classes(method, bad):
    """With out = 3 a target is an integer in [0, 3): -1 is not scored as
    the last class, 3 and 7 raise no IndexError, 1.7 is not truncated."""
    targets = np.zeros((5, 6))
    targets[2, 4] = bad
    block = np.full((6, 4, 5), 0.1)
    with pytest.raises(ContractError, match="class indices"):
        getattr(SoftmaxReadoutXent(np.ones((3, 4)), np.zeros(3), targets), method)(block)


@pytest.mark.parametrize("cls", [LinearReadoutMse, SoftmaxReadoutXent])
@pytest.mark.parametrize("method", ["loss", "loss_and_grads"])
@pytest.mark.parametrize("states", [[], np.empty((0, 4, 5))], ids=["list", "block"])
def test_readouts_reject_an_empty_sequence(cls, method, states):
    readout = cls(np.ones((3, 4)), np.zeros(3), np.zeros((3, 5)))
    with pytest.raises(ContractError, match="at least one state"):
        getattr(readout, method)(states)


@pytest.mark.parametrize("cls,targets", [
    (LinearReadoutMse, lambda rng: rng.standard_normal((3, 4))),
    (SoftmaxReadoutXent, lambda rng: rng.integers(0, 3, (4, 7))),
], ids=["mse", "xent"])
def test_readouts_score_a_block_as_its_list(cls, targets):
    """loss_and_grads on the (T, n, B) block of states gives the loss the
    loss-only pass gives on the list of those states, bit for bit. The
    step gradients support len() and [-1], and keep their values when
    the caller then updates w in place, as the optimizer does."""
    rng = np.random.default_rng(0)
    block = rng.standard_normal((7, 5, 4))
    w, b, y = rng.standard_normal((3, 5)), rng.standard_normal(3), targets(rng)
    loss, grads = cls(w, b, y).loss_and_grads(block)
    assert loss == cls(w, b, y).loss(list(block))
    assert len(grads) == 7
    read = [grads[t] for t in range(7)]
    assert np.array_equal(grads[-1], read[6])
    w += 1.0
    for t, g in enumerate(read):
        assert (g is None and grads[t] is None) or np.array_equal(grads[t], g)


@pytest.mark.parametrize("task", ["adding", "copying", "parenthesis"])
def test_evaluate_streams_the_loss_bit_for_bit(task):
    """evaluate's streamed pass equals the readout's loss_and_grads on the
    block of states training scores, for the MSE (adding) and
    cross-entropy readouts and both variants."""
    for variant in ("NC-GRU", "GRU"):
        state = build_model(ExperimentConfig.from_dict(make_cfg(**{
            "task.name": task, "task.T": 12, "model.variant": variant})))
        for _ in train_steps(state):   # move the weights off their init
            pass
        batch = make_batch(task, 12, 7, seed=5)
        block = np.stack([h.copy() for h in sequence_states(state.params, batch.step_inputs())])
        want = harness.make_loss(state, batch).loss_and_grads(block)[0]
        assert harness.evaluate(state, batch) == want, variant


def test_evaluate_memory_does_not_grow_with_the_sequence():
    """Streamed evaluation holds O(n B): its peak allocation on a copying
    batch at T=500 stays below twice the peak at T=50."""
    peaks = {}
    for T in (50, 500):
        state = build_model(ExperimentConfig.from_dict(make_cfg(**{"task.name": "copying",
                                                                    "task.T": T})))
        batch = make_batch("copying", T, 16, seed=3)
        tracemalloc.start()
        try:
            harness.evaluate(state, batch)
            peaks[T] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[500] < 2 * peaks[50], peaks


def test_held_out_copying_batch_holds_symbols_not_one_hot():
    """Drawing a held-out copying batch at T=2000 and evaluating it peaks
    below half of its (T_total, dim, B) float64 one-hot: the batch keeps
    (B, T_total) symbols and evaluation encodes a few dozen steps at a
    time."""
    T, batch_size, dim = 2000, 64, 10
    state = build_model(ExperimentConfig.from_dict(make_cfg(**{"task.name": "copying",
                                                                "task.T": T})))
    tracemalloc.start()
    try:
        batch = make_batch("copying", T, batch_size, seed=3)
        harness.evaluate(state, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (T + 20) * dim * batch_size * 8 / 2, peak


def test_softmax_readout_bounds_its_exp_scratch():
    """loss_and_grads on a block of sixteen scratch lengths of steps peaks
    below 1.5 T out B 8 bytes: the logits, which become the probabilities
    in place, are the only (T, out, B) array, and exp(logits) goes through
    a scratch of _LOGZ_STEPS steps. The (T, B) temporaries of the loss
    take a few 1/out of that, so out is 32."""
    steps, n, out, batch_size = 16 * harness._LOGZ_STEPS, 4, 32, 3
    rng = np.random.default_rng(0)
    hs = rng.standard_normal((steps, n, batch_size))
    loss = SoftmaxReadoutXent(rng.standard_normal((out, n)), rng.standard_normal(out),
                              rng.integers(0, out, (batch_size, steps)))
    tracemalloc.start()
    try:
        loss.loss_and_grads(hs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * steps * out * batch_size * 8, peak


def test_bptt_memory_holds_no_per_step_gradients():
    """One sequence_bptt call on a copying batch with a preallocated store
    peaks below T n B 8 bytes of allocation, the size of a list of the
    T per-step (n, B) gradients dL/dh_t; the readout keeps only its
    (T, out, B) probabilities, with out = 9 classes against n = 128."""
    n, batch_size = 128, 16
    state = build_model(ExperimentConfig.from_dict(make_cfg(**{
        "task.name": "copying", "task.T": 200, "model.hidden": n})))
    batch = make_batch("copying", 200, batch_size, seed=3)
    inputs = batch.step_inputs()
    loss = harness.make_loss(state, batch)
    store = step_store(n, len(inputs), batch_size)
    tracemalloc.start()
    try:
        sequence_bptt(state.params, inputs, loss, store)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(inputs) * n * batch_size * 8, peak


def test_cli_train_and_artifacts(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(BASE_CFG))
    out = tmp_path / "run"
    rc = main(["train", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    assert (out / "metrics.csv").exists()
    assert (out / "checkpoint.json").exists()
    assert (out / "config.json").exists()
    assert (out / "timing.csv").exists()
    assert (out / "orthogonal.csv").exists()


def test_cli_train_seed_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(BASE_CFG))
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["train", "--config", str(cfg_path), "--out", str(a),
                 "--seed", "7"]) == 0
    assert main(["train", "--config", str(cfg_path), "--out", str(b),
                 "--seed", "7"]) == 0
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()


def test_cli_config_error_exit_code(tmp_path):
    bad = dict(copy.deepcopy(BASE_CFG), extra=1)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["train", "--config", str(path)]) == 2
    missing = tmp_path / "absent.json"
    assert main(["train", "--config", str(missing)]) == 2


def test_cli_ablate(tmp_path):
    blob = make_cfg(**{"train.iterations": 2})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(blob))
    out = tmp_path / "ab"
    rc = main(["ablate", "--mode", "ortho-placement", "--config", str(cfg_path),
               "--out", str(out)])
    assert rc == 0
    assert (out / "summary.json").exists()


def test_cli_gradcheck():
    assert main(["gradcheck", "--scope", "cayley", "--instances", "3"]) == 0
    assert main(["gradcheck", "--scope", "all", "--instances", "2"]) == 0


def test_cli_gen(tmp_path):
    out = tmp_path / "samples.jsonl"
    rc = main(["gen", "--task", "copying", "--T", "5", "--count", "4",
               "--out", str(out)])
    assert rc == 0
    assert sum(1 for _ in open(out)) == 4


# config files the exit-code test writes, by the name its argv uses
_CLI_CONFIGS = {
    "base.json": json.dumps(BASE_CFG).encode(),
    "gru.json": json.dumps(make_cfg(**{"model.variant": "GRU"})).encode(),
    "utf16.json": json.dumps(BASE_CFG).encode("utf-16"),
    "lr_nan.json": json.dumps(make_cfg(**{"optimizer.lr": float("nan")})).encode(),
}


@pytest.mark.parametrize("argv", [
    ["gen", "--task", "adding", "--T", "1", "--count", "4"],
    ["gen", "--task", "copying", "--T", "5", "--count", "0"],
    ["gradcheck", "--scope", "cayley", "--instances", "-1"],
    ["gradcheck", "--scope", "cayley", "--instances", "0"],
    ["gen", "--task", "copying", "--T", "5", "--count", "4", "--seed", "-1"],
    ["train", "--config", "base.json", "--seed", "-5"],
    ["ablate", "--mode", "ortho-placement", "--config", "gru.json"],
    ["train", "--config", "utf16.json"],
    ["train", "--config", "lr_nan.json"],
    ["gradcheck", "--scope", "cell", "--seed", "-1"],
    ["gradcheck", "--scope", "cayley", "--seed", "-1"],
    ["ablate", "--mode", "neumann-vs-inverse", "--config", "gru.json"],
])
def test_cli_invalid_gen_and_gradcheck_input_exit_2(argv, tmp_path, capsys):
    out = tmp_path / "samples.jsonl"
    if argv[0] == "gen":
        argv = argv + ["--out", str(out)]
    for name, text in _CLI_CONFIGS.items():
        (tmp_path / name).write_bytes(text)
    argv = [str(tmp_path / arg) if arg in _CLI_CONFIGS else arg for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")
    assert not out.exists()
