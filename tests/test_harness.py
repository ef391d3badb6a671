"""Training harness tests: config validation, run artifacts, checkpoints,
ablations, gradient checks, and the CLI entry point."""

import copy
import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

from ncgru.cli import main
from ncgru.codec import decode, encode
from ncgru.errors import ConfigError, ContractError
from ncgru.harness import (
    ExperimentConfig,
    METRICS_HEADER,
    load_checkpoint,
    read_metrics_csv,
    run_ablation,
    run_gradcheck,
    run_training,
    save_checkpoint,
)
from ncgru.orthocore import SkewOrthogonal


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


def test_config_task_key_scoping():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(make_cfg(**{"task.alphabet_n": 5}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(make_cfg(**{"task.n_pairs": 3}))
    blob = make_cfg(**{"task.name": "denoise", "task.T": 20, "task.alphabet_n": 5})
    cfg = ExperimentConfig.from_dict(blob)
    assert cfg.task.alphabet_n == 5


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


def test_run_numeric_error_aborts_with_structured_row():
    cfg = ExperimentConfig.from_dict(make_cfg(**{"optimizer.lr": 1e8}))
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
    blob = make_cfg(**{"optimizer.lr": 1e8})
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
    # At lr 1e12 the training loss of iteration 1 is still finite, but the
    # update it applies makes the eval after it overflow.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_cfg(**{"optimizer.lr": 1e12,
                                               "train.iterations": 1})))
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().out.startswith("status=numeric_error ")
    rows = read_metrics_csv(out / "metrics.csv")
    assert len(rows) == 1 and np.isnan(rows[0].train_loss)
    assert not (out / "checkpoint.json").exists()


def test_checkpoint_round_trip_bit_exact(tmp_path):
    cfg = ExperimentConfig.from_dict(copy.deepcopy(BASE_CFG))
    run = run_training(cfg, out_dir=str(tmp_path / "out"))
    path = tmp_path / "out" / "checkpoint.json"
    ck = load_checkpoint(path)
    assert ck.step == 4
    assert ck.config == run.config
    # Save the loaded state and compare bytes: the arrays' bytes are stored.
    again = tmp_path / "again.json"
    save_checkpoint(again, ck.config, ck.model, ck.optimizer, ck.optimizer_a,
                    step=ck.step)
    assert again.read_bytes() == path.read_bytes()


def as_v1(blob):
    """blob with every f8 record turned back into decimal lists and the v1
    tag: the layout checkpoints had before arrays were stored as bytes."""
    def lists(value):
        if isinstance(value, dict) and set(value) == {"f8", "shape"}:
            return decode(value, "record").tolist()
        if isinstance(value, dict):
            return {key: lists(item) for key, item in value.items()}
        return value
    return {**lists(blob), "format": "ncgru-checkpoint-v1"}


def assert_same_state(a, b):
    for (name, x), (_, y) in zip(a.model.params.named_arrays(), b.model.params.named_arrays()):
        assert np.array_equal(x, y), name
    for name, skew in a.model.skews.items():
        other = b.model.skews[name]
        for field in ("a", "d", "a_tilde", "u"):
            assert np.array_equal(getattr(skew, field), getattr(other, field)), (name, field)
        assert (skew.step, skew.steps_since_reset) == (other.step, other.steps_since_reset)
    assert np.array_equal(a.model.readout_w, b.model.readout_w)
    assert np.array_equal(a.model.readout_b, b.model.readout_b)
    for opt, other in ((a.optimizer, b.optimizer), (a.optimizer_a, b.optimizer_a)):
        assert set(opt._m) == set(other._m) and set(opt._v) == set(other._v)
        assert all(np.array_equal(m, other._m[k]) for k, m in opt._m.items())
        assert all(np.array_equal(v, other._v[k]) for k, v in opt._v.items())
        assert opt._t == other._t
    assert (a.config, a.step) == (b.config, b.step)


def three_ortho_checkpoint(tmp_path, hidden=8):
    blob = make_cfg(**{"model.ortho_set": ["U_r", "U_u", "U_c"], "model.hidden": hidden})
    run_training(ExperimentConfig.from_dict(blob), out_dir=str(tmp_path / "out"))
    return tmp_path / "out" / "checkpoint.json"


def test_checkpoint_old_and_new_layout_load_alike(tmp_path):
    # A checkpoint stores each orthogonal weight once, as its skew state; a
    # v1 file that also lists the weight under "params" (the layout before
    # that) must load to the same state.
    new_path = three_ortho_checkpoint(tmp_path)
    saved = json.loads(new_path.read_text())
    assert saved["format"] == "ncgru-checkpoint-v2"
    assert set(saved["params"]).isdisjoint(["u_r", "u_u", "u_c"])
    new = load_checkpoint(new_path)
    old_blob = as_v1(saved)
    old_blob["params"] = {name: arr.tolist() for name, arr in new.model.params.named_arrays()}
    old_path = tmp_path / "old.json"
    old_path.write_text(json.dumps(old_blob, indent=1) + "\n")
    assert_same_state(new, load_checkpoint(old_path))


def test_v1_checkpoint_loads_to_same_arrays(tmp_path):
    # both optimizers are Adam with buffers, so every section is compared
    path = three_ortho_checkpoint(tmp_path)
    v1_path = tmp_path / "v1.json"
    v1_path.write_text(json.dumps(as_v1(json.loads(path.read_text())), indent=1) + "\n")
    v2, v1 = load_checkpoint(path), load_checkpoint(v1_path)
    assert v2.optimizer_a._m and v2.optimizer._m
    assert_same_state(v2, v1)


@pytest.mark.parametrize("layout", ["v2", "v1"])
def test_checkpoint_keeps_special_values_bit_for_bit(tmp_path, layout):
    path = three_ortho_checkpoint(tmp_path)
    ck = load_checkpoint(path)
    special = np.array([-0.0, 5e-324, 1e308, -1e308])
    ck.model.readout_w[0, :4] = special
    save_checkpoint(path, ck.config, ck.model, ck.optimizer, ck.optimizer_a, step=ck.step)
    if layout == "v1":
        path.write_text(json.dumps(as_v1(json.loads(path.read_text()))))
    back = load_checkpoint(path).model.readout_w
    assert back[0, :4].view(np.uint64).tolist() == special.view(np.uint64).tolist()
    assert np.array_equal(back.view(np.uint64), ck.model.readout_w.view(np.uint64))


def test_checkpoint_size_is_near_raw_bytes(tmp_path):
    # base64 is 4/3 of the raw float64 bytes; decimal lists take ~3x
    path = three_ortho_checkpoint(tmp_path, hidden=64)
    ck = load_checkpoint(path)
    stored = [arr for name, arr in ck.model.params.named_arrays() if name not in ck.model.skews]
    stored += [arr for skew in ck.model.skews.values() for arr in (skew.a, skew.d, skew.a_tilde)]
    stored += [ck.model.readout_w, ck.model.readout_b]
    for opt in (ck.optimizer, ck.optimizer_a):
        stored += [*opt._m.values(), *opt._v.values()]
    entries = sum(arr.size for arr in stored)
    assert entries > 12 * 64 * 64
    assert path.stat().st_size <= 1.4 * 8 * entries + 64 * 1024


def test_failed_checkpoint_write_keeps_the_earlier_file(tmp_path):
    path = three_ortho_checkpoint(tmp_path)
    before = path.read_bytes()
    names = sorted(os.listdir(path.parent))
    ck = load_checkpoint(path)
    # the readout comes after params and skews, so json.dump has written
    # part of the file when the encoder rejects it
    ck.model.readout_b = {"not": {"an", "array"}}
    with pytest.raises(TypeError):
        save_checkpoint(path, ck.config, ck.model, ck.optimizer, ck.optimizer_a, step=9)
    assert path.read_bytes() == before
    assert sorted(os.listdir(path.parent)) == names


@pytest.mark.parametrize("edit", [
    lambda b: b["params"].update(w_r=np.array([[0.1, 0.2]])),  # shape (1, 2), not (8, 2)
    lambda b: b["readout"].update(w=np.zeros((1, 5))),         # (1, 5), not (1, 8)
    lambda b: b["readout"].update(b=np.zeros((1, 5))),         # (1, 5), not (1,)
    lambda b: b["params"].update(bogus=np.ones(1)),            # no such parameter
    lambda b: b["params"].update(b_c=np.zeros(8)),             # a GRU bias on NC-GRU
    lambda b: b["skews"].pop("u_r"),                         # ortho_set names u_r
    lambda b: b["skews"].update(u_u=b["skews"]["u_r"]),      # and not u_u
    lambda b: b["skews"].update(u_c=SkewOrthogonal.create(4, seed=0).to_dict()),  # hidden is 8
], ids=["param_shape", "readout_w_shape", "readout_b_shape", "unknown_param",
        "other_variant_param", "missing_skew", "extra_skew", "skew_size"])
def test_load_checkpoint_rejects_mismatched_arrays(tmp_path, edit):
    cfg = ExperimentConfig.from_dict(copy.deepcopy(BASE_CFG))
    run_training(cfg, out_dir=str(tmp_path / "out"))
    blob = json.loads((tmp_path / "out" / "checkpoint.json").read_text())
    edit(blob)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(blob, default=encode))
    with pytest.raises(ContractError, match="has shape|unknown array|ortho_set"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit", [
    lambda b: b.pop("readout"),
    lambda b: b.pop("optimizer_A"),
    lambda b: b.pop("skews"),
    lambda b: b.pop("format"),
    lambda b: b["skews"]["u_r"].update(a="x"),
    lambda b: b["params"]["w_r"].update(f8="AAAA*AAA"),
    lambda b: b["params"]["w_r"].update(f8=encode(np.zeros(15))["f8"]),  # w_r is 8x2
    lambda b: b["params"]["w_r"].update(shape=[8, 2.0]),
    lambda b: b["params"]["w_r"].update(shape=[-8, -2]),
    lambda b: b["readout"].update(w={"f8": "", "shape": [0], "dtype": "f4"}),
], ids=["no_readout", "no_optimizer_A", "no_skews", "no_format", "skew_a_string",
        "bad_base64", "byte_length", "float_shape", "negative_shape", "extra_key"])
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
    path.write_text('{"format": "ncgru-checkpoint-v2", ')
    with pytest.raises(ContractError):
        load_checkpoint(path)
    path.write_text("[1, 2]")
    with pytest.raises(ContractError):
        load_checkpoint(path)


def test_checkpoint_skews_recomputed_consistently(tmp_path):
    cfg = ExperimentConfig.from_dict(copy.deepcopy(BASE_CFG))
    run_training(cfg, out_dir=str(tmp_path / "out"))
    ck = load_checkpoint(tmp_path / "out" / "checkpoint.json")
    for name in ck.config.model.ortho_set:
        sk = ck.model.skews[name]
        assert np.array_equal(getattr(ck.model.params, name), sk.u)


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


def test_ablation_falls_back_to_config_output(tmp_path):
    # Without an explicit out_dir the arms must nest under the config's
    # output directory instead of overwriting one another inside it.
    blob = make_cfg(**{"train.iterations": 2})
    blob["output"] = str(tmp_path / "ab")
    cfg = ExperimentConfig.from_dict(blob)
    run_ablation("neumann-vs-inverse", cfg)
    assert (tmp_path / "ab" / "summary.json").exists()
    for label in ("order1", "order2", "order3", "exact"):
        assert (tmp_path / "ab" / label / "metrics.csv").exists()
    assert not (tmp_path / "ab" / "metrics.csv").exists()


def test_ablation_ortho_placement():
    cfg = ExperimentConfig.from_dict(make_cfg(**{"train.iterations": 2}))
    results = run_ablation("ortho-placement", cfg)
    labels = [lab for lab, _ in results]
    assert labels == ["uc", "ur_uc", "ur_uu_uc"]
    gru = ExperimentConfig.from_dict(
        make_cfg(**{"model.variant": "GRU", "train.iterations": 2}))
    with pytest.raises(ConfigError):
        run_ablation("ortho-placement", gru)


def test_ablation_norm_monitor():
    cfg = ExperimentConfig.from_dict(make_cfg(**{"train.iterations": 2}))
    results = run_ablation("norm-monitor", cfg)
    assert [lab for lab, _ in results] == ["monitor"]
    run = results[0][1]
    assert all(row.contraction_norm < 1.0 for row in run.metrics)
    with pytest.raises(ContractError):
        run_ablation("nonsense", cfg)


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
    rc = main(["ablate", "--mode", "norm-monitor", "--config", str(cfg_path),
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
