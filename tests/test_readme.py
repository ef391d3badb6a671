"""The README's code examples run as written, and its config schema lists
the keys the loader accepts."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from ncgru.harness import ModelSection, OptimizerSection, TaskSection, TrainSection

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code):
    exec(compile(code, "README.md python block", "exec"), {})


def test_readme_config_schema_matches_the_loader():
    (schema,) = re.findall(r"^```json\n(.*?)^```", TEXT, flags=re.MULTILINE | re.DOTALL)
    schema = json.loads(schema)
    sections = {"task": TaskSection, "model": ModelSection,
                "optimizer": OptimizerSection, "train": TrainSection}
    assert set(schema) == set(sections)
    for name, section in sections.items():
        # a field's JSON key is its name unless its metadata says otherwise (lr_A)
        keys = {f.metadata.get("key", f.name) for f in dataclasses.fields(section)}
        assert set(schema[name]) == keys, name
