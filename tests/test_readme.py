"""README's "Library" section is the package's top level, and its examples run."""

import re
import types
from pathlib import Path

import meterfill
from meterfill import synthetic_series, write_series

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_top_level_names_are_the_ones_readme_lists():
    listed = [
        name
        for line in _library_section().splitlines()
        if re.match(r"- \*\*[^*]+:\*\* ", line)
        for name in re.findall(r"`(\w+)`", line)
    ]
    public = {
        name for name, value in vars(meterfill).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(listed) == len(set(listed)) == 35
    assert public == set(listed)


def test_library_examples_run_as_written(tmp_path, monkeypatch):
    write_series(tmp_path / "meter.csv", synthetic_series(1))
    monkeypatch.chdir(tmp_path)
    blocks = re.findall(r"```python\n(.*?)```", _library_section(), flags=re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:  # later blocks use the names earlier ones bind
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["strict"].completed_energy.values.tobytes() == (
        namespace["result"].completed_energy.values.tobytes()
    )
    assert namespace["report"].rows
