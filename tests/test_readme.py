"""The README's examples stay true to the code."""

import pathlib
import re

import yaml

from gprclutter.harness.config import ExperimentConfig, config_to_dict, parse_config

TESTS = pathlib.Path(__file__).resolve().parent
README = TESTS.parent / "README.md"


def _block(language: str) -> str:
    """The README's one fenced code block in ``language``."""
    blocks = re.findall(rf"^```{language}\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1, f"{len(blocks)} {language} blocks in the README"
    return blocks[0]


def test_readme_configuration_block_is_the_default():
    assert parse_config(_block("yaml")) == ExperimentConfig()


def test_readme_configuration_block_lists_every_field():
    block = yaml.safe_load(_block("yaml"))
    fields = config_to_dict(ExperimentConfig())
    assert block.keys() == fields.keys()
    for key, value in fields.items():
        if isinstance(value, dict):
            assert block[key].keys() == value.keys(), key


def test_readme_python_api_block_runs(capsys):
    exec(compile(_block("python"), "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def _unknown_tests(text: str) -> list[str]:
    """The ``tests/....py`` paths and ``test_...`` names in ``text`` that do not exist."""
    sources = list(TESTS.rglob("*.py"))
    known = {path.stem for path in sources}
    for path in sources:
        known.update(re.findall(r"^\s*def (test_\w+)", path.read_text(encoding="utf-8"), re.M))
    paths = re.findall(r"\btests/[\w/]+\.py\b", text)
    paths = [path for path in paths if not (TESTS.parent / path).is_file()]
    return paths + sorted(set(re.findall(r"\btest_\w+", text)) - known)


def test_readme_names_only_tests_that_exist():
    assert _unknown_tests(README.read_text(encoding="utf-8")) == []
    misspelt = "`test_rerun_reproduces_identical_byte` in `tests/test_clii.py`"
    assert _unknown_tests(misspelt) == [
        "tests/test_clii.py", "test_clii", "test_rerun_reproduces_identical_byte"]
