"""The README's examples run, and the package exports what it lists.

A name deleted from the package but still shown in the README, still
listed in ``__all__``, or a config example the loader no longer accepts,
fails here rather than in a reader's session.
"""

import importlib
import re
import shlex
from pathlib import Path

import pytest

import aegeom
from aegeom.cli import EXIT_PASS, run

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str, language: str) -> str:
    section = README.read_text().split(f"## {heading}", 1)[1]
    match = re.search(rf"```{language}\n(.*?)```", section, re.DOTALL)
    assert match, f"no {language} block under {heading!r}"
    return match.group(1)


def library_example() -> str:
    return readme_block("Library entry points", "python")


def test_readme_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("manifold: s6-nearly-kahler\n")
    assert "theorem checks:" in out


def test_readme_spelling_of_the_theorem_table_resolves(capsys):
    # the library example binds ``classify`` to the function, which hides
    # the module of the same name
    namespace = {"importlib": importlib}
    exec(compile(library_example(), str(README), "exec"), namespace)
    capsys.readouterr()
    spellings = re.findall(r"`([^`]*THEOREMS)`", README.read_text())
    assert spellings
    for spelling in spellings:
        rows = eval(spelling, namespace)
        assert rows is importlib.import_module("aegeom.classify").THEOREMS, spelling


def test_every_exported_name_resolves():
    missing = [name for name in aegeom.__all__ if not hasattr(aegeom, name)]
    assert missing == []


@pytest.mark.parametrize("verb", ["validate", "classify", "verify", "identities"])
def test_readme_config_example_passes_every_verb(tmp_path, capsys, verb):
    path = tmp_path / "example.json"
    path.write_text(readme_block("Manifold config files", "json"))
    code = run([verb, "--manifold", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_PASS, captured.err
    assert "my-surface" in captured.out


def command_lines():
    return readme_block("Command line", "").strip().splitlines()


@pytest.mark.parametrize("line", command_lines())
def test_readme_command_lines_pass(capsys, line):
    argv = shlex.split(line)
    assert argv[0] == "aegeom"
    code = run(argv[1:])
    captured = capsys.readouterr()
    assert code == EXIT_PASS, captured.err
    assert captured.out
