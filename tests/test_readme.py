"""The README's library example runs, and the package exports what it lists.

A name deleted from the package but still shown in the README, or still
listed in ``__all__``, fails here rather than in a reader's session.
"""

import re
from pathlib import Path

import aegeom

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    text = README.read_text()
    section = text.split("## Library entry points", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under 'Library entry points'"
    return match.group(1)


def test_readme_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("manifold: s6-nearly-kahler\n")
    assert "theorem checks:" in out


def test_every_exported_name_resolves():
    missing = [name for name in aegeom.__all__ if not hasattr(aegeom, name)]
    assert missing == []
