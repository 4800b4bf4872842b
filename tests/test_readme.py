"""Every `rockrelax run` command shown in README.md runs and exits 0."""
import re
import shlex
from pathlib import Path

import pytest

from rockrelax.cli import main as cli_main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    text = README.read_text()
    blocks = re.findall(r"```sh\n(.*?)```", text, flags=re.S)
    return [line for block in blocks for line in block.splitlines()
            if "rockrelax run" in line]


def readme_files():
    """JSON blocks, each named by the last `*.json` file mentioned before it."""
    text = README.read_text()
    files = {}
    for block in re.finditer(r"```json\n(.*?)```", text, flags=re.S):
        names = re.findall(r"`([\w.-]+\.json)`", text[:block.start()])
        files[names[-1]] = block.group(1)
    return files


def test_readme_shows_commands():
    assert len(readme_commands()) == 3


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_runs(line, tmp_path, monkeypatch):
    for name, body in readme_files().items():
        (tmp_path / name).write_text(body)
    words = shlex.split(line)
    while "=" in words[0]:
        key, value = words.pop(0).split("=", 1)
        monkeypatch.setenv(key, value)
    assert words[:2] == ["rockrelax", "run"]
    args = words[1:]
    out = args.index("--out") + 1
    args[out] = str(tmp_path / args[out])
    plan = args.index("--plan") + 1
    if not args[plan].startswith("builtin:"):
        args[plan] = str(tmp_path / args[plan])
    assert cli_main(args) == 0
    assert any((tmp_path / words[words.index("--out") + 1]).iterdir())
