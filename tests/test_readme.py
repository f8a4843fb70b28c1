"""The README's CLI block, run line by line as written, so its examples cannot
go stale."""

import re
import shlex
import subprocess
from pathlib import Path

from vpgbend.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_block_lines():
    after = README.read_text().split("\n## CLI\n", 1)[1]
    block = after.split("```sh\n", 1)[1].split("```", 1)[0]
    return [ln for ln in block.splitlines() if ln.strip() and not ln.startswith("#")]


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = cli_block_lines()
    assert any(ln.startswith("vpgbend oracle ") for ln in lines)
    for line in lines:
        if not line.startswith("vpgbend "):
            # shell lines that write the example's input files
            subprocess.run(["sh", "-c", line], cwd=tmp_path, check=True)
            continue
        named = re.search(r"#\s*exit (\d+)", line)
        allowed = {int(named.group(1))} if named else {0, 1}
        rc = main(shlex.split(line, comments=True)[1:])
        assert rc in allowed, f"{line!r} exited {rc}: {capsys.readouterr().err}"
