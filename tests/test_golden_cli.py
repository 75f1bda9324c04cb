"""Every pinned CLI output, one case of golden_cli.json each.

A case is ``{"id", "files", "argv", "stdout", "stderr", "rc", "wrote"}``: it
writes its input ``files`` into an empty working directory, runs
``cli.main(argv)`` there in-process, and must reproduce stdout, stderr and
the exit code byte for byte, and write exactly the files of ``wrote`` with
their text.  The cases run against the ``eaqecne`` this interpreter imports:
the checkout's ``src/`` under the tier-1 command, the installed package when
this file and golden_cli.json are copied out of the checkout and run there.
"""

import json
from pathlib import Path

import pytest

from eaqecne.cli import main

CASES = json.loads(Path(__file__).with_name("golden_cli.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[case["id"] for case in CASES])
def test_cli_case(case, tmp_path, monkeypatch, capsys):
    for name, text in case["files"].items():
        (tmp_path / name).write_bytes(text.encode())
    monkeypatch.chdir(tmp_path)
    rc = main(case["argv"])
    out, err = capsys.readouterr()
    wrote = {p.name: p.read_bytes().decode() for p in sorted(tmp_path.iterdir())
             if p.name not in case["files"]}
    assert (out, err, rc, wrote) == (case["stdout"], case["stderr"], case["rc"], case["wrote"])
