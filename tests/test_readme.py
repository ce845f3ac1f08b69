"""The examples in README.md still do what it says they do.

Each shell session in a fenced block (lines starting ``$ ``) is replayed:
``$ cat FILE`` followed by text writes that text to FILE, and
``$ xmlgram ...`` runs the command line, whose stdout and stderr must read
as the lines that follow it, up to the next ``$`` line or a blank line,
and it must exit with the code ``EXIT_CODES`` gives it.
The sessions run in a scratch directory that sees the repository's
``samples/``, so paths read as they do from the repository root.  The
Library block runs as Python from the root, and each ``print`` must print
what its trailing comment says.
"""

import contextlib
import io
import re
import shlex
import shutil
from pathlib import Path

import pytest

from xmlgram import cli

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
SESSIONS = [body for _, body in BLOCKS if body.startswith("$ ")]
PYTHON = [body for lang, body in BLOCKS if lang == "python"]

# The exit code README's "Exit codes" line gives each command it shows.
EXIT_CODES = {
    "xmlgram check accent.xg": 0,
    "xmlgram check left.xg": 1,
    "xmlgram parse samples/seq.xg samples/seq.xml": 0,
    "xmlgram tables samples/seq.xg": 0,
}


def _steps(session: str):
    """``(command, following lines)`` for each ``$`` line of a session."""
    steps = []
    for line in session.splitlines():
        if line.startswith("$ "):
            steps.append((line[2:], []))
        else:
            steps[-1][1].append(line)
    return steps


def test_readme_has_its_examples():
    commands = [cmd for s in SESSIONS for cmd, _ in _steps(s) if cmd.startswith("xmlgram ")]
    assert len(commands) >= 3 and len(PYTHON) == 1
    assert sorted(commands) == sorted(EXIT_CODES)


@pytest.mark.parametrize("session", SESSIONS, ids=[s.splitlines()[0][2:] for s in SESSIONS])
def test_readme_session(session, tmp_path, monkeypatch):
    shutil.copytree(ROOT / "samples", tmp_path / "samples")
    monkeypatch.chdir(tmp_path)
    for command, lines in _steps(session):
        name, *argv = shlex.split(command)
        if name == "cat":
            (tmp_path / argv[0]).write_text("".join(line + "\n" for line in lines))
            continue
        assert name == "xmlgram", command
        expected = lines[: lines.index("")] if "" in lines else lines
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(argv)
        assert out.getvalue().splitlines() == expected, command
        assert code == EXIT_CODES[command], command


def test_readme_library_snippet(monkeypatch, capsys):
    (code,) = PYTHON
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")]
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
