"""README's examples run as written: the library quick start executes, and
each ``# columns:`` comment of the CLI block is the header its subcommand
prints."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from boltzkit import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")
FENCES = re.findall(r"^```(\w+)\n(.*?)^```$", README, flags=re.M | re.S)
CSV_SUBCOMMANDS = {"distribution", "sweep", "solve", "oscillator"}


def _column_claims():
    """(argv, header) for each ``# columns:`` comment of the CLI block, the
    argv being the last ``boltzkit`` command above it; a comment goes on
    over the lines that follow it with ``#`` and an indent."""
    block = next(body for lang, body in FENCES
                 if lang == "sh" and "boltzkit distribution" in body)
    lines = block.replace("\\\n", " ").splitlines()
    claims, argv = [], None
    for i, line in enumerate(lines):
        if line.startswith("boltzkit "):
            argv = shlex.split(line, comments=True)[1:]
        elif line.startswith("# columns:"):
            text = line.removeprefix("# columns:")
            for more in lines[i + 1:]:
                if not re.match(r"#\s{2,}\S", more):
                    break
                text += more[1:]
            claims.append((argv, "".join(text.split())))
    return claims


CLAIMS = _column_claims()


def test_python_block_runs():
    [code] = [body for lang, body in FENCES if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})


def test_every_csv_subcommand_has_its_columns():
    assert sorted(argv[0] for argv, _ in CLAIMS) == sorted(CSV_SUBCOMMANDS)


@pytest.mark.parametrize("argv, header", CLAIMS, ids=[argv[0] for argv, _ in CLAIMS])
def test_columns_comment_is_the_printed_header(argv, header, tmp_path, monkeypatch):
    [spec] = [body for lang, body in FENCES if lang == "json"]
    (tmp_path / "system.json").write_text(spec, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    assert out.getvalue().splitlines()[0] == header
