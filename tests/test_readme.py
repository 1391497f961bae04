"""The README's command-line examples keep byte-identical stdout and the
same stderr summary line.

The digests were recorded from the examples' output before the per-cone
linear algebra was rewritten; a change to any of them is a change in what
users see and has to be made on purpose, together with the README.
"""

import contextlib
import hashlib
import io
import os
import shlex

import pytest

from chowfans.cli import main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

STDOUT_SHA256 = {
    """chowfans verify --matroid '{"uniform": [2, 3]}'""":
        "17f672e6de5d0913fe65577d5fab55e72bc4672180d8b26169dc8735ebcc1923",
    """chowfans verify --matroid '{"uniform": [2, 4]}' --which lemmas --max-first-len 2""":
        "0345259fe4068641c3f1f12c63d1aa70006eb986522b4becdfe1fc948057c463",
    """chowfans kahler --matroid '{"uniform": [2, 3]}' --N 3 --phi negation --samples 3""":
        "2d6e4479078c20f71944f17506356b55b63cd8c8beafcf1004364a44bbc374dc",
    """chowfans bloch-gieseker --matroid '{"uniform": [2, 3]}' --N 3 --lams 0,1,10""":
        "0c6d9ac59a2d1979caf33f338b570a1a642ef6268c5a6203693ab5d8e38d1589",
    """chowfans quotient-ahk --matroid '{"uniform": [2, 4]}' --N 4""":
        "c3945fff9edd98a8b94c5e4e0ba2afe732c0dfe85b3757a3e650d8150bc053a6",
    """chowfans fan --kind bundle --matroid '{"uniform": [2, 3]}' --N 3""":
        "a589ca7ece71e24f84a41def594e9686b0dced961a7d7f0f3237aa558a6be4af",
}


STDERR = {
    """chowfans verify --matroid '{"uniform": [2, 3]}'""":
        "27/27 checks passed\n",
    """chowfans verify --matroid '{"uniform": [2, 4]}' --which lemmas --max-first-len 2""":
        "156/156 checks passed\n",
    """chowfans kahler --matroid '{"uniform": [2, 3]}' --N 3 --phi negation --samples 3""":
        "9/9 checks passed\n",
    """chowfans bloch-gieseker --matroid '{"uniform": [2, 3]}' --N 3 --lams 0,1,10""":
        "3/3 checks passed\n",
    """chowfans quotient-ahk --matroid '{"uniform": [2, 4]}' --N 4""":
        "1/1 checks passed\n",
    """chowfans fan --kind bundle --matroid '{"uniform": [2, 3]}' --N 3""":
        "1/1 checks passed\n",
}


def readme_commands():
    with open(README) as fh:
        return [line.strip() for line in fh if line.startswith("chowfans ")]


def test_readme_lists_the_pinned_commands():
    assert readme_commands() == list(STDOUT_SHA256)


@pytest.mark.parametrize("command", list(STDOUT_SHA256))
def test_readme_command_stdout_is_unchanged(command):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(shlex.split(command)[1:])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == STDOUT_SHA256[command]
    assert err.getvalue() == STDERR[command]
