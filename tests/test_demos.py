"""The demo scripts keep byte-identical stdout.

The digests were recorded from the demos' output before the Kähler checks
were rebuilt on one Lefschetz form per degree; a change to any of them is a
change in what users see and has to be made on purpose.
"""

import contextlib
import hashlib
import io
import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos")

STDOUT_SHA256 = {
    "bundle_rings.py":
        "8879f5e6ebeb0cd94273be12d55ead59d1a6a3fac21918fb3a1a8f10c5bc5350",
    "kahler_sweep.py":
        "0d5945a62c4c1553e2a8c43f55755713261f485fe196b40c579dc35d85366446",
    "pyramid_walkthrough.py":
        "9b0d8914563ddcafdad7f9d5181f7bb8bb2f2d0dd74458f6ab95554f57aa5619",
}


def test_every_demo_is_pinned():
    assert sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")) == \
        sorted(STDOUT_SHA256)


@pytest.mark.parametrize("script", sorted(STDOUT_SHA256))
def test_demo_stdout_is_unchanged(script):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(os.path.join(DEMOS, script), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == STDOUT_SHA256[script]
