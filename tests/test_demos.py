"""Demo output pinned by sha256: each script under demos/ runs in its own
interpreter, on the deltasite sources beside these tests, and its stdout
must keep the bytes it had when the table was written."""
import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

import deltasite

DEMOS = pathlib.Path(__file__).parents[1] / "demos"

DIGESTS = {
    "01_sites_and_topologies.py":
        "123ea4fa12cc677b7234c5a65fbf63eeb5d7f69a60d4518494ca96a6d28c4e24",
    "02_delta_calculus.py":
        "132d5770117d91b4a3180deb59cbcf3276434c7d075ccff49e5617653095580f",
    "03_tropical_and_series.py":
        "c0666e470e9a8a7b60cd81b4ca6b0b452fbf733c59cb381ab0befa4e5a354c8a",
    "04_roofs_and_sheaves.py":
        "e2126bbe442195b668f91330d985f6c554eb872c3f5d601ba9f577c530b281bd",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_is_unchanged(name):
    src = str(pathlib.Path(deltasite.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, str(DEMOS / name)], env=env,
                         capture_output=True, check=True).stdout
    assert hashlib.sha256(out).hexdigest() == DIGESTS[name]
