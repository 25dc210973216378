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
        "70befae47183b29cc2552a80c7a18233a16d9388f64eed8f1b1285cd9b844207",
    "03_tropical_and_series.py":
        "9762c7dbe20f0475421748e8d5aac84fc7b965489e9db27e08735ff508ec2c61",
    "04_roofs_and_sheaves.py":
        "4f0b2703d843cddf3af82a5ef189dfd7b13994fb5754eb1b5c77fc3ebdd8216d",
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
