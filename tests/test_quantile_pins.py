"""Pins of the SciPy builds that every sampled report rests on: `ndtri`,
which turns each uniform into a normal, and `ndtr`, which gives the cone
check its expected fraction 2 Phi(kappa) - 1.

quantile_pins.json holds, as float hex, about 2,000 uniforms with the
installed `ndtri`'s output for each when the table was written and the
correctly rounded quantile, and `ndtr` at the golden cone kappas 2.0 and 3.0
with its correctly rounded value.  The uniforms are the first values of
Philox seed 0, streams 0-7, under the documented transform
(raw >> 11) * 2**-53 + 2**-54; the smallest and largest uniforms it makes,
2**-54 and 1 - 2**-53; and the floats next to `ndtri`'s branch points,
exp(-2) and 1 - exp(-2), where its central rational approximation starts
and ends, and exp(-32) and 1 - exp(-32), where its tail approximation
switches at x = sqrt(-2 log y) = 8.

The correctly rounded values were computed once with mpmath at 200 bits:

    python tests/test_quantile_pins.py

rewrites the table from the installed builds and mpmath.
"""
import json
import pathlib
import struct

import numpy as np
from scipy.special import ndtr, ndtri

TABLE = pathlib.Path(__file__).with_name("quantile_pins.json")
STREAMS, PER_STREAM = 8, 248
# ndtri's branch points (see above); the table holds the floats around each
BRANCHES = (np.exp(-2.0), 1.0 - np.exp(-2.0), np.exp(-32.0), 1.0 - np.exp(-32.0))
KAPPAS = (2.0, 3.0)


def uniforms() -> list[float]:
    """The pinned uniforms, in the table's order."""
    values = []
    for stream in range(STREAMS):
        bg = np.random.Philox(counter=[0, 0, stream, 0], key=[0, 0])
        raw = bg.random_raw(PER_STREAM)
        values += ((raw >> np.uint64(11)) * 2.0**-53 + 2.0**-54).tolist()
    values += [2.0**-54, 1.0 - 2.0**-53]
    for point in BRANCHES:
        for steps in (-2, -1, 0, 1, 2):
            value = float(point)
            for _ in range(abs(steps)):
                value = float(np.nextafter(value, np.sign(steps) * np.inf))
            values.append(value)
    return values


def ulps(a: float, b: float) -> int:
    """The number of floats from a to b."""
    def ordered(x):
        bits = struct.unpack("<q", struct.pack("<d", x))[0]
        return bits if bits >= 0 else -(bits & (2**63 - 1))
    return abs(ordered(a) - ordered(b))


def pins():
    """{"ndtri": [(u, pinned, exact)], "ndtr": [(kappa, pinned, exact)]} as floats."""
    doc = json.loads(TABLE.read_text())
    return {name: [tuple(map(float.fromhex, row)) for row in rows]
            for name, rows in doc.items() if name != "about"}


def test_installed_ndtri_and_ndtr_give_the_pinned_bits():
    table = pins()
    for name, function in (("ndtri", ndtri), ("ndtr", ndtr)):
        args = np.array([row[0] for row in table[name]])
        gaps = [ulps(got, row[1]) for got, row in zip(function(args).tolist(), table[name])
                if got != row[1]]
        assert not gaps, (
            f"the installed {name} differs from {len(gaps)} of its {len(args)} pinned values, "
            f"by {sorted(set(gaps))} ulp; every sampled golden entry (simulate, verify-ito and "
            f"the cone check) moves with them")


def test_every_pin_lies_within_3_ulp_of_the_correctly_rounded_value():
    table = pins()
    assert len(table["ndtri"]) == STREAMS * PER_STREAM + 2 + 5 * len(BRANCHES)
    assert [row[0] for row in table["ndtri"]] == uniforms()
    assert [row[0] for row in table["ndtr"]] == list(KAPPAS)
    for name, rows in table.items():
        far = [(x.hex(), ulps(pinned, exact)) for x, pinned, exact in rows
               if ulps(pinned, exact) > 3]
        assert not far, (name, far)


def write_table():
    """Rewrite quantile_pins.json from the installed builds and mpmath."""
    import mpmath
    mpmath.mp.prec = 200

    def exact_quantile(u):
        return float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(u) - 1))

    def exact_cdf(x):
        return float(mpmath.ncdf(mpmath.mpf(x)))

    args = {"ndtri": uniforms(), "ndtr": list(KAPPAS)}
    rows = {name: [[x.hex(), float(pinned).hex(), exact(x).hex()]
                   for x, pinned in zip(args[name], function(np.array(args[name])).tolist())]
            for name, function, exact in (("ndtri", ndtri, exact_quantile),
                                          ("ndtr", ndtr, exact_cdf))}
    lines = ['{"about": ' + json.dumps(__doc__.split("\n\n")[1].replace("\n", " ")) + ","]
    for name in ("ndtri", "ndtr"):
        body = ",\n".join("  " + json.dumps(row) for row in rows[name])
        lines.append(f'"{name}": [\n{body}\n]' + ("," if name == "ndtri" else ""))
    TABLE.write_text("\n".join(lines) + "}\n")


if __name__ == "__main__":
    write_table()
