"""Every reference spec reproduces its committed table and manifest.

``tests/reference_tables.py`` wrote ``tests/reference/<name>/`` from the
shipped figure specs and the four benchmark spec shapes at 2 runs. Each
spec is rerun here. Rows must match in order and in every key field;
each row's mean and stderr must agree within ``RTOL`` relative. A
reference value that is exactly zero (the stderr of two equal samples)
is held to ``ZERO_FLOOR`` absolute instead, since no relative bound
applies to it. Manifests must match exactly, except for the numbers
inside ``trend-warnings``: those quote table means, so they are held to
the same bound as the rows, and the text around them must match exactly.
"""

import json
import re

import pytest

from loctrack.harness import ResultTable
from reference_tables import NAMES, REFERENCE, write_reference

RTOL = 1e-10
ZERO_FLOOR = 1e-14


NUMBER = re.compile(r"-?\d+\.\d+(?:e[-+]?\d+)?")


def _within(got: float, want: float) -> bool:
    if want == 0.0:
        return abs(got) <= ZERO_FLOOR
    return abs(got - want) <= RTOL * abs(want)


def _same_manifest(got: dict, want: dict) -> bool:
    """Equal manifests, trend-warning numbers compared as table means."""
    got, want = dict(got), dict(want)
    warnings = got.pop("trend-warnings"), want.pop("trend-warnings")
    if got != want or len(warnings[0]) != len(warnings[1]):
        return False
    for g, w in zip(*warnings):
        g_num, w_num = NUMBER.findall(g), NUMBER.findall(w)
        if NUMBER.sub("#", g) != NUMBER.sub("#", w) or len(g_num) != len(w_num):
            return False
        if not all(_within(float(a), float(b)) for a, b in zip(g_num, w_num)):
            return False
    return True


@pytest.mark.parametrize("name", NAMES)
def test_spec_reproduces_its_reference_table(name, tmp_path):
    out = write_reference(name, tmp_path)
    want_dir = REFERENCE / name
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    want_manifest = json.loads((want_dir / "manifest.json").read_text(encoding="utf-8"))
    assert _same_manifest(manifest, want_manifest), (manifest, want_manifest)

    got = ResultTable.from_csv(str(out / "table.csv")).rows
    want = ResultTable.from_csv(str(want_dir / "table.csv")).rows
    assert len(got) == len(want)
    moved = []
    for g, w in zip(got, want):
        assert (g.experiment, g.sweep_value, g.t, g.k, g.metric_name, g.n) == (
            w.experiment, w.sweep_value, w.t, w.k, w.metric_name, w.n
        )
        if not (_within(g.mean, w.mean) and _within(g.stderr, w.stderr)):
            moved.append((w, g.mean, g.stderr))
    assert not moved, f"{len(moved)} rows moved; first: {moved[0]}"
