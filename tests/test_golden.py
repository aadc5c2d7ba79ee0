"""Outputs of the golden variant grid must equal the frozen digests bit for bit.

A mismatch is an output change. If it is meant, re-freeze with
`PYTHONPATH=src python3 tests/freeze_golden_grid.py` and give the reason in
CHANGES.md; otherwise it is a regression.
"""

import json

import freeze_golden_grid as golden


def _mismatches(frozen: dict, current: dict) -> list[str]:
    lines = []
    for name in sorted(frozen.keys() | current.keys()):
        want, got = frozen.get(name), current.get(name)
        if want is None or got is None:
            lines.append(f"{name}: {'not frozen' if want is None else 'no longer run'}")
            continue
        fields = sorted(f for f in want.keys() | got.keys() if want.get(f) != got.get(f))
        if fields:
            lines.append(f"{name}: {', '.join(fields)}")
    return lines


def test_variant_grid_matches_frozen_digests():
    with open(golden.GOLDEN_PATH) as fh:
        frozen = json.load(fh)
    current = golden.compute()
    differ = [
        f"{section} {line}"
        for section in ("runs", "reports")
        for line in _mismatches(frozen[section], current[section])
    ]
    assert not differ, "outputs differ from tests/golden_grid.json:\n" + "\n".join(differ)
