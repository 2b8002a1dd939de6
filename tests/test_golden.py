"""Every small output of the command line against a committed golden copy.

``tests/golden/`` holds what ``atlc compare --dir scenarios/`` writes apart
from the trajectory CSVs (the events CSVs, the summaries and
``comparison.csv``), the candidates CSV of a near-limit adaptive run and
three margin maps.  The trajectory CSVs stay out for their size; their
summaries are pinned here, and their bytes by the determinism test of
``test_cli.py``.

Cells are compared one by one: empty cells, integers and other strings
exactly, floats within 1e-9 relative.  A mismatch names the file, the row
and the column (the key, in a summary).

A change that alters outputs on purpose regenerates the copies with

    PYTHONPATH=src python tests/test_golden.py

and the diff of ``tests/golden/`` then shows what moved.
"""

from __future__ import annotations

import csv
import json
import math
import re
import shutil
import tempfile
from pathlib import Path

import pytest

from atlc.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"
CASE = SCENARIOS / "atlc_cd04.json"
# six events, four of them with every candidate infeasible
NEAR_LIMIT = ["--set", "z0=12", "--set", "v0=24", "--set", "T=0.3"]
MAP_STATES = [(90.0, 15.0), (12.0, 24.0), (10.3, 13.0)]
REL_TOL = 1e-9
INTEGER = re.compile(r"-?\d+")

IDS = sorted(path.stem for path in SCENARIOS.glob("*.json"))
MAPS = {(z, v): f"margin_map_z{z:g}_v{v:g}.csv" for z, v in MAP_STATES}
NAMES = sorted(
    [f"{sid}_events.csv" for sid in IDS] + [f"{sid}_summary.json" for sid in IDS]
    + ["comparison.csv", "atlc_cd04_candidates.csv", *MAPS.values()]
)


def write_outputs(work: Path, compare: Path) -> dict[str, Path]:
    """Run the commands other than compare into ``work``; return each golden
    name's new file, those of compare from its output directory ``compare``."""
    near = work / "near"
    assert main(["run", "--config", str(CASE), "--out", str(near),
                 "--trace-candidates", *NEAR_LIMIT]) == 2
    files = {name: compare / name for name in NAMES}
    files["atlc_cd04_candidates.csv"] = near / "atlc_cd04_candidates.csv"
    for (z, v), name in MAPS.items():
        files[name] = work / name
        assert main(["margin-map", "--config", str(CASE), "--z", str(z),
                     "--v", str(v), "--out", str(files[name])]) == 0
    return files


def cells_differ(expected: str, found: str) -> bool:
    if expected == found:
        return False
    if INTEGER.fullmatch(expected) or INTEGER.fullmatch(found):
        return True
    try:
        return not math.isclose(float(expected), float(found), rel_tol=REL_TOL)
    except ValueError:  # an empty cell or a string
        return True


def values_differ(expected, found) -> bool:
    if type(expected) is float and type(found) is float:
        return not math.isclose(expected, found, rel_tol=REL_TOL)
    return type(expected) is not type(found) or expected != found


def csv_mismatches(name: str, expected: Path, found: Path) -> list[str]:
    def rows(path):
        with open(path, encoding="utf-8", newline="") as fh:
            return list(csv.reader(fh))

    want, got = rows(expected), rows(found)
    if want[:1] != got[:1]:
        return [f"{name}: header {got[:1]} != {want[:1]}"]
    header = want[0]
    problems = [f"{name}: {len(got) - 1} rows, expected {len(want) - 1}"
                ] if len(want) != len(got) else []
    for i, (row_want, row_got) in enumerate(zip(want[1:], got[1:]), start=1):
        for column, e, f in zip(header, row_want, row_got):
            if cells_differ(e, f):
                problems.append(
                    f"{name}: row {i} column {column!r}: expected {e!r}, found {f!r}")
    return problems


def json_mismatches(name: str, expected: Path, found: Path) -> list[str]:
    want = json.loads(expected.read_text(encoding="utf-8"))
    got = json.loads(found.read_text(encoding="utf-8"))
    return [f"{name}: key {key!r}: expected {want.get(key)!r}, found {got.get(key)!r}"
            for key in sorted(set(want) | set(got))
            if key not in want or key not in got or values_differ(want[key], got[key])]


@pytest.fixture(scope="module")
def outputs(case_study, tmp_path_factory):
    # compare exits 0 although two baselines end unsafe; 3 would be an abort
    assert case_study.code == 0
    return write_outputs(tmp_path_factory.mktemp("golden"), case_study.out)


def test_golden_directory_holds_every_pinned_output():
    assert sorted(path.name for path in GOLDEN.iterdir()) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_output_matches_golden(outputs, name):
    compare = json_mismatches if name.endswith(".json") else csv_mismatches
    problems = compare(name, GOLDEN / name, outputs[name])
    assert problems == [], "\n".join(problems[:10])


def test_comparison_catches_a_moved_cell(tmp_path):
    """One float moved past the tolerance, one integer and one empty cell
    changed: each is named with its row and column; a float moved within
    the tolerance is not."""
    expected = tmp_path / "expected.csv"
    found = tmp_path / "found.csv"
    expected.write_text("a,b,c\n1.5,3,\n2,x,0.25\n", encoding="utf-8")
    found.write_text("a,b,c\n1.5000001,3.0,0\n2,x,0.250000000001\n",
                     encoding="utf-8")
    assert csv_mismatches("f.csv", expected, found) == [
        "f.csv: row 1 column 'a': expected '1.5', found '1.5000001'",
        "f.csv: row 1 column 'b': expected '3', found '3.0'",
        "f.csv: row 1 column 'c': expected '', found '0'",
    ]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        compare = Path(work) / "compare"
        assert main(["compare", "--dir", str(SCENARIOS), "--out", str(compare)]) == 0
        GOLDEN.mkdir(exist_ok=True)
        for name, path in write_outputs(Path(work), compare).items():
            shutil.copyfile(path, GOLDEN / name)
