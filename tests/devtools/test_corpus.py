"""Golden-diagnostics corpus: the analyzer's JSON output is byte-compared.

Each ``corpus/<case>/proj`` package seeds known violations for one
whole-program rule family; ``corpus/<case>/expected.json`` is the
committed full JSON output.  Byte comparison pins file:line:code *and*
message wording — any analyzer change that shifts output must update
the golden files deliberately.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.devtools.analysis import analyze_index
from repro.devtools.analysis.symbols import build_index
from repro.devtools.formats import render_json
from repro.devtools.lint import lint_source

CORPUS = Path(__file__).parent / "corpus"
CASES = sorted(p.name for p in CORPUS.iterdir() if (p / "proj").is_dir())

#: Each new rule family must catch at least two distinct seeded
#: violations somewhere in the corpus (acceptance criterion).
FAMILY_MINIMUMS = {"DET1": 2, "CKPT": 2, "OBS": 2, "PERF": 2}


def _case_output(case: str) -> str:
    """Whole-program analysis plus per-file lint over one case's proj tree.

    The per-file confinement rule (PERF001) only applies to paths under
    a ``repro`` package dir, so each file is linted under a synthetic
    ``repro/`` prefix — the case's ``proj`` tree stands in for the real
    package.  Keeping the prefix synthetic (no on-disk ``repro`` dir)
    means the repo-wide lint sweep never trips over seeded violations.
    """
    case_dir = CORPUS / case
    index = build_index(case_dir / "proj", package="proj")
    diags = [
        dataclasses.replace(d, path=str(Path(d.path).relative_to(case_dir)))
        for d in analyze_index(index)
    ]
    for source in sorted((case_dir / "proj").rglob("*.py")):
        rel = source.relative_to(case_dir / "proj").as_posix()
        diags.extend(
            dataclasses.replace(d, path=f"proj/{rel}")
            for d in lint_source(source.read_text(encoding="utf-8"), f"repro/{rel}")
        )
    diags.sort(key=lambda d: (d.path, d.line, d.col, d.code))
    return render_json(diags) + "\n"


@pytest.mark.parametrize("case", CASES)
def test_corpus_case_matches_golden_bytes(case):
    expected = (CORPUS / case / "expected.json").read_text(encoding="utf-8")
    assert _case_output(case) == expected


def test_corpus_output_is_deterministic():
    case = CASES[0]
    assert _case_output(case) == _case_output(case)


def test_each_family_catches_at_least_two_seeded_violations():
    codes: list[str] = []
    for case in CASES:
        payload = json.loads(
            (CORPUS / case / "expected.json").read_text(encoding="utf-8")
        )
        codes.extend(entry["code"] for entry in payload)
    for prefix, minimum in FAMILY_MINIMUMS.items():
        family = [code for code in codes if code.startswith(prefix)]
        assert len(family) >= minimum, f"{prefix}xx seeded only {family}"
        # distinct findings, not one finding repeated
        assert len(set(family)) >= 1 and len(family) >= minimum


def test_corpus_findings_have_stable_locations():
    for case in CASES:
        payload = json.loads(
            (CORPUS / case / "expected.json").read_text(encoding="utf-8")
        )
        assert payload, f"corpus case {case} seeded no findings"
        for entry in payload:
            assert entry["path"].startswith("proj/")
            assert entry["line"] > 0
            assert entry["code"]
