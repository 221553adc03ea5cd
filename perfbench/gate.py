"""Output gate: decides whether one CLI command produced a correct result.

A command fails when its exit status is not 0, when its report has a
``check ... = FAIL`` line, when a reported number is nan or inf, when an
artifact's sha256 differs from the previous pass over the same inputs, or
when a named value drifts from the value recorded for this input variant
in references.json.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")

# Named values compared against the recorded reference.  The tolerance is
# far above reordering roundoff and far below any discretization change.
NAMED_VALUES = ("trace_norm", "measurement_norm", "normal_image_norm",
                "sigma_min_visible", "symbol_min", "response_ratio")
NAMED_RTOL = 1e-9
# Integer values that must match the reference exactly.
EXACT_VALUES = ("iterations",)


def load_references():
    if not REFERENCES.is_file():
        return {}
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def parse_report(path):
    """Returns (values, checks, artifacts) from a report.txt."""
    values, checks, artifacts = {}, {}, {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("artifact "):
            _, name, _, digest = line.split()
            artifacts[name] = digest
            continue
        key, eq, val = line.partition(" = ")
        if not eq:
            continue
        if key.startswith("check "):
            checks[key[len("check "):]] = val
        else:
            values[key] = val
    return values, checks, artifacts


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def named_values(values):
    """The reference-compared values present in one report."""
    out = {}
    for key in NAMED_VALUES + EXACT_VALUES:
        if key in values:
            num = _number(values[key])
            out[key] = int(num) if key in EXACT_VALUES else num
    return out


def check_command(status, report_path, previous_artifacts, reference):
    """Returns (problems, artifacts) for one command; no problems = passed.

    previous_artifacts: sha256 by artifact name from an earlier pass over the
    same inputs, or None.  reference: the recorded named values for this
    command and input variant, or None to skip that comparison.
    """
    if status != 0:
        return [f"exit status {status}"], None
    if not Path(report_path).is_file():
        return ["no report.txt"], None
    values, checks, artifacts = parse_report(report_path)
    problems = [f"check {name} = {v}" for name, v in checks.items() if v != "PASS"]
    for key, text in values.items():
        num = _number(text)
        if num is not None and not math.isfinite(num):
            problems.append(f"{key} = {text}")
    if previous_artifacts is not None:
        for name, digest in artifacts.items():
            if previous_artifacts.get(name) != digest:
                problems.append(f"artifact {name} changed between passes")
    if reference is not None:
        got = named_values(values)
        for key, want in reference.items():
            have = got.get(key)
            if have is None:
                problems.append(f"{key} missing from report")
            elif key in EXACT_VALUES:
                if have != want:
                    problems.append(f"{key} = {have}, recorded {want}")
            elif abs(have - want) > NAMED_RTOL * max(abs(have), abs(want)):
                problems.append(f"{key} = {have!r}, recorded {want!r}")
    return problems, artifacts
