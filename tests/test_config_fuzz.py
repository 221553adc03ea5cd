"""Property test of config parsing and the visible-set command.

Flat config documents are drawn over the schema keys with ints, floats
(including inf, nan and huge values), junk strings and cutoff arc lists.
Grids are held to at most 16x16 pixels and 16 directions, so every drawn
run stays small.  Whatever the document, parsing either succeeds or raises
ConfigError, the command exits 0 or 1 without a traceback, and a
successful report carries no non-finite number.
"""

import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rte_tomo.cli import _SCHEMA, ConfigError, parse_config, run_command

GRID_KEYS = ("grid.nx", "grid.ny", "grid.n_theta")
NON_FINITE = re.compile(r"\b(?:nan|inf)\b", re.IGNORECASE)

# One config line holds any character but a line break or a comment sign.
_junk = st.text(
    alphabet=st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"),
                           blacklist_characters="#"),
    max_size=12)
_floats = st.floats(allow_nan=True, allow_infinity=True).map(repr)
_value = st.one_of(st.integers().map(str), _floats, _junk)
# Grid sizes are mostly valid ints up to 16, else below 8 or unreadable.
_grid_value = st.sampled_from([str(n) for n in range(8, 17)] * 4
                              + ["7", "-1", "", "x", "1.5", "inf", "nan", "1e3"])
_angle = st.one_of(st.floats(min_value=-7.0, max_value=7.0).map(repr),
                   _floats)
# Mostly an arc start plus a width up to a full turn, else two angles.
_valid_arc = st.tuples(
    st.floats(min_value=-7.0, max_value=7.0),
    st.floats(min_value=1e-3, max_value=2.0 * math.pi),
).map(lambda arc: f"{arc[0]!r}:{arc[0] + arc[1]!r}")
_arc = st.one_of(_valid_arc, _valid_arc, st.tuples(_angle, _angle).map(":".join))
_arcs = st.one_of(st.lists(_arc, min_size=1, max_size=3).map(",".join), _junk)
_cone = st.one_of(st.floats(min_value=0.0, max_value=math.pi).map(repr), _angle)
_cones = st.one_of(st.lists(_cone, max_size=3).map(",".join), _junk)
_transition = st.one_of(st.floats(min_value=0.0, max_value=2.0).map(repr),
                        _angle)
_cutoff_extras = {"cutoff.cones": _cones,
                  "cutoff.transition_width": _transition}
# Mostly an arcs cutoff with its arcs, else any subset of the cutoff keys.
_cutoff = st.one_of(
    st.fixed_dictionaries(
        {"cutoff.preset": st.just("arcs"), "cutoff.arcs": _arcs},
        optional=_cutoff_extras),
    st.fixed_dictionaries({}, optional={
        "cutoff.preset": st.one_of(st.sampled_from(["full", "empty", "arcs"]),
                                   _junk),
        "cutoff.arcs": _arcs,
        **_cutoff_extras,
    }))
# A value of the key's own type, or anything at all.
_TYPED = {int: st.integers(min_value=-100, max_value=100).map(str),
          float: st.floats(min_value=-10.0, max_value=10.0).map(repr),
          str: _junk}


def _entry(key):
    return st.tuples(st.just(key), st.one_of(_TYPED[_SCHEMA[key][1]], _value))


_others = st.lists(
    st.sampled_from(sorted(key for key in _SCHEMA if key not in GRID_KEYS
                           and not key.startswith("cutoff."))).flatmap(_entry),
    max_size=5, unique_by=lambda entry: entry[0])


@st.composite
def documents(draw):
    entries = {key: draw(_grid_value) for key in GRID_KEYS}
    entries.update(draw(_cutoff))
    entries.update(draw(_others))
    return "".join(f"{key} = {value}\n" for key, value in entries.items())


def run_visible_set(text):
    """Exit status of visible-set on a config document, as the CLI maps it."""
    try:
        cfg = parse_config(text)
    except ConfigError:
        return 1, None
    with tempfile.TemporaryDirectory() as out:
        cfg.output_dir = out
        try:
            status = run_command("visible-set", cfg, config_path="<fuzz>")
        except ConfigError:
            return 1, None
        report = Path(out, "report.txt").read_text(encoding="utf-8")
    return status, report


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(documents())
def test_visible_set_survives_any_config(text):
    status, report = run_visible_set(text)
    assert status in (0, 1)
    if status == 0:
        lines = [ln for ln in report.splitlines()
                 if not ln.startswith(("config = ", "artifact "))]
        assert not NON_FINITE.search("\n".join(lines))


# The radius squares to inf on purpose; numpy says so on the way.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_outer_radius_with_overflowing_square_exits_zero():
    """R1**2 above the float range raised OverflowError from exit_times."""
    status, report = run_visible_set(
        "grid.nx = 8\ngrid.ny = 8\ngrid.n_theta = 8\n"
        "geometry.R1 = 1.3407807929942597e+154\n")
    assert status == 0
    assert "visible_pixels = 0" in report.splitlines()
