"""Property tests of config parsing and of every command.

Flat config documents are drawn over the schema keys with ints, floats
(including inf, nan and huge values), junk strings and cutoffs: mostly valid
arcs cutoffs with one cone half-angle in (0, pi] per arc and a nonnegative
transition width, else arc lists and cutoff keys with any values.
Grids are held to at most 16x16 pixels and 16 directions, so every drawn
run stays small.  Whatever the document, parsing either succeeds or raises
ConfigError, visible-set exits 0 or 1 without a traceback, and a successful
report carries no non-finite number.

forward runs on documents drawn from the same values: mostly valid grids,
at most one other key, drawn scattering keys, a small boundary grid and a
coarse exit-chord step, so its draws reach the Collatz-Wielandt
certificate, its proven refusal and the power fallback of a
Henyey-Greenstein kernel with a negative discrete entry.  It exits 0, 1 or
2 without a traceback; a successful report has no non-finite number and a
refusal names the spectral radius bound.

measure runs on forward's documents plus a drawn cutoff, on grids of at
most 12x12 pixels and 8 directions; its trace of the default disk source
takes the analytic, jump-refined exit-chord path.  It exits 0, 1 or 2, and
a successful report has no non-finite number.

wavefront, smoothing and normal run on measure's documents with the same
checks: wavefront builds the normal-operator image of the disk source and
its edge report, smoothing one scattering pass over seeded noise and normal
the normal-operator image.  svd, the visible and shadowed singular values,
runs on the same keys but on grids of 12 to 16 pixels a side and mostly one
cone-free arc of at least half a turn, so its visible set survives the
two-pixel erosion.  At these sizes normal and svd take the dense-matrix
route.
"""

import math
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, example, given, settings, strategies as st

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
_width = st.floats(min_value=0.0, max_value=2.0).map(repr)
_transition = st.one_of(_width, _angle)
_cutoff_extras = {"cutoff.cones": _cones,
                  "cutoff.transition_width": _transition}


# Mostly a cone wide enough for some disk edge to be microvisible.
_half_angle = st.one_of(
    st.floats(min_value=0.25, max_value=math.pi),
    st.floats(min_value=0.25, max_value=math.pi),
    st.floats(min_value=0.0, max_value=math.pi, exclude_min=True)).map(repr)


@st.composite
def _paired_cutoff(draw):
    """A valid arcs cutoff: one cone half-angle in (0, pi] per arc."""
    arcs = draw(st.lists(_valid_arc, min_size=1, max_size=3))
    cones = draw(st.lists(_half_angle, min_size=len(arcs), max_size=len(arcs)))
    return {"cutoff.preset": "arcs", "cutoff.arcs": ",".join(arcs),
            "cutoff.cones": ",".join(cones),
            "cutoff.transition_width": draw(_width)}


# Mostly a valid arcs cutoff with paired cones, else an arcs cutoff with
# any extras, else any subset of the cutoff keys.
_cutoff = st.one_of(
    _paired_cutoff(), _paired_cutoff(), _paired_cutoff(),
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


def _others(max_size, skip=()):
    """Up to max_size distinct other keys, each with a drawn value."""
    keys = sorted(key for key in _SCHEMA if key not in GRID_KEYS + skip
                  and not key.startswith("cutoff."))
    return st.lists(st.sampled_from(keys).flatmap(_entry), max_size=max_size,
                    unique_by=lambda entry: entry[0])


def _document(entries):
    return "".join(f"{key} = {value}\n" for key, value in entries.items())


@st.composite
def documents(draw):
    entries = {key: draw(_grid_value) for key in GRID_KEYS}
    entries.update(draw(_cutoff))
    entries.update(draw(_others(5)))
    return _document(entries)


# Scattering keys for forward: mostly a kernel that scatters, with a total
# from weak to far supercritical (or any value) and an anisotropy on both
# sides of the sign change of the truncated Henyey-Greenstein kernel.
_SCATTERING_PRESETS = ["isotropic", "henyey-greenstein"]
_scattering = st.fixed_dictionaries({
    "scattering.preset": st.sampled_from(_SCATTERING_PRESETS * 3 + ["zero", "x"]),
    "scattering.total": st.one_of(st.sampled_from(["0.5", "0.99", "1.5", "20.0"]),
                                  st.floats(min_value=0.0, max_value=40.0).map(repr),
                                  _value),
    "scattering.g": st.one_of(st.sampled_from(["0.0", "0.4", "0.9"]),
                              st.floats(min_value=0.0, max_value=1.0).map(repr)),
}, optional={
    "scattering.n_modes": st.one_of(st.integers(min_value=-2, max_value=6).map(str),
                                    _value),
})
# Mostly valid grid sizes, a small boundary grid and a coarse exit-chord
# step (0 selects R1/256) keep every draw's tables small.
_forward_count = st.one_of(st.sampled_from([str(n) for n in range(8, 17)]),
                           _grid_value)
_FORWARD_KEYS = ("grid.n_bdry", "solver.h_ray") + tuple(
    key for key in _SCHEMA if key.startswith("scattering."))
_trace_size = st.fixed_dictionaries({
    "grid.n_bdry": st.sampled_from(["8", "16", "32"]),
    "solver.h_ray": st.sampled_from(["0", "0.05", "0.3"]),
})


@st.composite
def forward_documents(draw, sizes=None, cutoff=None):
    """forward's documents; sizes draws the grid keys, the cutoff strategy
    adds cutoff keys."""
    if sizes is None:
        entries = {key: draw(_forward_count) for key in GRID_KEYS}
    else:
        entries = draw(sizes)
    if cutoff is not None:
        entries.update(draw(cutoff))
    entries.update(draw(_others(1, skip=_FORWARD_KEYS)))
    entries.update(draw(_scattering))
    entries.update(draw(_trace_size))
    return _document(entries)


def run_cli(command, text):
    """Exit status and report of a command on a config document, as the CLI
    maps them."""
    try:
        cfg = parse_config(text)
    except ConfigError:
        return 1, None
    with tempfile.TemporaryDirectory() as out:
        cfg.output_dir = out
        try:
            status = run_command(command, cfg, config_path="<fuzz>")
        except ConfigError:
            return 1, None
        report = Path(out, "report.txt").read_text(encoding="utf-8")
    return status, report


def _values(report):
    """Report lines other than the config path and artifact checksums."""
    return "\n".join(ln for ln in report.splitlines()
                     if not ln.startswith(("config = ", "artifact ")))


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(documents())
def test_visible_set_survives_any_config(text):
    status, report = run_cli("visible-set", text)
    assert status in (0, 1)
    if status == 0:
        assert not NON_FINITE.search(_values(report))


_SMALL_FORWARD = ("grid.nx = 12\ngrid.ny = 12\ngrid.n_theta = 8\n"
                  "grid.n_bdry = 16\nsolver.h_ray = 0.05\n")


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(forward_documents())
# The bracket, its proven refusal and the power fallback, whatever is drawn.
@example(_SMALL_FORWARD + "scattering.preset = isotropic\nscattering.total = 0.5\n")
@example(_SMALL_FORWARD + "scattering.preset = isotropic\nscattering.total = 20.0\n")
@example(_SMALL_FORWARD + "scattering.preset = henyey-greenstein\n"
         "scattering.total = 0.5\nscattering.g = 0.9\n")
def test_forward_survives_any_config(text):
    status, report = run_cli("forward", text)
    assert status in (0, 1, 2)
    if report is not None:
        values = dict(ln.split(" = ", 1) for ln in report.splitlines()
                      if " = " in ln and not ln.startswith("error = "))
        event(f"exit {status}, certificate {values.get('certificate')}")
    if status == 0:
        assert not NON_FINITE.search(_values(report))
    if status == 2:
        # The bound is inf only when K T1^{-1} overflows the float range.
        assert not math.isnan(float(values["spectral_radius_estimate"]))
        assert values["certificate"] in ("collatz-wielandt", "power-iteration")
        assert "nan" not in values.get("spectral_radius_lower", "")


# measure grids: at most 12x12 pixels and 8 directions, mostly valid.
_measure_side = st.sampled_from([str(n) for n in range(8, 13)] * 4 + ["7", "x"])
_measure_sizes = st.fixed_dictionaries({
    "grid.nx": _measure_side,
    "grid.ny": _measure_side,
    "grid.n_theta": st.sampled_from(["8"] * 10 + ["7", "x"]),
})


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(forward_documents(sizes=_measure_sizes, cutoff=_cutoff))
# The analytic trace of the default disk source through a half-arc cutoff,
# with and without a scattering source beside it.
@example(_SMALL_FORWARD + "cutoff.preset = arcs\ncutoff.arcs = 0:3.14\n"
         "scattering.preset = zero\n")
@example(_SMALL_FORWARD + "cutoff.preset = arcs\ncutoff.arcs = 0:3.14\n"
         "scattering.preset = isotropic\nscattering.total = 0.5\n")
def test_measure_survives_any_config(text):
    status, report = run_cli("measure", text)
    event(f"exit {status}")
    assert status in (0, 1, 2)
    if status == 0:
        assert not NON_FINITE.search(_values(report))


# Absorption keys for symbol: mostly a preset that absorbs, with any subset
# of its parameters, mostly of a usable size (tiny and huge ones included),
# else anything.
_ABSORPTION_KEYS = tuple(key for key in _SCHEMA if key.startswith("absorption.")
                         and key not in ("absorption.preset", "absorption.path"))
_absorption_value = {
    float: st.one_of(st.floats(min_value=0.0, max_value=3.0).map(repr),
                     st.sampled_from(["5e-324", "1e-300", "1e300"]), _value),
    int: st.one_of(st.integers(min_value=0, max_value=4).map(str), _value),
}
_absorption = st.fixed_dictionaries({
    "absorption.preset": st.sampled_from(["constant", "gaussian", "cosine"] * 3
                                         + ["zero", "x"]),
}, optional={key: _absorption_value[_SCHEMA[key][1]] for key in _ABSORPTION_KEYS})
_SYMBOL_KEYS = ("symbol.n_xi", "absorption.preset") + _ABSORPTION_KEYS


@st.composite
def symbol_documents(draw):
    entries = {key: draw(_forward_count) for key in GRID_KEYS + ("symbol.n_xi",)}
    entries.update(draw(_cutoff))
    entries.update(draw(_others(1, skip=_SYMBOL_KEYS)))
    entries.update(draw(_absorption))
    return _document(entries)


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(symbol_documents())
# A subnormal Gaussian width made the bump nan at an odd grid's centre pixel.
@example("grid.nx = 9\ngrid.ny = 9\ngrid.n_theta = 8\nsymbol.n_xi = 8\n"
         "absorption.preset = gaussian\nabsorption.width = 5e-324\n")
def test_symbol_survives_any_config(text):
    status, report = run_cli("symbol", text)
    event(f"exit {status}")
    assert status in (0, 1)
    if status == 0:
        assert not NON_FINITE.search(_values(report))


def test_outer_radius_with_overflowing_square_is_rejected():
    """R1**2 above the float range: no pixel lies in the source disk.

    This raised OverflowError from exit_times, then ran with zero source
    pixels after overflow warnings; it is now a config error naming the
    radii and the grid, and nothing overflows on the way.
    """
    text = ("grid.nx = 8\ngrid.ny = 8\ngrid.n_theta = 8\n"
            "geometry.R1 = 1.3407807929942597e+154\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=r"geometry\.R = 1 .*geometry\.R1 = "
                           r"1\.34078e\+154") as err:
            parse_config(text)
        assert run_cli("visible-set", text) == (1, None)
    assert "grid.nx = 8" in str(err.value) and "grid.ny = 8" in str(err.value)


@settings(max_examples=50, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(forward_documents(sizes=_measure_sizes, cutoff=_cutoff))
# A cone too narrow for any edge of the disk source to be microvisible left
# the visible median at 0 and the report gave response_ratio = inf at exit 0.
@example("grid.nx = 12\ngrid.ny = 12\ngrid.n_theta = 8\n"
         "cutoff.preset = arcs\ncutoff.arcs = 0:0.3\ncutoff.cones = 0.1\n")
def test_wavefront_survives_any_config(text):
    status, report = run_cli("wavefront", text)
    event(f"exit {status}")
    assert status in (0, 1, 2)
    if status == 0:
        assert not NON_FINITE.search(_values(report))


@settings(max_examples=50, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(forward_documents(sizes=_measure_sizes, cutoff=_cutoff))
# A scattering total near 1e153 overflowed the power spectrum of the smoothed
# noise, and the report gave high_freq_fraction_after = nan at exit 0.
@example("grid.nx = 8\ngrid.ny = 8\ngrid.n_theta = 8\ngrid.n_bdry = 8\n"
         "scattering.preset = isotropic\nscattering.total = 9.661882710679254e+152\n")
# A negative seed raised ValueError from np.random.default_rng.
@example(_SMALL_FORWARD + "run.seed = -1\n")
def test_smoothing_survives_any_config(text):
    status, report = run_cli("smoothing", text)
    event(f"exit {status}")
    assert status in (0, 1, 2)
    if status == 0:
        assert not NON_FINITE.search(_values(report))


@settings(max_examples=50, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(forward_documents(sizes=_measure_sizes, cutoff=_cutoff))
def test_normal_survives_any_config(text):
    status, report = run_cli("normal", text)
    event(f"exit {status}")
    assert status in (0, 1, 2)
    if status == 0:
        assert not NON_FINITE.search(_values(report))


# svd grids: 12 to 16 pixels a side, mostly 8 directions, so the visible set
# keeps pixels after svd's two-pixel erosion and the dense route is taken.
_svd_sizes = st.fixed_dictionaries({
    "grid.nx": st.sampled_from([str(n) for n in range(12, 17)]),
    "grid.ny": st.sampled_from([str(n) for n in range(12, 17)]),
    "grid.n_theta": st.sampled_from(["8"] * 10 + ["7", "x"]),
})
# Mostly one arc of at least half a turn and no cone, whose eroded visible
# set is rarely empty, else any cutoff.
_wide_arc = st.tuples(
    st.floats(min_value=-7.0, max_value=7.0),
    st.floats(min_value=math.pi, max_value=2.0 * math.pi),
).map(lambda arc: {"cutoff.preset": "arcs", "cutoff.arcs": f"{arc[0]!r}:{arc[0] + arc[1]!r}"})
_svd_cutoff = st.one_of(_wide_arc, _wide_arc, _wide_arc, _cutoff)


@settings(max_examples=50, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(forward_documents(sizes=_svd_sizes, cutoff=_svd_cutoff))
# A grid above the dense cap and an empty eroded visible support both raised
# a ValueError traceback from svd_injectivity.
@example("grid.nx = 40\ngrid.ny = 40\ngrid.n_theta = 8\n")
@example("grid.nx = 12\ngrid.ny = 12\ngrid.n_theta = 8\n"
         "cutoff.preset = arcs\ncutoff.arcs = 0:0.3\n")
@example("grid.nx = 12\ngrid.ny = 12\ngrid.n_theta = 8\ncutoff.preset = empty\n")
def test_svd_survives_any_config(text):
    status, report = run_cli("svd", text)
    event(f"exit {status}")
    assert status in (0, 1, 2)
    if status == 0:
        assert not NON_FINITE.search(_values(report))
