import dataclasses
import json
import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from risac import cli
from risac.config import EXPERIMENTS, RunConfig, parse_config, render_config
from risac import errors
from risac.errors import ConfigError

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
count = st.integers(min_value=1, max_value=10**6)
position = st.tuples(finite, finite)

# One strategy per RunConfig field, each drawing only values that validate.
FIELD_STRATEGIES = {
    "experiment": st.sampled_from(EXPERIMENTS),
    "seed": st.integers(min_value=0, max_value=2**63),
    "transmit_power": st.floats(min_value=sys.float_info.min, allow_infinity=False),
    # dBm whose power in watts is a finite positive float.
    "noise_sensing_dbm": st.floats(-3000.0, 3000.0),
    "noise_comms_dbm": st.floats(-3000.0, 3000.0),
    "l_t": count,
    "l_s": count,
    "n_ris": st.integers(min_value=0, max_value=10**6),
    "bs_position": position,
    "target_position": position,
    "ris_position": position,
    "user_position": position,
    "samples_t": count,
    "road_start": position,
    "road_end": position,
    "num_waypoints": count,
    "blocked_from_index": st.integers(),
    "snr_db_list": st.lists(finite, max_size=4, unique=True).map(tuple),
    "pf_list": st.lists(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=4, unique=True
    ).map(tuple),
    "trials": count,
    "rho_list": st.lists(st.floats(0.0, 1.0), max_size=4, unique=True).map(tuple),
    "r0_points": count,
    "coupling": st.sampled_from(("strong", "weak")),
    "ris_modes": st.lists(
        st.sampled_from(("with", "without", "reference")), max_size=3, unique=True
    ).map(tuple),
    "target_angles_deg": st.lists(finite, max_size=4, unique=True).map(tuple),
    "grid_points": count,
    "blocked_user_path": st.booleans(),
    "target_gain_var": st.floats(min_value=0.0, allow_infinity=False),
    "spacing_wavelengths": positive,
    "beam_width_deg": positive,
}
for _field in dataclasses.fields(RunConfig):
    if _field.type == "float":
        FIELD_STRATEGIES.setdefault(_field.name, finite)

valid_configs = (
    st.fixed_dictionaries(FIELD_STRATEGIES)
    .map(lambda kw: RunConfig(**kw))
    # beampattern designs one sensing column per target, so it needs one.
    .filter(lambda cfg: cfg.experiment != "beampattern" or cfg.target_angles_deg)
    # isac-tradeoff draws one curve per coupling, so it needs one.
    .filter(lambda cfg: cfg.experiment != "isac-tradeoff" or cfg.rho_list)
    # An angle CRB needs a receive array of two or more elements.
    .filter(lambda cfg: cfg.l_s >= 2 or cfg.experiment not in
            ("sense-sweep", "isac-tradeoff", "ris-isac-tradeoff"))
)


def test_every_field_has_a_strategy():
    assert set(FIELD_STRATEGIES) == {f.name for f in dataclasses.fields(RunConfig)}


# Edge values drawn over the defaults: coincident, nearly coincident and far
# positions, one- and two-element arrays, RIS-free scenes, extreme powers,
# noise and path-loss exponents, one- and two-point grids, narrow and
# all-covering beams, angles at and past endfire. detect runs at most 500
# trials, so an example takes milliseconds.
edge_position = st.sampled_from([(0.0, 0.0), (40.0, 0.0), (30.0, 30.0), (20.0, -20.0),
                                 (1e-6, 0.0), (40.0, 1e-12), (0.0, 1e6), (-40.0, 0.0)])
EDGE_STRATEGIES = {
    **{name: edge_position for name in ("bs_position", "target_position", "ris_position",
                                        "user_position", "road_start", "road_end")},
    "l_t": st.sampled_from([1, 2, 3]),
    "l_s": st.sampled_from([1, 2, 3]),
    "n_ris": st.sampled_from([0, 1, 2]),
    "transmit_power": st.sampled_from([1e-320, 1e-30, 1.0, 1e30]),
    "target_gain_var": st.sampled_from([0.0, 1e-300, 1e300]),
    # -3200 and -3070 dBm are subnormal in watts; 3100 dBm is about 1e307 W;
    # -3000 dBm puts the isac-tradeoff CRBs below the smallest normal double
    # and, at 1e30 W, the comms SNR past the float range.
    "noise_sensing_dbm": st.sampled_from([-4000.0, -3200.0, -3070.0, -3000.0, -300.0, 0.0,
                                          300.0, 3100.0, 4000.0]),
    "noise_comms_dbm": st.sampled_from([-4000.0, -3200.0, -3070.0, -3000.0, -300.0, 0.0,
                                        300.0, 3100.0, 4000.0]),
    "pathloss_exp_direct": st.sampled_from([-2.0, 0.0, 20.0]),
    "pathloss_exp_ris": st.sampled_from([-2.0, 0.0, 20.0]),
    "spacing_wavelengths": st.sampled_from([1e-3, 10.0]),
    "samples_t": st.just(1),
    "num_waypoints": st.sampled_from([1, 2]),
    "blocked_from_index": st.sampled_from([-1, 0, 100]),
    "snr_db_list": st.sampled_from([(), (-300.0,), (300.0,), (4000.0,)]),
    "trials": st.sampled_from([1, 500]),
    "rho_list": st.sampled_from([(0.0,), (1.0,)]),
    "r0_points": st.sampled_from([1, 2]),
    "coupling": st.sampled_from(["weak", "strong"]),
    "sinr_threshold_db": st.sampled_from([-300.0, 40.0]),
    "target_angles_deg": st.sampled_from([(0.0,), (-90.0, 90.0), (180.0,), (1000.0, -1000.0)]),
    "beam_width_deg": st.sampled_from([1e-3, 180.0, 1000.0]),
    "grid_points": st.sampled_from([1, 2, 3]),
}
edge_configs = st.builds(lambda experiment, kw: RunConfig(experiment=experiment, **kw),
                         st.sampled_from(EXPERIMENTS),
                         st.fixed_dictionaries({}, optional=EDGE_STRATEGIES))
TYPED_ERRORS = tuple(v for v in vars(errors).values()
                     if isinstance(v, type) and issubclass(v, Exception))
# The known edge reproducers that EDGE_STRATEGIES can express, each run every
# time whatever the draw picks. Each once ended in an untyped error, a
# warning, a subnormal CRB or an unnamed pair.
EDGE_REPRODUCERS = [
    # detect: the GLRT overflowed at calibrated gains near 1e275, and the
    # gain calibration itself at 3100 dBm. detect now runs at its SNR grid
    # and reads no noise power, so these write the default-noise CSV.
    dict(experiment="detect", noise_sensing_dbm=3100.0, bs_position=(40.0, 1e-12), trials=500),
    dict(experiment="detect", noise_sensing_dbm=3100.0, trials=500),
    dict(experiment="detect", snr_db_list=(4000.0,), trials=500),
    dict(experiment="detect", transmit_power=1e-320, trials=500),
    # The comms SNR past the float range; its rounding-noise rate.
    dict(experiment="isac-tradeoff", noise_comms_dbm=-3000.0, transmit_power=1e30),
    dict(experiment="ris-isac-tradeoff", noise_comms_dbm=-3000.0, transmit_power=1e30),
    dict(experiment="ris-isac-tradeoff", noise_comms_dbm=-3000.0, pathloss_exp_direct=-2.0),
    # Noise powers that are subnormal or past the float range in watts.
    dict(experiment="isac-tradeoff", noise_sensing_dbm=-3000.0),
    dict(experiment="ris-isac-tradeoff", noise_sensing_dbm=-3200.0),
    dict(experiment="isac-tradeoff", noise_comms_dbm=-3200.0),
    dict(experiment="sense-sweep", noise_comms_dbm=-4000.0),
    dict(experiment="sense-sweep", noise_sensing_dbm=4000.0),
    dict(experiment="isac-tradeoff", transmit_power=1e-320, l_s=3),
    # Degenerate geometry, arrays and beams.
    dict(experiment="ris-isac-tradeoff", ris_position=(40.0, 1e-12), pathloss_exp_ris=20.0),
    dict(experiment="ris-isac-tradeoff", l_t=1),
    dict(experiment="ris-isac-tradeoff", target_gain_var=0.0),
    dict(experiment="beampattern", target_angles_deg=(0.0,), beam_width_deg=1000.0,
         grid_points=1),
    dict(experiment="beampattern", grid_points=2),
    # Coincident positions, including ones the run does not read.
    dict(experiment="isac-tradeoff", user_position=(30.0, 30.0)),
    dict(experiment="detect", user_position=(30.0, 30.0), trials=500),
    dict(experiment="sense-sweep", user_position=(30.0, 30.0)),
    dict(experiment="isac-tradeoff", n_ris=0, user_position=(0.0, 0.0)),
]


def _with_reproducers(test):
    for kw in reversed(EDGE_REPRODUCERS):
        test = example(cfg=RunConfig(**kw))(test)
    return test


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@_with_reproducers
@given(edge_configs)
def test_edge_configs_write_full_csvs_or_raise_typed_errors(tmp_path_factory, cfg):
    # A warning fails the run (warnings are errors in this suite), so a
    # NaN from an invalid operation cannot slip into a cell either.
    out = tmp_path_factory.mktemp("edge")
    try:
        cli.run_experiment(cfg, out)
    except TYPED_ERRORS:
        return
    for path in out.glob("*.csv"):
        header, *lines = path.read_text().splitlines()
        for line in lines:
            cells = dict(zip(header.split(","), line.split(",")))
            assert "" not in cells.values(), (path.name, line)
            # A CRB of 0 claims an exact estimate and a subnormal one has lost
            # its precision; an unlit target reads inf.
            assert float(cells.get("crb", "inf")) >= sys.float_info.min, (path.name, line)


@settings(max_examples=300, deadline=None)
@given(valid_configs)
def test_render_then_parse_round_trips(cfg):
    assert parse_config(render_config(cfg)) == cfg


def _error_of(capsys, argv):
    code = cli.main(argv)
    err = json.loads(capsys.readouterr().err)
    return code, err


def test_unknown_key_is_a_json_config_error(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("l_t = 4\nnot_a_key = 3\n")
    code, err = _error_of(capsys, ["sense-sweep", "--config", str(config),
                                   "--out", str(tmp_path / "out")])
    assert code == 2
    assert set(err) == {"error", "detail"}
    assert err["error"] == "ConfigError" and "not_a_key" in err["detail"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["center_frequency_ghz", "rate_threshold", "restarts"])
def test_removed_key_is_a_json_config_error(tmp_path, capsys, key):
    # Each key was accepted once: the first two were never read, and restarts
    # set the random starts of the RIS profile solve, which now has one
    # deterministic start. Naming one now fails loudly.
    config = tmp_path / "removed.cfg"
    config.write_text(f"l_t = 4\n{key} = 3.0\n")
    code, err = _error_of(capsys, ["sense-sweep", "--config", str(config),
                                   "--out", str(tmp_path / "out")])
    assert code == 2
    assert set(err) == {"error", "detail"}
    assert err["error"] == "ConfigError" and key in err["detail"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "line",
    ["snr_db_list = nan", "snr_db_list = 0.0, inf", "pf_list = 0.1, nan",
     "target_angles_deg = -inf", "bs_position = nan, 0", "road_end = 1.0, inf",
     "target_gain_var = -1.0", "spacing_wavelengths = 0.0", "noise_comms_dbm = -4000",
     "noise_sensing_dbm = 4000", "transmit_power = 1e-320"],
)
def test_nonfinite_tuple_entry_is_a_json_config_error(tmp_path, capsys, line):
    # Every float of a tuple or position is checked, not only scalar floats.
    # A scalar outside its range fails the same way, before the output
    # directory is made: a negative target gain variance, a nonpositive
    # element spacing or a noise power that underflows to 0 W used to exit
    # with a bare ValueError from the scene, a noise power past the float
    # range with an OverflowError, and a denormal power budget with a
    # ValueError from the detector here (from the beamformer's own budget
    # check in isac-tradeoff).
    config = tmp_path / "nonfinite.cfg"
    config.write_text(f"l_t = 4\n{line}\n")
    code, err = _error_of(capsys, ["detect", "--config", str(config),
                                   "--out", str(tmp_path / "out")])
    assert code == 2
    assert set(err) == {"error", "detail"}
    assert err["error"] == "ConfigError" and line.split(" = ")[0] in err["detail"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "line",
    ["pf_list = 0.1, 0.1", "snr_db_list = 0.0, 5.0, 0.0", "ris_modes = with, with",
     "rho_list = 0.0, 0.5, 0.0", "target_angles_deg = -40.0, -40.0"],
)
def test_repeated_grid_entry_is_a_json_config_error(tmp_path, capsys, line):
    # A repeated entry would write two detect rows under one empirical_pf key,
    # or a ris-isac-tradeoff mode's rows twice under one max_rate_<mode> key;
    # a repeated rho or target angle duplicates a curve or a beam.
    config = tmp_path / "repeated.cfg"
    config.write_text(f"l_t = 4\n{line}\n")
    code, err = _error_of(capsys, ["detect", "--config", str(config),
                                   "--out", str(tmp_path / "out")])
    assert code == 2
    assert set(err) == {"error", "detail"}
    assert err["error"] == "ConfigError" and line.split(" = ")[0] in err["detail"]
    assert not (tmp_path / "out").exists()


def test_repeated_grid_entry_is_a_config_error():
    with pytest.raises(ConfigError, match="pf_list"):
        RunConfig(pf_list=(0.1, 0.01, 0.1)).validate()
    with pytest.raises(ConfigError, match="snr_db_list"):
        RunConfig(snr_db_list=(5.0, 5.0)).validate()
    with pytest.raises(ConfigError, match="ris_modes"):
        RunConfig(ris_modes=("with", "without", "with")).validate()
    with pytest.raises(ConfigError, match="rho_list"):
        RunConfig(rho_list=(0.3, 0.3)).validate()
    with pytest.raises(ConfigError, match="target_angles_deg"):
        RunConfig(target_angles_deg=(20.0, -40.0, 20.0)).validate()
    RunConfig(snr_db_list=(0.0, 5.0), pf_list=(0.1, 0.099), rho_list=(0.3, 0.31),
              ris_modes=("reference", "with"), target_angles_deg=(20.0, 20.5)).validate()


@pytest.mark.parametrize("coupling", ["weak", "strong"])
def test_unequal_arrays_run_every_ris_mode(tmp_path, coupling):
    # No run path pairs the receive array with the user channel, so a receive
    # array smaller than the transmit one runs "with" and "reference" too.
    config = tmp_path / "unequal.cfg"
    config.write_text(f"l_s = 8\ncoupling = {coupling}\n")
    out = tmp_path / "out"
    assert cli.main(["ris-isac-tradeoff", "--config", str(config), "--out", str(out)]) == 0
    rows = (out / "ris-isac-tradeoff.csv").read_text().splitlines()[1:]
    assert {row.split(",")[0] for row in rows} == {"with", "without", "reference"}
    assert all(math.isfinite(float(row.split(",")[-1])) for row in rows)


@pytest.mark.parametrize("experiment,text", [
    ("detect", "l_s = 1\ntrials = 1000\n"),
    ("beampattern", "l_s = 1\nl_t = 4\nn_ris = 4\ngrid_points = 31\nsinr_threshold_db = 3\n"),
])
def test_single_element_receive_array_runs_without_an_angle_crb(tmp_path, experiment, text):
    # A file without an experiment line is validated against the requested
    # experiment; it used to be checked as sense-sweep and refused.
    config = tmp_path / "one_element.cfg"
    config.write_text(text)
    assert cli.main([experiment, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / f"{experiment}.csv").exists()


def test_single_element_receive_array_is_a_config_error():
    # With centred offsets one receive element has adot = 0: no angle information.
    for experiment in ("sense-sweep", "isac-tradeoff", "ris-isac-tradeoff"):
        with pytest.raises(ConfigError, match="l_s must be >= 2"):
            RunConfig(experiment=experiment, l_s=1, l_t=1).validate()
        RunConfig(experiment=experiment, l_s=2, l_t=2).validate()
    # Detection and the beampattern report no angle CRB.
    RunConfig(experiment="detect", l_s=1).validate()
    RunConfig(experiment="beampattern", l_s=1).validate()


def test_parse_config_validates_against_the_given_experiment():
    # The given experiment holds unless the document names its own; line
    # numbers in errors are the document's.
    assert parse_config("l_s = 1\n", "detect").experiment == "detect"
    assert parse_config("experiment = beampattern\nl_s = 1\n", "detect").experiment == (
        "beampattern")
    with pytest.raises(ConfigError, match="l_s must be >= 2"):
        parse_config("l_s = 1\n")  # the default experiment, sense-sweep
    with pytest.raises(ConfigError, match="^line 2:"):
        parse_config("seed = 3\ngarbage\n", "detect")


@pytest.mark.parametrize("experiment,text", [
    ("sense-sweep", "l_s = 1\n"),
    ("isac-tradeoff", "l_s = 1\nl_t = 4\n"),
    ("ris-isac-tradeoff", "l_s = 1\nl_t = 1\n"),
])
def test_single_element_receive_array_is_a_json_config_error(tmp_path, capsys, experiment,
                                                             text):
    # Each run used to fail late or quietly: sense-sweep with a bare
    # ValueError and isac-tradeoff with a ZeroDivisionError, both after
    # making the output directory, and ris-isac-tradeoff by writing NaN
    # rates for every reference row.
    config = tmp_path / "one_element.cfg"
    config.write_text(text)
    code, err = _error_of(capsys, [experiment, "--config", str(config),
                                   "--out", str(tmp_path / "out")])
    assert code == 2
    assert set(err) == {"error", "detail"}
    assert err["error"] == "ConfigError" and "l_s" in err["detail"]
    assert experiment in err["detail"]
    assert not (tmp_path / "out").exists()


def test_experiment_mismatch_is_a_json_config_error(tmp_path, capsys):
    config = tmp_path / "detect.cfg"
    config.write_text("experiment = detect\n")
    code, err = _error_of(capsys, ["beampattern", "--config", str(config),
                                   "--out", str(tmp_path / "out")])
    assert code == 2
    assert set(err) == {"error", "detail"}
    assert err["error"] == "ConfigError"
    assert "'detect'" in err["detail"] and "'beampattern'" in err["detail"]
    assert not (tmp_path / "out").exists()


def test_zero_threads_is_a_json_config_error(tmp_path, capsys):
    code, err = _error_of(capsys, ["isac-tradeoff", "--threads", "0",
                                   "--out", str(tmp_path / "out")])
    assert code == 2
    assert set(err) == {"error", "detail"}
    assert err["error"] == "ConfigError" and "--threads" in err["detail"]
    assert not (tmp_path / "out").exists()


def test_beampattern_without_targets_is_a_config_error():
    with pytest.raises(ConfigError, match="target_angles_deg"):
        RunConfig(experiment="beampattern", target_angles_deg=()).validate()
    RunConfig(experiment="detect", target_angles_deg=()).validate()


def test_beampattern_without_targets_is_a_json_config_error(tmp_path, capsys):
    config = tmp_path / "no_targets.cfg"
    config.write_text("l_t = 4\nn_ris = 4\ntarget_angles_deg =\n")
    code, err = _error_of(capsys, ["beampattern", "--config", str(config),
                                   "--out", str(tmp_path / "out")])
    assert code == 2
    assert set(err) == {"error", "detail"}
    assert err["error"] == "ConfigError" and "target_angles_deg" in err["detail"]
    assert not (tmp_path / "out").exists()


def test_nonpositive_beam_width_is_a_config_error():
    for width in (0.0, -5.0):
        with pytest.raises(ConfigError, match="beam_width_deg"):
            RunConfig(beam_width_deg=width).validate()
    RunConfig(beam_width_deg=1e-9).validate()


def test_isac_tradeoff_without_couplings_is_a_config_error():
    with pytest.raises(ConfigError, match="rho_list"):
        RunConfig(experiment="isac-tradeoff", rho_list=()).validate()
    RunConfig(experiment="detect", rho_list=()).validate()


def test_isac_tradeoff_without_couplings_is_a_json_config_error(tmp_path, capsys):
    # It used to exit with an untyped ValueError from the trade-off sweep.
    config = tmp_path / "no_rho.cfg"
    config.write_text("l_t = 4\nrho_list =\n")
    code, err = _error_of(capsys, ["isac-tradeoff", "--config", str(config),
                                   "--out", str(tmp_path / "out")])
    assert code == 2
    assert set(err) == {"error", "detail"}
    assert err["error"] == "ConfigError" and "rho_list" in err["detail"]
    assert not (tmp_path / "out").exists()


def test_repeated_key_is_a_config_error():
    # The last value used to win silently.
    with pytest.raises(ConfigError) as info:
        parse_config("seed = 1\nseed = 2\n")
    assert str(info.value) == "line 2: 'seed' repeats line 1"
    with pytest.raises(ConfigError, match="line 4: 'l_t' repeats line 2"):
        parse_config("# comment\nl_t = 4\n\nl_t = 4\n")
    # A document's own experiment line is not a repeat of the requested experiment.
    assert parse_config("experiment = detect\n", "detect").experiment == "detect"


def test_repeated_key_is_a_json_config_error(tmp_path, capsys):
    config = tmp_path / "repeated.cfg"
    config.write_text("seed = 1\nseed = 2\n")
    code, err = _error_of(capsys, ["detect", "--config", str(config),
                                   "--out", str(tmp_path / "out")])
    assert code == 2
    assert err == {"error": "ConfigError", "detail": "line 2: 'seed' repeats line 1"}
    assert not (tmp_path / "out").exists()


# Each run used to end with a bare error or with CSVs of 0.0 CRBs:
# - noise powers that are finite and positive but below the smallest normal
#   double: ris-isac-tradeoff and sense-sweep exited 0 with every CRB 0.0 (the
#   former with empty reference rates too), isac-tradeoff with an
#   InfeasibleRateError quoting an infinite max rate;
# - a target gain variance of 1e300 puts the SNR past the float range, and 20
#   of the 30 sense-sweep CRBs were written as 0.0;
# - at -3000 dBm of sensing noise isac-tradeoff exited 0 with every CRB a
#   subnormal 2.827e-309;
# - a 4000 dB detect SNR exited with a bare OverflowError;
# - at -3000 dBm of comms noise and 1e30 W both trade-offs warned from
#   np.linspace(0, 0.98 * inf) and exited with an InfeasibleRateError quoting
#   an infinite max rate.
@pytest.mark.parametrize("experiment, line, detail", [
    ("ris-isac-tradeoff", "noise_sensing_dbm = -3200", "noise_sensing_dbm"),
    ("isac-tradeoff", "noise_comms_dbm = -3200", "noise_comms_dbm"),
    ("sense-sweep", "noise_sensing_dbm = -3070", "noise_sensing_dbm"),
    ("sense-sweep", "target_gain_var = 1e300", "CRB rounds to 0.0"),
    ("isac-tradeoff", "noise_sensing_dbm = -3000", "subnormal"),
    ("detect", "snr_db_list = 4000", "snr_db_list entry 4000.0"),
    ("isac-tradeoff", "noise_comms_dbm = -3000\ntransmit_power = 1e30", "comms SNR"),
    ("ris-isac-tradeoff", "noise_comms_dbm = -3000\ntransmit_power = 1e30", "comms SNR"),
])
def test_values_past_the_float_range_are_json_config_errors(tmp_path, capsys, experiment,
                                                            line, detail):
    config = tmp_path / "edge.cfg"
    config.write_text(f"{line}\n")
    code, err = _error_of(capsys, [experiment, "--config", str(config),
                                   "--out", str(tmp_path / "out")])
    assert code == 2
    assert err["error"] == "ConfigError" and detail in err["detail"]
    assert not list((tmp_path / "out").glob("*.csv"))


def test_detect_at_huge_sensing_noise_writes_the_default_noise_csv(tmp_path):
    # detect draws at its SNR grid and reads no noise power. 1e307 W once
    # overflowed the target gains it calibrated to that grid.
    for dbm in (-60.0, 3100.0):
        cli.run_experiment(RunConfig(experiment="detect", bs_position=(40.0, 1e-12),
                                     noise_sensing_dbm=dbm), tmp_path / str(dbm))
    assert ((tmp_path / "3100.0" / "detect.csv").read_bytes()
            == (tmp_path / "-60.0" / "detect.csv").read_bytes())


def test_powers_validate_down_to_the_smallest_normal_double():
    for name in ("noise_sensing_dbm", "noise_comms_dbm"):
        for dbm in (-4000.0, -3200.0, -3070.0, 4000.0, math.nan):
            with pytest.raises(ConfigError, match=name):
                RunConfig(**{name: dbm}).validate()
        RunConfig(**{name: -3000.0}).validate()
        RunConfig(**{name: 3000.0}).validate()
    for watts in (sys.float_info.min / 2, 0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ConfigError, match="transmit_power"):
            RunConfig(transmit_power=watts).validate()
    RunConfig(transmit_power=sys.float_info.min).validate()


def test_negative_seed_is_a_config_error():
    with pytest.raises(ConfigError, match="seed"):
        RunConfig(seed=-3).validate()
    RunConfig(seed=0).validate()


def test_negative_seed_in_config_is_a_json_config_error(tmp_path, capsys):
    config = tmp_path / "negative_seed.cfg"
    config.write_text("l_t = 4\nseed = -3\n")
    code, err = _error_of(capsys, ["detect", "--config", str(config),
                                   "--out", str(tmp_path / "out")])
    assert code == 2
    assert set(err) == {"error", "detail"}
    assert err["error"] == "ConfigError" and "seed" in err["detail"]
    assert not (tmp_path / "out").exists()


def test_negative_seed_flag_is_a_json_config_error(tmp_path, capsys):
    code, err = _error_of(capsys, ["detect", "--seed", "-3",
                                   "--out", str(tmp_path / "out")])
    assert code == 2
    assert set(err) == {"error", "detail"}
    assert err["error"] == "ConfigError" and "seed" in err["detail"]
    assert not (tmp_path / "out").exists()


def test_infeasible_sinr_is_a_json_error_and_writes_no_csv(tmp_path, capsys):
    config = tmp_path / "loud.cfg"
    config.write_text("l_t = 4\nn_ris = 4\ngrid_points = 31\nsinr_threshold_db = 80\n")
    out = tmp_path / "out"
    code, err = _error_of(capsys, ["beampattern", "--config", str(config), "--out", str(out)])
    assert code == 2
    assert set(err) == {"error", "detail"}
    assert err["error"] == "InfeasibleSinrError" and "SINR threshold" in err["detail"]
    assert not list(out.glob("*.csv"))
