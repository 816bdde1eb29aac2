import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qeqlab.cli as cli
from qeqlab.harness import _MODEL_KEYS, ExperimentConfig, SweepConfig, execute_experiment
from qeqlab.models import SpinChainParams
from qeqlab.serialize import canonical_json, config_hash, format_number
from qeqlab.verify import VerifyConfig

ROOT = Path(__file__).resolve().parents[1]


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def minimal_sim_config(tmp_path, **extra):
    payload = {
        "label": "n5",
        "model": {"kind": "tilted_ising", "sites": 5},
        "times": {"t_max": 20.0},
        "average_grid": [10.0, 20.0],
        "fluctuation": {"window": 100.0, "count": 200},
        "output_dir": str(tmp_path / "out"),
    }
    payload.update(extra)
    return write_config(tmp_path / "config.json", payload)


def test_simulate_minimal(tmp_path, capsys):
    rc = cli.main(["simulate", minimal_sim_config(tmp_path)])
    assert rc == 0
    out = tmp_path / "out"
    assert (out / "manifest.json").exists()
    report = json.loads((out / "report_n5.json").read_text())
    assert report["past_hypothesis"]["initial_shannon"] == 0

    lines = (out / "trajectory_n5.csv").read_text().splitlines()
    assert lines[0] == ("t,expectation,shannon,observational,boltzmann,"
                        "expectation_eq,shannon_eq,observational_eq,boltzmann_eq")
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == -1.0  # all-down magnetization
    assert float(first[2]) == 0.0   # low-entropy start


def test_simulate_t_max_below_one_step(tmp_path):
    out = tmp_path / "tiny"
    rc = cli.main(["simulate", str(ROOT / "configs" / "simulate_chain.json"), "--out", str(out),
                   "--set", "times.t_max=1e-11", "--set", "average_grid=[1e-11]",
                   "--set", "fluctuation.count=100"])
    assert rc == 0
    assert (out / "report_mz_n7.json").exists() and (out / "trajectory_mz_n7.csv").exists()


def test_simulate_window_just_past_a_whole_step(tmp_path):
    # t_max is 7.5e-10 steps past 500 steps: inside the validators' 1e-12
    # span tolerance of the window, so the grid must reach it too
    out = tmp_path / "past"
    rc = cli.main(["simulate", str(ROOT / "configs" / "simulate_chain.json"), "--out", str(out),
                   "--set", "times.t_max=10.000000000015", "--set", "average_grid=[10.000000000015]",
                   "--set", "times.dt=0.02", "--set", "fluctuation.count=100"])
    assert rc == 0
    last = (out / "trajectory_mz_n7.csv").read_text().splitlines()[-1]
    assert float(last.split(",")[0]) >= 10.000000000015


# the manifest hash of each shipped config: a move is a change of the
# config schema or of its defaults, and must be meant
SHIPPED_HASHES = {
    "simulate_chain.json": "90989f03711166a65bdb08f906196878c802ddb03c5a6922118b33352e08e075",
    "simulate_oracle.json": "be2a87016bde5d9a1eceac010d075b9ff64c02c85439fbf979de921a5d4c3375",
    "sweep_lengths.json": "13ed12f2e1fb0080234b4f41eb27ea557754fde28da00c7d2d623f5c3a2cf2d6",
    "verify_default.json": "da504b5d3c7a940bff9f26fafba19eada86033bc5f26e4233d1ffaf436a6bdff",
}


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")), ids=lambda p: p.name)
def test_shipped_config_parses(path):
    command = path.name.split("_")[0]
    config = {"simulate": ExperimentConfig, "verify": VerifyConfig, "sweep": SweepConfig}[command]
    raw = json.loads(path.read_text())
    raw.pop("output_dir", None)
    # hashed as cmd_simulate, cmd_verify and cmd_sweep hash it
    prefix = {} if command == "simulate" else {command: True}
    assert config_hash({**prefix, **config.from_dict(raw).resolved_dict()}) == SHIPPED_HASHES[path.name]


def test_simulate_rerun_byte_identical(tmp_path):
    config = minimal_sim_config(tmp_path)
    assert cli.main(["simulate", config]) == 0
    first = (tmp_path / "out" / "report_n5.json").read_bytes()
    first_csv = (tmp_path / "out" / "trajectory_n5.csv").read_bytes()
    assert cli.main(["simulate", config]) == 0
    assert (tmp_path / "out" / "report_n5.json").read_bytes() == first
    assert (tmp_path / "out" / "trajectory_n5.csv").read_bytes() == first_csv


def test_trajectory_csv_is_the_row_by_row_formatting(tmp_path):
    config = {"label": "n5", "model": {"kind": "tilted_ising", "sites": 5}, "times": {"t_max": 20.0},
              "average_grid": [20.0], "fluctuation": {"window": 100.0, "count": 20}}
    _, system, trajectory = execute_experiment(ExperimentConfig.from_dict(config))
    cli.trajectory_csv(tmp_path / "t.csv", system, trajectory)
    eq = system.equilibrium
    lines = ["t,expectation,shannon,observational,boltzmann,"
             "expectation_eq,shannon_eq,observational_eq,boltzmann_eq"]
    for row in zip(trajectory.times, trajectory.expectation, trajectory.shannon,
                   trajectory.observational, trajectory.boltzmann):
        cells = (*row, eq.expectation, eq.shannon, eq.observational, eq.boltzmann)
        lines.append(",".join(format_number(v) for v in cells))
    assert (tmp_path / "t.csv").read_text() == "\n".join(lines) + "\n"


@pytest.mark.parametrize("axis", ["z", "y"])
def test_chain_results_do_not_depend_on_the_seed(tmp_path, axis):
    """The chain starts from the one exact all-down state: the seed only
    draws the fluctuation times."""
    config = str(ROOT / "configs" / "simulate_chain.json")
    reports = []
    for seed in (0, 1):
        out = tmp_path / f"seed{seed}"
        assert cli.main(["simulate", config, "--out", str(out), "--set", f"seed={seed}",
                         "--set", f"observable.axis={axis}"]) == 0
        (csv,) = out.glob("trajectory_*.csv")
        (report,) = out.glob("report_*.json")
        reports.append((csv.read_bytes(), json.loads(report.read_text())))
    (csv0, report0), (csv1, report1) = reports
    assert csv0 == csv1
    assert (report0["config"]["seed"], report1["config"]["seed"]) == (0, 1)
    assert report0["fluctuations"] != report1["fluctuations"]
    for report in (report0, report1):
        del report["config"]["seed"], report["fluctuations"]
        report["bounds"] = [b for b in report["bounds"] if not b["name"].endswith("_fluctuation")]
    assert report0 == report1


def test_simulate_oracle_config(tmp_path):
    config = write_config(tmp_path / "oracle.json", {
        "label": "spin",
        "model": {"kind": "precessing_spin", "g": 1.0},
        "times": {"t_max": 10.0, "dt": 0.01},
        "average_grid": [10.0],
        "fluctuation": {"window": 50.0, "count": 100},
        "output_dir": str(tmp_path / "out"),
    })
    assert cli.main(["simulate", config]) == 0
    report = json.loads((tmp_path / "out" / "report_spin.json").read_text())
    assert report["oracle"]["passed"] is True


def test_config_errors_name_the_key(tmp_path, capsys):
    config = write_config(tmp_path / "bad.json", {"times": {"t_max": 10.0}})
    assert cli.main(["simulate", config]) == 2
    assert "config key 'model.kind'" in capsys.readouterr().err

    config = write_config(tmp_path / "bad2.json", {
        "model": {"kind": "tilted_ising", "sites": 3}, "unknown_key": 1,
    })
    assert cli.main(["simulate", config]) == 2
    assert "unknown_key" in capsys.readouterr().err

    (tmp_path / "broken.json").write_text("{not json")
    assert cli.main(["simulate", str(tmp_path / "broken.json")]) == 2
    assert cli.main(["simulate", str(tmp_path / "missing.json")]) == 2


def test_dimension_cap_exit_code(tmp_path, capsys):
    # 2**14 exceeds the fixed cap 2**13; the cap is checked before anything is built
    config = minimal_sim_config(tmp_path, model={"kind": "tilted_ising", "sites": 14})
    assert cli.main(["simulate", config]) == 3
    assert "cap" in capsys.readouterr().err


def test_set_overrides(tmp_path):
    config = minimal_sim_config(tmp_path)
    rc = cli.main(["simulate", config, "--set", "label=over",
                   "--set", "times.t_max=12.0", "--set", "average_grid=[6.0]"])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report_over.json").read_text())
    assert report["config"]["times"]["t_max"] == 12.0


def test_manifest_hash_stable_under_key_reordering(tmp_path):
    a = {"label": "n5", "model": {"kind": "tilted_ising", "sites": 5},
         "times": {"t_max": 20.0}, "average_grid": [10.0, 20.0],
         "fluctuation": {"window": 100.0, "count": 200}}
    b = {"fluctuation": {"count": 200, "window": 100.0}, "times": {"t_max": 20.0},
         "average_grid": [10.0, 20.0], "model": {"sites": 5, "kind": "tilted_ising"},
         "label": "n5"}
    ha = config_hash(ExperimentConfig.from_dict(a).resolved_dict())
    hb = config_hash(ExperimentConfig.from_dict(b).resolved_dict())
    assert ha == hb


def test_report_config_round_trips(tmp_path):
    config = minimal_sim_config(tmp_path)
    assert cli.main(["simulate", config]) == 0
    report = json.loads((tmp_path / "out" / "report_n5.json").read_text())
    source = {k: v for k, v in json.loads((tmp_path / "config.json").read_text()).items()
              if k != "output_dir"}
    parsed = ExperimentConfig.from_dict(report["config"])
    assert parsed.resolved_dict() == ExperimentConfig.from_dict(source).resolved_dict()


def test_config_defaults_are_the_dataclass_defaults():
    assert VerifyConfig.from_dict({}) == VerifyConfig()
    assert config_hash(VerifyConfig.from_dict({}).resolved_dict()) == config_hash(VerifyConfig().resolved_dict())
    model = {"kind": "tilted_ising", "sites": 5}
    parsed = ExperimentConfig.from_dict({"model": model})
    assert parsed == ExperimentConfig(label="experiment", kind="tilted_ising", sites=5)
    assert config_hash(parsed.resolved_dict()) == config_hash(
        ExperimentConfig(label="experiment", kind="tilted_ising", sites=5).resolved_dict())

    # writing a model or observable default out does not change the hash
    same = [{"model": model}, {"model": {**model, "g": SpinChainParams.g}},
            {"model": model, "observable": {}}]
    assert len({config_hash(ExperimentConfig.from_dict(raw).resolved_dict()) for raw in same}) == 1

    # a report's model block holds exactly the keys its kind reads, each
    # resolved, and parses back to the run's config
    small = {"times": {"t_max": 2.0}, "average_grid": [2.0], "fluctuation": {"window": 2.0, "count": 10}}
    for model in ({"kind": "tilted_ising", "sites": 3}, {"kind": "precessing_spin"}, {"kind": "spin_bath"}):
        config = ExperimentConfig.from_dict({**small, "model": model})
        block = execute_experiment(config)[0]["config"]
        assert set(block["model"]) == _MODEL_KEYS[model["kind"]]
        assert None not in block["model"].values()
        assert ExperimentConfig.from_dict(block) == config


def test_verify_exit_codes(tmp_path, monkeypatch):
    config = write_config(tmp_path / "verify.json", {
        "sites": [4],
        "average_grid": [5.0],
        "t_max": 5.0,
        "fluctuation": {"sites": 4, "window": 50.0, "count": 200},
        "averaged_state": {"sites": [2], "windows": [100.0]},
        "suites": {"shannon_pairs": 50, "observational_cases": 20,
                   "von_neumann_cases": 20, "povm_cases": 5},
        "output_dir": str(tmp_path / "vout"),
    })
    assert cli.main(["verify", config]) == 0

    # negative control: a corrupted trajectory must flip the exit code
    import qeqlab.verify as verify_mod

    original = verify_mod.compute_trajectory

    def corrupted(system, times):
        traj = original(system, times)
        return dataclasses.replace(traj, shannon=traj.shannon + 5.0)

    monkeypatch.setattr(verify_mod, "compute_trajectory", corrupted)
    assert cli.main(["verify", config]) == 1


def test_simulate_exits_1_on_a_grid_too_coarse_for_its_bounds(tmp_path, capsys):
    # at dt = 50 the population average's quadrature remainder, sigma_E dt / 2
    # (about 60), exceeds its rhs (5.71): the artifacts are still written
    out = tmp_path / "coarse"
    rc = cli.main(["simulate", str(ROOT / "configs" / "simulate_chain.json"), "--out", str(out),
                   "--set", "times.dt=50", "--set", "average_grid=[100]"])
    assert rc == 1
    assert "4 violated bound(s): population_equilibration[T=100]" in capsys.readouterr().out
    assert (out / "trajectory_mz_n7.csv").is_file() and (out / "manifest.json").is_file()
    bounds = json.loads((out / "report_mz_n7.json").read_text())["bounds"]
    population = bounds[0]
    assert population["name"] == "population_equilibration" and population["status"] == "violated"
    assert population["parameters"]["quadrature_remainder"] > 50 > population["rhs"] > 5
    assert population["parameters"]["trapezoid"] < population["rhs"]
    assert [b["status"] for b in bounds[4:]] == ["holds"] * 3


def test_verify_report_written(tmp_path):
    config = write_config(tmp_path / "verify.json", {
        "sites": [3],
        "average_grid": [5.0],
        "t_max": 5.0,
        "fluctuation": {"sites": 3, "window": 20.0, "count": 100},
        "averaged_state": {"sites": [2], "windows": [100.0]},
        "suites": {"shannon_pairs": 20, "observational_cases": 10,
                   "von_neumann_cases": 10, "povm_cases": 3},
        "output_dir": str(tmp_path / "vout"),
    })
    assert cli.main(["verify", config]) == 0
    blob = json.loads((tmp_path / "vout" / "verify_report.json").read_text())
    assert all(item["status"] == "holds" for item in blob)


def _manifest_hash(tmp_path, command, name, payload):
    out = tmp_path / name
    config = write_config(tmp_path / f"{name}.json", {**payload, "output_dir": str(out)})
    assert cli.main([command, config]) == 0
    return json.loads((out / "manifest.json").read_text())["config_hash"]


def test_verify_and_sweep_hash_the_resolved_config(tmp_path):
    verify = {
        "sites": [3],
        "average_grid": [5.0],
        "t_max": 5.0,
        "fluctuation": {"sites": 3, "window": 20.0, "count": 50},
        "averaged_state": {"sites": [2], "windows": [100.0]},
        "suites": {"shannon_pairs": 10, "observational_cases": 4,
                   "von_neumann_cases": 4, "povm_cases": 2},
    }
    implicit = _manifest_hash(tmp_path, "verify", "v_implicit", verify)
    explicit = _manifest_hash(tmp_path, "verify", "v_explicit", {**verify, "seed": 0})
    changed = _manifest_hash(tmp_path, "verify", "v_changed", {**verify, "seed": 1})
    assert implicit == explicit != changed

    sweep = {"sites": [3, 4, 5], "t_max": 20.0, "late_window": [5.0, 15.0]}
    implicit = _manifest_hash(tmp_path, "sweep", "s_implicit", sweep)
    explicit = _manifest_hash(tmp_path, "sweep", "s_explicit", {**sweep, "axis": "z"})
    changed = _manifest_hash(tmp_path, "sweep", "s_changed", {**sweep, "axis": "x"})
    assert implicit == explicit != changed

    for config in (VerifyConfig.from_dict(verify), SweepConfig.from_dict(sweep)):
        again = type(config).from_dict(config.resolved_dict())
        assert again == config
        assert config_hash(again.resolved_dict()) == config_hash(config.resolved_dict())


def test_sweep_outputs(tmp_path):
    config = write_config(tmp_path / "sweep.json", {
        "sites": [3, 4, 5],
        "t_max": 30.0,
        "late_window": [10.0, 25.0],
        "output_dir": str(tmp_path / "sout"),
    })
    assert cli.main(["sweep", config]) == 0
    lines = (tmp_path / "sout" / "sweep_summary.csv").read_text().splitlines()
    assert lines[0].startswith("sites,outcomes,d_eff,delta,late_abs_dev")
    assert len(lines) == 4
    fits = json.loads((tmp_path / "sout" / "sweep_fits.json").read_text())
    assert fits["late_fit"]["b"] < 0

    assert cli.main(["sweep", config]) == 0
    again = (tmp_path / "sout" / "sweep_summary.csv").read_text().splitlines()
    assert again == lines


def test_written_report_and_fits_are_the_returned_objects(tmp_path):
    # simulate and sweep write what execute_experiment and
    # sweep_chain_lengths return, with nothing picked out or converted
    from qeqlab.harness import sweep_chain_lengths

    assert _run_with(tmp_path, "simulate", []) == 0
    assert _run_with(tmp_path, "sweep", []) == 0
    report = execute_experiment(ExperimentConfig.from_dict(BASE_CONFIGS["simulate"]))[0]
    fits = sweep_chain_lengths(SweepConfig.from_dict(BASE_CONFIGS["sweep"]))["fits"]
    out = tmp_path / "out"
    assert (out / "report_n3.json").read_bytes() == (canonical_json(report) + "\n").encode()
    assert (out / "sweep_fits.json").read_bytes() == (canonical_json(fits) + "\n").encode()


def test_float_serialization_17_digits():
    assert format_number(1.0 / 3.0) == "0.33333333333333331"
    assert format_number(-0.0) == "0"
    assert float(format_number(np.pi)) == np.pi
    with pytest.raises(ValueError):
        format_number(float("inf"))
    assert canonical_json({"b": 1, "a": [True, None]}) == '{"a": [true, null], "b": 1}'


BASE_CONFIGS = {
    "simulate": {
        "label": "n3",
        "model": {"kind": "tilted_ising", "sites": 3},
        "times": {"t_max": 10.0},
        "average_grid": [5.0, 10.0],
        "fluctuation": {"window": 20.0, "count": 50},
    },
    "verify": {
        "sites": [3],
        "average_grid": [5.0],
        "t_max": 5.0,
        "fluctuation": {"sites": 3, "window": 20.0, "count": 50},
        "averaged_state": {"sites": [2], "windows": [100.0]},
        "suites": {"shannon_pairs": 10, "observational_cases": 4,
                   "von_neumann_cases": 4, "povm_cases": 2},
    },
    "sweep": {"sites": [3, 4, 5], "t_max": 20.0, "late_window": [5.0, 15.0]},
}


def _run_with(tmp_path, command, overrides):
    payload = {**BASE_CONFIGS[command], "output_dir": str(tmp_path / "out")}
    config = write_config(tmp_path / f"{command}.json", payload)
    args = [command, config]
    for item in overrides:
        args += ["--set", item]
    return cli.main(args)


_HUGE_INT = "1" + "0" * 400


@pytest.mark.parametrize("command, overrides, key", [
    ("simulate", ["times.dt=0"], "times.dt"),
    ("simulate", ["times.dt=-0.1"], "times.dt"),
    ("simulate", ["fluctuation.window=0"], "fluctuation.window"),
    ("simulate", ["average_grid=[0.0, 10.0]"], "average_grid"),
    ("simulate", ["model.sites=1"], "model.sites"),
    ("simulate", ["observable.axis=q"], "observable.axis"),
    ("simulate", ['model={"kind": "spin_bath", "bath_dim": 0}'], "model.bath_dim"),
    ("simulate", ['model={"kind": "precessing_spin", "g": 0}'], "model.g"),
    ("simulate", ['model={"kind": "spin_bath", "g": 0}'], "model.g"),
    ("simulate", ["eps_points=0"], "eps_points"),  # not a key: every run searches 32 widths
    ("simulate", ["exact_gap_limit=1024"], "exact_gap_limit"),  # not a key: counts are exact
    ("verify", ["sites=[1]"], "sites"),
    ("verify", ["averaged_state.sites=[1]"], "averaged_state.sites"),
    ("verify", ["fluctuation.count=0"], "fluctuation.count"),
    ("verify", ["suites.shannon_pairs=0"], "suites.shannon_pairs"),
    ("verify", ["suites.povm_cases=0"], "suites.povm_cases"),
    ("verify", ["averaged_state.windows=[0.0]"], "averaged_state.windows"),
    ("verify", ["average_grid=[10.0]"], "average_grid"),
    ("sweep", ["sites=[3, 4]"], "sites"),
    ("sweep", ["late_window=[5.0, 25.0]"], "late_window"),
    ("sweep", ["late_window=[-1.0, 5.0]"], "late_window"),
    ("sweep", ["label=chains"], "label"),
    # integers and lists are not truncated, and strings are not split
    ("simulate", ["model.sites=5.7"], "model.sites"),
    ("simulate", ["fluctuation.count=2.5"], "fluctuation.count"),
    ("simulate", ['seed="3"'], "seed"),
    ("simulate", ["eps_points=true"], "eps_points"),
    ("verify", ['sites="57"'], "sites"),
    ("verify", ["fluctuation.sites=3.5"], "fluctuation.sites"),
    ("sweep", ['sites="345"'], "sites"),
    ("simulate", ['average_grid="5"'], "average_grid"),
    ("sweep", ['late_window="05"'], "late_window"),
    ("sweep", ["exact_gap_limit=1024"], "exact_gap_limit"),
    # the label becomes part of the output file names
    ("simulate", ["label=sub/run"], "label"),
    ("simulate", ['label=""'], "label"),
    ("simulate", ['label=["a"]'], "label"),
    # not keys: the dimension cap is fixed and the window-width grids are not settable
    ("simulate", ["dimension_cap=8192"], "dimension_cap"),
    ("simulate", ["eps_points=32"], "eps_points"),
    ("verify", ["eps_points=32"], "eps_points"),
    ("verify", ["suites.povm_window=10.0"], "suites.povm_window"),
    ("sweep", ["dimension_cap=8192"], "dimension_cap"),
    # a model sub-key the chosen kind does not read
    ("simulate", ['model={"kind": "precessing_spin", "sites": 40}'], "model.sites"),
    ("simulate", ['model={"kind": "precessing_spin", "J": 3}'], "model.J"),
    ("simulate", ['model={"kind": "spin_bath", "h": 1}'], "model.h"),
    ("simulate", ['model={"kind": "precessing_spin", "bath_dim": 2}'], "model.bath_dim"),
    ("simulate", ["model.bath_dim=0"], "model.bath_dim"),
    ("simulate", ["model.bath_dim=4"], "model.bath_dim"),
    # the analytic models measure sigma_z only
    ("simulate", ['model={"kind": "precessing_spin"}', "observable.axis=q"], "observable.axis"),
    ("simulate", ['model={"kind": "precessing_spin"}', "observable.axis=x"], "observable.axis"),
    ("simulate", ['model={"kind": "spin_bath"}', "observable.axis=x"], "observable.axis"),
    # json accepts Infinity and NaN; no float key does
    ("simulate", ["times.t_max=Infinity"], "times.t_max"),
    ("simulate", ["times.dt=Infinity"], "times.dt"),
    ("simulate", ["fluctuation.window=Infinity"], "fluctuation.window"),
    ("simulate", ["model.g=Infinity"], "model.g"),
    ("simulate", ["model.J=NaN"], "model.J"),
    ("simulate", ['model={"kind": "precessing_spin", "g": Infinity}'], "model.g"),
    ("verify", ["t_max=Infinity"], "t_max"),
    ("verify", ["averaged_state.windows=[Infinity]"], "averaged_state.windows"),
    ("sweep", ["t_max=Infinity"], "t_max"),
    # a boolean or a string is not a number
    ("simulate", ["fluctuation.window=true"], "fluctuation.window"),
    ("simulate", ["model.g=true"], "model.g"),
    ("simulate", ['times.t_max="100"'], "times.t_max"),
    ("simulate", ['average_grid=[5.0, "10"]'], "average_grid"),
    ("verify", ["fluctuation.window=true"], "fluctuation.window"),
    ("sweep", ['t_max="100"'], "t_max"),
    # numpy's generators take no negative seed
    ("simulate", ["seed=-1"], "seed"),
    ("verify", ["seed=-1"], "seed"),
    # not a sweep key: every chain starts from the one exact all-down state
    ("sweep", ["seed=0"], "seed"),
    # a repeated chain length leaves the fits a single x
    ("sweep", ["sites=[5, 5, 5]"], "sites"),
    ("sweep", ["sites=[3, 4, 4]"], "sites"),
    # an integer past the largest float overflows its conversion
    ("simulate", [f"times.t_max={_HUGE_INT}"], "times.t_max"),
    ("simulate", [f"model.g={_HUGE_INT}"], "model.g"),
    ("simulate", ['model={"kind": "precessing_spin", "g": %s}' % _HUGE_INT], "model.g"),
    ("simulate", [f"average_grid=[10.0, {_HUGE_INT}]"], "average_grid"),
    ("verify", [f"t_max={_HUGE_INT}"], "t_max"),
    ("sweep", [f"t_max={_HUGE_INT}"], "t_max"),
    # a chain with g = h = J = 0 has H = 0 and no dynamics
    ("simulate", ["model.g=0", "model.h=0", "model.J=0"], "model"),
])
def test_out_of_range_config_exits_2(tmp_path, capsys, command, overrides, key):
    assert _run_with(tmp_path, command, overrides) == 2
    assert f"config key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "verify", "sweep"])
def test_bad_config_creates_no_output_dir(tmp_path, command):
    assert _run_with(tmp_path, command, ["unknown_key=1"]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "verify", "sweep"])
def test_non_string_output_dir_exits_2(tmp_path, capsys, command):
    assert _run_with(tmp_path, command, ["output_dir=5"]) == 2
    assert "config key 'output_dir'" in capsys.readouterr().err
    assert not (tmp_path / "5").exists()


@pytest.mark.parametrize("command, override", [
    ("simulate", "model.sites=14"),
    ("simulate", 'model={"kind": "spin_bath", "bath_dim": 4097}'),
    ("verify", "sites=[5, 14, 6]"),
    ("verify", "fluctuation.sites=14"),
    ("verify", "averaged_state.sites=[2, 14]"),
    ("sweep", "sites=[5, 14, 6]"),
])
def test_cap_error_exits_3_before_output_or_solve(tmp_path, capsys, monkeypatch, command, override):
    def no_solve(*args, **kwargs):
        raise AssertionError("a chain was solved before the cap check")

    monkeypatch.setattr("qeqlab.harness.decompose_hermitian", no_solve)
    monkeypatch.setattr("qeqlab.harness.spin_bath", no_solve)
    assert _run_with(tmp_path, command, [override]) == 3
    assert "cap" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


CONFIGS = {"simulate": ExperimentConfig, "verify": VerifyConfig, "sweep": SweepConfig}


def _rejected(convert):
    """A value that ``convert`` rejects: a string is no number or list,
    and a fraction is no string."""
    for value in ("abc", 2.5):
        try:
            convert(value)
        except (TypeError, ValueError):
            return value
    raise AssertionError(f"{convert!r} accepts every probe")


# values that no converter takes, with the message each gives
NOT_A_NUMBER = {
    "model.g=null": "expected a finite number, got None",
    "times.t_max=[1]": "expected a finite number, got [1]",
    "fluctuation.window={}": "expected a finite number, got {}",
}


# every key of every config, a section that is not a mapping, and a list entry
@pytest.mark.parametrize("command, override, key", [
    *((command, f"{f.metadata['key']}={_rejected(f.metadata['convert'])}", f.metadata["key"])
      for command, config in CONFIGS.items() for f in dataclasses.fields(config)),
    ("simulate", "model=abc", "model"),
    ("simulate", "observable=abc", "observable"),
    ("verify", "sites=[3, \"x\"]", "sites"),
    # a null, a list or a mapping is no number either
    ("simulate", "model.g=null", "model.g"),
    ("simulate", "times.t_max=[1]", "times.t_max"),
    ("verify", "fluctuation.window={}", "fluctuation.window"),
])
def test_conversion_errors_name_the_dotted_key(tmp_path, capsys, command, override, key):
    assert _run_with(tmp_path, command, [override]) == 2
    assert f"config key {key!r}: {NOT_A_NUMBER.get(override, '')}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_integral_floats_still_parse_as_integers():
    model = {"kind": "tilted_ising", "sites": 5}
    as_float = ExperimentConfig.from_dict({"model": model, "fluctuation": {"count": 10000.0},
                                           "seed": 3.0})
    as_int = ExperimentConfig.from_dict({"model": model, "fluctuation": {"count": 10000}, "seed": 3})
    assert as_float == as_int
    assert config_hash(as_float.resolved_dict()) == config_hash(as_int.resolved_dict())
    assert VerifyConfig.from_dict({"sites": [5.0, 7]}).sites == (5, 7)
    assert SweepConfig.from_dict({"sites": [3, 4.0, 5]}).sites == (3, 4, 5)


def test_numerical_faults_are_not_config_errors(tmp_path, monkeypatch):
    def fault(config):
        raise ValueError("population -1e-09 below round-off floor")

    monkeypatch.setattr(cli, "execute_experiment", fault)
    with pytest.raises(ValueError, match="round-off floor"):
        _run_with(tmp_path, "simulate", [])


def test_sweep_defaults_come_from_sweep_chain_lengths(tmp_path):
    only_sites = _manifest_hash(tmp_path, "sweep", "s_sites", {"sites": [3, 4, 5]})
    written_out = _manifest_hash(tmp_path, "sweep", "s_all", {
        "sites": [3, 4, 5], "t_max": 100.0, "late_window": [50.0, 80.0], "axis": "z",
    })
    # sha256 of {"axis": "z", "late_window": [50, 80], "sites": [3, 4, 5], "sweep": true,
    # "t_max": 100}
    assert only_sites == written_out == "b4b3a62d5eae93c90d89031ce2fa09f71d804d4b56bef1d9c5868b02ed4440d5"


# Runs its arguments as a child process and prints the child's ru_maxrss.
# The launcher keeps the measurement the run's own: on Linux a process's
# ru_maxrss starts from the resident size of the process it was forked
# from, which here is the launcher (a bare interpreter), not pytest.
PEAK_RSS = ("import resource, subprocess, sys; "
            "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL); "
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")


def _peak_rss_mib(tmp_path, command, config, overrides):
    """Peak RSS in MiB of one CLI run with one BLAS thread."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    args = [sys.executable, "-c", PEAK_RSS, sys.executable, "-m", "qeqlab.cli", command,
            str(ROOT / "configs" / config), "--out", str(tmp_path)]
    for item in overrides:
        args += ["--set", item]
    proc = subprocess.run(args, env=env, capture_output=True, text=True, check=True)
    # ru_maxrss is in bytes on macOS and in KiB elsewhere
    return int(proc.stdout) / (2**20 if sys.platform == "darwin" else 2**10)


def test_simulate_n10_peak_rss(tmp_path):
    # With one BLAS thread, `simulate` at N = 10 peaked at 197 MiB when the
    # chain was built in the full space and propagated in 2**24-entry
    # chunks, and at about 100 MiB with the sector builds and chunks of at
    # most 8 MiB per array. 150 MiB lies between the two, so the guard
    # fails if either saving is lost, with room for allocator and
    # BLAS-build spread.
    assert _peak_rss_mib(tmp_path, "simulate", "simulate_chain.json", ["model.sites=10"]) <= 150


def test_verify_averaged_state_n10_peak_rss(tmp_path):
    # The time-averaged-state suite alone at N = 10, every other suite at
    # one case. With one BLAS thread it peaked at 232 MiB when the suite
    # solved the chain and its magnetization in the full 2**10 space, and
    # at about 110 MiB in the reflection-even sector (m = 528). 150 MiB
    # lies between the two, so the guard fails if the suite goes back to
    # the full space, with room for allocator and BLAS-build spread.
    overrides = ["averaged_state.sites=[10]", "sites=[2]", "average_grid=[10.0]", "t_max=10.0",
                 "fluctuation.sites=2", "fluctuation.count=1", "suites.shannon_pairs=1",
                 "suites.observational_cases=1", "suites.von_neumann_cases=1", "suites.povm_cases=1"]
    assert _peak_rss_mib(tmp_path, "verify", "verify_default.json", overrides) <= 150


def test_verify_n9_chain_peak_rss(tmp_path):
    # The chains and fixed suites of `verify_default` with the chains cut
    # to N = 9, which sets the full run's peak, and one case per randomized
    # suite. With one BLAS thread it peaked at 65 MiB when each propagation
    # chunk array held up to 8 MiB (chunks of 3848 times at m = 272) and at
    # 48 MiB with chunks of 1024 times. 60 MiB lies between the two, so the
    # guard fails if the chunks grow back, with room for allocator and
    # BLAS-build spread.
    overrides = ["sites=[9]", "suites.shannon_pairs=1", "suites.observational_cases=1",
                 "suites.von_neumann_cases=1", "suites.povm_cases=1"]
    assert _peak_rss_mib(tmp_path, "verify", "verify_default.json", overrides) <= 60


# Runs cli.main with the grid count's entry budget and direct budget set
# from argv[1] and argv[2].
WITH_BUDGET = ("import sys; import qeqlab.dynamics as d; from qeqlab.cli import main; "
               "d._HEAD_ENTRIES, d._DIRECT_KEYS = int(sys.argv[1]), int(sys.argv[2]); "
               "sys.exit(main(sys.argv[3:]))")


def test_verify_report_independent_of_grid_grouping(tmp_path):
    # The default budget counts each system's ε grid in one group; a budget
    # of one entry counts every width alone. With no direct budget the POVM
    # systems' small grids take the pruned count too, not the count at every
    # gap. The counts, and so the report, must not move by a byte.
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    overrides = ["sites=[5, 7]", "suites.povm_cases=20", "suites.shannon_pairs=1",
                 "suites.observational_cases=1", "suites.von_neumann_cases=1",
                 "averaged_state.sites=[2]", "fluctuation.count=100"]
    from qeqlab.dynamics import _DIRECT_KEYS, _HEAD_ENTRIES

    reports = []
    for budgets in ((_HEAD_ENTRIES, _DIRECT_KEYS), (1, _DIRECT_KEYS), (_HEAD_ENTRIES, 0)):
        out = tmp_path / "_".join(map(str, budgets))
        args = [sys.executable, "-c", WITH_BUDGET, *map(str, budgets), "verify",
                str(ROOT / "configs" / "verify_default.json"), "--out", str(out)]
        for item in overrides:
            args += ["--set", item]
        subprocess.run(args, env=env, check=True, stdout=subprocess.DEVNULL)
        reports.append((out / "verify_report.json").read_bytes())
    assert reports[0] == reports[1] == reports[2]
