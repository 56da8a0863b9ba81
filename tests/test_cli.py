import json
import math
import os
import subprocess
import sys
import time

import pytest

from bosefredholm.cli import CSV_HEADER, emit, main, parse_range, CliError


def run_cli(args):
    from io import StringIO
    import contextlib
    buf = StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_parse_range():
    assert parse_range("0.5") == [0.5]
    assert parse_range("0:1:3") == [0.0, 0.5, 1.0]
    with pytest.raises(CliError):
        parse_range("1:2")


def test_correlate_single_point_json(tmp_path):
    out = tmp_path / "r.json"
    code = main(["correlate", "--eps", "+", "--x1", "0.5", "--x2", "1.0",
                 "--t", "0.3", "--D", "1", "--n", "24", "--format", "json",
                 "--output", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data) == 1
    rec = data[0]
    assert rec["x1"] == 0.5 and rec["eps"] == "+"
    # the dynamical route runs no damping schedule, so it reports none
    assert rec["deltas"] == ""
    assert math.isfinite(rec["value_re"]) and math.isfinite(rec["value_im"])
    # value recomputable from the library
    from bosefredholm.correlators import PhysicalPoint, correlation_ground
    from bosefredholm.kernels import NEUMANN, ThermalParams
    pt = PhysicalPoint(0.5, 1.0, 0.3, NEUMANN, ThermalParams(h=1.0, T=0.0), D=1.0)
    ref = correlation_ground(pt, n=24).value
    assert abs(complex(rec["value_re"], rec["value_im"]) - ref) < 1e-12


def test_correlate_dirichlet_null_flag(tmp_path):
    out = tmp_path / "r.json"
    code = main(["correlate", "--eps", "-", "--x1", "0", "--x2", "1.0",
                 "--t", "0.5", "--T", "0.2", "--h", "1", "--n", "24",
                 "--format", "json", "--output", str(out)])
    assert code == 0
    rec = json.loads(out.read_text())[0]
    assert rec["flag"] == "dirichlet-null"
    assert abs(complex(rec["value_re"], rec["value_im"])) < 1e-10


def test_csv_single_record(tmp_path):
    out = tmp_path / "r.csv"
    code = main(["correlate", "--eps", "+", "--x1", "0.4", "--x2", "0.9",
                 "--t", "0", "--D", "1", "--n", "16", "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2
    assert lines[0] == CSV_HEADER


def test_determinism_modulo_runtime(tmp_path):
    args = ["correlate", "--eps", "+", "--x1", "0.2:0.6:2", "--x2", "1.0",
            "--t", "0", "--D", "1", "--n", "16"]
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        assert main(args + ["--output", str(path)]) == 0
        # runtime_ms is the only nondeterministic column (documented)
        rows = [",".join(line.split(",")[:-1]) for line in path.read_text().splitlines()]
        outs.append("\n".join(rows))
    assert outs[0] == outs[1]


def test_emit_requires_records(tmp_path):
    with pytest.raises(CliError):
        emit([], "csv", str(tmp_path / "x.csv"))


def test_json_round_trip(tmp_path):
    out = tmp_path / "r.json"
    main(["correlate", "--eps", "+", "--x1", "0.4", "--x2", "0.9", "--t", "0",
          "--D", "1", "--n", "16", "--format", "json", "--output", str(out)])
    data = json.loads(out.read_text())
    emit(data, "json", str(tmp_path / "r2.json"))
    data2 = json.loads((tmp_path / "r2.json").read_text())
    assert data == data2


def test_config_error_exit_code():
    code, _ = run_cli(["correlate", "--eps", "?", "--x1", "0.1", "--x2", "0.2",
                       "--t", "0", "--D", "1"])
    assert code == 1
    code, _ = run_cli(["correlate"])
    assert code == 1
    # a flag the command does not read is rejected, not ignored
    code, _ = run_cli(["correlate", "--eps", "+", "--x1", "0.1", "--x2", "0.2",
                       "--t", "0", "--D", "1", "--damping", "0.01"])
    assert code == 1


def test_io_error_exit_code(tmp_path):
    bad = str(tmp_path / "no" / "dir" / "x.out")
    for args in (["correlate", "--eps", "+", "--x1", "0.4", "--x2", "0.9",
                  "--t", "0", "--D", "1", "--n", "16"],
                 ["oracle"],
                 ["validate"],
                 ["kernel-dump", "--kernel", "W", "--n", "4"]):
        assert main(args + ["--output", bad]) == 3, args[0]


def test_oserror_while_computing_exit_code(monkeypatch):
    # an OS error raised by the computation is not an output failure
    import bosefredholm.cli as cli

    def failing(*args, **kwargs):
        raise OSError("resource unavailable")

    monkeypatch.setattr(cli, "correlation_static", failing)
    code, _ = run_cli(["static", "--eps", "+", "--x1", "0.4", "--x2", "0.9",
                       "--T", "0.5"])
    assert code == 1


def test_static_json_is_strict(tmp_path):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    out = tmp_path / "s.json"
    code = main(["static", "--eps", "+", "--x1", "0.4", "--x2", "0.9", "--T", "0.5",
                 "--n", "16", "--format", "json", "--output", str(out)])
    assert code == 0
    rec = json.loads(out.read_text(), parse_constant=reject)[0]
    # fields the static route does not compute are null, not NaN
    assert rec["det_re"] is None and rec["err"] is None
    assert math.isfinite(rec["value_re"])


def test_density_command(tmp_path):
    out = tmp_path / "d.csv"
    code = main(["density", "--T", "1", "--h", "1", "--output", str(out)])
    assert code == 0
    row = out.read_text().strip().split("\n")[1].split(",")
    d = float(row[5])
    assert 0.1 < d < 1.0


def test_boundary_record_reports_no_damping(tmp_path):
    # the x1=0 route integrates in closed form: --damping/--orders are
    # accepted but no schedule runs, so none is reported
    out = tmp_path / "b.json"
    code = main(["boundary", "--x", "0.9", "--t", "0.4", "--D", "1", "--n", "24",
                 "--n-spectral", "16", "--damping", "4e-3", "--orders", "4",
                 "--format", "json", "--output", str(out)])
    assert code == 0
    rec = json.loads(out.read_text())[0]
    assert rec["deltas"] == ""
    assert rec["flag"] == ""
    from bosefredholm.correlators import PhysicalPoint, correlation_boundary_neumann
    from bosefredholm.kernels import NEUMANN, ThermalParams
    pt = PhysicalPoint(0.0, 0.9, 0.4, NEUMANN, ThermalParams(h=1.0, T=0.0), D=1.0)
    ref = correlation_boundary_neumann(0.9, 0.4, pt, n=24, n_spectral=16)
    assert abs(complex(rec["value_re"], rec["value_im"]) - ref) < 1e-12


def test_records_report_the_spectral_nodes_they_used(tmp_path):
    # boundary reports the spectral node count of b, --n-spectral or else
    # --n; commands with no spectral grid leave the field empty
    common = ["--t", "0.4", "--D", "1", "--n", "12", "--format", "json"]
    for extra, expected in ((["--n-spectral", "8"], 8), ([], 12)):
        code, out = run_cli(["boundary", "--x", "0.9", *common, *extra])
        assert code == 0 and json.loads(out)[0]["n_spectral"] == expected
    code, out = run_cli(["boundary", "--x", "0.9", "--t", "0.4", "--D", "1", "--n", "12",
                         "--n-spectral", "8"])
    header, row = out.splitlines()
    assert header == CSV_HEADER
    assert row.split(",")[CSV_HEADER.split(",").index("n_spectral")] == "8"
    for cmd in (["correlate", "--eps", "+", "--x1", "0.4", "--x2", "0.9", *common],
                ["static", "--eps", "+", "--x1", "0.4", "--x2", "0.9", "--T", "0.5", "--n", "12",
                 "--format", "json"],
                ["density", "--T", "1", "--h", "1", "--n", "40", "--format", "json"]):
        code, out = run_cli(cmd)
        assert code == 0 and json.loads(out)[0]["n_spectral"] == "", cmd[0]


@pytest.mark.parametrize("T", ["0.3", "1"])
def test_boundary_defaults_match_correlate_at_positive_T(T):
    # at its defaults b takes --n spectral nodes, which puts the x1=0 route
    # on the dynamical route at the criterion-5 points (32 nodes left it
    # 1.4e-3 off at T = 1)
    for x, t in (("0.2", "0.1"), ("1.1", "0.55"), ("2", "1")):
        values = []
        for cmd in (["boundary", "--x", x], ["correlate", "--eps", "+", "--x1", "0", "--x2", x]):
            code, out = run_cli([*cmd, "--t", t, "--T", T, "--format", "json", "--digits", "17"])
            assert code == 0
            rec = json.loads(out)[0]
            values.append(complex(rec["value_re"], rec["value_im"]))
        boundary, dynamical = values
        assert abs(boundary - dynamical) <= 1e-6 * abs(dynamical)


def test_boundary_scan_builds_w_once_per_x(tmp_path, monkeypatch):
    # det(1 - (2/pi) W-hat) depends on x alone: a 1 x 3 time scan assembles
    # kernel_W once, and its records equal three single-point runs
    import bosefredholm.correlators as correlators
    calls = []
    original = correlators.kernel_W

    def counting(lam, mu, x):
        calls.append(x)
        return original(lam, mu, x)

    monkeypatch.setattr(correlators, "kernel_W", counting)
    common = ["--x", "0.9", "--D", "1", "--n", "24", "--n-spectral", "16",
              "--format", "json"]
    scan = tmp_path / "scan.json"
    assert main(["boundary", "--t", "0.2:0.6:3", *common, "--output", str(scan)]) == 0
    assert len(calls) == 1
    records = json.loads(scan.read_text())
    assert len(records) == 3
    for rec, t in zip(records, ("0.2", "0.4", "0.6")):
        single = tmp_path / f"t{t}.json"
        assert main(["boundary", "--t", t, *common, "--output", str(single)]) == 0
        ref = json.loads(single.read_text())[0]
        for rec_ in (rec, ref):
            del rec_["runtime_ms"]
        assert rec == ref


def test_consecutive_calls_share_no_state(tmp_path):
    # the parser is built once per process; one call's arguments and
    # defaults never leak into the next
    first = tmp_path / "d1.csv"
    second = tmp_path / "d2.csv"
    assert main(["density", "--T", "1", "--h", "1", "--n", "40",
                 "--output", str(first)]) == 0
    assert main(["boundary", "--x", "0.5", "--t", "0.2", "--D", "1", "--n", "12",
                 "--n-spectral", "8", "--output", str(tmp_path / "b.csv")]) == 0
    assert main(["density", "--T", "1", "--h", "1", "--output", str(second)]) == 0
    n_col = CSV_HEADER.split(",").index("n")
    assert first.read_text().splitlines()[1].split(",")[n_col] == "40"
    assert second.read_text().splitlines()[1].split(",")[n_col] == "400"
    # a flag of the previous command is still rejected by the next one
    code, _ = run_cli(["correlate", "--eps", "+", "--x1", "0.1", "--x2", "0.2",
                       "--t", "0", "--D", "1", "--n-spectral", "8"])
    assert code == 1
    # and a parse error leaves the parser usable
    code, out = run_cli(["static", "--eps", "+", "--x1", "0.4", "--x2", "0.9",
                         "--T", "0.5", "--n", "12"])
    assert code == 0 and out.startswith(CSV_HEADER)


def test_kernel_dump(tmp_path):
    out = tmp_path / "k.csv"
    code = main(["kernel-dump", "--kernel", "W", "--x2", "0.9", "--n", "4",
                 "--a", "0", "--b", "2", "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "i,j,lam,mu,re,im"
    assert len(lines) == 17


def test_knobs_affect_output(tmp_path):
    # every numeric knob in the metadata changes some digit of the output
    base = ["correlate", "--eps", "+", "--x1", "0.4", "--x2", "0.9", "--t", "0.9",
            "--D", "1.5", "--format", "json"]
    vals = {}
    for tag, extra in (("n10", ["--n", "10"]), ("n12", ["--n", "12"])):
        out = tmp_path / f"{tag}.json"
        main(base + extra + ["--output", str(out)])
        rec = json.loads(out.read_text())[0]
        vals[tag] = (rec["value_re"], rec["value_im"])
    assert vals["n10"] != vals["n12"]


def test_oracle_command():
    # the quick and full oracle and the whole validate suite pass every check
    for argv in (["oracle"], ["oracle", "--full"], ["validate", "--suite", "all"]):
        code, out = run_cli(argv)
        report = json.loads(out)
        assert code == 0 and report["passed"] is True, argv
        assert report["checks"] and all(c["passed"] for c in report["checks"])


# a check fails when its subject moves by 1e-6 relative: by a real factor, a
# complex one (conjugation symmetry) or one odd in lam (reflection identity)
PERTURBATIONS = (
    ("form_factor", "oracle --full", "form-factors", lambda *a: 1 + 1e-6),
    ("finite_L_correlation", "oracle --full", "routes", lambda *a: 1 + 1e-6),
    ("orthogonality_check", "oracle", "orthogonality", lambda *a: 1 + 1e-6),
    ("gaussian_fresnel", "validate", "gaussian", lambda *a: 1 + 1e-6),
    ("kernel_theta", "validate", "theta", lambda *a: 1 + 1e-6),
    ("pv_fresnel_hilbert", "validate", "conjugation", lambda *a: 1 + 1e-6j),
    ("kernel_L", "validate", "reflection", lambda lam, *a: 1 + 1e-6 * lam),
)


@pytest.mark.parametrize("subject,argv,check,factor", PERTURBATIONS,
                         ids=[case[0] for case in PERTURBATIONS])
def test_suite_check_fails_on_perturbed_subject(monkeypatch, subject, argv, check, factor):
    import bosefredholm.validate as validate

    f = getattr(validate, subject)
    monkeypatch.setattr(validate, subject, lambda *a, **k: f(*a, **k) * factor(*a))
    code, out = run_cli(argv.split())
    passed = {c["name"]: c["passed"] for c in json.loads(out)["checks"]}
    assert code == 2 and passed[validate.CHECKS[check][0]] is False


@pytest.mark.parametrize("argv", [["lax-check", "--damping", "1e-9"],
                                  ["lax-check", "--orders", "40"]])
def test_unbuildable_line_grid_is_a_one_line_configuration_error(capsys, argv):
    # tail cuts of 4e5 and 4.7e7 would take millions of line-grid panels:
    # the grid is refused at MAX_LINE_PANELS instead of being built
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "panels" in lines[0]


def test_entry_point_subprocess():
    env = dict(os.environ)
    proc = subprocess.run(
        [sys.executable, "-m", "bosefredholm.cli", "correlate", "--eps", "+",
         "--x1", "0.4", "--x2", "0.9", "--t", "0", "--D", "1", "--n", "12"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0
    assert proc.stdout.startswith(CSV_HEADER.split(",")[0])


def test_bf_threads_scan(tmp_path):
    env = dict(os.environ, BF_THREADS="2")
    out = tmp_path / "p.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "bosefredholm.cli", "correlate", "--eps", "+",
         "--x1", "0.2:0.8:3", "--x2", "1.0", "--t", "0", "--D", "1",
         "--n", "12", "--output", str(out)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0
    assert len(out.read_text().strip().split("\n")) == 4


def test_correlate_scan_flags_a_degenerate_point(tmp_path):
    # x1 = x2 at t = 0 makes the Gaussian a delta distribution: that point is
    # a flagged record, the other point is computed, and the exit code is 2
    out = tmp_path / "scan.json"
    code = main(["correlate", "--eps", "+", "--x1", "0.3:0.5:2", "--x2", "0.5",
                 "--t", "0", "--D", "1", "--format", "json", "--output", str(out)])
    assert code == 2
    good, bad = json.loads(out.read_text())
    assert (good["x1"], good["flag"]) == (0.3, "")
    assert math.isfinite(good["value_re"])
    assert (bad["x1"], bad["flag"]) == (0.5, "degenerate-delta")
    assert bad["value_re"] is None


@pytest.mark.parametrize("command,target,argv", [
    ("static", "correlation_static",
     ["--eps", "+", "--x1", "0.4:0.6:2", "--x2", "0.9", "--T", "0.5", "--n", "16"]),
    ("boundary", "correlation_boundary_neumann",
     ["--x", "0.4:0.6:2", "--t", "0.3", "--D", "1", "--n", "16", "--n-spectral", "8"]),
    ("density", "density_of_temperature", ["--T", "0.4:0.6:2", "--h", "1", "--n", "40"]),
])
def test_scans_flag_a_failing_point(tmp_path, monkeypatch, command, target, argv):
    import bosefredholm.cli as cli
    from bosefredholm.errors import NumericalFailure
    original = getattr(cli, target)
    calls = []

    def second_fails(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise NumericalFailure("non-finite entries")
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, target, second_fails)
    out = tmp_path / "scan.json"
    code = main([command, *argv, "--format", "json", "--output", str(out)])
    assert code == 2
    first, second = json.loads(out.read_text())
    assert first["flag"] == "" and math.isfinite(first["value_re"])
    assert second["flag"] == "numerical-failure" and second["value_re"] is None


def test_lax_check_reports_its_line_grids(tmp_path):
    # the stencil shares one grid under the policy as given; the final b
    # runs on the grid of the adapted policy, whose deltas are reported
    from bosefredholm.nls_system import FourPointConfig, adapt_policy, build_line_grid
    from bosefredholm.special_integrals import RegularizationPolicy
    y, tt = (0.15, 0.45, -0.35, 0.8), (0.1, 0.32, -0.2, 0.55)
    out = tmp_path / "lax.json"
    code = main(["lax-check", "--y", *map(str, y), "--tt", *map(str, tt), "--n", "8",
                 "--damping", "0.5", "--orders", "3", "--output", str(out)])
    assert code == 0
    grids = json.loads(out.read_text())["line_grids"]
    cfg = FourPointConfig(y=y, t=tt)
    policy = RegularizationPolicy(damping=0.5)
    adapted = adapt_policy(cfg, policy)
    assert adapted.deltas[-1] < policy.deltas[-1]
    assert grids["stencil"] == {"nodes": len(build_line_grid(cfg, policy).nodes),
                                "deltas": list(policy.deltas)}
    assert grids["final"] == {"nodes": len(build_line_grid(cfg, adapted).nodes),
                              "deltas": list(adapted.deltas)}
    assert grids["final"]["nodes"] > grids["stencil"]["nodes"]


@pytest.mark.parametrize("y,tt,damping,grids", [
    # every |dy| / (2 |dt|) is small: the final b runs on the stencil grid
    ((-0.06, 0.06, 0.0, 0.15), (0.025, 0.1, -0.05, 0.175), 2e-2, 1),
    # adapt_policy lowers the damping: the final b builds a grid of its own
    ((0.15, 0.45, -0.35, 0.8), (0.1, 0.32, -0.2, 0.55), 0.5, 2),
])
def test_lax_check_final_b_shares_the_stencil_grid(tmp_path, monkeypatch, y, tt, damping, grids):
    import numpy as np
    import bosefredholm.nls_system as nls
    from bosefredholm.correlators import PhysicalPoint
    from bosefredholm.kernels import NEUMANN, ThermalParams
    from bosefredholm.special_integrals import RegularizationPolicy
    original, calls = nls.graded_line_grid, []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(nls, "graded_line_grid", counting)
    out = tmp_path / "lax.json"
    code = main(["lax-check", "--y", *map(str, y), "--tt", *map(str, tt), "--n", "8",
                 "--damping", str(damping), "--orders", "3", "--output", str(out)])
    assert code == 0
    assert len(calls) == grids
    # b is the b of the same configuration on a grid of its own
    pt = PhysicalPoint(0.5, 0.5, 0.0, NEUMANN, ThermalParams(h=1.0, T=0.0), D=0.7)
    b = nls.build_b(nls.FourPointConfig(y=y, t=tt), pt, n=8,
                    policy=RegularizationPolicy(damping=damping)).b
    data = json.loads(out.read_text())
    assert np.array_equal(np.array(data["b_re"]) + 1j * np.array(data["b_im"]), b)


def test_lax_check_final_b_at_a_closed_form_configuration(tmp_path):
    # first pair coincident, second equal-time: the stencil integrates on
    # its line grid, the final b is build_b's closed form on no grid
    import numpy as np
    import bosefredholm.nls_system as nls
    from bosefredholm.correlators import PhysicalPoint
    from bosefredholm.kernels import NEUMANN, ThermalParams
    y, tt = (0.0, 0.0, -0.4, 0.4), (0.0, 0.0, 0.3, 0.3)
    out = tmp_path / "lax.json"
    code = main(["lax-check", "--y", *map(str, y), "--tt", *map(str, tt), "--step", "4e-3",
                 "--n", "10", "--output", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["line_grids"] == {"stencil": {"nodes": 11360, "deltas": [0.01, 0.005, 0.0025]},
                                  "final": {"nodes": 0, "deltas": []}}
    pt = PhysicalPoint(0.5, 0.5, 0.0, NEUMANN, ThermalParams(h=1.0, T=0.0), D=0.7)
    b = nls.build_b(nls.FourPointConfig(y=y, t=tt), pt, n=10).b
    assert np.array_equal(np.array(data["b_re"]) + 1j * np.array(data["b_im"]), b)


@pytest.mark.parametrize("argv", [
    ["correlate", "--eps", "+", "--x1", "0.3", "--x2", "0.5", "--t", "0"],
    ["boundary", "--x", "0.5", "--t", "0.3"],
    ["lax-check", "--D", "0"],
])
def test_invalid_point_is_a_one_line_configuration_error(capsys, argv):
    # T = 0 without a positive density D
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err


def test_lax_check_evaluates_the_base_b_once(monkeypatch):
    # step and step/2 share the base configuration, and the final b on the
    # stencil grid is that same b: 1 + 2 * 40 configurations, not 83, in
    # the stacks of _build_b_stack that build_b and the stencil run
    import bosefredholm.nls_system as nls
    original, configs = nls._build_b_stack, []

    def counting(cfgs, *args, **kwargs):
        configs.extend(cfgs)
        return original(cfgs, *args, **kwargs)

    monkeypatch.setattr(nls, "_build_b_stack", counting)
    y, tt = (-0.06, 0.06, 0.0, 0.15), (0.025, 0.1, -0.05, 0.175)
    code, _ = run_cli(["lax-check", "--y", *map(str, y), "--tt", *map(str, tt), "--n", "8",
                       "--damping", "2e-2", "--orders", "3"])
    assert code == 0
    assert len(configs) == 81
    assert configs.count(nls.FourPointConfig(y=y, t=tt)) == 1


@pytest.mark.parametrize("T,h", [(0.0, 1.0), (0.5, 1.0), (1.0, 0.3)])
def test_boundary_record_reports_its_truncation(tmp_path, T, h):
    # at T > 0 the W determinant's half line and b's spectral line are both
    # cut at thermal_cut(h, T); the T = 0 Fermi sea is finite, reported as 0
    from bosefredholm.fredholm import build_grid, thermal_cut
    from bosefredholm.kernels import ThermalParams
    out = tmp_path / "b.json"
    code = main(["boundary", "--x", "0.6", "--t", "0.3", "--T", str(T), "--h", str(h),
                 "--D", "1", "--n", "12", "--n-spectral", "8", "--format", "json",
                 "--digits", "17", "--output", str(out)])
    assert code == 0
    rec = json.loads(out.read_text())[0]
    if T == 0.0:
        assert rec["truncation"] == 0.0
    else:
        quad = build_grid((0.0, math.inf), 12, thermal=ThermalParams(h=h, T=T))
        assert rec["truncation"] == quad.truncation == thermal_cut(h, T)
