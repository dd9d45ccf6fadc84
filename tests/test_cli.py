import json
import subprocess
import sys

import pytest

from plevylab import cli
from plevylab import functionals as F
from plevylab import kernels as K
from plevylab import sweep as smod
from plevylab.fields import Gaussian, SmoothBump

BASE = [sys.executable, "-m", "plevylab.cli"]


def run(*args, env=None, timeout=120):
    import os
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    # a hang fails the test instead of stalling the run
    return subprocess.run(BASE + list(args), capture_output=True,
                          text=True, env=full_env, timeout=timeout)


def test_constant_row():
    out = run("constant", "--d", "3", "--p", "2", "--n", "100000")
    assert out.returncode == 0
    header, row = out.stdout.strip().split("\n")
    cols = dict(zip(header.split(","), row.split(",")))
    assert abs(float(cols["value_mean"]) - 1.0 / 3.0) < 1e-10
    assert abs(float(cols["value_closed"]) - 1.0 / 3.0) < 1e-10
    assert float(cols["discrepancy"]) < 1e-10


def test_kernel_check_normalized():
    out = run("kernel-check", "--family", "stable", "--d", "2", "--p", "1",
              "--eps", "0.1")
    assert out.returncode == 0
    header, row = out.stdout.strip().split("\n")
    cols = dict(zip(header.split(","), row.split(",")))
    assert abs(float(cols["normalization"]) - 1.0) < 1e-6


@pytest.mark.parametrize("argv, column, want", [
    (["kernel-check", "--family", "stable", "--d", "1", "--p", "2"],
     "normalization", "1.0000000000024316"),
    (["generator"], "value", "0.9971385352789072"),
])
def test_rows_at_eps_0_01_keep_their_values(argv, column, want):
    # no node of the power map collapses at eps = 0.01: these are the
    # values of the map that scored collapsed nodes 0
    out = run(*argv, "--eps", "0.01")
    assert out.returncode == 0, out.stderr
    header, row = out.stdout.strip().split("\n")
    assert dict(zip(header.split(","), row.split(",")))[column] == want


def test_energy_deterministic_value():
    out = run("energy", "--field", "linear", "--domain", "interval",
              "--eps", "0.1", "--p", "2", "--d", "1", "--mode",
              "deterministic-1d")
    assert out.returncode == 0
    header, row = out.stdout.strip().split("\n")
    cols = dict(zip(header.split(","), row.split(",")))
    assert abs(float(cols["value"]) - 1.9 / 2.2) < 1e-8


def test_deterministic_jump_energy_at_small_eps():
    # this exited 2 ("power map ... collapses") before the closed-form core
    # of the pair energy; the value is 2 - 2^eps
    out = run("energy", "--field", "sign-jump", "--xa", "-1", "--xb", "1",
              "--p", "1", "--eps", "0.001", "--mode", "deterministic-1d")
    assert out.returncode == 0, out.stderr
    header, row = out.stdout.strip().split("\n")
    value = float(dict(zip(header.split(","), row.split(",")))["value"])
    assert abs(value - (2.0 - 2.0 ** 0.001)) <= 1e-12 * value


def test_energy_row_names_the_kernel_built():
    # d, p and eps come from the kernel, defaults included
    out = run("energy", "--eps", "0.1", "--n", "1000")
    assert out.returncode == 0
    header, row = out.stdout.strip().split("\n")
    cols = dict(zip(header.split(","), row.split(",")))
    assert (cols["family"], cols["d"], cols["p"], cols["eps"]) \
        == ("stable", "1", "2.0", "0.1")


def test_generator_json():
    out = run("generator", "--field", "gaussian", "--d", "1", "--p", "2",
              "--eps", "0.1", "--format", "json")
    assert out.returncode == 0
    rows = json.loads(out.stdout)
    assert abs(float(rows[0]["value"]) - 0.9735042655627755) < 1e-6


def test_generator_far_out_is_zero():
    # the Gaussian's Laplacian there reads 0, not (4 |x|^2 - 2d) * 0 = nan
    out = run("generator", "--field", "gaussian", "--d", "1", "--p", "2",
              "--eps", "0.1", "--point", "1e155", "--format", "json")
    assert out.returncode == 0
    assert out.stderr == ""
    assert float(json.loads(out.stdout)[0]["value"]) == 0.0


def test_smoothed_power_at_large_beta_is_warning_free():
    out = run("kernel-check", "--family", "smoothed_power", "--beta", "200",
              "--eps", "0.1")
    assert out.returncode == 0
    assert out.stderr == ""


def test_usage_error_exit_code():
    assert run("bogus").returncode == 1
    assert run("sweep", "--case", "no-such-case").returncode == 1


def test_numerical_error_exit_code():
    # eps beyond the stable family validity window
    out = run("energy", "--family", "stable", "--eps", "3.0", "--p", "2",
              "--d", "1")
    assert out.returncode == 2
    assert "numerical failure" in out.stderr


def test_kernel_p_below_one_is_a_numerical_failure():
    out = run("kernel-check", "--family", "truncated_power", "--p", "0.5",
              "--eps", "0.1")
    assert out.returncode == 2
    assert out.stdout == ""
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: ")


def test_config_file_merged_under_flags(tmp_path):
    cfg = tmp_path / "kernel.cfg"
    cfg.write_text("family=stable\nd=2\np=1\neps=0.1\n")
    out = run("kernel-check", "--config", str(cfg))
    assert out.returncode == 0
    lines = out.stdout.strip().split("\n")
    cols = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert cols["d"] == "2"
    # explicit flag wins over the file
    out2 = run("kernel-check", "--config", str(cfg), "--d", "1")
    lines2 = out2.stdout.strip().split("\n")
    cols2 = dict(zip(lines2[0].split(","), lines2[1].split(",")))
    assert cols2["d"] == "1"
    # the file's family counts when no --family flag is given
    cfg.write_text("family=truncated_power\nbeta=1.0\neps=0.3\n")
    lines3 = run("kernel-check", "--config", str(cfg)).stdout.split("\n")
    assert lines3[1].startswith("truncated_power,")


def _rows(out):
    assert out.returncode == 0, out.stderr
    header, *rows = out.stdout.strip().split("\n")
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


def test_config_eps_sets_the_grid(tmp_path):
    # the file's eps= gives one row, as energy reads it; it used to be
    # dropped for the family's five-point default grid
    cfg = tmp_path / "kernel.cfg"
    cfg.write_text("family=stable\nd=2\np=2\neps=0.1\n")
    for command in ("kernel-check", "generator"):
        rows = _rows(run(command, "--config", str(cfg)))
        assert [(r["d"], r["eps"]) for r in rows] == [("2", "0.1")]
        # an explicit --eps still wins over the file
        rows = _rows(run(command, "--config", str(cfg), "--eps", "0.4"))
        assert [r["eps"] for r in rows] == ["0.4"]


def test_config_d_sets_the_field_dimension(tmp_path):
    # generator built a d = 1 field against the file's d = 2 kernel and
    # exited 1 with "dimension mismatch: kernel d=2, field d=1, point d=1"
    cfg = tmp_path / "kernel.cfg"
    cfg.write_text("family=stable\nd=2\np=2\neps=0.1\n")
    got = _rows(run("generator", "--config", str(cfg), "--field",
                    "gaussian"))
    flagged = _rows(run("generator", "--d", "2", "--p", "2", "--eps", "0.1",
                        "--field", "gaussian"))
    assert got == flagged
    assert float(got[0]["value"]) == F.generator(
        Gaussian(2), [0.0, 0.0], K.make_stable(2, 2.0, 0.1))


def test_config_d_sets_the_domain_and_field_dimension(tmp_path):
    # energy on a ball built a d = 1 field against a d = 2 kernel and ball
    cfg = tmp_path / "kernel.cfg"
    cfg.write_text("family=stable\nd=2\np=2\neps=0.1\n")
    args = ("--domain", "ball", "--field", "linear", "--n", "2000")
    got = _rows(run("energy", "--config", str(cfg), *args))
    flagged = _rows(run("energy", "--d", "2", "--p", "2", "--eps", "0.1",
                        *args))
    assert got == flagged
    assert got[0]["d"] == "2" and float(got[0]["value"]) > 0.0


def test_single_sweep_case_runs():
    out = run("sweep", "--case", "generator-gaussian-d1", "--format",
              "json")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["all_ok"] is True
    assert payload["cases"][0]["report"]["verdict"] == "converged"


@pytest.mark.parametrize("option, value, rest", [
    ("--xa", "-1e-3", ("energy", "--eps", "0.4", "--n", "1000")),
    ("--point", "-0.5,0.2", ("generator", "--d", "2", "--eps", "0.1",
                             "--p", "2")),
])
def test_negative_values_need_no_equals_sign(option, value, rest):
    # argparse alone reads -1e-3 and -0.5,0.2 as unknown options
    spaced = run(*rest, option, value)
    joined = run(*rest, "%s=%s" % (option, value))
    assert spaced.returncode == joined.returncode == 0, spaced.stderr
    assert spaced.stdout == joined.stdout != ""


@pytest.mark.parametrize("line", [
    "energy --eps 0.1 --n 0",
    "energy --eps 0.1 --n -5",
    "energy --n 1000",
    "kernel-check --config {bad_config}",
    "kernel-check --config {bad_family}",
    "kernel-check --config {missing}",
    "kernel-check --config {binary}",
    "kernel-check --d abc",
    "suite --config x",
    "constant --d 0 --p 2",
    "constant --d 2 --p 0.5",
    "kernel-check --d 0 --eps 0.1",
    "kernel-check --d 0 --eps 0.1 --family truncated_power",
    "kernel-check --d 0 --eps 0.1 --family log_limit",
    "energy --eps 0.1 --domain ball --radius -1 --d 2",
    "energy --eps 0.1 --xa 1 --xb 0",
    "energy --eps 0.1 --domain slit-ball --radius 0 --d 2",
    "energy --eps 0.1 --field bump --bump-radius -1",
    "energy --eps 0.1 --domain ball --n 1000",
    "generator --point 1,2 --eps 0.1 --p 2",
    "energy --eps 0.1 --domain ball --radius nan --d 2 --n 10",
    "energy --eps 0.1 --domain ball --radius inf --d 2 --n 10",
    "energy --eps 0.1 --domain slit-ball --radius nan --d 2 --n 10",
    "energy --eps 0.1 --xb inf --n 10",
    "energy --eps 0.1 --field bump --bump-radius inf --n 10",
    # the squared radius underflows: this printed 0.0 for the bump's centre
    "generator --field bump --bump-radius 1e-300 --eps 0.1",
    "kernel-check --p inf --eps 0.1",
    "kernel-check --family truncated_power --beta nan --eps 0.1",
    "kernel-check --family truncated_power --beta inf --eps 0.1",
    "kernel-check --config {nonfinite}",
    "generator --d 4 --eps 0.1 --p 2",
    "generator --point inf --eps 0.1 --p 2",
    "generator --point nan --eps 0.1 --p 2",
    "generator --point 0.2,-inf --d 2 --eps 0.1 --p 2",
    "generator --point -0.5,-inf --d 2 --eps 0.1 --p 2",
    "PLEVYLAB_THREADS=abc kernel-check --eps 0.1",
    "PLEVYLAB_THREADS=0 kernel-check --eps 0.1",
    "PLEVYLAB_THREADS=-2 kernel-check --eps 0.1",
])
def test_bad_input_is_a_one_line_usage_error(tmp_path, line):
    bad_config = tmp_path / "bad.cfg"
    bad_config.write_text("family=stable\np\n")
    bad_family = tmp_path / "family.cfg"
    bad_family.write_text("family=bogus\n")
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"\xff\xfe=1\n")
    nonfinite = tmp_path / "nonfinite.cfg"
    nonfinite.write_text("family=stable\neps=0.1\np=inf\n")
    args = line.format(bad_config=bad_config, bad_family=bad_family,
                       binary=binary, nonfinite=nonfinite,
                       missing=tmp_path / "missing.cfg").split()
    env = dict([args.pop(0).split("=")]) if "=" in args[0] else None
    out = run(*args, env=env)
    assert out.returncode == 1
    assert out.stdout == ""
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr


@pytest.mark.parametrize("args, config, named", [
    # this printed the plain stable row: the three values were dropped
    (("--family", "stable", "--eps", "0.1", "--eps0", "3", "--beta", "7",
      "--base-eps", "9"), None, "the stable family takes no base_eps"),
    ((), "family=log_limit\neps=0.02\nbeta=1.0\n",
     "the log_limit family takes no beta"),
    (("--family", "truncated_power", "--eps", "0.1"), "eps0=0.5\n",
     "the truncated_power family takes no eps0"),
])
def test_a_parameter_the_family_does_not_take_is_a_usage_error(
        tmp_path, args, config, named):
    if config is not None:
        cfg = tmp_path / "kernel.cfg"
        cfg.write_text(config)
        args += ("--config", str(cfg))
    out = run("kernel-check", *args)
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr == "error: %s\n" % named


@pytest.mark.parametrize("radius", [None, 0.5])
def test_generator_bump_field(radius):
    flags = [] if radius is None else ["--bump-radius", str(radius)]
    out = run("generator", "--field", "bump", "--eps", "0.1", *flags)
    assert out.returncode == 0, out.stderr
    header, row = out.stdout.strip().split("\n")
    cols = dict(zip(header.split(","), row.split(",")))
    want = F.generator(SmoothBump(1, 1.0 if radius is None else radius),
                       [0.0], K.make_stable(1, 2.0, 0.1))
    assert float(cols["value"]) == want


_FAILURE_NAMES = {
    "constant --d 400 --p 2 --n 10": "d=400",
    "kernel-check --d 400 --eps 0.1": "d=400",
    "kernel-check --family truncated_power --beta 1e308 --eps 0.1":
        "beta=1e+308",
    "energy --eps 0.1 --n 10 --output {tmp}/missing/x.csv": "--output",
    "energy --eps 0.1 --n 10 --output {tmp}": "--output",
    "energy --eps 0.1 --xa -1e308 --xb 1e308 --n 1000": "IntervalUnion",
    "energy --eps 0.1 --domain ball --radius 1e308 --d 2 --n 1000":
        "volume of Ball",
    "energy --eps 0.1 --domain ball --radius 1e-200 --d 2 --n 1000":
        "squared radius of Ball(radius=1e-200",
    "energy --eps 0.1 --domain ball --radius 1e200 --d 1 --n 1000":
        "squared radius of Ball(radius=1e+200",
    "energy --eps 0.1 --mode deterministic-1d --xa 0 --xb 1e300":
        "x piece (0, 1e+300)",
    # kernels concentrated below float resolution: these printed wrong
    # values (normalization 0.50025, 0.9727 and 0.0, generator 0.5045)
    "kernel-check --family stable --d 1 --p 2 --eps 0.001": "alpha=0.001",
    "kernel-check --family stable --d 1 --p 2 --eps 0.005": "alpha=0.005",
    "kernel-check --family truncated_power --beta -0.999999 --eps 0.1":
        "alpha=1e-06",
    "generator --eps 0.001": "alpha=0.001",
    # a jump field's Monte Carlo weights have infinite variance: this
    # printed 0.163 +- 0.022 against 2 - 2^0.02 = 0.986
    "energy --field sign-jump --xa -1 --xb 1 --p 1 --eps 0.02 --n 400000":
        "deterministic-1d",
    # b_eps underflows to 0.0: this ended in a math domain error traceback
    "kernel-check --family smoothed_power --beta 390 --eps 0.1":
        "beta=390.0 is too large for eps=0.1, d=1",
    # the t-integrand overflows: these printed "non-finite integrand on
    # (0.166667, 1)" and "(0.4, 1)", naming neither beta nor eps
    "kernel-check --family smoothed_power --beta 400 --eps 0.1":
        "beta=400.0 is too large for eps=0.1, d=1",
    "kernel-check --family smoothed_power --beta 800 --eps 0.6 --eps0 0.9":
        "beta=800.0 is too large for eps=0.6, d=1",
    # the kernel's scale rounds to 0.0: these ended in a math domain error
    # traceback
    "kernel-check --eps 5e-324": "eps=5e-324",
    "kernel-check --family log_limit --eps 1e-320":
        "log_limit kernel at eps=1e-320, eps0=0.5 has scale 0.0",
    # d + p - eps rounds to d + p: these read "radial integral diverges at
    # the origin" and "pair energy diverges on the diagonal" (it is ~1)
    "kernel-check --eps 1e-17": "got eps=1e-17, d + p = 3.0",
    "energy --eps 1e-17 --mode deterministic-1d":
        "got eps=1e-17, d + p = 3.0",
}


@pytest.mark.parametrize("line, code", [
    ("constant --d 400 --p 2 --n 10", 2),
    ("kernel-check --d 400 --eps 0.1", 2),
    ("kernel-check --family truncated_power --beta 1e308 --eps 0.1", 2),
    ("energy --eps 0.1 --n 10 --output {tmp}/missing/x.csv", 1),
    ("energy --eps 0.1 --n 10 --output {tmp}", 1),
    ("energy --eps 0.1 --xa -1e308 --xb 1e308 --n 1000", 2),
    ("energy --eps 0.1 --domain ball --radius 1e308 --d 2 --n 1000", 2),
    ("energy --eps 0.1 --domain ball --radius 1e-200 --d 2 --n 1000", 2),
    ("energy --eps 0.1 --domain ball --radius 1e200 --d 1 --n 1000", 2),
    ("energy --eps 0.1 --mode deterministic-1d --xa 0 --xb 1e300", 2),
    ("kernel-check --family stable --d 1 --p 2 --eps 0.001", 2),
    ("kernel-check --family stable --d 1 --p 2 --eps 0.005", 2),
    ("kernel-check --family truncated_power --beta -0.999999 --eps 0.1", 2),
    ("generator --eps 0.001", 2),
    ("energy --field sign-jump --xa -1 --xb 1 --p 1 --eps 0.02 --n 400000", 2),
    ("kernel-check --family smoothed_power --beta 390 --eps 0.1", 2),
    ("kernel-check --family smoothed_power --beta 400 --eps 0.1", 2),
    ("kernel-check --family smoothed_power --beta 800 --eps 0.6 --eps0 0.9",
     2),
    ("kernel-check --eps 5e-324", 2),
    ("kernel-check --family log_limit --eps 1e-320", 2),
    ("kernel-check --eps 1e-17", 2),
    ("energy --eps 1e-17 --mode deterministic-1d", 2),
])
def test_failures_exit_with_a_code_and_no_traceback(tmp_path, line, code):
    # the overflowing bounding box once made the sampler loop for ever
    out = run(*line.format(tmp=tmp_path).split(), timeout=30)
    assert out.returncode == code
    assert out.stdout == ""
    lines = out.stderr.splitlines()
    prefix = "error: " if code == 1 else "numerical failure: "
    assert len(lines) == 1 and lines[0].startswith(prefix), out.stderr
    # the message names the input that failed
    assert _FAILURE_NAMES[line] in lines[0], lines[0]


@pytest.mark.parametrize("argv", [["sweep", "--case", "cross-tent-p1"],
                                  ["suite"]])
def test_unwritable_output_fails_before_any_computation(tmp_path, capsys,
                                                        monkeypatch, argv):
    def never(case):
        raise AssertionError("computed before checking --output")

    monkeypatch.setattr(smod, "run_sweep", never)
    code = cli.main(argv + ["--output", str(tmp_path / "missing" / "x.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write --output ")
    assert err.count("\n") == 1


def test_import_loads_no_scipy():
    # scipy's import alone costs more than the package's own start-up
    probe = ("import plevylab, plevylab.cli, sys; "
             "print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
