import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hypbuild import catalog as cat, cli, coxeter, geomrender as gr, metrics as mt
from hypbuild import rabuilding as rb
from hypbuild.chamber import ChamberError, validate

from test_genpoly import to_text


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_chamber_area(capsys):
    code, rep = run(capsys, "chamber", "area", "--chamber", "3;2,3,8;1,1,1")
    assert code == 0
    assert rep["command"] == "chamber area"
    assert rep["results"][0]["area"] == "pi/24"


def test_chamber_validate_failure_exits_1(capsys):
    code, rep = run(capsys, "chamber", "validate", "--chamber", "3;3,3,3")
    assert code == 1
    assert rep["verdicts"] == [{"name": "valid", "pass": False}]
    assert rep["witnesses"][0]["codes"] == ["NonHyperbolic"]


def test_usage_error_exits_2(capsys):
    assert cli.main(["nonsense"]) == 2
    capsys.readouterr()
    assert cli.main(["chamber", "area"]) == 2  # missing --chamber
    capsys.readouterr()
    code = cli.main(["chamber", "area", "--chamber", "not-a-spec"])
    assert code == 2


def test_negative_radius_is_a_usage_error(capsys):
    assert cli.main(["coxeter", "ball", "--chamber", "3;2,3,8", "--radius", "-1"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flags", [
    ["gromov", "--x", "1", "--y", "99"],  # past the last chamber
    ["dist", "--c", "-1", "--cp", "0"],  # not read as the last chamber
])
def test_metrics_chamber_index_out_of_range_is_a_usage_error(capsys, flags):
    argv = ["metrics"] + flags[:1] + ["--chamber", "3;2,3,8", "--radius", "2"] + flags[1:]
    assert cli.main(argv) == 2
    assert capsys.readouterr().out == ""


def test_q_on_building_host_is_a_usage_error(capsys):
    argv = ["metrics", "dist", "--chamber", "5;2,2,2,2,2;2,2,2,2,2",
            "--host", "building", "--radius", "2", "--c", "0", "--cp", "7"]
    assert cli.main(argv + ["--q", "5,5,5,5,5"]) == 2
    assert capsys.readouterr().out == ""
    assert cli.main(argv) == 0


@pytest.mark.parametrize("q", ["-2,3,5", "0,2,3", "a", "2,3"],
                         ids=["negative", "zero", "not-an-integer", "too-few"])
def test_bad_q_is_a_usage_error_naming_the_flag(capsys, q):
    code = cli.main(["metrics", "dist", "--chamber", "3;2,3,8", "--radius", "2",
                     "--c", "0", "--cp", "3", "--q", q])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "error: --q %s is not 3 comma-separated integers >= 1, one per edge label\n" % q


@pytest.mark.parametrize("step", ["0", "-0.5", "nan"])
def test_growth_step_must_be_positive(capsys, step):
    # parse only: a growth loop with such a step would never end
    parser = cli._build_parser()
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["metrics", "growth", "--chamber", "3;2,3,8", "--step", step])
    assert exc.value.code == 2
    assert "step must be > 0" in capsys.readouterr().err
    args = parser.parse_args(["metrics", "growth", "--chamber", "3;2,3,8", "--step", "0.25"])
    assert args.step == 0.25


@pytest.mark.parametrize("n", ["-1", "-0.5", "nan", "inf", "-inf"])
def test_growth_n_must_be_finite_and_not_negative(capsys, n):
    code = cli.main(["metrics", "growth", "--chamber", "3;2,3,8", "--q", "2,3,5",
                     "--radius", "2", "--n=" + n])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "error: --n %s is not a finite number >= 0\n" % float(n)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv,flag", [
    (["busemann", "--cp", "1", "--theta={}"], "--theta"),
    (["detect-skeleton", "--samples", "2", "--theta={}"], "--theta"),
    (["crossratio", "--thetas=0.5,{},2,3"], "--thetas entry"),
], ids=["busemann", "detect-skeleton", "crossratio"])
def test_non_finite_ray_angle_is_a_usage_error(capsys, argv, flag, value):
    code = cli.main(["metrics", *[a.format(value) for a in argv],
                     "--chamber", "3;2,3,8", "--radius", "2"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "error: %s %s is not a finite angle\n" % (flag, float(value))


@pytest.mark.parametrize("value", ["-1e-3", "-2E+1"])
@pytest.mark.parametrize("argv", [
    ["busemann", "--cp", "1", "--theta", "{}"],
    ["detect-skeleton", "--samples", "2", "--theta", "{}"],
    ["crossratio", "--thetas", "{},1,2,3"],
], ids=["busemann", "detect-skeleton", "crossratio"])
def test_negative_angle_in_exponent_form_parses(capsys, argv, value):
    # a space-separated angle gives the report of the "=" form
    rest = ["--chamber", "3;2,3,8", "--radius", "2"]
    code = cli.main(["metrics", *[a.format(value) for a in argv], *rest])
    out = capsys.readouterr().out
    glued = argv[:-2] + ["%s=%s" % (argv[-2], argv[-1].format(value))]
    assert code == 0
    assert (code, out) == (cli.main(["metrics", *glued, *rest]), capsys.readouterr().out)


@pytest.mark.parametrize("argv", [
    ["busemann", "--cp", "1", "--theta", "-x"],
    ["crossratio", "--thetas", "-x,1,2,3"],
    ["busemann", "--cp", "1", "--theta"],
], ids=["busemann", "crossratio", "missing"])
def test_non_numeric_angle_is_still_a_usage_error(capsys, argv):
    code = cli.main(["metrics", *argv, "--chamber", "3;2,3,8", "--radius", "2"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("argv,exit_code", [
    (["crossratio", "--thetas", "0.3,1.9,3.4,5.0"], 0),
    (["busemann", "--cp", "1", "--theta", "0.7"], 0),
    (["detect-skeleton", "--label", "1", "--samples", "6"], 1),  # R=4 misses -1/2 log 2
    (["detect-side", "--label", "1", "--samples", "2"], 0),
], ids=["crossratio", "busemann", "detect-skeleton", "detect-side"])
def test_ray_commands_build_no_coxeter_ball(capsys, monkeypatch, no_coxeter_ball, argv, exit_code):
    # a fresh chart cache, so the chart is made under the hook
    monkeypatch.setattr(mt, "_REALIZED_CACHE", {})
    code, rep = run(capsys, "metrics", *argv, "--chamber", "5;2,2,2,2,2;2,2,2,2,2",
                    "--host", "building", "--radius", "4")
    assert code == exit_code
    assert rep["results"] and not rep["witnesses"]


@pytest.mark.parametrize("sub,chamber,label", [
    ("detect-skeleton", "3;2,3,8", "0"),  # not the generic line
    ("detect-side", "3;2,3,8", "0"),  # not label 1
    ("detect-side", "5;2,2,2,2,2;2,2,2,2,2", "-1"),
    ("detect-side", "3;2,3,8", "9"),
    ("detect-skeleton", "5;2,2,2,2,2;2,2,2,2,2", "7"),
])
def test_detection_label_out_of_range_is_a_usage_error(capsys, sub, chamber, label):
    host = "building" if chamber.startswith("5") else "apartment"
    code = cli.main(["metrics", sub, "--chamber", chamber, "--host", host,
                     "--radius", "2", "--samples", "2", "--label", label])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "error: --label %s is not an edge label in [1, %s]\n" % (label, chamber[0])


@pytest.mark.parametrize("argv", [
    ["metrics", "detect-side", "--chamber", "3;2,3,8", "--radius", "2", "--label", "1"],
    ["metrics", "detect-skeleton", "--chamber", "3;2,3,8", "--radius", "2"],
    ["building", "retract", "--chamber", "5;2,2,2,2,2;2,2,2,2,2", "--radius", "1"],
])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_samples_must_be_positive(capsys, argv, samples):
    assert cli.main(argv + ["--samples", samples]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "must be >= 1, got %s" % samples in err


def test_genpoly_opposites_unknown_vertex_is_a_usage_error(capsys):
    code = cli.main(["genpoly", "opposites", "--kind", "quadrangle", "--params", "2",
                     "--vertex", "nosuch"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "error: --vertex nosuch is not a vertex of the quadrangle\n"


# sha256 of seeded reports whose samples are placed by float point
# location: the two detect-skeleton reports measured with the linear
# chamber scan (test_geomrender's _scan_locate) in place of the walk;
# the detect-side, walls and crossratio reports measured before the wall
# side test, the reflection words and the edge grouping by wall each
# moved into one place
PINNED_REPORTS = [
    (["metrics", "detect-skeleton", "--chamber", "3;2,3,8", "--radius", "8"],
     0, "4fb62dcd471a511cc53992632bd01a9a1781a90658829ae6710f86d98a438a1e"),
    (["metrics", "detect-skeleton", "--chamber", "5;2,2,2,2,2;2,2,2,2,2",
      "--host", "building", "--radius", "4", "--label", "1"],
     1, "1274109ba033603113c1f2f008c2dd6477483fe5168f53145b08cc98b66ae66d"),
    (["metrics", "detect-side", "--chamber", "5;2,2,2,2,2;2,2,2,2,2",
      "--host", "building", "--radius", "4", "--label", "1", "--samples", "6"],
     0, "6adaec076c57233ec5439d8e42fef31170eca1dfdafec2b604e332aefb7e89aa"),
    (["metrics", "detect-side", "--chamber", "3;2,3,8", "--radius", "8",
      "--label", "2", "--samples", "6"],
     0, "57e54e7bde639cdbbdb2b470a1be70ed3e0234dc22e4e0f7296f24bdad1129a7"),
    (["coxeter", "walls", "--chamber", "3;2,3,8", "--radius", "12"],
     0, "e30daa650a62e981a79b036a94383b49ac531dc5468367957a05be724dec8689"),
    (["metrics", "crossratio", "--chamber", "3;2,3,8", "--radius", "8",
      "--thetas", "0.3,1.9,3.4,5.0"],
     0, "d09fce6a27da05d568c8130907c9fca67d9f76b77b3b3cc1e0b3f6445b763814"),
    (["metrics", "crossratio", "--chamber", "5;2,2,2,2,2;2,2,2,2,2",
      "--host", "building", "--radius", "4", "--thetas", "0.3,1.9,3.4,5.0"],
     0, "c469a90c7242e228edb90e0bec152c05b1bfea5f168021947ae6deb3b7d01055"),
    # measured once rays stopped stepping back through the edge just
    # crossed: sample 13 is NoStabilization, 19 samples
    (["metrics", "detect-skeleton", "--chamber", "5;2,2,2,2,2;2,2,2,2,2",
      "--host", "building", "--radius", "5", "--label", "5"],
     0, "54f0c56923598205d199017b61a4c6eaa3467e6686345385e2d8fb57ba2c812f"),
]


@pytest.mark.parametrize("argv,code,digest", PINNED_REPORTS)
def test_seeded_report_bytes_pinned(capsys, argv, code, digest):
    assert cli.main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_detect_skeleton_on_the_radius_6_building(capsys):
    # the chart (radius 9) is traced in chamber frames, not realized
    code, rep = run(capsys, "metrics", "detect-skeleton", "--chamber", "5;2,2,2,2,2;2,2,2,2,2",
                    "--host", "building", "--radius", "6", "--label", "1")
    assert code == 0
    assert rep["verdicts"][0]["pass"] is True
    assert rep["results"][0]["samples"] == 19


# sha256 of the catalog reports of the benchmark's `cli` workload,
# measured before the side search ran on integer angles and root points
PINNED_CATALOG_REPORTS = [
    (["catalog", "claims", "--chamber", "3;2,3,8"],
     "df6465a86f40da14e43c26ce8e31d3d8687e8b443c612e987626c160c12d681e"),
    (["catalog", "claims", "--chamber", "3;2,4,6"],
     "17d0dc7b776df85c5c17fa9a59af833345230ca588346efca7208a082c2e8083"),
    (["catalog", "claims", "--chamber", "3;2,4,8"],
     "0eefaa5dc9334b16a1ecae625a69fd4ae49f1c6261e2a343b689fbdd704acddb"),
    (["catalog", "claims", "--chamber", "3;2,6,6"],
     "7adf39312456fd34b61edf8fa0cb807b248bb035084dfd9f428ed54978e15d0c"),
    (["catalog", "claims", "--chamber", "3;2,6,8"],
     "5f2ea976eee6282f5baf29cf9f1db66746840fb3c4b082c791654febd2edf477"),
    (["catalog", "claims", "--chamber", "3;2,8,8"],
     "e7856de63fe4e0bb54fcd80c7c6b0aafb21763160016c1013a473e9549bf15d4"),
    (["catalog", "claims", "--chamber", "3;3,3,4"],
     "5a4b9aae55205ba57239c2a98f89186aba0ae5f8304928ee0dd81b37529ac102"),
    (["catalog", "triangles", "--chamber", "3;2,3,8"],
     "1d3bdcf83cd892de5ea7257c305ad459f655f491a7104a7d749077e986bce62b"),
    (["catalog", "quads", "--chamber", "3;2,3,8"],
     "9e24c693031f0b67820162efcb2288442e589cd962839999a6decd2a5be13360"),
]


@pytest.mark.parametrize("argv,digest", PINNED_CATALOG_REPORTS)
def test_catalog_report_bytes_pinned(capsys, argv, digest):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_claims_tessellation_pinned(monkeypatch):
    # the chambers the (2,3,8) claims search grows, in the order it grows
    # them, from an empty tessellation cache: the search's footprint,
    # not a result
    monkeypatch.setattr(cat, "_TESS_CACHE", {})
    spec = validate(3, (2, 3, 8))
    cat.claims_check(spec)
    T = cat.tessellation(spec)
    assert len(T) == 3447
    digest = hashlib.sha256(repr(T.words).encode()).hexdigest()
    assert digest == "042242d88a76eb0b635828c2472349fe08a2d4d5da3a6683e1e43dfbde7e76ef"


@pytest.mark.parametrize("sub,chamber", [("triangles", "3;2,4,8"), ("quads", "4;2,2,2,3")])
def test_catalog_svg_dir_draws_each_entry_with_its_n_chambers(capsys, tmp_path, sub, chamber):
    code, rep = run(capsys, "catalog", sub, "--chamber", chamber, "--svg-dir", str(tmp_path))
    assert code == 0
    entries = rep["results"]
    assert entries
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "%s_%02d.svg" % (sub, i) for i in range(len(entries))
    ]
    for i, entry in enumerate(entries):
        svg = (tmp_path / ("%s_%02d.svg" % (sub, i))).read_text()
        assert svg.count('fill="#ffd9a0"') == entry["n"]


def test_coxeter_ball_counts(capsys):
    code, rep = run(
        capsys, "coxeter", "ball", "--chamber", "3;2,3,8", "--radius", "3"
    )
    assert code == 0
    assert rep["results"][0]["chambers"] == 16


def test_coxeter_walls_report(capsys):
    code, rep = run(
        capsys, "coxeter", "walls", "--chamber", "3;2,3,8", "--radius", "6"
    )
    assert code == 0
    assert rep["results"]
    assert rep["results"][0]["reflection"] == [1]


def test_coxeter_walls_reports_only_ball_too_small_as_unclassified(capsys, monkeypatch):
    def broken(ball, wall):
        raise KeyError("not a horizon limit")

    monkeypatch.setattr(coxeter, "wall_type", broken)
    with pytest.raises(KeyError):
        cli.main(["coxeter", "walls", "--chamber", "3;2,3,8", "--radius", "4"])
    assert '"component": null' not in capsys.readouterr().out


def test_cli_runs_without_mpmath():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import sys; sys.modules['mpmath'] = None; from hypbuild import cli; "
        "sys.exit(cli.main(['metrics', 'dist', '--chamber', '3;2,3,8', "
        "'--q', '2,3,5', '--c', '0', '--cp', '5']))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"][0]["dist"]


def test_horizon_shortfall_exits_3_with_report(capsys):
    code = cli.main(
        ["metrics", "busemann", "--chamber", "3;2,3,8", "--radius", "1",
         "--theta", "0.3", "--cp", "1"]
    )
    captured = capsys.readouterr()
    assert code == 3
    rep = json.loads(captured.out)
    assert rep["witnesses"][0]["error"] == "NoStabilization"
    assert "Traceback" not in captured.err


def test_growth_past_the_ball_radius_exits_3_with_report(capsys):
    code = cli.main(
        ["metrics", "growth", "--chamber", "3;2,3,8", "--radius", "3",
         "--n", "4", "--q", "2,3,5"]
    )
    captured = capsys.readouterr()
    assert code == 3
    rep = json.loads(captured.out)
    assert rep["command"] == "metrics growth"
    assert rep["witnesses"] == [{
        "error": "HorizonTooSmall",
        "message": "ball radius too small: boundary chambers within distance 3.0",
    }]
    assert captured.err == ""


def test_genpoly_construct_and_verify_roundtrip(capsys, tmp_path):
    code, rep = run(
        capsys, "genpoly", "construct", "--kind", "projective", "--params", "2"
    )
    assert code == 0
    assert rep["results"][0]["params"] == [2, 2]

    from hypbuild import genpoly as gp

    poly = gp.construct("quadrangle", 2)
    f = tmp_path / "gq2.txt"
    f.write_text(to_text(poly))
    code, rep = run(
        capsys, "genpoly", "verify", "--in", str(f), "--m", "4", "--thick"
    )
    assert code == 0
    assert rep["verdicts"] == [{"name": "polygon", "pass": True}]


def test_resource_cap_is_a_report_with_exit_3(capsys, monkeypatch):
    ball = rb.ball
    monkeypatch.setattr(
        rb, "ball", lambda spec, radius: ball(spec, radius, chamber_cap=20)
    )
    code, rep = run(
        capsys, "building", "ball", "--chamber", "5;2,2,2,2,2;2,2,2,2,2",
        "--radius", "3",
    )
    assert code == 3
    assert rep["command"] == "building ball"
    assert rep["witnesses"] == [
        {"error": "ResourceCap", "message": "building ball exceeds 20 chambers"}
    ]


def test_coxeter_ball_resource_cap_is_a_report_with_exit_3(capsys, monkeypatch):
    ball = coxeter.CoxeterBall
    monkeypatch.setattr(
        coxeter, "CoxeterBall", lambda spec, radius: ball(spec, radius, chamber_cap=20)
    )
    code, rep = run(capsys, "coxeter", "ball", "--chamber", "3;2,3,8", "--radius", "6")
    assert code == 3
    assert rep["command"] == "coxeter ball"
    assert rep["witnesses"] == [
        {"error": "ResourceCap", "message": "chamber cap 20 exceeded"}
    ]


# the direction of a vertex of the 3;2,3,8 chart: a valid ray through it
# is a computation that ran out, not a usage error
VERTEX_THETA = "0.7764267989046786"


@pytest.mark.parametrize("argv", [
    ("busemann", "--radius", "6", "--theta", VERTEX_THETA, "--c", "0", "--cp", "1"),
    ("crossratio", "--thetas", VERTEX_THETA + ",1.9,3.4,5.0"),
])
def test_ray_through_a_vertex_is_a_report_with_exit_3(capsys, argv):
    code, rep = run(capsys, "metrics", argv[0], "--chamber", "3;2,3,8", *argv[1:])
    assert code == 3
    assert rep["command"] == "metrics " + argv[0]
    assert rep["witnesses"] == [
        {"error": "NearVertex", "message": "crossing at t=0.190007 too close to a vertex"}
    ]


RAN_OUT = [
    mt.NoStabilization("boom"), gr.NoConvergence("boom"), coxeter.ResourceCap("boom"),
    gr.NearVertex("boom"), gr.LeftBall("boom"), mt.HorizonTooSmall("boom"),
]
BAD_INPUT = [
    ChamberError([("FormatError", "boom")]), cli.UsageError("boom"),
    FileNotFoundError("boom"), ValueError("boom"),
]


def _raiser(exc):
    def handler(args, config):
        raise exc

    return handler


@pytest.mark.parametrize("exc", RAN_OUT, ids=lambda e: type(e).__name__)
def test_ran_out_errors_exit_3_with_a_report(capsys, monkeypatch, exc):
    monkeypatch.setattr(cli, "_cmd_chamber", _raiser(exc))
    code = cli.main(["chamber", "area", "--chamber", "3;2,3,8"])
    out, err = capsys.readouterr()
    assert code == 3
    rep = json.loads(out)
    assert rep["command"] == "chamber area"
    assert rep["witnesses"] == [{"error": type(exc).__name__, "message": "boom"}]
    assert err == ""


@pytest.mark.parametrize("exc", BAD_INPUT, ids=lambda e: type(e).__name__)
def test_bad_input_errors_exit_2_with_one_stderr_line(capsys, monkeypatch, exc):
    monkeypatch.setattr(cli, "_cmd_chamber", _raiser(exc))
    code = cli.main(["chamber", "area", "--chamber", "3;2,3,8"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.endswith("boom\n") and err.count("\n") == 1


def test_other_errors_propagate(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_cmd_chamber", _raiser(KeyError("boom")))
    with pytest.raises(KeyError):
        cli.main(["chamber", "area", "--chamber", "3;2,3,8"])
    assert capsys.readouterr().out == ""


# one command per subcommand family, and the hypbuild modules (besides
# the package) a fresh process has loaded once it ran
IMPORT_PINS = [
    ([], {"chamber", "cli"}),
    (["chamber", "area", "--chamber", "3;2,3,8"], {"chamber", "cli"}),
    (["coxeter", "ball", "--chamber", "3;2,3,8", "--radius", "1"],
     {"chamber", "cli", "coxeter", "weights"}),
    (["genpoly", "construct", "--kind", "quadrangle", "--params", "2"],
     {"chamber", "cli", "genpoly"}),
    (["building", "ball", "--chamber", "5;2,2,2,2,2;2,2,2,2,2", "--radius", "1"],
     {"chamber", "cli", "coxeter", "rabuilding", "weights"}),
    (["metrics", "dist", "--chamber", "3;2,3,8", "--radius", "1"],
     {"chamber", "cli", "coxeter", "metrics", "weights"}),
    (["catalog", "claims", "--chamber", "3;2,6,6"],
     {"catalog", "chamber", "cli", "coxeter", "weights"}),
    (["render", "--chamber", "3;2,3,8", "--radius", "1", "--out", "{tmp}/ball.svg"],
     {"chamber", "cli", "coxeter", "geomrender", "weights"}),
]


@pytest.mark.parametrize("argv,loaded", IMPORT_PINS,
                         ids=[argv[0] if argv else "import" for argv, _ in IMPORT_PINS])
def test_each_command_imports_only_its_modules(tmp_path, argv, loaded):
    src = str(Path(cli.__file__).resolve().parents[1])
    argv = [a.format(tmp=tmp_path) for a in argv]
    code = (
        "import json, sys\n"
        "from hypbuild import cli\n"
        "code = cli.main(%r) if %r else 0\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('hypbuild.'))\n"
        "sys.stderr.write(json.dumps(loaded))\n"
        "sys.exit(code)\n" % (argv, bool(argv))
    )
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stderr)) == {"hypbuild." + m for m in loaded}


def test_building_retract_passes(capsys):
    code, rep = run(
        capsys, "building", "retract", "--chamber", "5;2,2,2,2,2;2,2,2,2,2",
        "--radius", "3", "--samples", "25", "--seed", "3",
    )
    assert code == 0
    assert rep["verdicts"] == [{"name": "retraction", "pass": True}]


def test_metrics_dist_identity_is_zero(capsys):
    code, rep = run(
        capsys, "metrics", "dist", "--chamber", "3;2,3,8", "--radius", "3",
        "--c", "0", "--cp", "0",
    )
    assert code == 0
    assert rep["results"][0]["value"] == 0.0
    assert rep["results"][0]["dist"] == {}


def test_metrics_growth_report(capsys):
    code, rep = run(
        capsys, "metrics", "growth", "--chamber", "3;2,3,8", "--radius", "6",
        "--q", "2,3,5", "--n", "1", "--step", "0.5", "--tau", "1",
    )
    assert code == 0
    growth = rep["results"][0]["growth"]
    assert growth[0] == {"n": 0.0, "a": 1}
    assert rep["results"][1]["converged"] is False


def test_growth_without_weights_is_a_usage_error(capsys):
    # on a thin host without --q every edge weighs log 1 = 0, so no
    # radius could certify a count
    argv = ["metrics", "growth", "--chamber", "3;2,3,8", "--radius", "6", "--n", "1"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--q" in err
    code, rep = run(capsys, *argv, "--q", "2,3,5")
    assert code == 0
    assert rep["results"][0]["growth"][-1]["n"] == 1.0


def test_catalog_quads_pentagon_empty(capsys):
    code, rep = run(
        capsys, "catalog", "quads", "--chamber", "5;2,2,2,2,2;2,2,2,2,2"
    )
    assert code == 0
    assert rep["results"] == []


def test_catalog_claims_238(capsys):
    code, rep = run(capsys, "catalog", "claims", "--chamber", "3;2,3,8")
    assert code == 0
    assert rep["results"][0]["pass"] is True
    assert all(v["pass"] for v in rep["verdicts"])


def test_render_svg(capsys, tmp_path):
    out = tmp_path / "ball.svg"
    code, rep = run(
        capsys, "render", "--chamber", "3;2,3,8", "--radius", "2",
        "--out", str(out),
    )
    assert code == 0
    assert rep["results"][0]["faces"] == rep["results"][0]["chambers"]
    assert out.read_text().startswith("<?xml")


def test_reports_are_reproducible(capsys):
    def once():
        cli.main(
            ["genpoly", "chain", "--kind", "quadrangle", "--params", "2",
             "--seed", "7"]
        )
        return capsys.readouterr().out

    assert once() == once()


def test_timings_flag_fills_field(capsys):
    code, rep = run(
        capsys, "--timings", "chamber", "area", "--chamber", "3;2,4,8"
    )
    assert code == 0
    assert rep["timings"] is not None and "elapsed_s" in rep["timings"]


def test_claims_report_independent_of_hash_seed():
    src = str(Path(cli.__file__).resolve().parents[1])

    def once(seed):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
        proc = subprocess.run(
            [sys.executable, "-m", "hypbuild.cli", "catalog", "claims",
             "--chamber", "3;2,4,6"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    assert once(1) == once(2)
