import json
import math
import shlex
from pathlib import Path

import pytest

from sphcav import spectrum
from sphcav.cli import main
from sphcav.spectrum import validate


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_modes_table(capsys):
    code, out, _ = run(
        capsys, "modes", "--radius-mm", "15", "--wedge-deg", "270", "--fmax-ghz", "13.7"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 7  # header + six modes
    assert "7.51" in out and "13.49" in out


def test_modes_csv_and_json_agree(capsys):
    code, csv_out, _ = run(
        capsys, "modes", "--wedge-deg", "270", "--fmax-ghz", "13.7", "--format", "csv"
    )
    assert code == 0
    assert csv_out.splitlines()[0] == "pol,nu,m,k,n,x,f_GHz,family"
    code, json_out, _ = run(
        capsys, "modes", "--wedge-deg", "270", "--fmax-ghz", "13.7", "--format", "json"
    )
    objs = json.loads(json_out)
    assert len(objs) == len(csv_out.strip().splitlines()) - 1
    assert objs[0]["pol"] == "TM"


def test_modes_deterministic_output(capsys):
    _, first, _ = run(capsys, "modes", "--wedge-deg", "270", "--fmax-ghz", "13.0", "--format", "csv")
    _, second, _ = run(capsys, "modes", "--wedge-deg", "270", "--fmax-ghz", "13.0", "--format", "csv")
    assert first == second


def test_modes_count(capsys):
    code, out, _ = run(capsys, "modes", "--count", "3", "--format", "csv")
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_dispersion(capsys):
    code, out, _ = run(capsys, "dispersion", "--nu-list", "0,1.5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("nu,")
    assert len(lines) == 3


def test_cone_sweep(capsys):
    code, out, _ = run(capsys, "cone-sweep", "--thetas", "7.59,33.69", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["nu"] == pytest.approx(0.18162, abs=1e-4)
    assert rows[1]["nu"] == pytest.approx(0.37355, abs=1e-4)


def test_cone_sweep_of_no_angles(capsys):
    code, out, _ = run(capsys, "cone-sweep", "--thetas", "", "--format", "json")
    assert code == 0
    assert json.loads(out) == []


def test_wedge_sweep(capsys):
    code, out, _ = run(capsys, "wedge-sweep", "--openings", "180,270", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["f_ghz"] > rows[1]["f_ghz"]


def test_field_output(capsys):
    code, out, _ = run(
        capsys, "field", "--mode", "TM,1,1,1", "--at", "0.008,1.1,0.3"
    )
    assert code == 0
    assert "E_r" in out and "H_phi" in out and "S = " in out


def test_energy_output(capsys):
    code, out, _ = run(capsys, "energy", "--mode", "TM,1,1,1")
    assert code == 0
    assert "radial_integrable = True" in out
    assert "I_theta" in out


def test_energy_accepts_a_cone_nu_copied_from_the_modes_table(capsys):
    """The table prints nu to four decimals; energy of that rounded nu stays
    within its first-order shift of the exact root's energy."""
    import math

    from sphcav.angular import AngularDomain, AngularEigenpair, Family, cone_nu
    from sphcav.energy import mode_energy
    from sphcav.fields import make_mode
    from sphcav.radial import RootKind

    code, out, _ = run(capsys, "modes", "--cone-deg", "20", "--fmax-ghz", "7")
    assert code == 0
    pol, nu, m, _, n = out.strip().splitlines()[1].split()[:5]
    code, out, _ = run(capsys, "energy", "--mode", f"{pol},{nu},{m},{n}", "--cone-deg", "20")
    assert code == 0
    printed = float(out.split("total_energy_J    = ")[1].split()[0])
    cone = AngularDomain(cone_half_angle_rad=math.radians(20.0))
    exact = AngularEigenpair(nu=cone_nu(0.0, cone.cone_half_angle_rad, "TM", 1), m=0.0, family=Family.ZONAL)
    want = mode_energy(make_mode(RootKind.TM_RICCATI_DERIV_ZERO, exact, 1, 0.015, domain=cone))
    assert (pol, float(m), int(n)) == ("TM", 0.0, 1)
    assert printed == pytest.approx(want.total_energy, rel=1e-4)


def test_validate_exit_codes(capsys):
    code, out, _ = run(capsys, "validate", "--fixture", "table1_dispersion")
    assert code == 0
    assert "PASS" in out
    code, out, _ = run(capsys, "validate", "--fixture", "table3_cone")
    assert code == 2
    assert "FAIL" in out


def test_computational_error_exit_code(capsys):
    # a point outside the cavity triggers the error path
    code, _, err = run(
        capsys, "field", "--mode", "TM,1,1,1", "--at", "0.05,1.1,0.3"
    )
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("count", ["-3", "0"])
def test_modes_rejects_a_count_below_one(capsys, count):
    code, out, err = run(capsys, "modes", "--count", count)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "max_count" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("dispersion", "--nu-list", "nan"),
        ("dispersion", "--nu-list", "inf"),
        ("modes", "--fmax-ghz", "nan"),
        ("modes", "--fmax-ghz", "inf"),
        ("modes", "--fmax-ghz", "-5"),
        ("modes", "--radius-mm", "nan", "--fmax-ghz", "10"),
        ("modes", "--radius-mm", "inf", "--fmax-ghz", "10"),
    ],
)
def test_non_finite_input_exits_with_a_typed_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("command", [("field", "--at", "0.008,1.1,0.3"), ("energy",)])
@pytest.mark.parametrize("wedge", [(), ("--wedge-deg", "270")])
@pytest.mark.parametrize("mode", ["TM,nan,1,1", "TM,1,nan,1", "TE,inf,1,1", "TE,1,inf,1"])
def test_non_finite_mode_index_exits_with_a_typed_error(capsys, command, wedge, mode):
    # nan used to end in a ValueError traceback from round(nan), inf in an OverflowError
    code, out, err = run(capsys, command[0], "--mode", mode, *wedge, *command[1:])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "outside the physical quadrant" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("dispersion", "--nu-list", "1e308"),
        ("wedge-sweep", "--openings", "1e-300"),
        ("wedge-sweep", "--openings", "1e-300", "--cone-deg", "20"),
    ],
)
def test_an_order_past_the_scan_lattice_exits_with_a_typed_error(capsys, argv):
    # nu = 1e308 ended in an OverflowError traceback, and m = pi/Phi = 1.8e302 never returned
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "<=" in err


def test_main_repeats_in_one_process(capsys, monkeypatch):
    # one parser serves every call of a process: a success, an argument error, a typed error
    # and the success again print and exit alike each round, and a wrapper put on
    # spectrum.validate after the first call is what the next validate call runs
    def outcome(*argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    ok = ("dispersion", "--nu-list", "0,1.5", "--format", "csv")
    calls = [ok, ("dispersion", "--nu-list", "x"), ("modes", "--count", "0"), ok]
    first = [outcome(*argv) for argv in calls]
    assert [code for code, *_ in first] == [0, 2, 1, 0] and first[0] == first[3]
    assert "invalid" in first[1][2] and first[2][2].startswith("error:")
    seen = []
    real = spectrum.validate
    monkeypatch.setattr(spectrum, "validate", lambda name: seen.append(name) or real(name))
    code, out, _ = outcome("validate", "--fixture", "table1_dispersion")
    assert seen == ["table1_dispersion"] and code == 0 and "PASS" in out
    assert [outcome(*argv) for argv in calls] == first


@pytest.mark.parametrize("wedge", [(), ("--wedge-deg", "270")])
@pytest.mark.parametrize("at", ["0.008,1.1,nan", "0.008,1.1,inf", "0.008,nan,0.3", "inf,1.1,0.3"])
def test_non_finite_field_point_exits_with_a_typed_error(capsys, wedge, at):
    # on the full azimuth a nan or infinite phi used to print six nan components and exit 0
    mode = "TM,0.6666666666666666,0.6666666666666666,1" if wedge else "TM,1,1,1"
    code, out, err = run(capsys, "field", "--mode", mode, *wedge, "--at", at)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_field_mode_must_be_reachable(capsys):
    code, out, err = run(capsys, "field", "--mode", "TM,1.5,1,1", "--at", "0.008,1.1,0.3")
    assert code == 1
    assert out == ""
    assert "unreachable without a cone" in err


def test_field_mode_just_off_the_integer_is_unreachable(capsys):
    # nu - m = 2 + 5e-12 lies outside the absolute 1e-12 of nu - m in N; its field blows up
    # at the far pole (|E| ~ 1e8 V/m at theta = pi - 1e-4) instead of being the nu = 5 field
    code, out, err = run(capsys, "field", "--mode", "TE,5.000000000005,3,1", "--at", "0.008,3.1415,0.3")
    assert code == 1
    assert out == ""
    assert "unreachable without a cone" in err


def test_field_of_a_high_order_mode_near_the_origin(capsys):
    # k r = 2.1e-4 at nu = 200: the small-x series of j_nu used to overflow in its double
    # factorial (nu >= 149.68) and end in an OverflowError traceback
    code, out, err = run(capsys, "field", "--mode", "TM,200,200,1", "--at", "0.000001,1.5,0.3")
    assert code == 0 and err == ""
    rows = dict(line.split(" = ") for line in out.splitlines())
    parts = [complex(rows[name].replace(" ", "")) for name in ("E_r", "E_theta", "E_phi", "H_r", "H_theta", "H_phi")]
    assert all(math.isfinite(abs(z)) for z in parts)


def test_a_cone_root_the_scan_and_brent_disagree_on_is_a_typed_error(capsys):
    # near nu = 40 at 45 deg the scan and Brent's method disagree in sign (large-nu
    # cancellation of the polar series); this used to end in scipy's ValueError traceback
    code, out, err = run(capsys, "modes", "--cone-deg", "45", "--fmax-ghz", "130")
    assert code in (0, 1)
    if code == 1:
        assert out == ""
        assert err.startswith("error:") and "could not be refined" in err


@pytest.mark.parametrize("at", ["0.01,1", "0.01,1,0.3,2", "0.01,x,0.3", ""])
def test_field_point_must_be_three_floats(capsys, at):
    with pytest.raises(SystemExit) as exc:
        main(["field", "--mode", "TM,1,1,1", "--at", at])
    assert exc.value.code == 2
    assert "point must be r,theta,phi" in capsys.readouterr().err


def test_bad_mode_argument(capsys):
    with pytest.raises(SystemExit):
        main(["field", "--mode", "XX,1,1,1", "--at", "0.008,1.1,0.3"])
    with pytest.raises(SystemExit):
        main(["field", "--mode", "TEM,1,1,1", "--at", "0.008,1.1,0.3"])
    assert "mode must be pol,nu,m,n" in capsys.readouterr().err
    # the polarization is read case-blind
    code, out, _ = run(capsys, "field", "--mode", "tm,1,1,1", "--at", "0.008,1.1,0.3")
    assert code == 0 and out == run(capsys, "field", "--mode", "TM,1,1,1", "--at", "0.008,1.1,0.3")[1]


def test_energy_rejects_an_m_the_wedge_does_not_admit(capsys):
    # sin(phi/2) does not vanish on the face of a 90 deg wedge, which admits m = 2, 4, ...
    code, out, err = run(capsys, "energy", "--mode", "TM,2.5,0.5,1", "--wedge-deg", "90")
    assert code == 1
    assert out == "" and "not a TM index" in err
    code, _, err = run(capsys, "energy", "--mode", "TM,1,0,1", "--wedge-deg", "270")
    assert code == 1 and "not a TM index" in err


def test_rejected_wedge_index_names_the_nearest_in_full(capsys):
    # the table format prints m to 4 decimals; the error gives the admissible m to copy back
    code, out, err = run(capsys, "energy", "--mode", "TM,0.6667,0.6667,1", "--wedge-deg", "270")
    assert code == 1 and out == ""
    assert "not a TM index" in err and "0.6666666666666666" in err


# stdout of the README's `sphcav modes` examples, as the scalar root scan printed it
README_TABLE = """\
pol         nu         m   k  n          x  f [GHz] family
TM      0.6667    0.6667   0  1     2.3600     7.51 sectoral
TM      1.3333    1.3333   0  1     3.1227     9.93 sectoral
TM      1.6667    0.6667   1  1     3.4980    11.13 tesseral
TM      2.0000    2.0000   0  1     3.8702    12.31 sectoral
TE      0.6667    0.6667   0  1     4.0549    12.90 sectoral
TM      2.3333    1.3333   1  1     4.2400    13.49 tesseral
"""
README_CSV = """\
pol,nu,m,k,n,x,f_GHz,family
TM,0.6666666666666666,0.6666666666666666,0,1,2.359976076883298,7.506840286901409,sectoral
TM,1.3333333333333333,1.3333333333333333,0,1,3.122700633385499,9.932988367233357,sectoral
TM,1.6666666666666665,0.6666666666666666,1,1,3.497976955027039,11.12670360766043,tesseral
TM,2.0,2.0,0,1,3.870238580221931,12.310829409889314,sectoral
TE,0.6666666666666666,0.6666666666666666,0,1,4.05487696250242,12.898145044224881,sectoral
TM,2.333333333333333,1.3333333333333333,1,1,4.239993301117747,13.486981008323484,tesseral
"""


def test_readme_modes_examples_print_what_they_printed(capsys):
    argv = ["modes", "--radius-mm", "15", "--wedge-deg", "270", "--fmax-ghz", "13.7", "--format", "table"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == README_TABLE
    code, out, _ = run(capsys, "modes", "--wedge-deg", "270", "--fmax-ghz", "13.7", "--format", "csv")
    assert code == 0
    got, want = out.splitlines(), README_CSV.splitlines()
    assert got[0] == want[0] and len(got) == len(want)
    for got_row, want_row in zip(got[1:], want[1:]):
        for g, w in zip(got_row.split(","), want_row.split(","), strict=True):
            try:
                assert abs(float(g) - float(w)) <= 1e-13 * abs(float(w)), (g, w)
            except ValueError:
                assert g == w


PMC_FIELD = ["field", "--wedge-deg", "270", "--mode", "TM,0.3333333333333333,0.3333333333333333,1",
             "--at", "0.008,1.1,4.71238898038469"]


def test_field_and_energy_take_the_wedge_faces(capsys):
    # m = 1/3 is a quarter-wave index of a 270 deg wedge: PEC/PMC faces admit it, PEC/PEC do not
    code, out, _ = run(capsys, *PMC_FIELD, "--wedge-faces", "PEC_PMC")
    assert code == 0
    # on the PMC face the tangential H_theta vanishes next to H_phi
    lines = dict(line.split(" = ") for line in out.splitlines())
    h_theta, h_phi = (abs(complex(lines[c].replace(" ", ""))) for c in ("H_theta", "H_phi"))
    assert h_theta <= 1e-12 * h_phi
    code, out, err = run(capsys, *PMC_FIELD)
    assert code == 1 and out == ""
    assert "not a TM index" in err and "PEC_PEC" in err and "m=0.6666666666666666" in err
    energy = ["energy", "--wedge-deg", "270", "--wedge-faces", "PEC_PMC", "--mode"]
    assert run(capsys, *energy, "TM,0.3333333333333333,0.3333333333333333,1")[0] == 0
    code, _, err = run(capsys, *energy, "TM,0.6666666666666666,0.6666666666666666,1")
    assert code == 1 and "PEC_PMC" in err


@pytest.mark.parametrize("radius", ["nan", "inf"])
def test_radius_that_is_not_finite_exits_1(capsys, radius):
    # dispersion used to print 0 GHz for an infinite radius
    for argv in (["dispersion", "--nu-list", "1"], ["energy", "--mode", "TM,1,1,1"], ["cone-sweep", "--thetas", "20"]):
        code, out, err = run(capsys, *argv, "--radius-mm", radius)
        assert code == 1 and out == "" and "finite" in err, argv


def _readme_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("sphcav ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: " ".join(argv[:3]))
def test_readme_command_line_examples_run(capsys, argv):
    code, out, err = run(capsys, *argv)
    if argv[0] == "validate":
        assert code == (0 if validate(argv[argv.index("--fixture") + 1]).passed else 2)
    else:
        assert code == 0, err
    assert out
