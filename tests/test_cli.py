import json

import pytest

from sphcav.cli import main


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


def test_bad_mode_argument():
    with pytest.raises(SystemExit):
        main(["field", "--mode", "XX,1,1,1", "--at", "0.008,1.1,0.3"])
