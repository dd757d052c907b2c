import os

import pytest

import tmat
from tmat.cli import main

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "hilbert2_array.mtx")
AUDIT_GOLDEN = os.path.join(os.path.dirname(__file__), "fixtures", "audit_builtin.txt")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_default_is_19_lines(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert out.splitlines() == list(tmat.list_families())
    assert len(out.splitlines()) == 19


def test_list_with_property_filters(capsys):
    code, out, _ = run(capsys, "list", "--prop", "symmetric", "--prop", "posdef", "--prop", "eigen")
    assert code == 0
    assert out.splitlines() == ["minij", "pascal", "poisson"]


def test_list_group_and_prop(capsys):
    code, out, _ = run(
        capsys, "list", "--group", "builtin", "--prop", "inverse", "--prop", "illcond", "--prop", "eigen"
    )
    assert code == 0
    assert set(out.splitlines()) == {"lotkin", "forsythe", "pascal"}


def test_list_unknown_property_is_domain_error(capsys):
    code, out, err = run(capsys, "list", "--prop", "nosuch")
    assert code == 1
    assert "valid properties" in err
    assert "symmetric" in err


def test_show_hilbert_rational_grid(capsys):
    code, out, _ = run(capsys, "show", "hilbert", "3", "--type", "rat")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert rows[0] == ["1", "1/2", "1/3"]
    assert rows[2] == ["1/3", "1/4", "1/5"]


def test_show_pei_with_param(capsys):
    code, out, _ = run(capsys, "show", "pei", "3", "--param", "alpha=2")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert rows[0] == ["3", "1", "1"]
    assert rows[1][1] == "3"


def test_show_negative_size_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["show", "hilbert", "-1"])
    assert exc.value.code == 2


def test_show_unknown_family_is_domain_error(capsys):
    code, _, err = run(capsys, "show", "wathen", "3")
    assert code == 1
    assert "wathen" in err


def test_export_array_matches_fixture(tmp_path, capsys):
    target = tmp_path / "h.mtx"
    code, _, _ = run(capsys, "export", "hilbert", "2", "--format", "mm-array", "-o", str(target))
    assert code == 0
    with open(FIXTURE, "rb") as f:
        assert target.read_bytes() == f.read()


def test_export_coordinate_jordbloc(tmp_path, capsys):
    target = tmp_path / "j.mtx"
    code, _, _ = run(
        capsys,
        "export",
        "jordbloc",
        "3",
        "--param",
        "lambda=0",
        "--format",
        "mm-coordinate",
        "-o",
        str(target),
    )
    assert code == 0
    assert target.read_text().splitlines()[1] == "3 3 2"


def test_export_missing_output_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["export", "hilbert", "2", "--format", "mm-array"])
    assert exc.value.code == 2


def test_export_to_a_missing_directory_is_an_error_line(tmp_path, capsys):
    target = tmp_path / "nodir" / "h.mtx"
    code, _, err = run(capsys, "export", "hilbert", "2", "--format", "mm-array", "-o", str(target))
    assert code == 1
    assert err.startswith("error: ") and "No such file or directory" in err
    assert os.listdir(tmp_path) == []


def test_audit_builtin_exits_zero(capsys):
    code, out, _ = run(capsys, "audit", "--group", "builtin", "--size", "4", "--size", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines, "audit should print a table"
    assert not any("\tfail" in line for line in lines)
    fields = lines[0].split("\t")
    assert fields[0] == "hilbert" and fields[1] == "4"


def test_builtin_audit_output_matches_golden_file(capsys):
    # the cross-checks of registered routines add lines only on a disagreement
    sizes = [arg for n in range(1, 17) for arg in ("--size", str(n))]
    code, out, _ = run(capsys, "audit", "--group", "builtin", *sizes)
    assert code == 0
    with open(AUDIT_GOLDEN, encoding="utf-8", newline="") as golden:
        assert out == golden.read()


def test_audit_sumij_rankdef(capsys):
    code, out, _ = run(capsys, "audit", "--family", "sumij", "--size", "3")
    assert code == 0
    assert any(line.split("\t")[2:4] == ["rankdef", "pass"] for line in out.splitlines())


def test_audit_mis_tagged_family_exits_one(capsys):
    tmat.register_family(
        tmat.FamilyDescriptor(
            id="liar",
            params=(tmat.ParamSpec("n", "dim"),),
            default_scalar_kind=tmat.FLOAT64,
            tags=("tridiagonal",),
        ),
        lambda p, i, j, k: 1.0,
    )
    code, out, _ = run(capsys, "audit", "--family", "liar", "--size", "4")
    assert code == 1
    assert any("\tfail" in line for line in out.splitlines())


def test_bench_output_shape(capsys):
    code, out, _ = run(capsys, "bench", "minij", "40", "--op", "issymmetric")
    assert code == 0
    op, variant, median, value = out.strip().split("\t")
    assert (op, variant, value) == ("issymmetric", "lazy", "true")
    assert int(median) >= 0

    code, out, _ = run(capsys, "bench", "minij", "40", "--op", "issymmetric", "--dense")
    assert code == 0
    assert out.split("\t")[1] == "dense"


def test_bench_det_prints_value(capsys):
    code, out, _ = run(capsys, "bench", "hilbert", "3", "--op", "det")
    assert code == 0
    value = float(out.strip().split("\t")[3])
    assert value == pytest.approx(0.000462962962962963, abs=1e-15)


def test_bench_lazy_issymmetric_beats_dense_scan(capsys):
    code, out_lazy, _ = run(capsys, "bench", "minij", "200", "--op", "issymmetric")
    code2, out_dense, _ = run(capsys, "bench", "minij", "200", "--op", "issymmetric", "--dense")
    assert code == code2 == 0
    lazy_ns = int(out_lazy.split("\t")[2])
    dense_ns = int(out_dense.split("\t")[2])
    assert lazy_ns < dense_ns


def test_bench_dense_sum_beats_lazy_recomputation(capsys):
    code, out_lazy, _ = run(capsys, "bench", "cauchy", "200", "--op", "sum")
    code2, out_dense, _ = run(capsys, "bench", "cauchy", "200", "--op", "sum", "--dense")
    assert code == code2 == 0
    assert int(out_dense.split("\t")[2]) < int(out_lazy.split("\t")[2])


def test_run_minij_sums(capsys):
    code, out, _ = run(
        capsys,
        "run",
        "--fn",
        "sum",
        "--size",
        "1",
        "--size",
        "2",
        "--size",
        "3",
        "--size",
        "4",
        "--prop",
        "integer",
        "--prop",
        "posdef",
        "--prop",
        "eigen",
        "--exclude",
        "pascal",
        "--exclude",
        "poisson",
    )
    assert code == 0
    assert out.splitlines() == [
        "minij\t1\tok\t1",
        "minij\t2\tok\t5",
        "minij\t3\tok\t14",
        "minij\t4\tok\t30",
    ]


def test_run_with_ignore_errors(capsys):
    code, out, _ = run(
        capsys, "run", "--fn", "sum", "--size", "2", "--prop", "sparse", "--ignore-errors"
    )
    assert code == 0
    assert all(line.split("\t")[0] != "poisson" for line in out.splitlines())


def test_group_commands_with_dir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TM_GROUP_DIR", str(tmp_path))
    code, out, _ = run(capsys, "group", "list")
    assert code == 0
    assert out.splitlines() == ["user", "builtin"]

    tmat.add_to_groups("minij", "mygroup")
    code, _, _ = run(capsys, "group", "save", "mygroup", "mygroup.grp")
    assert code == 0
    assert (tmp_path / "mygroup.grp").exists()

    tmat.remove_from_group("minij", "mygroup")
    code, _, _ = run(capsys, "group", "load", "mynewgroup", "mygroup.grp")
    assert code == 0
    assert tmat.list_matrices(["mynewgroup"]) == ["minij"]

    code, out, _ = run(capsys, "group", "list")
    assert out.splitlines() == ["user", "builtin", "mynewgroup"]


def test_group_load_bad_id_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TM_GROUP_DIR", str(tmp_path))
    (tmp_path / "bad.grp").write_text("typedmatrices-group v1\nwathen\n")
    code, _, err = run(capsys, "group", "load", "g", "bad.grp")
    assert code == 1
    assert "wathen" in err


def test_show_sumij_autoinstalls(capsys):
    code, out, _ = run(capsys, "show", "sumij", "3")
    assert code == 0
    assert out.splitlines()[0].split("\t") == ["2", "3", "4"]
    # but plain list stays at the builtin 19 when sumij was never requested


def test_show_poisson_infeasible_size(capsys):
    code, _, err = run(capsys, "show", "poisson", "3")
    assert code == 1
    assert "infeasible" in err


def test_audit_sumij_rankdef_has_no_witness_below_size_3(capsys):
    # sumij(1) = [2] and sumij(2) have full rank; rankdef holds from n = 3 on
    sizes = ("--size", "1", "--size", "2", "--size", "3")
    code, out, _ = run(capsys, "audit", "--family", "sumij", *sizes)
    assert code == 0
    rankdef = [line.split("\t")[1:] for line in out.splitlines() if line.split("\t")[2] == "rankdef"]
    assert rankdef == [
        ["1", "rankdef", "not-checkable", "no witness at the audited parameters"],
        ["2", "rankdef", "not-checkable", "no witness at the audited parameters"],
        ["3", "rankdef", "pass"],
    ]
