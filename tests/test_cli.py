import argparse
import json
import time

import numpy as np
import pytest

from simplex_spectra import (SymmetricTensor, cli, densify,
                             regular_simplex_frame, save_tensor,
                             simplex_tensor, tensors)
from simplex_spectra.cli import main, parse_int_set


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------- helpers


def test_parse_int_set_single():
    assert parse_int_set("4") == [4]


def test_parse_int_set_range():
    assert parse_int_set("2..6") == [2, 3, 4, 5, 6]


def test_parse_int_set_list_with_duplicates():
    assert parse_int_set("5,2,3,3") == [2, 3, 5]


def test_parse_int_set_rejects_garbage():
    with pytest.raises(ValueError):
        parse_int_set("abc")
    with pytest.raises(ValueError):
        parse_int_set("6..2")
    with pytest.raises(ValueError):
        parse_int_set("")


# ---------------------------------------------------------------- frames


def test_frame_build_and_certify_round_trip(tmp_path, capsys):
    frame_path = tmp_path / "frame.json"
    assert run_cli("frame", "build", "--n", "3", "--out", str(frame_path)) == 0
    assert run_cli("frame", "certify", "--in", str(frame_path)) == 0
    report = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    assert report["unit_norms"] and report["equiangular"] and report["tight"]
    assert abs(report["alpha"] - 1.0 / 3.0) < 1e-10
    assert report["max_violation"] < 1e-12


def test_certify_flags_broken_frame_with_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    v = np.eye(3)
    v[0, 0] = 1.01
    bad.write_text(json.dumps(
        {"dim": 3, "count": 3, "vectors": [list(col) for col in v.T]}
    ))
    assert run_cli("frame", "certify", "--in", str(bad)) == 2
    report = json.loads(capsys.readouterr().out)
    assert not report["unit_norms"]


# ---------------------------------------------------------------- tensors


def test_tensor_build_writes_factored_payload(tmp_path):
    out = tmp_path / "tensor.json"
    assert run_cli("tensor", "build", "--kind", "simplex",
                   "--n", "2", "--m", "3", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["order"] == 3 and payload["dim"] == 2
    assert payload["repr"] == "factored"
    assert len(payload["terms"]) == 3


def test_tensor_build_odeco(tmp_path):
    out = tmp_path / "odeco.json"
    assert run_cli("tensor", "build", "--kind", "odeco",
                   "--n", "4", "--m", "3", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert len(payload["terms"]) == 4


@pytest.mark.parametrize("kind", ["simplex", "odeco"])
def test_tensor_build_refuses_an_order_below_three(tmp_path, capsys, kind):
    # an odeco order-2 "tensor" is the identity matrix, every unit vector of
    # which is an eigenvector with lambda = 1
    out = tmp_path / "t.json"
    assert run_cli("tensor", "build", "--kind", kind, "--n", "3", "--m", "2",
                   "--out", str(out)) == 1
    assert "m >= 3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("m", [3, 5])
def test_tensor_build_refuses_the_zero_simplex_tensor(tmp_path, capsys, m):
    # n = 1 with odd m: the frame w, -w cancels, and every unit vector would
    # be an eigenvector with lambda = 0
    out = tmp_path / "t.json"
    assert run_cli("tensor", "build", "--kind", "simplex", "--n", "1",
                   "--m", str(m), "--out", str(out)) == 1
    assert "zero" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli("tensor", "build", "--kind", "simplex", "--n", "1",
                   "--m", str(m + 1), "--out", str(out)) == 0


# ---------------------------------------------------------------- eig


def test_eig_solve_pipeline(tmp_path):
    tensor_path = tmp_path / "t.json"
    pairs_path = tmp_path / "p.json"
    reports_path = tmp_path / "r.json"
    run_cli("tensor", "build", "--n", "3", "--m", "4", "--out", str(tensor_path))
    assert run_cli("eig", "solve", "--tensor", str(tensor_path),
                   "--starts", "60", "--seed", "1",
                   "--out", str(pairs_path)) == 0
    payload = json.loads(pairs_path.read_text())
    assert payload["seed"] == 1 and payload["starts"] == 60
    assert payload["failures"] == 0
    # (3^3 - 1)/2 = 13 pairs; every start converges to a frame vector
    assert len(payload["pairs"]) == 13
    counts = payload["basin_counts"]
    assert sum(counts) == 60
    assert sorted(c > 0 for c in counts) == [False] * 9 + [True] * 4

    assert run_cli("eig", "classify", "--tensor", str(tensor_path),
                   "--pairs", str(pairs_path), "--out", str(reports_path)) == 0
    reports = json.loads(reports_path.read_text())["reports"]
    frame = regular_simplex_frame(3).vectors
    for count, r in zip(counts, reports):
        at_frame = np.abs(frame.T @ np.array(r["pair"]["v"])).max() > 1 - 1e-12
        robust = r["robust"] == "robust"
        assert at_frame == robust == (count > 0)
        if robust:
            assert r["stationarity"] == "local_max"


def test_eig_classify_rejects_pairs_solved_on_another_tensor(tmp_path, capsys):
    t4, t5 = tmp_path / "t4.json", tmp_path / "t5.json"
    pairs_path = tmp_path / "p.json"
    reports_path = tmp_path / "r.json"
    run_cli("tensor", "build", "--n", "3", "--m", "4", "--out", str(t4))
    run_cli("tensor", "build", "--n", "3", "--m", "5", "--out", str(t5))
    run_cli("eig", "solve", "--tensor", str(t4), "--starts", "20",
            "--out", str(pairs_path))
    capsys.readouterr()
    assert run_cli("eig", "classify", "--tensor", str(t5),
                   "--pairs", str(pairs_path), "--out", str(reports_path)) == 1
    assert "different tensor" in capsys.readouterr().err
    assert not reports_path.exists()


def test_eig_solve_reads_a_saved_dense_tensor(tmp_path):
    # densify leaves roundoff asymmetry at (3,4); the file must still load
    tensor_path = tmp_path / "dense.json"
    save_tensor(densify(simplex_tensor(3, 4)), tensor_path)
    assert run_cli("eig", "solve", "--tensor", str(tensor_path),
                   "--starts", "20", "--out", str(tmp_path / "p.json")) == 0


@pytest.mark.parametrize("n, m", [(n, m) for n in (3, 4) for m in (3, 4, 5, 6)]
                         + [(5, 3), (5, 5)])
def test_eig_solve_finds_every_odeco_class(tmp_path, n, m):
    # an odeco tensor has one class per nonempty support B of its
    # components: v = sum over B of +-e_i / sqrt(|B|), signs up to the class
    # sign at even m, all positive at odd m; only the n components are robust
    tensor_path = tmp_path / "t.json"
    pairs_path = tmp_path / "p.json"
    reports_path = tmp_path / "r.json"
    run_cli("tensor", "build", "--kind", "odeco", "--n", str(n),
            "--m", str(m), "--out", str(tensor_path))
    assert run_cli("eig", "solve", "--tensor", str(tensor_path),
                   "--out", str(pairs_path)) == 0
    expected = 2 ** n - 1 if m % 2 else (3 ** n - 1) // 2
    assert len(json.loads(pairs_path.read_text())["pairs"]) == expected
    assert run_cli("eig", "classify", "--tensor", str(tensor_path),
                   "--pairs", str(pairs_path), "--out", str(reports_path)) == 0
    robust = [r["pair"]["v"] for r in
              json.loads(reports_path.read_text())["reports"]
              if r["robust"] == "robust"]
    assert sorted(np.abs(robust).round(12).tolist()) \
        == np.eye(n)[::-1].tolist()


def test_eig_solve_keeps_the_one_class_of_the_line(tmp_path):
    # n = 1 has no sphere grid; the power starts give its one class
    tensor_path = tmp_path / "t.json"
    pairs_path = tmp_path / "p.json"
    run_cli("tensor", "build", "--n", "1", "--m", "4",
            "--out", str(tensor_path))
    assert run_cli("eig", "solve", "--tensor", str(tensor_path),
                   "--out", str(pairs_path)) == 0
    payload = json.loads(pairs_path.read_text())
    assert [p["v"] for p in payload["pairs"]] == [[1.0]]
    assert payload["basin_counts"] == [200] and payload["failures"] == 0


@pytest.mark.parametrize("weight", ["NaN", "Infinity", "1e999"])
def test_eig_solve_rejects_a_non_finite_tensor_before_searching(
        tmp_path, capsys, monkeypatch, weight):
    tensor_path = tmp_path / "t.json"
    out = tmp_path / "p.json"
    run_cli("tensor", "build", "--n", "2", "--m", "3", "--out", str(tensor_path))
    payload = json.loads(tensor_path.read_text())
    payload["terms"][0]["weight"] = "WEIGHT"
    tensor_path.write_text(json.dumps(payload).replace('"WEIGHT"', weight))

    def search(*args, **kwargs):
        raise AssertionError("the search ran on a non-finite tensor")

    monkeypatch.setattr(cli, "_inventory", search)
    capsys.readouterr()
    assert run_cli("eig", "solve", "--tensor", str(tensor_path),
                   "--out", str(out)) == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dim, message", [
    (3, f"exceeds the cap of {tensors.DENSE_CAP}"),
    (-3, "needs dim >= 1, got -3")], ids=["dim-3", "dim-minus-3"])
def test_eig_solve_refuses_a_huge_dense_order_at_once(tmp_path, capsys, dim,
                                                      message):
    # the entry count dim^(10^7) was once computed, and printed, in full
    tensor_path = tmp_path / "t.json"
    tensor_path.write_text(f'{{"order": 10000000, "dim": {dim}, '
                           f'"repr": "dense", "entries": [0.0]}}')
    out = tmp_path / "p.json"
    start = time.perf_counter()
    assert run_cli("eig", "solve", "--tensor", str(tensor_path),
                   "--out", str(out)) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "integer string conversion" not in err
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("eig", "solve", "--tensor", "{tensor}", "--tol", "1e-9", "--out", "{out}"),
    ("frame", "certify", "--in", "{frame}", "--tol", "1e-6"),
    ("conjecture", "--n", "2", "--m", "3", "--grid", "720", "--out", "{out}"),
    ("eig", "enumerate2d", "--tensor", "{tensor}", "--grid", "720",
     "--out", "{out}"),
    ("conjecture", "--n", "3", "--m", "3", "--starts", "2000",
     "--out", "{out}"),
], ids=["eig-solve-tol", "frame-certify-tol", "conjecture-grid",
        "enumerate2d-grid", "conjecture-starts"])
def test_removed_settings_are_usage_errors(tmp_path, capsys, argv):
    # POWER_TOL and CERTIFY_TOL are fixed, n = 2 scans no grid, and the
    # conjecture report does not change with its number of power starts
    paths = {name: str(tmp_path / f"{name}.json")
             for name in ("frame", "tensor", "out")}
    run_cli("frame", "build", "--n", "3", "--out", paths["frame"])
    run_cli("tensor", "build", "--n", "3", "--m", "4", "--out", paths["tensor"])
    files = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert run_cli(*(arg.format(**paths) for arg in argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err
    assert sorted(tmp_path.iterdir()) == files


def test_eig_classify_rejects_a_non_finite_pair(tmp_path, capsys):
    tensor_path = tmp_path / "t.json"
    pairs_path = tmp_path / "p.json"
    reports_path = tmp_path / "r.json"
    run_cli("tensor", "build", "--n", "3", "--m", "4", "--out", str(tensor_path))
    run_cli("eig", "solve", "--tensor", str(tensor_path), "--starts", "20",
            "--out", str(pairs_path))
    payload = json.loads(pairs_path.read_text())
    payload["pairs"][0]["lambda"] = "LAMBDA"
    pairs_path.write_text(json.dumps(payload).replace('"LAMBDA"', "1e999"))
    capsys.readouterr()
    assert run_cli("eig", "classify", "--tensor", str(tensor_path),
                   "--pairs", str(pairs_path), "--out", str(reports_path)) == 1
    assert "finite" in capsys.readouterr().err
    assert not reports_path.exists()


@pytest.mark.parametrize("doctor", [
    lambda pair: pair.update({"lambda": 3.0 * pair["lambda"]}),
    lambda pair: pair.update({"v": list(np.array([1.0, 2.0, 3.0])
                                        / np.sqrt(14.0))}),
], ids=["lambda_times_3", "v_not_an_eigenvector"])
def test_eig_classify_rejects_a_pair_that_is_not_an_eigenpair(
        tmp_path, capsys, doctor):
    # Both files keep the stored residual of the solve; only recomputing
    # S v^{m-1} - lambda v shows that they no longer hold eigenpairs.
    tensor_path = tmp_path / "t.json"
    pairs_path = tmp_path / "p.json"
    reports_path = tmp_path / "r.json"
    run_cli("tensor", "build", "--n", "3", "--m", "4", "--out", str(tensor_path))
    run_cli("eig", "solve", "--tensor", str(tensor_path), "--starts", "20",
            "--out", str(pairs_path))
    payload = json.loads(pairs_path.read_text())
    doctor(payload["pairs"][0])
    pairs_path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_cli("eig", "classify", "--tensor", str(tensor_path),
                   "--pairs", str(pairs_path), "--out", str(reports_path)) == 1
    err = capsys.readouterr().err
    assert "pair 0 " in err and "residual" in err and "ACCEPT_TOL" in err
    assert not reports_path.exists()


@pytest.mark.parametrize("command", [
    ("conjecture", "--n", "2", "--m", "3"),
    ("conjecture", "--n", "3", "--m", "3"),
    ("eig", "solve", "--tensor", "t.json"),
], ids=["conjecture-n2", "conjecture-n3", "eig-solve"])
@pytest.mark.parametrize("seed", ["-1", "x"])
def test_a_bad_seed_is_refused_at_every_n(tmp_path, capsys, monkeypatch,
                                          command, seed):
    # n = 2 draws no start, but a report must not record a seed that no
    # search could use
    monkeypatch.chdir(tmp_path)
    save_tensor(simplex_tensor(3, 3), tmp_path / "t.json")
    out = tmp_path / "c.json"
    assert run_cli(*command, "--seed", seed, "--out", str(out)) == 1
    assert "argument --seed: must be a non-negative integer" \
        in capsys.readouterr().err
    assert not out.exists()


def test_eig_enumerate2d_pipeline(tmp_path):
    tensor_path = tmp_path / "t.json"
    pairs_path = tmp_path / "p.json"
    run_cli("tensor", "build", "--n", "2", "--m", "6", "--out", str(tensor_path))
    assert run_cli("eig", "enumerate2d", "--tensor", str(tensor_path),
                   "--out", str(pairs_path)) == 0
    payload = json.loads(pairs_path.read_text())
    assert payload["isotropic"] is False
    assert len(payload["pairs"]) == 6


def test_eig_enumerate2d_resolves_two_roots_inside_one_scan_cell(tmp_path):
    # the order-3 witness whose two close classes an angle scan missed
    tensor_path = tmp_path / "t.json"
    pairs_path = tmp_path / "p.json"
    angles = np.array([0.1, 0.9, 1.7, 2.5])
    save_tensor(SymmetricTensor(
        order=3, weights=np.array([-0.522112, -1.0, 0.613137, 0.974247]),
        vectors=np.array([np.cos(angles), np.sin(angles)])), tensor_path)
    assert run_cli("eig", "enumerate2d", "--tensor", str(tensor_path),
                   "--out", str(pairs_path)) == 0
    payload = json.loads(pairs_path.read_text())
    assert len(payload["pairs"]) == 3
    assert "grid" not in payload


def test_eig_enumerate2d_isotropic_flag(tmp_path):
    tensor_path = tmp_path / "t.json"
    pairs_path = tmp_path / "p.json"
    run_cli("tensor", "build", "--n", "2", "--m", "4", "--out", str(tensor_path))
    run_cli("eig", "enumerate2d", "--tensor", str(tensor_path),
            "--out", str(pairs_path))
    assert json.loads(pairs_path.read_text())["isotropic"] is True


# ---------------------------------------------------------------- sweep


def test_sweep_csv_output(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--n", "2..4", "--m", "3..5", "--strict",
                   "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ("n,m,lambda_closed,rho_closed,rho_numeric,"
                        "robust_closed,robust_numeric,n_plus_m,threshold_pass")
    assert len(lines) == 10


def test_sweep_on_the_line_has_rho_zero_and_no_violation(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert run_cli("sweep", "--n", "1", "--m", "4,6", "--format", "json",
                   "--strict", "--no-timestamp", "--out", str(out)) == 0
    assert "violation" not in capsys.readouterr().err
    rows = json.loads(out.read_text())["rows"]
    assert [(r["n"], r["m"]) for r in rows] == [(1, 4), (1, 6)]
    for r in rows:
        assert r["rho_closed"] == r["rho_numeric"] == 0
        assert r["robust_closed"] == r["robust_numeric"] == "robust"


def test_sweep_json_without_timestamp_is_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run_cli("sweep", "--n", "2,3", "--m", "3..6",
                       "--format", "json", "--no-timestamp",
                       "--out", str(path)) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------- conjecture


def test_conjecture_consistent_exit_zero(tmp_path):
    out = tmp_path / "conj.json"
    assert run_cli("conjecture", "--n", "2", "--m", "5", "--no-timestamp",
                   "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "consistent"
    assert len(payload["robust_pairs"]) == 3


def test_conjecture_runs_are_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run_cli("conjecture", "--n", "3", "--m", "4",
                       "--seed", "9", "--no-timestamp",
                       "--out", str(path)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_conjecture_output_does_not_depend_on_the_environment(tmp_path,
                                                              monkeypatch):
    # a cap of 40 entries once dropped the (4,6) pair-product table, and
    # apply_m2 then changed the last bits of the report
    plain, capped = tmp_path / "plain.json", tmp_path / "capped.json"
    argv = ("conjecture", "--n", "4", "--m", "6", "--no-timestamp", "--out")
    assert run_cli(*argv, str(plain)) == 0
    monkeypatch.setenv("SIMPLEX_SPECTRA_CAP", "40")
    assert run_cli(*argv, str(capped)) == 0
    assert capped.read_bytes() == plain.read_bytes()


# ---------------------------------------------------------------- exit codes


def test_unknown_command_exits_one(capsys):
    assert run_cli("bogus") == 1
    capsys.readouterr()


def test_missing_required_argument_exits_one(capsys):
    assert run_cli("frame", "build", "--n", "3") == 1
    capsys.readouterr()


def test_missing_input_file_exits_one(tmp_path, capsys):
    assert run_cli("eig", "solve", "--tensor", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "x.json")) == 1
    assert "error" in capsys.readouterr().err


def test_bad_integer_set_exits_one(tmp_path, capsys):
    assert run_cli("sweep", "--n", "abc", "--out", str(tmp_path / "x.csv")) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run_cli("--help") == 0
    assert "simplex-spectra" in capsys.readouterr().out


# ---------------------------------------------------------------- one parser


def test_main_builds_the_parser_once_per_process(tmp_path, monkeypatch,
                                                 capsys):
    built = []
    build = cli.build_parser

    def counting():
        built.append(1)
        return build()

    cli._shared_parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting)
    try:
        for m in ("3", "4", "5"):
            assert run_cli("sweep", "--n", "2", "--m", m,
                           "--out", str(tmp_path / "s.csv")) == 0
        assert run_cli("bogus") == 1
        assert run_cli("--help") == 0
    finally:
        cli._shared_parser.cache_clear()
    assert len(built) == 1
    capsys.readouterr()


def test_a_timestamp_flag_does_not_carry_over_to_the_next_call(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("sweep", "--n", "2", "--m", "3", "--format", "json",
                   "--no-timestamp", "--out", str(a)) == 0
    assert run_cli("sweep", "--n", "2", "--m", "3", "--format", "json",
                   "--out", str(b)) == 0
    assert "timestamp" not in json.loads(a.read_text())
    assert "timestamp" in json.loads(b.read_text())


def test_a_usage_error_does_not_spoil_the_next_call(tmp_path, capsys):
    assert run_cli("sweep", "--format", "xml", "--out", "x") == 1
    assert "invalid choice" in capsys.readouterr().err
    assert run_cli("sweep", "--n", "2", "--m", "3",
                   "--out", str(tmp_path / "s.csv")) == 0
    assert capsys.readouterr().err == ""


def test_help_twice_gives_the_same_text(capsys):
    outputs = []
    for _ in range(2):
        assert run_cli("conjecture", "--help") == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "--seed" in outputs[0]


def test_each_subcommand_reaches_its_own_handler(tmp_path, capsys):
    frame, tensor, plane = (tmp_path / name for name in
                            ("f.json", "t.json", "t2.json"))
    pairs, reports = tmp_path / "p.json", tmp_path / "r.json"
    calls = [
        (("frame", "build", "--n", "3", "--out", str(frame)),
         "wrote simplex frame"),
        (("frame", "certify", "--in", str(frame)), '{\n  "unit_norms"'),
        (("tensor", "build", "--n", "3", "--m", "4", "--out", str(tensor)),
         "wrote simplex tensor"),
        (("tensor", "build", "--n", "2", "--m", "5", "--out", str(plane)),
         "wrote simplex tensor"),
        (("eig", "solve", "--tensor", str(tensor), "--starts", "20",
          "--out", str(pairs)), "found 13 eigenpairs"),
        (("eig", "enumerate2d", "--tensor", str(plane),
          "--out", str(tmp_path / "e.json")), "plane enumeration found"),
        (("eig", "classify", "--tensor", str(tensor), "--pairs", str(pairs),
          "--out", str(reports)), "classified 13 eigenpairs"),
        (("sweep", "--n", "2", "--m", "3", "--out", str(tmp_path / "s.csv")),
         "wrote 1 sweep rows"),
        (("conjecture", "--n", "2", "--m", "5", "--out",
          str(tmp_path / "c.json")), "(n=2, m=5)"),
    ]
    for argv, first_line in calls + calls[::-1]:
        assert run_cli(*argv) == 0, argv
        assert capsys.readouterr().out.startswith(first_line), argv


# Every option of every command. A new flag widens what a run depends on
# beyond (n, m, seed), so it has to be added here on purpose.
PINNED_OPTIONS = {
    "": ["-h", "--help"],
    "frame": ["-h", "--help"],
    "frame build": ["-h", "--help", "--n", "--kind", "--out"],
    "frame certify": ["-h", "--help", "--in"],
    "tensor": ["-h", "--help"],
    "tensor build": ["-h", "--help", "--kind", "--n", "--m", "--out"],
    "eig": ["-h", "--help"],
    "eig solve": ["-h", "--help", "--tensor", "--starts", "--seed",
                  "--max-iter", "--out"],
    "eig enumerate2d": ["-h", "--help", "--tensor", "--out"],
    "eig classify": ["-h", "--help", "--tensor", "--pairs", "--out"],
    "sweep": ["-h", "--help", "--n", "--m", "--format", "--out", "--strict",
              "--no-timestamp"],
    "conjecture": ["-h", "--help", "--n", "--m", "--seed", "--out",
                   "--no-timestamp"],
}


def _options(parser, path=()):
    found = {" ".join(path): [option for action in parser._actions
                              for option in action.option_strings]}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found.update(_options(sub, path + (name,)))
    return found


def test_each_command_has_exactly_the_pinned_options():
    assert _options(cli.build_parser()) == PINNED_OPTIONS
