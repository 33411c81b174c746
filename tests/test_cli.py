import subprocess
import sys
import time

import pytest

from tokensched import cli, files
from tokensched.cli import cli_dispatch
from tokensched.core import NetworkParams, lower_bounds, validate_schedule
from tokensched.complete import r_star
from tokensched.files import parse_graph, parse_schedule, read_schedule
from tokensched.generators import complete_graph


def run_cli(*argv):
    return cli_dispatch(list(argv))


def test_complete_roundtrips_and_validates(tmp_path):
    out = tmp_path / "k9.sched"
    graph = tmp_path / "k9.txt"
    assert run_cli("gen", "--kind", "complete", "--n", "9", "--out", str(graph)) == 0
    assert run_cli("complete", "--n", "9", "--tc", "1", "--tm", "1",
                   "--out", str(out), "--quiet") == 0
    sched = read_schedule(out)
    assert sched.length == r_star(9, NetworkParams(1, 1))
    assert run_cli("validate", "--graph", str(graph), "--schedule", str(out),
                   "--tc", "1", "--tm", "1", "--quiet") == 0
    # Round-trip: the written file parses back to the same schedule.
    assert parse_schedule(out.read_text()) == sched


def report_fields(err: str) -> dict:
    """key=value fields of the last run line on stderr, without wall=."""
    line = [x for x in err.splitlines() if x.startswith("# cmd=")][-1]
    fields = dict(f.split("=", 1) for f in line[2:].split())
    assert fields.pop("wall").endswith("s")
    return fields


def test_complete_report_does_not_build_the_graph(tmp_path, monkeypatch, capsys):
    built = []

    def recording_complete_graph(n):
        built.append(complete_graph(n))
        return built[-1]

    monkeypatch.setattr(cli, "complete_graph", recording_complete_graph)
    assert run_cli("complete", "--n", "2000", "--tc", "2", "--tm", "1",
                   "--out", str(tmp_path / "k.sched")) == 0
    length = r_star(2000, NetworkParams(2, 1))
    assert report_fields(capsys.readouterr().err) == {
        "cmd": "complete", "n": "2000", "m": "1999000", "diameter": "1",
        "radius": "1", "t_c": "2", "t_m": "1", "length": str(length),
        "compute_lb": "22", "radius_lb": "1", "combined_lb": "22",
        "ratio": f"{length / 22:.3f}", "seed": "-",
    }
    # The report reads K_2000's facts from its counts, never its neighbour sets.
    assert [g.n for g in built] == [2000]
    assert "adj" not in vars(built[0])


def test_complete_report_matches_the_graph(capsys):
    for tc, tm in [(1, 1), (2, 1), (1, 2), (2, 3)]:
        p = NetworkParams(tc, tm)
        for n in range(1, 31):
            assert run_cli("complete", "--n", str(n), "--tc", str(tc), "--tm", str(tm)) == 0
            fields = report_fields(capsys.readouterr().err)
            g = complete_graph(n)
            lbs = lower_bounds(g, p)
            length = r_star(n, p)
            assert fields == {
                "cmd": "complete", "n": str(n), "m": str(g.m),
                "diameter": str(g.diameter()), "radius": str(g.radius()),
                "t_c": str(tc), "t_m": str(tm), "length": str(length),
                "compute_lb": str(lbs[0]), "radius_lb": str(lbs[1]),
                "combined_lb": str(lbs[2]),
                "ratio": f"{length / lbs[2]:.3f}" if lbs[2] else "nan", "seed": "-",
            }


def test_validate_exit_codes(tmp_path):
    graph = tmp_path / "p3.txt"
    assert run_cli("gen", "--kind", "path", "--n", "3", "--out", str(graph)) == 0
    bad = tmp_path / "bad.sched"
    bad.write_text("TCSCHED 1\nlength 2\n1 0 COMPUTE\n")
    assert run_cli("validate", "--graph", str(graph), "--schedule", str(bad),
                   "--tc", "1", "--tm", "1", "--quiet") == 1
    out_of_window = tmp_path / "oow.sched"
    out_of_window.write_text("TCSCHED 1\nlength 2\n9 0 SEND 1\n")
    assert run_cli("validate", "--graph", str(graph), "--schedule", str(out_of_window),
                   "--tc", "1", "--tm", "1", "--quiet") == 1
    malformed = tmp_path / "mal.sched"
    malformed.write_text("TCSCHED 1\nlength 2\n1 0 SEND 2\n")  # non-neighbor
    assert run_cli("validate", "--graph", str(graph), "--schedule", str(malformed),
                   "--tc", "1", "--tm", "1", "--quiet") == 2
    assert run_cli("validate", "--graph", str(graph), "--schedule", "missing.sched",
                   "--tc", "1", "--tm", "1", "--quiet") == 2
    huge = tmp_path / "huge.txt"
    huge.write_text("1000000000 0\n")  # rejected before any adjacency is built
    assert run_cli("validate", "--graph", str(huge), "--schedule", str(bad),
                   "--tc", "1", "--tm", "1", "--quiet") == 2


def test_unopenable_paths_exit_2(tmp_path, capsys):
    # A directory cannot be read as a graph or written as an output file; an
    # exit code of 1 would read as "invalid schedule".
    sched = tmp_path / "k2.sched"
    assert run_cli("complete", "--n", "2", "--tc", "1", "--tm", "1",
                   "--out", str(sched), "--quiet") == 0
    for argv in (("validate", "--graph", str(tmp_path), "--schedule", str(sched),
                  "--tc", "1", "--tm", "1", "--quiet"),
                 ("gen", "--kind", "path", "--n", "3", "--out", str(tmp_path))):
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.startswith("error:")


def test_complete_refuses_n_over_the_graph_file_limit(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(files, "MAX_NODES", 50)
    out = tmp_path / "k.sched"
    costs = ("--tc", "1", "--tm", "1", "--quiet")
    assert run_cli("complete", "--n", "51", *costs, "--out", str(out)) == 2
    assert "exceeds the limit of 50" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli("complete", "--n", "50", *costs, "--out", str(out)) == 0
    assert read_schedule(out).length == r_star(50, NetworkParams(1, 1))


def test_stats_refuses_nmax_over_the_graph_file_limit(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(files, "MAX_NODES", 50)
    out = tmp_path / "stats.csv"
    costs = ("--tc", "1", "--tm", "1")
    assert run_cli("stats", "--nmax", "51", *costs, "--out", str(out)) == 2
    assert "exceeds the limit of 50" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli("stats", "--nmax", "50", *costs, "--out", str(out)) == 0
    assert len(out.read_text().splitlines()) == 51  # the header and one line per n


def test_validate_writes_its_verdict_to_out(tmp_path, capsys):
    graph = tmp_path / "p3.txt"
    assert run_cli("gen", "--kind", "path", "--n", "3", "--out", str(graph)) == 0
    good = tmp_path / "good.sched"
    good.write_text("TCSCHED 1\nlength 3\n1 0 SEND 1\n1 2 SEND 1\n2 1 COMPUTE\n3 1 COMPUTE\n")
    bad = tmp_path / "bad.sched"
    bad.write_text("TCSCHED 1\nlength 2\n1 0 COMPUTE\n")
    verdict = tmp_path / "verdict.txt"
    capsys.readouterr()
    assert run_cli("validate", "--graph", str(graph), "--schedule", str(good),
                   "--tc", "1", "--tm", "1", "--out", str(verdict)) == 0
    assert verdict.read_text() == "valid length=3\n"
    assert run_cli("validate", "--graph", str(graph), "--schedule", str(bad),
                   "--tc", "1", "--tm", "1", "--out", str(verdict)) == 1
    assert verdict.read_text().startswith("invalid rule=")
    assert capsys.readouterr().out == ""


def test_unknown_flags_exit_2(capsys):
    assert run_cli("complete", "--n", "4", "--tc", "1", "--tm", "1",
                   "--frobnicate") == 2


def test_stats_csv(tmp_path, capsys):
    assert run_cli("stats", "--nmax", "64", "--tc", "2", "--tm", "1", "--quiet") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,naive_binary,pipelined_binary,optimal,compute_lb"
    assert len(lines) == 65
    row16 = lines[16].split(",")
    assert row16[0] == "16" and row16[3] == "11"


def test_tree_parent_array(capsys):
    assert run_cli("tree", "--R", "5", "--tc", "1", "--tm", "1", "--quiet") == 0
    parents = [int(x) for x in capsys.readouterr().out.split()]
    assert len(parents) == 8
    assert parents[0] == -1
    assert all(0 <= parents[i] < i for i in range(1, 8))


def test_tree_too_large_exits_2(capsys):
    # The size check runs before anything is built, at any budget.
    assert run_cli("tree", "--R", "5000", "--tc", "1", "--tm", "1") == 2
    err = capsys.readouterr().err
    assert "too large to emit" in err
    assert len(err.encode()) < 200


def test_brute_cli(tmp_path, capsys):
    graph = tmp_path / "p3.txt"
    run_cli("gen", "--kind", "path", "--n", "3", "--out", str(graph))
    out = tmp_path / "p3.sched"
    assert run_cli("brute", "--graph", str(graph), "--tc", "1", "--tm", "1",
                   "--out", str(out), "--quiet") == 0
    assert "opt_length 3" in capsys.readouterr().out
    sched = read_schedule(out)
    assert validate_schedule(parse_graph(graph.read_text()),
                             NetworkParams(1, 1), sched).valid


def test_brute_cli_refusal_names_its_flag(tmp_path, capsys):
    graph = tmp_path / "p6.txt"
    run_cli("gen", "--kind", "path", "--n", "6", "--out", str(graph))
    capsys.readouterr()
    assert run_cli("brute", "--graph", str(graph), "--tc", "1", "--tm", "1",
                   "--quiet") == 2
    err = capsys.readouterr().err
    assert "exceeds the default search envelope" in err
    assert "pass --force to override" in err and "force=True" not in err


def test_approx_cli_with_report(tmp_path):
    graph = tmp_path / "g.txt"
    run_cli("gen", "--kind", "gnp", "--n", "15", "--p", "0.3", "--seed", "3",
            "--out", str(graph))
    out = tmp_path / "g.sched"
    rep = tmp_path / "g.csv"
    assert run_cli("approx", "--graph", str(graph), "--tc", "1", "--tm", "2",
                   "--seed", "5", "--out", str(out), "--report", str(rep),
                   "--quiet") == 0
    g = parse_graph(graph.read_text())
    assert validate_schedule(g, NetworkParams(1, 2), read_schedule(out)).valid
    lines = rep.read_text().strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "iter,holders,L,z,con,dil,sources,fragment_rounds,router,flow"
    assert len(lines) >= 3
    flows = [line.rsplit(",", 1)[1] for line in lines[2:]]
    assert flows[0] == "certified" and set(flows) <= {"certified", "lp", "-"}
    # The comment line gives the rounds of the concatenated fragments and
    # the length after core._asap's timing: their difference is what it saved.
    fields = dict(f.split("=", 1) for f in lines[0][2:].split())
    assembled = sum(int(line.split(",")[7]) for line in lines[2:])
    assert int(fields["assembled"]) == assembled
    assert int(fields["length"]) == read_schedule(out).length <= assembled


def test_simulate_cli(tmp_path, capsys):
    graph = tmp_path / "p3.txt"
    run_cli("gen", "--kind", "path", "--n", "3", "--out", str(graph))
    sched = tmp_path / "s.sched"
    run_cli("brute", "--graph", str(graph), "--tc", "1", "--tm", "1",
            "--out", str(sched), "--quiet")
    capsys.readouterr()
    assert run_cli("simulate", "--graph", str(graph), "--schedule", str(sched),
                   "--tc", "1", "--tm", "1", "--quiet") == 0
    out = capsys.readouterr().out
    assert out.startswith("round 0:")
    assert "{0,1,2}" in out.splitlines()[-1]


def test_simulate_cli_costs_actions_not_declared_length(tmp_path, capsys):
    # Two actions in a million declared rounds: round 0, then one line per
    # round after which the holdings changed.
    graph = tmp_path / "k2.txt"
    run_cli("gen", "--kind", "complete", "--n", "2", "--out", str(graph))
    sched = tmp_path / "s.sched"
    sched.write_text("TCSCHED 1\nlength 1000000\n1 0 SEND 1\n2 1 COMPUTE\n")
    capsys.readouterr()
    started = time.perf_counter()
    assert run_cli("simulate", "--graph", str(graph), "--schedule", str(sched),
                   "--tc", "1", "--tm", "1") == 0
    assert time.perf_counter() - started < 0.5
    assert capsys.readouterr().out.splitlines() == [
        "round 0: 0:{0} 1:{1}",
        "round 1: 1:{1} 1:{0}",
        "round 2: 1:{0,1}",
    ]


def test_gadget_psi_cli(tmp_path):
    graph = tmp_path / "k3.txt"
    run_cli("gen", "--kind", "complete", "--n", "3", "--out", str(graph))
    out = tmp_path / "gadget.txt"
    assert run_cli("gadget", "psi", "--graph", str(graph), "--tm", "3",
                   "--out", str(out), "--quiet") == 0
    g = parse_graph(out.read_text())
    assert g.n == 10 and len(g.adj[3]) == 9


def test_mds_cli(tmp_path, capsys):
    graph = tmp_path / "p2.txt"
    run_cli("gen", "--kind", "path", "--n", "2", "--out", str(graph))
    capsys.readouterr()
    with pytest.warns(UserWarning):
        code = run_cli("mds", "--graph", str(graph), "--eps", "1",
                       "--scheduler", "approx", "--seed", "1", "--quiet")
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("size ")


def test_mds_cli_brute_refuses_gadgets_beyond_its_envelope(tmp_path, capsys):
    # The 8-node gadget of a 2-node path is past brute_opt's n <= 5 envelope;
    # the search used to run on regardless, for minutes.
    graph = tmp_path / "p2.txt"
    run_cli("gen", "--kind", "path", "--n", "2", "--out", str(graph))
    capsys.readouterr()
    start = time.perf_counter()
    code = run_cli("mds", "--graph", str(graph), "--eps", "1", "--scheduler", "brute",
                   "--seed", "1", "--quiet")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert "exceeds the default search envelope" in err
    # mds has no option that lifts the envelope, so the refusal names none.
    assert "force=True" not in err and "--force" not in err


def test_mds_cli_writes_to_out(tmp_path, capsys):
    graph = tmp_path / "p2.txt"
    run_cli("gen", "--kind", "path", "--n", "2", "--out", str(graph))
    out = tmp_path / "mds.txt"
    capsys.readouterr()
    with pytest.warns(UserWarning):
        assert run_cli("mds", "--graph", str(graph), "--eps", "1", "--scheduler", "approx",
                       "--seed", "1", "--out", str(out), "--quiet") == 0
    assert out.read_text() == "size 2\n0 1\n"
    assert capsys.readouterr().out == ""


def test_gen_seed_reproducible(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run_cli("gen", "--kind", "gnp", "--n", "12", "--p", "0.4", "--seed", "9",
            "--out", str(a))
    run_cli("gen", "--kind", "gnp", "--n", "12", "--p", "0.4", "--seed", "9",
            "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_env_seed_fallback(tmp_path, monkeypatch):
    graph = tmp_path / "g.txt"
    run_cli("gen", "--kind", "cycle", "--n", "8", "--out", str(graph))
    monkeypatch.setenv("TOKENSCHED_SEED", "77")
    a, b = tmp_path / "a.sched", tmp_path / "b.sched"
    assert run_cli("approx", "--graph", str(graph), "--tc", "2", "--tm", "1",
                   "--out", str(a), "--quiet") == 0
    assert run_cli("approx", "--graph", str(graph), "--tc", "2", "--tm", "1",
                   "--seed", "77", "--out", str(b), "--quiet") == 0
    assert a.read_bytes() == b.read_bytes()


def test_divisibility_warning(tmp_path, capsys):
    run_cli("stats", "--nmax", "2", "--tc", "2", "--tm", "3", "--quiet")
    assert "warning" in capsys.readouterr().err


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "tokensched.cli"],
        capture_output=True,
        text=True,
    )
    # Module execution without a subcommand prints usage and exits 2.
    assert proc.returncode in (1, 2)
