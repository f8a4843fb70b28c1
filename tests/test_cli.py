import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpgbend import cli, lowerbound, representation
from vpgbend.cli import _decimal, main, render_svg
from vpgbend.constructors import construct_k2n_proper
from vpgbend.geometry import Point, Segment
from vpgbend.representation import VpgRepresentation, read_representation_text


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def _subprocess_env():
    """The environment with this checkout's `src` first on PYTHONPATH."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_construct_and_verify_k2n(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    rfile = tmp_path / "r.txt"
    assert main(["graph", "knk", "--n", "5", "--k", "2", "-o", str(gfile)]) == 0
    assert main(["construct", "k2n", "--n", "5", "-o", str(rfile)]) == 0
    rc, out, _ = run(capsys, "verify", str(gfile), str(rfile), "--proper")
    assert rc == 0
    assert "realizes: yes" in out
    assert "proper: yes" in out
    assert "max bends: 1" in out


def test_construct_and_verify_k3n(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    rfile = tmp_path / "r.txt"
    svg = tmp_path / "r.svg"
    assert main(["graph", "knk", "--n", "4", "--k", "3", "-o", str(gfile)]) == 0
    assert main(["construct", "k3n", "--n", "4", "-o", str(rfile), "--svg", str(svg)]) == 0
    assert svg.read_text().startswith("<?xml")
    rc, out, _ = run(capsys, "verify", str(gfile), str(rfile), "--proper")
    assert rc == 0
    assert "realizes: yes" in out and "proper: yes" in out


def test_construct_and_verify_k3n_ten(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    rfile = tmp_path / "r.txt"
    assert main(["graph", "knk", "--n", "10", "--k", "3", "-o", str(gfile)]) == 0
    assert main(["construct", "k3n", "--n", "10", "-o", str(rfile)]) == 0
    rc, out, _ = run(capsys, "verify", str(gfile), str(rfile))
    assert rc == 0
    assert "max bends: 24" in out


def test_graph_hnk_complete_emit(tmp_path):
    gfile = tmp_path / "g.txt"
    assert main(["graph", "hnk-complete", "--n", "4", "--k", "2", "-o", str(gfile)]) == 0
    from vpgbend.graphs import read_graph_text

    g = read_graph_text(gfile.read_text())
    assert len(g) == 10


@pytest.mark.parametrize("family", ["knk", "hnk-complete"])
def test_graph_with_one_subsets_is_usage_error(tmp_path, capsys, family):
    # the 1-subset label (i,) would be written `i`, the clique label i
    gfile = tmp_path / "g.txt"
    rc, out, err = run(capsys, "graph", family, "--n", "3", "--k", "1", "-o", str(gfile))
    assert (rc, out) == (2, "")
    assert err.startswith("error: k = 1 ") and err.count("\n") == 1
    assert not gfile.exists()


@pytest.mark.parametrize("n, k", [(2, -1), (-1, -3)])
def test_graph_hnk_complete_negative_k_is_usage_error(tmp_path, capsys, n, k):
    gfile = tmp_path / "g.txt"
    rc, out, err = run(capsys, "graph", "hnk-complete", "--n", str(n), "--k", str(k), "-o", str(gfile))
    assert (rc, out) == (2, "")
    assert err == f"error: need n > k >= 1, got n={n}, k={k}\n"
    assert not gfile.exists()


@pytest.mark.parametrize("argv", [
    ["graph", "knk", "--n", "40", "--k", "20"],
    ["graph", "hnk-complete", "--n", "30", "--k", "3"],
    ["construct", "k3n", "--n", "200"],
    ["construct", "gtm", "--n", "20", "--k", "10"],
], ids=lambda argv: "-".join(argv[:2]))
def test_oversized_graph_or_construct_is_usage_error(tmp_path, capsys, monkeypatch, argv):
    # refused from the edge count alone: no builder runs
    for name in ("build_split_knk", "build_hnk_member"):
        monkeypatch.setattr(f"vpgbend.graphs.{name}", None)
    for name in ("construct_k3n_proper", "construct_gtm_stairs"):
        monkeypatch.setattr(cli.constructors, name, None)
    out_file = tmp_path / "out.txt"
    rc, out, err = run(capsys, *argv, "-o", str(out_file))
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(" more than 1048576 edges\n")
    assert err.count("\n") == 1
    assert not out_file.exists()


def test_verify_reports_missing_edge(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    rfile = tmp_path / "r.txt"
    gfile.write_text("2 1\na\nb\na b\n")
    rfile.write_text("a : (0,0) (1,0)\nb : (0,2) (1,2)\n")
    rc, out, _ = run(capsys, "verify", str(gfile), str(rfile))
    assert rc == 1
    assert "missing edge: a b" in out
    assert "realizes: no" in out


@pytest.mark.parametrize(
    "text, message",
    [
        ("gibberish\n", "error: bad header line 'gibberish'\n"),
        ("2 1\na\nb\na b c\n", "error: bad edge line 'a b c'\n"),
        # the header counts 3 edges, the lines name 2
        ("3 3\na\nb\nc\na b\nb a\nb c\n", "error: repeated edge line 'b a'\n"),
        # int() reads `1_0` as 10, and the file has the lines 10 would ask for
        ("1_0 0\n" + "".join(f"v{i}\n" for i in range(10)), "error: bad header line '1_0 0'\n"),
    ],
    ids=["header", "edge", "repeated-edge", "underscore-count"],
)
def test_malformed_graph_file_is_usage_error(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    rfile = tmp_path / "r.txt"
    rfile.write_text("a : (0,0) (1,0)\n")
    rc, out, err = run(capsys, "verify", str(bad), str(rfile))
    assert (rc, out, err) == (2, "", message)


@pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", int)() < 5000,
                    reason="int() reads 5,000 digits")
@pytest.mark.parametrize("where", ["header", "grid"])
def test_count_past_the_int_digit_limit_is_usage_error(tmp_path, capsys, where):
    # 5,000 ASCII digits pass the digit test, and int() refuses them
    count = "9" * 5000
    gfile, rfile = tmp_path / "g.txt", tmp_path / "r.txt"
    rfile.write_text("a : (0,0) (1,0)\n")
    if where == "header":
        gfile.write_text(f"{count} 0\na\n")
        argv, message = ["verify", str(gfile), str(rfile)], f"bad header line '{count} 0'"
    else:
        gfile.write_text("1 0\na\n")
        grid = f"{count}x3"
        argv = ["oracle", str(gfile), "--grid", grid, "--bends", "0", "--node-limit", "5"]
        message = f"bad grid spec {grid!r}, expected WxH"
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_graph_header_with_a_negative_count_is_usage_error(tmp_path, capsys):
    # the line count 1 + 2 − 1 matches, so only the sign can refuse it
    gfile = tmp_path / "g.txt"
    rfile = tmp_path / "r.txt"
    gfile.write_text("2 -1\na\n")
    rfile.write_text("a : (0,0) (1,0)\n")
    rc, out, err = run(capsys, "verify", str(gfile), str(rfile))
    assert (rc, out) == (2, "")
    assert err == "error: bad header line '2 -1'\n"


@pytest.mark.parametrize("binary", ["graph", "rep"])
def test_non_utf8_input_file_is_usage_error(tmp_path, capsys, binary):
    gfile = tmp_path / "g.txt"
    rfile = tmp_path / "r.txt"
    gfile.write_text("2 1\na\nb\na b\n")
    rfile.write_text("a : (0,0) (2,0)\nb : (1,-1) (1,1)\n")
    bad = gfile if binary == "graph" else rfile
    bad.write_bytes(b"\xff\xfe")
    rc, out, err = run(capsys, "verify", str(gfile), str(rfile))
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(bad) in err


@pytest.mark.parametrize("token", ["(1,2,3)", "(x,1)", "(1/0,0)"])
def test_malformed_corner_token_is_usage_error(tmp_path, capsys, token):
    gfile = tmp_path / "g.txt"
    rfile = tmp_path / "r.txt"
    gfile.write_text("2 1\na\nb\na b\n")
    rfile.write_text(f"a : {token} (5,0)\nb : (0,0) (0,1)\n")
    rc, out, err = run(capsys, "verify", str(gfile), str(rfile))
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "coordinate", ["1e-9999999999", "1e400000000", "0.5", "+1", "1_0", "-1/-2", "\u0661"]
)
def test_coordinate_outside_the_grammar_is_usage_error_at_once(tmp_path, capsys, coordinate):
    # Fraction("1e400000000") would compute 10**400000000
    gfile = tmp_path / "g.txt"
    rfile = tmp_path / "r.txt"
    gfile.write_text("2 1\na\nb\na b\n")
    rfile.write_text(f"a : (0,0) ({coordinate},0)\nb : (0,-1) (0,1)\n", encoding="utf-8")
    start = time.perf_counter()
    rc, out, err = run(capsys, "verify", str(gfile), str(rfile), "--proper")
    assert time.perf_counter() - start < 0.5
    assert rc == 2
    assert out == ""
    assert err == f"error: not an exact coordinate: {coordinate!r}\n"


@pytest.mark.parametrize("command", ["dim", "realizer-check"])
def test_malformed_poset_relation_is_usage_error(tmp_path, capsys, command):
    pfile = tmp_path / "p.txt"
    pfile.write_text("a\nb\nc\na < b < c\n")
    rlz = tmp_path / "orders.txt"
    rlz.write_text("a,b,c\n")
    extra = ["--realizer", str(rlz)] if command == "realizer-check" else []
    rc, out, err = run(capsys, "posets", command, "--poset", str(pfile), *extra)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("orders, message", [
    ("a,b,a\n", "linear order repeats an element"),
    ("\n", "a realizer needs at least one linear order"),
], ids=["repeated-element", "blank"])
def test_malformed_realizer_file_is_usage_error(tmp_path, capsys, orders, message):
    pfile, rlz = tmp_path / "p.txt", tmp_path / "orders.txt"
    pfile.write_text("a\nb\nc\na < b\n")
    rlz.write_text(orders)
    rc, out, err = run(capsys, "posets", "realizer-check", "--poset", str(pfile), "--realizer", str(rlz))
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_cyclic_poset_fails_with_one_message_under_every_hash_seed(tmp_path):
    # the relations' closure puts every element above itself; the error
    # names the first element on the cycle, whatever order sets iterate in
    pfile = tmp_path / "p.txt"
    pfile.write_text("a\nb\nc\na < b\nb < c\nc < a\n")
    for seed in range(4):
        done = subprocess.run([sys.executable, "-m", "vpgbend", "posets", "dim", "--poset", str(pfile)],
                              capture_output=True, text=True,
                              env={**_subprocess_env(), "PYTHONHASHSEED": str(seed)})
        assert (done.returncode, done.stdout, done.stderr) == (
            2, "", "error: relations form a cycle through 'a'\n"), seed


@pytest.mark.parametrize("max_dim", ["0", "-3"])
def test_posets_dim_bound_below_one_is_usage_error(tmp_path, capsys, max_dim):
    pfile = tmp_path / "p.txt"
    pfile.write_text("a\nb\nc\na < b\n")
    rc, out, err = run(capsys, "posets", "dim", "--poset", str(pfile), "--max-dim", max_dim)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("given", [[], ["--r", "1"], ["--r", "1", "--s", "2"]])
def test_posets_dim_without_a_whole_poset_is_usage_error(capsys, given):
    rc, out, err = run(capsys, "posets", "dim", *given)
    assert (rc, out, err) == (2, "", "error: dim needs either --poset or all of --r/--s/--n\n")


@pytest.mark.parametrize("action", ["build", "dim"])
@pytest.mark.parametrize("r, s, n", [(1, 10, 40), (1, 2, 2_000_000), (4, 8, 20)])
def test_oversized_poset_is_usage_error(tmp_path, capsys, monkeypatch, action, r, s, n):
    # refused from the sizes alone: neither the builder nor any binomial of
    # an n above the cap runs
    monkeypatch.setattr(cli.posets, "build_p_rsn", None)
    if n > 1 << 20:
        monkeypatch.setattr(cli.math, "comb", None)
    out_file = tmp_path / "p.txt"
    argv = ["-o", str(out_file)] if action == "build" else []
    rc, out, err = run(capsys, "posets", action, "--r", str(r), "--s", str(s), "--n", str(n), *argv)
    assert (rc, out) == (2, "")
    assert err == f"error: r={r}, s={s}, n={n} would build more than 1048576 elements and relations\n"
    assert not out_file.exists()


def test_poset_size_cap_leaves_bad_parameters_to_the_builder(capsys):
    rc, out, err = run(capsys, "posets", "build", "--r", "3", "--s", "2", "--n", "2000000")
    assert (rc, out) == (2, "")
    assert err == "error: need 1 <= r < s <= n-1, got r=3, s=2, n=2000000\n"


@pytest.mark.parametrize("t", ["0", "-1"])
def test_goodsets_bend_bound_below_the_paths_is_usage_error(tmp_path, capsys, t):
    rfile = tmp_path / "r.txt"
    assert main(["construct", "k3n", "--n", "4", "-o", str(rfile)]) == 0
    rc, out, err = run(capsys, "goodsets", str(rfile), "--k", "3", "--t", t)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_goodsets_negative_t_is_rejected_before_the_paths(tmp_path, capsys):
    # an empty representation has no path to blame
    rfile = tmp_path / "r.txt"
    rfile.write_text("")
    rc, out, err = run(capsys, "goodsets", str(rfile), "--k", "1", "--t", "-1")
    assert (rc, out, err) == (2, "", "error: need t >= 0, got t=-1\n")


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def _outcome(argv):
    """(exit code, stdout, stderr) of one `main` call; argparse's exits too."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def test_cached_parser_answers_as_a_fresh_one(tmp_path, monkeypatch):
    gfile, rfile, efile = tmp_path / "g.txt", tmp_path / "r.txt", tmp_path / "e.txt"
    assert main(["graph", "knk", "--n", "3", "--k", "2", "-o", str(gfile)]) == 0
    assert main(["construct", "k2n", "--n", "3", "-o", str(rfile)]) == 0
    efile.write_text("2 1\na\nb\na b\n")
    oracle = ["oracle", str(efile), "--grid", "4x4", "--bends", "1"]
    sequence = [
        (["verify", str(gfile), str(rfile), "--proper"], None),
        (["verify", str(gfile), str(rfile)], None),
        (oracle + ["--proper"], None),
        (oracle, None),
        (["no-such-command"], None),
        (["oracle", "--help"], "40"),
    ]

    def outcomes():
        seen = []
        for argv, columns in sequence:
            if columns is None:
                monkeypatch.delenv("COLUMNS", raising=False)
            else:
                monkeypatch.setenv("COLUMNS", columns)
            seen.append(_outcome(argv))
        return seen

    cached = outcomes()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert cached == outcomes()
    assert [rc for rc, _, _ in cached] == [0, 0, 0, 0, 2, 0]
    assert "--proper" not in cached[1][1] and "proper: yes" in cached[0][1]
    assert cached[2][1] != cached[3][1]
    # the usage is wrapped at COLUMNS=40, read when the help is printed
    assert cached[5][1].startswith("usage: vpgbend oracle [-h] --grid GRID\n")


def test_parser_is_built_on_the_first_main_call_only():
    code = (
        "import contextlib, io\n"
        "from vpgbend import cli\n"
        "print(cli._build_parser.cache_info().misses)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['counting', '--n', '5', '--k', '2', '--t', '0'])\n"
        "    cli.main(['posets', 'dim', '--r', '1', '--s', '2', '--n', '4'])\n"
        "info = cli._build_parser.cache_info()\n"
        "print(info.misses, info.hits)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_subprocess_env())
    assert (done.returncode, done.stdout, done.stderr) == (0, "0\n1 1\n", "")


def test_split_upper_with_an_edge_in_the_independent_part_is_usage_error(tmp_path, capsys):
    # the 4-cycle 1-2-4-3: with clique {1,2}, the rest {3,4} holds the edge 3-4
    gfile, rfile = tmp_path / "c4.txt", tmp_path / "r.txt"
    gfile.write_text("4 4\n1\n2\n3\n4\n1 2\n1 3\n3 4\n2 4\n")
    argv = ["construct", "split-upper", "--graph", str(gfile), "--clique", "1,2", "-o", str(rfile)]
    assert run(capsys, *argv) == (2, "", "error: independent part induces an edge\n")
    assert not rfile.exists()


def test_split_upper_subcommand(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    rfile = tmp_path / "r.txt"
    assert main(["graph", "knk", "--n", "4", "--k", "2", "-o", str(gfile)]) == 0
    clique = "1,2,3,4"
    assert main(
        ["construct", "split-upper", "--graph", str(gfile), "--clique", clique, "-o", str(rfile)]
    ) == 0
    rc, out, _ = run(capsys, "verify", str(gfile), str(rfile))
    assert rc == 0
    assert "max bends: 5" in out


def test_goodsets_subcommand_golden(tmp_path, capsys):
    rfile = tmp_path / "r.txt"
    rfile.write_text("1 : (0,0) (2,0)\n2 : (0,1) (2,1)\n")
    rc, out, _ = run(capsys, "goodsets", str(rfile), "--k", "2", "--t", "0")
    assert rc == 0
    assert out == (
        "vertical {1,2} witness (0,-1)-(0,1)\n"
        "good 2-sets: 1\n"
        "bound 8n^2(t+1)^2 = 32: within\n"
    )


def test_goodsets_k3n6_golden(tmp_path, capsys):
    # 227 witness lines and the count, pinned by the sha256 of the whole stdout
    rfile = tmp_path / "r.txt"
    assert main(["construct", "k3n", "--n", "6", "-o", str(rfile)]) == 0
    rc, out, _ = run(capsys, "goodsets", str(rfile), "--k", "3")
    assert rc == 0
    assert out.splitlines()[-1] == "good 3-sets: 227"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "24df40aec4fa5781b3bd7f1a418e51ca94ded8ae3e5c7bbeb82a6cc6145fe60d"
    )


def test_goodsets_bound_runs_no_second_probe_sweep(tmp_path, capsys, monkeypatch):
    rfile = tmp_path / "r.txt"
    assert main(["construct", "k3n", "--n", "6", "-o", str(rfile)]) == 0
    calls = []
    real = lowerbound._probe_sets_one_axis

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lowerbound, "_probe_sets_one_axis", counted)
    counts = []
    for bound_args in ([], ["--t", "40"]):
        calls.clear()
        rc, _, _ = run(capsys, "goodsets", str(rfile), "--k", "3", *bound_args)
        assert rc == 0
        counts.append(len(calls))
    assert counts[0] > 0 and counts[1] == counts[0]


def test_counting_subcommand_golden(capsys):
    rc, out, _ = run(capsys, "counting", "--n", "40", "--k", "17", "--t", "0")
    assert rc == 1
    assert out == (
        "(a) 8n^2(t+1)^2 <= 2n^2k^2: true\n"
        "(b) k! < ceil(k/2)! floor(k/2)! (k-5)!: true\n"
        "(c) 2n^2k^2 k! < n(n-1)(n-2): false\n"
        "(d) 2n^2k^2(k-3) C(k,ceil(k/2)) C(n-k,k-3) < C(n,k): false\n"
    )


@pytest.mark.parametrize(
    "text, target, line",
    [
        (
            "1 : (0,0) (1,0)\n2 : (0,1) (1,1)\n3 : (10,0) (11,0)\n4 : (10,1) (11,1)\n",
            "1,2,3,4",
            "certificate: 1",
        ),
        # paths 1 and 2 coincide, so every probe that meets 1 meets 2: c = 0
        ("1 : (0,0) (2,0)\n2 : (0,0) (2,0)\n3 : (1,-1) (1,1)\n", "1", "unrealizable"),
    ],
    ids=["bound", "unrealizable"],
)
def test_certificate_subcommand(tmp_path, capsys, text, target, line):
    rfile = tmp_path / "r.txt"
    rfile.write_text(text)
    rc, out, _ = run(capsys, "certificate", str(rfile), "--target", target)
    assert rc == 0
    assert line in out.splitlines()


def test_posets_subcommands(tmp_path, capsys):
    pfile = tmp_path / "p.txt"
    assert main(["posets", "build", "--r", "1", "--s", "2", "--n", "3", "-o", str(pfile)]) == 0
    rc, out, _ = run(capsys, "posets", "dim", "--poset", str(pfile), "--max-dim", "4")
    assert rc == 0 and "dimension: 3" in out
    rc, out, _ = run(capsys, "posets", "dim", "--r", "1", "--s", "2", "--n", "3", "--max-dim", "2")
    assert rc == 0 and "exceeds max dim 2" in out

    rlz = tmp_path / "orders.txt"
    rlz.write_text("a,b\nb,a\n")
    anti = tmp_path / "anti.txt"
    anti.write_text("a\nb\n")
    rc, out, _ = run(capsys, "posets", "realizer-check", "--poset", str(anti), "--realizer", str(rlz))
    assert rc == 0 and "realizer: yes" in out
    rlz.write_text("a,b\n")
    rc, out, _ = run(capsys, "posets", "realizer-check", "--poset", str(anti), "--realizer", str(rlz))
    assert rc == 1 and "realizer: no" in out


def test_posets_dim_on_a_large_antichain(tmp_path, capsys):
    # 2,450 critical pairs: more than the recursion limit allows as nested calls
    pfile = tmp_path / "anti.txt"
    pfile.write_text("".join(f"a{i}\n" for i in range(50)))
    assert run(capsys, "posets", "dim", "--poset", str(pfile)) == (0, "dimension: 2\n", "")


def test_realizer_chains_hold_labels_with_commas(tmp_path, capsys):
    # `posets build` labels such as `1,2` contain the comma separator, so each
    # order is written as a chain `a < b < c`
    from vpgbend.graphs import label_str
    from vpgbend.posets import build_p_rsn, find_realizer

    pfile, rlz = tmp_path / "p.txt", tmp_path / "chains.txt"
    assert main(["posets", "build", "--r", "1", "--s", "2", "--n", "3", "-o", str(pfile)]) == 0
    realizer = find_realizer(build_p_rsn(1, 2, 3), 3)
    rlz.write_text("".join(" < ".join(map(label_str, o.sequence)) + "\n" for o in realizer.orders))
    rc, out, err = run(capsys, "posets", "realizer-check", "--poset", str(pfile), "--realizer", str(rlz))
    assert (rc, out, err) == (0, "realizer: yes\n", "")


def test_counting_subcommand(capsys):
    rc, out, _ = run(capsys, "counting", "--n", "100", "--k", "16", "--t", "0")
    assert rc == 1  # growth check fails at this small n
    assert "(b) " in out and "true" in out


def test_oracle_subcommand(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    gfile.write_text("3 3\n1\n2\n3\n1 2\n2 3\n1 3\n")
    rc, out, _ = run(capsys, "oracle", str(gfile), "--grid", "6x6", "--bends", "0")
    assert rc == 0
    assert " : " in out
    rc, out, _ = run(
        capsys, "oracle", str(gfile), "--grid", "6x6", "--bends", "0", "--node-limit", "1"
    )
    assert rc == 1
    assert "not found within budget" in out


def test_oracle_exhausted_grid(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    gfile.write_text("3 3\n1\n2\n3\n1 2\n2 3\n1 3\n")
    rc, out, _ = run(capsys, "oracle", str(gfile), "--grid", "6x6", "--bends", "0", "--proper")
    assert (rc, out) == (1, "no proper representation on 6x6 with at most 0 bends\n")
    gfile.write_text("2 0\na\nb\n")
    rc, out, _ = run(capsys, "oracle", str(gfile), "--grid", "1x2", "--bends", "0")
    assert (rc, out) == (1, "no representation on 1x2 with at most 0 bends\n")


def test_oracle_with_thousands_of_bends_runs_out_of_budget(tmp_path, capsys):
    # a candidate path may have more segments than Python's recursion limit
    gfile = tmp_path / "g.txt"
    gfile.write_text("2 0\na\nb\n")
    argv = ["oracle", str(gfile), "--grid", "40x40", "--bends", "3000", "--node-limit", "2000"]
    assert run(capsys, *argv) == (1, "not found within budget\n", "")


def test_oracle_with_a_huge_bend_bound_fits_in_memory(tmp_path, capsys):
    # the table-size bound grows with the bends; the child runs under a 1 GB
    # address-space limit, so a bound that outgrows memory fails there alone
    resource = pytest.importorskip("resource")
    gfile = tmp_path / "edge.graph"
    gfile.write_text("2 1\na\nb\na b\n")
    argv = ["oracle", str(gfile), "--grid", "3x3", "--bends"]

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    done = subprocess.run([sys.executable, "-m", "vpgbend", *argv, "100000000000"],
                          capture_output=True, text=True, env=_subprocess_env(),
                          preexec_fn=limit_memory, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert run(capsys, *argv, "1000000") == (0, done.stdout, "")


@pytest.mark.parametrize(
    "grid, message",
    [
        # refused before any mask of about 4·w·h bits is built
        ("99999999999x3", "grid 99999999999x3 has more than 65536 lattice points"),
        ("x3", "bad grid spec 'x3', expected WxH"),
        ("3x3x3", "bad grid spec '3x3x3', expected WxH"),
        ("3xa", "bad grid spec '3xa', expected WxH"),
        # sides that int() reads but that are not ASCII digits
        ("3_0x3", "bad grid spec '3_0x3', expected WxH"),
        ("+3x3", "bad grid spec '+3x3', expected WxH"),
        ("3x 3", "bad grid spec '3x 3', expected WxH"),
        ("\u0663x3", "bad grid spec '\u0663x3', expected WxH"),
    ],
)
def test_oracle_bad_grid_is_usage_error(tmp_path, capsys, grid, message):
    gfile = tmp_path / "g.txt"
    gfile.write_text("3 3\n1\n2\n3\n1 2\n2 3\n1 3\n")
    rc, out, err = run(capsys, "oracle", str(gfile), "--grid", grid, "--bends", "0",
                       "--node-limit", "5")
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_oracle_proper_edge_golden(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    gfile.write_text("2 1\na\nb\na b\n")
    rc, out, _ = run(capsys, "oracle", str(gfile), "--grid", "4x4", "--bends", "1", "--proper")
    assert rc == 0
    assert out == "a : (0,0) (1,0) (1,2)\nb : (0,1) (2,1)\n"


def test_render_subcommand(tmp_path):
    rfile = tmp_path / "r.txt"
    ofile = tmp_path / "o.svg"
    rfile.write_text("a : (0,0) (1,0)\n")
    assert main(["render", str(rfile), "-o", str(ofile)]) == 0
    content = ofile.read_text()
    assert content.startswith("<?xml") and "<polyline" in content


@pytest.mark.parametrize(
    "argv, message",
    [
        (["certificate", "{rep}", "--target", "a,99"],
         "target labels not in representation: ['99']"),
        (["render", "{rep}", "-o", "{rep}.svg", "--dashed", "a,99"],
         "dashed labels not in representation: ['99']"),
        (["construct", "split-upper", "--graph", "{graph}", "--clique", "1,z", "-o", "{rep}.out"],
         "clique labels not in graph: ['z']"),
    ],
)
def test_set_label_outside_representation_is_usage_error(tmp_path, capsys, argv, message):
    rfile, gfile = tmp_path / "r.txt", tmp_path / "g.txt"
    rfile.write_text("a : (0,0) (1,0)\n")
    assert main(["graph", "knk", "--n", "4", "--k", "2", "-o", str(gfile)]) == 0
    rc, out, err = run(capsys, *(arg.format(rep=rfile, graph=gfile) for arg in argv))
    assert (rc, out, err) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "r.txt.svg").exists() and not (tmp_path / "r.txt.out").exists()


def test_python_m_vpgbend_runs_the_cli():
    done = subprocess.run([sys.executable, "-m", "vpgbend", "--help"], capture_output=True,
                          text=True, env=_subprocess_env())
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: vpgbend")


# --- render internals ---------------------------------------------------------


def test_decimal_formatting():
    from fractions import Fraction

    assert _decimal(Fraction(3)) == "3"
    assert _decimal(Fraction(1, 2)) == "0.5"
    assert _decimal(Fraction(-1, 3)) == "-0.333333"
    assert _decimal(Fraction(1, 3)) == "0.333333"


def test_render_empty_representation():
    svg = render_svg(VpgRepresentation({}))
    assert svg.startswith("<?xml") and "<polyline" not in svg


def test_render_k2n_five_polyline_count():
    svg = render_svg(construct_k2n_proper(5))
    assert svg.count("<polyline") == 15


def test_render_deterministic():
    rep = construct_k2n_proper(3)
    probes = [Segment(Point(0, 0), Point(0, 1))]
    a = render_svg(rep, dashed_labels=[(1, 2)], probes=probes)
    b = render_svg(rep, dashed_labels=[(1, 2)], probes=probes)
    assert a == b


def test_render_styles_split():
    rep = construct_k2n_proper(3)
    dashed = [l for l in rep.labels() if isinstance(l, tuple)]
    svg = render_svg(rep, dashed_labels=dashed)
    assert svg.count("stroke-dasharray") == len(dashed)


def test_label_the_reader_cannot_return_is_usage_error(tmp_path, capsys):
    gfile, rfile = tmp_path / "g.txt", tmp_path / "r.txt"
    argv = ["construct", "split-upper", "--graph", str(gfile), "--clique", "b", "-o", str(rfile)]
    gfile.write_text("2 0\nx : y\nb\n")
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "") and not rfile.exists()
    assert err == "error: label 'x : y' cannot be written to a representation file\n"
    gfile.write_text("2 0\nx y\nb\n")
    assert run(capsys, *argv)[0] == 0
    assert sorted(read_representation_text(rfile.read_text()).labels()) == ["b", "x y"]
    rc, out, _ = run(capsys, "verify", str(gfile), str(rfile))
    assert rc == 0 and "realizes: yes" in out


def test_verify_proper_sweeps_the_contacts_once(tmp_path, capsys, monkeypatch):
    gfile, rfile = tmp_path / "g.txt", tmp_path / "r.txt"
    assert main(["graph", "knk", "--n", "6", "--k", "3", "-o", str(gfile)]) == 0
    assert main(["construct", "k3n", "--n", "6", "-o", str(rfile)]) == 0
    sweeps = []
    real = representation._crossing_contacts

    def counted(*args):
        sweeps.append(args)
        return real(*args)

    monkeypatch.setattr(representation, "_crossing_contacts", counted)
    rc, out, _ = run(capsys, "verify", str(gfile), str(rfile), "--proper")
    assert (rc, out.splitlines()[-1]) == (0, "proper: yes")
    assert len(sweeps) == 1


def test_representation_round_trip_via_cli_files(tmp_path):
    rfile = tmp_path / "r.txt"
    assert main(["construct", "gtm", "--n", "5", "--k", "3", "-o", str(rfile)]) == 0
    text = rfile.read_text()
    rep = read_representation_text(text)
    from vpgbend.representation import write_representation_text

    assert write_representation_text(rep) == text


@pytest.mark.parametrize(
    "argv",
    [
        ["certificate", "{rep}", "--target", "a,a"],
        ["certificate", "{rep}", "--target", "a,b,a"],
        ["construct", "split-upper", "--graph", "{graph}", "--clique", "a,a"],
        ["render", "{rep}", "-o", "{rep}.svg", "--dashed", "a,a"],
    ],
)
def test_repeated_set_label_is_usage_error(tmp_path, capsys, argv):
    gfile = tmp_path / "g.txt"
    rfile = tmp_path / "r.txt"
    gfile.write_text("2 1\na\nb\na b\n")
    rfile.write_text("a : (0,0) (1,0)\nb : (0,0) (0,1)\n")
    argv = [arg.format(rep=rfile, graph=gfile) for arg in argv]
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: repeated") and err.count("\n") == 1


def test_many_set_labels_are_checked_in_one_pass(tmp_path, capsys):
    # 60,000 distinct labels, all but two naming no path; a count per label
    # would take about a minute, and the error names the first 5 only
    rfile = tmp_path / "r.txt"
    rfile.write_text("1 : (0,0) (1,0)\n2 : (0,0) (0,1)\n")
    target = ",".join(map(str, range(1, 60_001)))
    for spec, error in (
        (target, "error: target labels not in representation: "
                 "['3', '4', '5', '6', '7'] … (59998 in all)\n"),
        (target + ",1", "error: repeated target labels: ['1']\n"),
        (target + ",6,5,4,3,2,1", "error: repeated target labels: "
                                  "['1', '2', '3', '4', '5'] … (6 in all)\n"),
    ):
        start = time.perf_counter()
        rc, out, err = run(capsys, "certificate", str(rfile), "--target", spec)
        assert time.perf_counter() - start < 5
        assert (rc, out, err) == (2, "", error)
        assert len(err.encode()) < 300


_TOKENS = [
    "a", "b", "1", "2", "2 1", ":", " : ", "<", " < ", ",", "(0,0)", "(1,0)", "(0,1)",
    "(1,1)", "(1/2,0)", "(1,2,3)", "(x,1)", "(1/0,0)", "(-1,0)", "a b", "1 2",
]
_WHOLE_LINES = st.sampled_from(
    ["a : (0,0) (1,0)", "b : (0,1) (1,1)", "b : (1,-1) (1,1) (2,1)", "a", "b", "a < b"]
)
_LINES = st.one_of(_WHOLE_LINES, st.lists(st.sampled_from(_TOKENS), max_size=5).map(" ".join))
_TEXT = st.one_of(
    st.text(alphabet="ab12 ,:()/<-x\n", max_size=40),
    st.lists(_LINES, max_size=6).map("\n".join),
    st.lists(_WHOLE_LINES, max_size=4).map("\n".join),
    st.permutations(["a : (0,0) (1,0)", "b : (1,-1) (1,1) (2,1)", "b : (2,0) (3,0)"]).map(
        lambda lines: "\n".join(lines[:2])
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["verify", "verify-rep", "goodsets", "dim"]), _TEXT, _TEXT)
def test_random_input_text_gives_an_exit_code(command, text, other):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "first"), os.path.join(tmp, "second")
        graph = os.path.join(tmp, "graph")
        for name, content in ((first, text), (second, other), (graph, "2 1\na\nb\na b\n")):
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(content)
        argv = {
            "verify": ["verify", first, second, "--proper"],
            "verify-rep": ["verify", graph, first, "--proper"],
            "goodsets": ["goodsets", first, "--k", "2"],
            "dim": ["posets", "dim", "--poset", first, "--max-dim", "2"],
        }[command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    assert rc in (0, 1, 2)
    if rc == 2:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
