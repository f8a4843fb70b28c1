import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpgbend.cli import _decimal, main, render_svg
from vpgbend.constructors import construct_k2n_proper
from vpgbend.geometry import Point, Segment
from vpgbend.representation import VpgRepresentation, read_representation_text


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


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


def test_verify_reports_missing_edge(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    rfile = tmp_path / "r.txt"
    gfile.write_text("2 1\na\nb\na b\n")
    rfile.write_text("a : (0,0) (1,0)\nb : (0,2) (1,2)\n")
    rc, out, _ = run(capsys, "verify", str(gfile), str(rfile))
    assert rc == 1
    assert "missing edge: a b" in out
    assert "realizes: no" in out


def test_malformed_graph_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("gibberish\n")
    rfile = tmp_path / "r.txt"
    rfile.write_text("a : (0,0) (1,0)\n")
    rc, _, err = run(capsys, "verify", str(bad), str(rfile))
    assert rc == 2
    assert "error:" in err


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


@pytest.mark.parametrize("max_dim", ["0", "-3"])
def test_posets_dim_bound_below_one_is_usage_error(tmp_path, capsys, max_dim):
    pfile = tmp_path / "p.txt"
    pfile.write_text("a\nb\nc\na < b\n")
    rc, out, err = run(capsys, "posets", "dim", "--poset", str(pfile), "--max-dim", max_dim)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


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


def test_counting_subcommand_golden(capsys):
    rc, out, _ = run(capsys, "counting", "--n", "40", "--k", "17", "--t", "0")
    assert rc == 1
    assert out == (
        "(a) 8n^2(t+1)^2 <= 2n^2k^2: true\n"
        "(b) k! < ceil(k/2)! floor(k/2)! (k-5)!: true\n"
        "(c) 2n^2k^2 k! < n(n-1)(n-2): false\n"
        "(d) 2n^2k^2(k-3) C(k,ceil(k/2)) C(n-k,k-3) < C(n,k): false\n"
    )


def test_certificate_subcommand(tmp_path, capsys):
    rfile = tmp_path / "r.txt"
    rfile.write_text(
        "1 : (0,0) (1,0)\n2 : (0,1) (1,1)\n3 : (10,0) (11,0)\n4 : (10,1) (11,1)\n"
    )
    rc, out, _ = run(capsys, "certificate", str(rfile), "--target", "1,2,3,4")
    assert rc == 0
    assert "certificate: 1" in out


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
