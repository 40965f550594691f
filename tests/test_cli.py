"""Command line surface: subcommands, output format, exit codes."""

import json
import re
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from kinclust.cli import main

from conftest import run_python

TWO_VERTICALS = '{"trajectories":[{"x0":"0","x1":"0"},{"x0":"1","x1":"1"}]}\n'
QUARTET = json.dumps(
    {
        "trajectories": [
            {"x0": "-2.4142135624", "x1": "1"},
            {"x0": "-0.9", "x1": "2"},
            {"x0": "0", "x1": "0"},
            {"x0": "0.1", "x1": "-0.4142135624"},
        ]
    }
)
# A straddling-cluster instance: the best 3-clustering keeps the bold
# middle trajectory alone although no uncovered hole separates it from
# the narrow pair it starts inside.
NESTED = json.dumps(
    {
        "trajectories": [
            {"x0": "0.5", "x1": "0.5"},
            {"x0": "1.3", "x1": "5"},
            {"x0": "3", "x1": "4"},
            {"x0": "5", "x1": "2"},
            {"x0": "6", "x1": "6"},
        ]
    }
)


def value_of(output: str, label: str) -> Fraction:
    m = re.search(rf"{label} = (\S+) \(", output)
    assert m, output
    return Fraction(m.group(1))


def assert_one_error_line(err: str, fragment: str) -> None:
    assert err.startswith("error: ") and err.count("\n") == 1 and fragment in err, err


@pytest.fixture()
def verticals_file(tmp_path):
    path = tmp_path / "two_verticals.json"
    path.write_text(TWO_VERTICALS)
    return str(path)


@pytest.fixture()
def quartet_file(tmp_path):
    path = tmp_path / "quartet.json"
    path.write_text(QUARTET)
    return str(path)


@pytest.fixture()
def nested_file(tmp_path):
    path = tmp_path / "nested.json"
    path.write_text(NESTED)
    return str(path)


class TestHoles:
    def test_table(self, verticals_file, capsys):
        assert main(["holes", verticals_file]) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines() if line.startswith("left=")]
        assert len(rows) == 3
        assert "3 holes" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["holes", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["holes", "{file}"],
            ["render", "{file}", "--holes", "-o", "{out}"],
            ["sd", "exact", "{file}", "-k", "3"],
            ["sd", "wellsep", "{file}", "-k", "3"],
            ["md", "wellsep", "{file}", "-k", "3"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_hole_budget(self, argv, nested_file, tmp_path, capsys, monkeypatch):
        from kinclust import arrangement

        monkeypatch.setattr(arrangement, "MAX_HOLE_MEMBERS", 3)
        out = tmp_path / "out.svg"
        argv = [arg.format(file=nested_file, out=out) for arg in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "MAX_HOLE_MEMBERS = 3" in captured.err
        assert not out.exists()


# Coordinates whose exact values outgrow what the commands can print or draw.
WIDE = (
    '{"trajectories": [{"x0": "1e4299", "x1": "0"}, {"x0": "1/3", "x1": "2"}, '
    '{"x0": "1e-4299", "x1": "1/7"}]}\n'
)


class TestWideCoordinates:
    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["holes", "{file}"], "digits"),
            (["render", "{file}", "--holes", "-o", "{out}"], "does not fit in floats"),
            (["sd", "exact", "{file}", "-k", "2"], "digits"),
            (["md", "kcenter", "{file}", "-k", "2"], "digits"),
            (["md", "wellsep", "{file}", "-k", "2"], "digits"),
            (["md", "bsearch", "{file}", "-k", "2"], "MAX_BSEARCH_ROUNDS"),
        ],
        ids=lambda arg: " ".join(arg[:2]) if isinstance(arg, list) else "",
    )
    def test_one_error_line_and_no_output(self, argv, fragment, tmp_path, capsys):
        path, out = tmp_path / "wide.json", tmp_path / "out.svg"
        path.write_text(WIDE)
        assert main([arg.format(file=path, out=out) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err, fragment)
        assert not out.exists()


class TestSd:
    def test_wellsep_at_least_brute(self, nested_file, capsys):
        assert main(["sd", "brute", nested_file, "-k", "3"]) == 0
        brute = value_of(capsys.readouterr().out, "sum of diameters")
        assert main(["sd", "wellsep", nested_file, "-k", "3"]) == 0
        wellsep = value_of(capsys.readouterr().out, "sum of diameters")
        assert wellsep >= brute

    def test_exact_matches_brute(self, nested_file, capsys):
        assert main(["sd", "exact", nested_file, "-k", "2"]) == 0
        exact = value_of(capsys.readouterr().out, "sum of diameters")
        assert main(["sd", "brute", nested_file, "-k", "2"]) == 0
        brute = value_of(capsys.readouterr().out, "sum of diameters")
        assert exact == brute

    def test_fraction_output_reparses_exactly(self, nested_file, capsys):
        assert main(["sd", "exact", nested_file, "-k", "3"]) == 0
        out = capsys.readouterr().out
        from kinclust import parse_instance, sd_exact_goodseq

        S = parse_instance(NESTED)
        assert value_of(out, "sum of diameters") == sd_exact_goodseq(S, 3).value

    def test_bad_k(self, verticals_file, capsys):
        assert main(["sd", "exact", verticals_file, "-k", "9"]) == 1

    def test_exact_work_guard(self, nested_file, capsys, monkeypatch):
        from kinclust import sum_diameter

        monkeypatch.setattr(sum_diameter, "MAX_SPLIT_WORK", 3)
        assert main(["sd", "exact", nested_file, "-k", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "MAX_SPLIT_WORK = 3" in captured.err

    def test_wellsep_work_guard(self, nested_file, capsys, monkeypatch):
        from kinclust import arrangement

        monkeypatch.setattr(arrangement, "MAX_CHAIN_PAIRS", 3)
        assert main(["sd", "wellsep", nested_file, "-k", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "MAX_CHAIN_PAIRS = 3" in captured.err


class TestLazyReferees:
    """Only ``sd brute`` and ``md brute`` load ``kinclust.oracle``."""

    LOADED = "import sys; print('kinclust.oracle' in sys.modules)"

    def test_import_leaves_the_oracle_unloaded(self):
        proc = run_python(["-c", f"import kinclust.cli; {self.LOADED}"])
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout == "False\n"

    @pytest.mark.parametrize(
        "argv,loaded",
        [
            (["sd", "wellsep", "{file}", "-k", "2"], False),
            (["sd", "exact", "{file}", "-k", "2"], False),
            (["md", "bsearch", "{file}", "-k", "2"], False),
            (["sd", "brute", "{file}", "-k", "2"], True),
            (["md", "brute", "{file}", "-k", "2"], True),
        ],
    )
    def test_only_brute_loads_the_oracle(self, nested_file, argv, loaded):
        argv = [a.format(file=nested_file) for a in argv]
        code = f"from kinclust.cli import main; assert main({argv!r}) == 0; {self.LOADED}"
        proc = run_python(["-c", code])
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.splitlines()[-1] == str(loaded)


class TestMd:
    def test_bsearch_ratio(self, quartet_file, capsys):
        assert main(["md", "bsearch", quartet_file, "-k", "2", "--eps", "0.1"]) == 0
        value = value_of(capsys.readouterr().out, "max diameter")
        assert value <= Fraction("2.8072") * Fraction("1.0000001")

    def test_gp_requires_threshold(self, quartet_file, capsys):
        assert main(["md", "gp", quartet_file]) == 1
        assert main(["md", "gp", quartet_file, "-D", "1.5"]) == 0
        out = capsys.readouterr().out
        assert "clusters:" in out

    def test_kcenter(self, quartet_file, capsys):
        assert main(["md", "kcenter", quartet_file, "-k", "2"]) == 0
        assert "centers:" in capsys.readouterr().out

    def test_kcenter_work_guard(self, quartet_file, capsys, monkeypatch):
        from kinclust import max_diameter

        monkeypatch.setattr(max_diameter, "MAX_CENTER_WORK", 7)
        assert main(["md", "kcenter", quartet_file, "-k", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "MAX_CENTER_WORK = 7" in captured.err

    def test_wellsep_and_brute(self, quartet_file, capsys):
        assert main(["md", "brute", quartet_file, "-k", "2"]) == 0
        brute = value_of(capsys.readouterr().out, "max diameter")
        assert main(["md", "wellsep", quartet_file, "-k", "2"]) == 0
        wellsep = value_of(capsys.readouterr().out, "max diameter")
        assert wellsep >= brute

    def test_missing_k(self, quartet_file, capsys):
        assert main(["md", "bsearch", quartet_file]) == 1

    def test_bsearch_k_above_n_rejected(self, quartet_file, capsys):
        assert main(["md", "bsearch", quartet_file, "-k", "5"]) == 1
        assert "k must satisfy 1 <= k <= 4" in capsys.readouterr().err

    def test_huge_exponent_options_rejected(self, quartet_file, capsys):
        assert main(["md", "bsearch", quartet_file, "-k", "2", "--eps", "1e-4301"]) == 1
        assert main(["md", "gp", quartet_file, "-D", "1e4301"]) == 1
        assert "exponent" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,option",
        [
            (["md", "gp", "-D", "1", "-k", "3"], "-k"),
            (["md", "gp", "-D", "1", "--eps", "0.1"], "--eps"),
            (["md", "bsearch", "-k", "2", "-D", "1"], "-D"),
            (["md", "kcenter", "-k", "2", "-D", "1"], "-D"),
            (["md", "kcenter", "-k", "2", "--eps", "0.1"], "--eps"),
            (["md", "wellsep", "-k", "3", "--eps", "0"], "--eps"),
            (["md", "brute", "-k", "2", "-D", "1"], "-D"),
        ],
    )
    def test_options_the_solver_never_reads_rejected(self, quartet_file, capsys, argv, option):
        assert main([*argv[:2], quartet_file, *argv[2:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err, f"md {argv[1]} takes no {option}")

    @pytest.mark.parametrize(
        "argv",
        [["md", "gp", "-D", "1/0"], ["md", "bsearch", "-k", "2", "--eps", "1/0"]],
        ids=["gp-threshold", "bsearch-eps"],
    )
    def test_zero_denominator_options_rejected(self, quartet_file, capsys, argv):
        assert main([*argv[:2], quartet_file, *argv[2:]]) == 1
        assert_one_error_line(capsys.readouterr().err, "zero denominator")


# Exact values that recur in the golden outputs below.
Q_ALL = "380102251195327810796124050399/228833846436303610305000000000 (1.66104034484)"
Q_REST = "199463665530790863456041350133/198880518135808055152500000000 (1.00293214942)"
Q_PAIR = "10669417382618904209/10669417382500000000 (1.00000000001)"

# (exit code, stdout) of every sd and md solver, keyed by fixture and by the
# command with the instance file left out; it goes after the solver name.
GOLDEN = {
    ("quartet", "sd exact -k 2"): (
        0,
        f"""\
cluster 0: [0] diameter = 0 (0)
cluster 1: [1, 2, 3] diameter = {Q_REST}
clusters: 2
sum of diameters = {Q_REST}
""",
    ),
    ("quartet", "sd wellsep -k 2"): (
        0,
        f"""\
cluster 0: [0] diameter = 0 (0)
cluster 1: [1, 2, 3] diameter = {Q_REST}
clusters: 2
sum of diameters = {Q_REST}
""",
    ),
    ("quartet", "sd brute -k 2"): (
        0,
        f"""\
cluster 0: [0] diameter = 0 (0)
cluster 1: [1, 2, 3] diameter = {Q_REST}
clusters: 2
sum of diameters = {Q_REST}
""",
    ),
    ("quartet", "sd exact -k 1"): (
        0,
        f"""\
cluster 0: [0, 1, 2, 3] diameter = {Q_ALL}
clusters: 1
sum of diameters = {Q_ALL}
""",
    ),
    ("quartet", "md gp -D 1.5"): (
        0,
        f"""\
cluster 0: [0, 1, 2, 3] diameter = {Q_ALL}
clusters: 1
max diameter = {Q_ALL}
""",
    ),
    ("quartet", "md bsearch -k 2"): (
        0,
        f"""\
cluster 0: [0, 2] diameter = {Q_PAIR}
cluster 1: [1, 3] diameter = {Q_PAIR}
clusters: 2
max diameter = {Q_PAIR}
""",
    ),
    ("quartet", "md bsearch -k 2 --eps 0.1"): (
        0,
        f"""\
cluster 0: [0, 2] diameter = {Q_PAIR}
cluster 1: [1, 3] diameter = {Q_PAIR}
clusters: 2
max diameter = {Q_PAIR}
""",
    ),
    ("quartet", "md bsearch -k 4"): (
        0,
        """\
cluster 0: [0] diameter = 0 (0)
cluster 1: [1] diameter = 0 (0)
cluster 2: [2] diameter = 0 (0)
cluster 3: [3] diameter = 0 (0)
clusters: 4
max diameter = 0 (0)
""",
    ),
    ("quartet", "md kcenter -k 2"): (
        0,
        f"""\
cluster 0: [0] diameter = 0 (0)
cluster 1: [1, 2, 3] diameter = {Q_REST}
centers: [0, 1]
max diameter = {Q_REST}
""",
    ),
    ("quartet", "md wellsep -k 2"): (
        0,
        f"""\
cluster 0: [0] diameter = 0 (0)
cluster 1: [1, 2, 3] diameter = {Q_REST}
clusters: 2
max diameter = {Q_REST}
""",
    ),
    ("quartet", "md brute -k 2"): (
        0,
        f"""\
cluster 0: [0, 2] diameter = {Q_PAIR}
cluster 1: [1, 3] diameter = {Q_PAIR}
clusters: 2
max diameter = {Q_PAIR}
""",
    ),
    ("nested", "sd exact -k 3"): (
        0,
        """\
cluster 0: [0] diameter = 0 (0)
cluster 1: [1, 2, 3] diameter = 61753/36180 (1.70682697623)
cluster 2: [4] diameter = 0 (0)
clusters: 3
sum of diameters = 61753/36180 (1.70682697623)
""",
    ),
    ("nested", "sd wellsep -k 3"): (
        0,
        """\
cluster 0: [0] diameter = 0 (0)
cluster 1: [1, 2, 3] diameter = 61753/36180 (1.70682697623)
cluster 2: [4] diameter = 0 (0)
clusters: 3
sum of diameters = 61753/36180 (1.70682697623)
""",
    ),
    ("nested", "sd brute -k 3"): (
        0,
        """\
cluster 0: [0] diameter = 0 (0)
cluster 1: [1, 2, 3] diameter = 61753/36180 (1.70682697623)
cluster 2: [4] diameter = 0 (0)
clusters: 3
sum of diameters = 61753/36180 (1.70682697623)
""",
    ),
    ("nested", "md gp -D 2"): (
        0,
        """\
cluster 0: [0] diameter = 0 (0)
cluster 1: [1, 2, 3] diameter = 61753/36180 (1.70682697623)
cluster 2: [4] diameter = 0 (0)
clusters: 3
max diameter = 61753/36180 (1.70682697623)
""",
    ),
    ("nested", "md bsearch -k 3"): (
        0,
        """\
cluster 0: [0] diameter = 0 (0)
cluster 1: [1, 2, 3] diameter = 61753/36180 (1.70682697623)
cluster 2: [4] diameter = 0 (0)
clusters: 3
max diameter = 61753/36180 (1.70682697623)
""",
    ),
    ("nested", "md kcenter -k 3"): (
        0,
        """\
cluster 0: [0] diameter = 0 (0)
cluster 1: [1, 2, 3] diameter = 61753/36180 (1.70682697623)
cluster 2: [4] diameter = 0 (0)
centers: [0, 4, 1]
max diameter = 61753/36180 (1.70682697623)
""",
    ),
    ("nested", "md wellsep -k 3"): (
        0,
        """\
cluster 0: [0] diameter = 0 (0)
cluster 1: [1, 2, 3] diameter = 61753/36180 (1.70682697623)
cluster 2: [4] diameter = 0 (0)
clusters: 3
max diameter = 61753/36180 (1.70682697623)
""",
    ),
    ("nested", "md brute -k 3"): (
        0,
        """\
cluster 0: [0] diameter = 0 (0)
cluster 1: [1, 2, 3] diameter = 61753/36180 (1.70682697623)
cluster 2: [4] diameter = 0 (0)
clusters: 3
max diameter = 61753/36180 (1.70682697623)
""",
    ),
    ("nested", "sd exact -k 2"): (
        0,
        """\
cluster 0: [0] diameter = 0 (0)
cluster 1: [1, 2, 3, 4] diameter = 4719/1340 (3.52164179104)
clusters: 2
sum of diameters = 4719/1340 (3.52164179104)
""",
    ),
    ("nested", "sd wellsep -k 2"): (
        0,
        """\
cluster 0: [0] diameter = 0 (0)
cluster 1: [1, 2, 3, 4] diameter = 4719/1340 (3.52164179104)
clusters: 2
sum of diameters = 4719/1340 (3.52164179104)
""",
    ),
    ("nested", "sd brute -k 2"): (
        0,
        """\
cluster 0: [0] diameter = 0 (0)
cluster 1: [1, 2, 3, 4] diameter = 4719/1340 (3.52164179104)
clusters: 2
sum of diameters = 4719/1340 (3.52164179104)
""",
    ),
    ("nested", "md gp -D 0.5"): (
        0,
        """\
cluster 0: [0] diameter = 0 (0)
cluster 1: [1] diameter = 0 (0)
cluster 2: [2] diameter = 0 (0)
cluster 3: [3] diameter = 0 (0)
cluster 4: [4] diameter = 0 (0)
clusters: 5
max diameter = 0 (0)
""",
    ),
    ("nested", "md bsearch -k 2"): (
        0,
        """\
cluster 0: [0, 1] diameter = 53/20 (2.65)
cluster 1: [2, 3, 4] diameter = 3 (3)
clusters: 2
max diameter = 3 (3)
""",
    ),
    ("nested", "md kcenter -k 2"): (
        0,
        """\
cluster 0: [0, 1] diameter = 53/20 (2.65)
cluster 1: [2, 3, 4] diameter = 3 (3)
centers: [0, 4]
max diameter = 3 (3)
""",
    ),
    ("nested", "md wellsep -k 2"): (
        0,
        """\
cluster 0: [0, 1] diameter = 53/20 (2.65)
cluster 1: [2, 3, 4] diameter = 3 (3)
clusters: 2
max diameter = 3 (3)
""",
    ),
    ("nested", "md brute -k 2"): (
        0,
        """\
cluster 0: [0, 1] diameter = 53/20 (2.65)
cluster 1: [2, 3, 4] diameter = 3 (3)
clusters: 2
max diameter = 3 (3)
""",
    ),
    ("nested", "sd wellsep -k 5"): (
        0,
        """\
cluster 0: [0] diameter = 0 (0)
cluster 1: [1] diameter = 0 (0)
cluster 2: [2] diameter = 0 (0)
cluster 3: [3] diameter = 0 (0)
cluster 4: [4] diameter = 0 (0)
clusters: 5
sum of diameters = 0 (0)
""",
    ),
    ("nested", "md wellsep -k 5"): (
        0,
        """\
cluster 0: [0] diameter = 0 (0)
cluster 1: [1] diameter = 0 (0)
cluster 2: [2] diameter = 0 (0)
cluster 3: [3] diameter = 0 (0)
cluster 4: [4] diameter = 0 (0)
clusters: 5
max diameter = 0 (0)
""",
    ),
    ("quartet", "sd exact -k 9"): (1, ""),
    ("quartet", "md bsearch -k 5"): (1, ""),
    ("quartet", "md wellsep -k 0"): (1, ""),
    ("nested", "md gp -D -1"): (1, ""),
}


class TestGolden:
    @pytest.mark.parametrize(
        "name, command", list(GOLDEN), ids=[f"{n} {c}".replace(" ", "_") for n, c in GOLDEN]
    )
    def test_output_is_byte_identical(self, name, command, tmp_path, capsys):
        path = tmp_path / f"{name}.json"
        path.write_text({"quartet": QUARTET, "nested": NESTED}[name])
        objective, solver, *options = command.split()
        code = main([objective, solver, str(path), *options])
        assert (code, capsys.readouterr().out) == GOLDEN[name, command]


class TestGen:
    def test_writes_parseable_deterministic_file(self, tmp_path, capsys):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["gen", "-n", "6", "--seed", "3", "-o", str(out1)]) == 0
        assert main(["gen", "-n", "6", "--seed", "3", "-o", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()
        from kinclust import parse_instance

        assert len(parse_instance(out1.read_bytes())) == 6

    def test_zero_denominator_range_rejected(self, tmp_path, capsys):
        # ... and a range with no grid point, and points past 4300 digits.
        out = tmp_path / "z.json"
        for argv, fragment in [
            (["-n", "4", "--x0-range", "0", "1/0"], "zero denominator"),
            (["-n", "3", "--x0-range", "0.01", "0.02"], "ranges contain no grid point"),
            (["-n", "3", "--x0-range", "0", "1e4299", "--grid", "1000"], "more than 4300 digits"),
        ]:
            assert main(["gen", *argv, "--seed", "1", "-o", str(out)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert_one_error_line(captured.err, fragment)
            assert not out.exists()

    def test_custom_ranges(self, tmp_path):
        out = tmp_path / "c.json"
        assert (
            main(
                [
                    "gen", "-n", "4", "--seed", "1",
                    "--x0-range", "0", "2",
                    "--slope-range", "-1", "1",
                    "--grid", "4",
                    "-o", str(out),
                ]
            )
            == 0
        )
        from kinclust import parse_instance

        S = parse_instance(out.read_bytes())
        assert all(0 <= s.x0 <= 2 for s in S)


class TestRender:
    def test_plain_and_holes(self, verticals_file, tmp_path):
        out = tmp_path / "v.svg"
        assert main(["render", verticals_file, "-o", str(out)]) == 0
        ET.fromstring(out.read_text())
        assert main(["render", verticals_file, "--holes", "-o", str(out)]) == 0
        ET.fromstring(out.read_text())

    def test_clusters_overlay(self, quartet_file, tmp_path):
        clusters = tmp_path / "clusters.json"
        clusters.write_text('{"clusters": [[0, 2], [1, 3]]}')
        out = tmp_path / "q.svg"
        assert main(["render", quartet_file, "--clusters", str(clusters), "-o", str(out)]) == 0
        root = ET.fromstring(out.read_text())
        spans = [el for el in root.iter() if el.get("class") == "span"]
        assert len(spans) == 2

    def test_bad_clusters_file(self, quartet_file, tmp_path, capsys):
        clusters = tmp_path / "clusters.json"
        clusters.write_text('{"clusters": [[0], [1, 3]]}')  # not a partition
        out = tmp_path / "q.svg"
        assert main(["render", quartet_file, "--clusters", str(clusters), "-o", str(out)]) == 1

    @pytest.mark.parametrize(
        "doc", ['{"clusters": 5}', '{"clusters": [5]}', '{"clusters": [[[1]]]}']
    )
    def test_clusters_not_index_lists(self, quartet_file, tmp_path, capsys, doc):
        clusters = tmp_path / "clusters.json"
        clusters.write_text(doc)
        out = tmp_path / "q.svg"
        assert main(["render", quartet_file, "--clusters", str(clusters), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: clusters file must be") and "Traceback" not in err
        assert not out.exists()

    def test_deeply_nested_clusters_file(self, quartet_file, tmp_path, capsys):
        clusters = tmp_path / "clusters.json"
        clusters.write_text("[" * 100_000 + "]" * 100_000)
        out = tmp_path / "q.svg"
        assert main(["render", quartet_file, "--clusters", str(clusters), "-o", str(out)]) == 1
        assert_one_error_line(capsys.readouterr().err, "nested too deeply")
        assert not out.exists()


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert main(["holes", "x.json", "--frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_solver(self, verticals_file, capsys):
        assert main(["sd", "magic", verticals_file, "-k", "1"]) == 1
