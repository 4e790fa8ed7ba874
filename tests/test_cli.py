import itertools
import json

import numpy as np
import pytest

from quadmap import cli, enumeration
from quadmap.cli import main
from quadmap.enumeration import RootedLaw
from quadmap.labeled import Encoding
from quadmap.planar_map import load_map
from quadmap.schaeffer import _glued_arrays


def test_enumerate_counts(capsys):
    assert main(["enumerate", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "2,labeled_trees,18" in out
    assert "2,rooted_quads,9" in out


def test_enumerate_at_the_listing_bound(capsys):
    assert main(["enumerate", "--n", "6"]) == 0
    assert capsys.readouterr().out == (
        "n,kind,count\n"
        "6,labeled_trees,96228\n"
        "6,plane_trees,132\n"
        "6,rooted_quads,24057\n"
        "6,well_labeled,24057\n"
    )


def test_sample_labeled(tmp_path):
    path = tmp_path / "trees.txt"
    assert main(
        ["sample", "--kind", "labeled", "--n", "4", "--count", "3",
         "--seed", "1", "--output", str(path)]
    ) == 0
    blocks = path.read_text().strip().split("\n\n")
    assert len(blocks) == 3
    for block in blocks:
        enc = Encoding.from_lines(block)
        assert enc.n == 4


def test_sample_quadrangulation(tmp_path):
    path = tmp_path / "quads.txt"
    assert main(
        ["sample", "--kind", "rooted-pd", "--n", "5", "--count", "2",
         "--seed", "2", "--output", str(path)]
    ) == 0
    blocks = path.read_text().strip().split("\n\n")
    assert len(blocks) == 2
    for block in blocks:
        q = load_map(block + "\n")
        assert q.map.n_faces == 5


def test_snake_csv(tmp_path):
    path = tmp_path / "snake.csv"
    assert main(["snake", "--m", "16", "--seed", "3", "--output", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "s,f,zeta"
    assert len(lines) == 18


def test_experiment_flags(tmp_path):
    path = tmp_path / "exp.csv"
    assert main(
        ["experiment", "--name", "hp_gap", "--sizes", "32", "64",
         "--replicas", "2", "--seed", "4", "--output", str(path)]
    ) == 0
    text = path.read_text()
    assert "# experiment=hp_gap" in text
    assert "hp_gap,64,1," in text


def test_experiment_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out.csv"
    cfg.write_text(json.dumps({
        "name": "edge_gap", "sizes": [32], "replicas": 2,
        "seed": 5, "output": str(out),
    }))
    assert main(["experiment", "--config", str(cfg)]) == 0
    assert out.read_text().startswith("# experiment=edge_gap")


def test_default_seed_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QUADMAP_SEED", "17")
    assert main(["sample", "--kind", "labeled", "--n", "2", "--count", "1"]) == 0
    first = capsys.readouterr().out
    assert main(["sample", "--kind", "labeled", "--n", "2", "--count", "1"]) == 0
    assert capsys.readouterr().out == first


def test_verify_passes(capsys):
    assert main(["verify", "--max-n", "3"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "checks passed" in out


def test_verify_checks_the_rooted_quad_closed_form(capsys):
    assert main(["verify", "--max-n", "6"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    closed = [words[4:] for words in lines if words[:4] == ["rooted", "quads", "closed", "form"]]
    assert closed == [
        [f"n={n}", "PASS", str(count)]
        for n, count in enumerate([2, 9, 54, 378, 2916, 24057], start=1)
    ]
    assert lines[-1] == ["47/47", "checks", "passed"]


def _swap_two_darts(rotations):
    rot = max(rotations, key=len)  # at least three darts, so the order changes
    rot[0], rot[1] = rot[1], rot[0]
    return rotations


def _repeat_a_dart(rotations):
    rotations[0][0] = rotations[1][0]
    return rotations


def _cut_off_the_root_edge(rotations):
    # darts 0..11 on n + 2 = 5 vertices, the root edge a loop of its own
    return [[0, 1], [2, 3, 4, 5], [6, 7], [8, 9], [10, 11]]


def _swap_two_vertices(rotations):
    # the same map with vertices 1 and 2 numbered the other way round:
    # isomorphic to the chord map, but not equal to it
    rotations[1], rotations[2] = rotations[2], rotations[1]
    return rotations


def _reparent_a_tag(parent):
    """Hang, in the first row that allows it, the first tag k that can be
    hung from a tag j < k at its parent's depth that is no ancestor-or-self
    of tag k - 1, from the least such j; depths stay as they were."""

    def line(row, t):  # t and its ancestors, the root (-1) last
        return [t] + line(row, row[t]) if t >= 0 else [-1]

    for row in parent:
        for k in range(1, row.size):
            depth = len(line(row, row[k]))
            j = next(
                (j for j in range(k) if len(line(row, j)) == depth and j not in line(row, k - 1)),
                None,
            )
            if j is not None:
                row[k] = j
                return parent
    raise AssertionError("no tag of the slice can be hung elsewhere at the same depth")


@pytest.mark.parametrize(
    "corrupt",
    [_swap_two_darts, _repeat_a_dart, _cut_off_the_root_edge, _swap_two_vertices, _reparent_a_tag],
)
def test_verify_reports_a_bad_gluing_as_a_fail_line(corrupt, monkeypatch, capsys):
    corrupted = []

    def glue(parent, walk):
        if walk.shape[1] != 7 or corrupted:  # corrupt one object of size 3
            return _glued_arrays(parent, walk)
        corrupted.append(True)
        if corrupt is _reparent_a_tag:
            return _glued_arrays(_reparent_a_tag(parent.copy()), walk)
        flat, sizes, depth, nested = _glued_arrays(parent, walk)
        ends = np.cumsum(sizes[:5])  # the first object's n + 2 = 5 vertices
        rotations = corrupt([flat[a:b].tolist() for a, b in zip(ends - sizes[:5], ends)])
        flat = np.concatenate((list(itertools.chain(*rotations)), flat[ends[-1]:]))
        sizes = np.concatenate(([len(rot) for rot in rotations], sizes[5:]))
        return flat, sizes, depth, nested

    monkeypatch.setattr(cli, "_glued_arrays", glue)
    assert main(["verify", "--max-n", "3"]) == 1
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    gluing = [words[-1] for words in lines if words[:3] == ["gluing", "and", "metrics"]]
    assert gluing == ["PASS", "PASS", "FAIL"]
    assert corrupted


def test_verify_reports_laws_that_do_not_sum_to_one_as_a_fail_line(monkeypatch, capsys):
    def halved(code, degree, p_d):  # law_tables' rooted rows then sum to one half
        return RootedLaw(code, degree, p_d / 2)

    monkeypatch.setattr(enumeration, "RootedLaw", halved)
    assert main(["verify", "--max-n", "1"]) == 1
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [words[-1] for words in lines if words[:3] == ["laws", "sum", "to"]] == ["FAIL"]


def test_verify_rejects_max_n_above_listing_bound(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--max-n", "7"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "MAX_LISTING_N" in err and "6" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sample", "--kind", "labeled", "--n", "0"], "n must be >= 1"),
        (["snake", "--m", "3"], "m must be even"),
        (["enumerate", "--n", "7"], "exhaustive bound 6"),
        (["experiment", "--config", "{missing}"], "No such file"),
        (
            ["experiment", "--name", "radius", "--sizes", "4", "8", "--grid-m", "3",
             "--replicas", "2", "--seed", "1"],
            "even grid_m",
        ),
    ],
)
def test_bad_arguments_are_usage_errors(argv, message, tmp_path, capsys):
    argv = [a.format(missing=tmp_path / "missing.json") for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert message in err and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--kind", "labeled", "--n", "2", "--count", "-2"],
        ["snake", "--m", "4", "--count", "0"],
    ],
)
def test_counts_below_one_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert "--count must be >= 1" in err and out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("config, key", [('"outptu": "x.csv"', "outptu"), ('"grid-m": 4', "grid-m")])
def test_config_files_with_unknown_keys_are_usage_errors(config, key, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text('{"name": "radius", "sizes": [4, 8], "replicas": 2, "seed": 1, ' + config + "}")
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--config", str(path)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert f"unknown keys '{key}'" in err and out == ""
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "config, field",
    [
        ('"sizes": "48"', "sizes"),
        ('"sizes": [4.5]', "sizes"),
        ('"replicas": 2.5', "replicas"),
        ('"replicas": Infinity', "replicas"),
        ('"seed": true', "seed"),
    ],
)
def test_malformed_config_files_are_usage_errors(config, field, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    good = '"name": "hp_gap", "sizes": [4, 8], "replicas": 2, "seed": 1'
    path.write_text("{" + good + ", " + config + "}")  # the later key wins
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--config", str(path)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert field in err and "Traceback" not in err and out == ""


def test_experiment_requires_name():
    with pytest.raises(SystemExit):
        main(["experiment"])


def test_experiment_config_excludes_the_other_flags(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "c.json"
    path.write_text('{"name": "hp_gap", "sizes": [16], "replicas": 2, "seed": 1}')
    argv = ["experiment", "--config", str(path), "-o", "out.csv", "--seed", "5", "--replicas", "9"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert "--config cannot be combined with --replicas, --seed, --output" in err and out == ""
    assert list(tmp_path.iterdir()) == [path]
    assert main(["experiment", "--config", str(path)]) == 0
    alone = capsys.readouterr().out
    flags = ["--name", "hp_gap", "--sizes", "16", "--replicas", "2", "--seed", "1"]
    assert main(["experiment", *flags]) == 0
    assert alone == capsys.readouterr().out
    assert "# experiment=hp_gap" in alone and "replicas=2" in alone


def test_snake_count_above_one_to_stdout_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["snake", "--m", "4", "--count", "2", "-o", "-"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert "--count must be 1" in err and out == ""
    assert list(tmp_path.iterdir()) == []
