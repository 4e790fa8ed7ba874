import json

import pytest

from quadmap.cli import main
from quadmap.labeled import Encoding
from quadmap.planar_map import load_map


def test_enumerate_counts(capsys):
    assert main(["enumerate", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "2,labeled_trees,18" in out
    assert "2,rooted_quads,9" in out


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


def test_verify_rejects_max_n_above_listing_bound(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--max-n", "7"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "MAX_LISTING_N" in err and "6" in err


def test_experiment_requires_name():
    with pytest.raises(SystemExit):
        main(["experiment"])
