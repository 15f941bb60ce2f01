"""The shared table layout: round trips, and loaders that name the file and line."""

import re

import numpy as np
import pytest
import scipy.sparse as sp
import yaml

from walkrec.cli import main
from walkrec.confidence import ConfidenceMatrix, load_confidence, save_confidence
from walkrec.datasets import (Dataset, IdMap, load_dataset, load_interactions, save_dataset,
                              save_interactions)
from walkrec.pairs import PairCorpusStats, load_stats, save_stats
from walkrec.recommend import RankedList, load_recommendations, save_recommendations
from walkrec.tables import format_header, parse_header, read_table, write_table
from walkrec.walks import load_walks

STATS = "# users=2 items=2 total=2\n"
CONF = "# users=2 items=2 measure=pmi shift_k=1\n"

# (file, text, line the error must name)
MALFORMED = [
    ("pair_stats.tsv", STATS + "0\t0\t1\n1\t1\n", 3),  # truncated row
    ("pair_stats.tsv", STATS + "0\t0\t1\n1\t1\t1\t1\n", 3),  # extra field
    ("pair_stats.tsv", STATS + "0\tx\t1\n1\t1\t1\n", 2),  # non-number
    ("pair_stats.tsv", STATS + "0\t0\t1\n5\t1\t1\n", 3),  # user out of range
    ("pair_stats.tsv", STATS + "0\t0\t1\n1\t2\t1\n", 3),  # item out of range
    ("pair_stats.tsv", STATS + "0\t0\t3\n1\t1\t-1\n", 3),  # negative count
    ("pair_stats.tsv", STATS + "0\t0\t2\n1\t1\t0\n", 3),  # zero count
    ("pair_stats.tsv", STATS + "1\t1\t1\n1\t1\t1\n", 3),  # duplicate row
    ("pair_stats.tsv", STATS + "0\t0\t1\n\n1\t1\t1\n", 3),  # blank line
    ("pair_stats.tsv", "# users=2 items=2\n0\t0\t1\n", 1),  # header lacks total
    ("pair_stats.tsv", "# users=2 items=two total=1\n0\t0\t1\n", 1),  # bad header value
    ("pair_stats.tsv", "0\t0\t1\n", 1),  # no header
    ("pair_stats.tsv", "# users=2 items=2 total=5\n0\t0\t1\n", 1),  # header total
    ("confidence.tsv", CONF + "0\t0\t0.5\n1\t1\tnan\n", 3),  # NaN confidence
    ("confidence.tsv", CONF + "0\t0\tinf\n", 2),  # infinite confidence
    ("confidence.tsv", CONF + "0\t0\t0.5\n1\t1\t0\n", 3),  # zero confidence
    ("confidence.tsv", CONF + "0\t0\t0.5\n0\t0\t0.5\n", 3),  # duplicate row
    ("confidence.tsv", CONF + "0\t-1\t0.5\n", 2),  # negative index
    ("confidence.tsv", CONF + "0\t0\t0.5x\n", 2),  # non-number
    ("confidence.tsv", "# users=2 items=2 measure=pmi\n0\t0\t0.5\n", 1),  # no shift_k
    ("confidence.tsv", "# users=2 items=2 measure=svd shift_k=1\n", 1),  # unknown measure
    ("recommendations.tsv", "0\t1\t3\t0.5\n0\t2\t1\n", 2),  # truncated row
    ("recommendations.tsv", "0\t1\t3\tx\n", 1),  # non-number
    ("recommendations.tsv", "0\t1\t3\t0.5\n2\t1\t0\t0.5\n", 2),  # user out of range
    ("recommendations.tsv", "0\t1\t3\t0.5\n1\t1\t2\t0.5\n0\t3\t1\t0.4\n", 3),  # ranks
    ("interactions.tsv", "a\tx\nb\ty\tz\n", 2),  # extra field
    ("interactions.tsv", "a\tx\n\ty\n", 2),  # empty key
    ("interactions.tsv", "a\tx\n\nb\ty\n", 2),  # blank line
    ("train.tsv", "0\t0\n1\t1.5\n", 2),  # non-number
    ("train.tsv", "0\t0\n1\t2\n", 2),  # item out of range
    ("valid.tsv", "-1\t1\n", 1),  # negative user
    ("test.tsv", "0\n", 1),  # missing field
    ("users.tsv", "0\ta\n2\tb\n", 2),  # non-contiguous map index
    ("users.tsv", "0\ta\n1\ta\n", 2),  # repeated key
    ("items.tsv", "0\tx\n1\ty\tz\n", 2),  # extra field
]

LOADERS = {
    "pair_stats.tsv": load_stats,
    "confidence.tsv": load_confidence,
    "recommendations.tsv": lambda path: load_recommendations(path, 2),
    "interactions.tsv": load_interactions,
    **{f"{name}.tsv": lambda path: load_dataset(path.parent)
       for name in ("train", "valid", "test", "users", "items")},
}


def small_dataset():
    return Dataset(IdMap.from_keys(["a", "b"]), IdMap.from_keys(["x", "y"]),
                   train={(0, 0), (1, 1)}, valid={(0, 1)}, test=set())


@pytest.mark.parametrize("name,text,line", MALFORMED)
def test_malformed_artifact_names_file_and_line(tmp_path, name, text, line):
    save_dataset(small_dataset(), tmp_path)  # a dataset file's siblings stay valid
    (tmp_path / name).write_text(text)
    with pytest.raises(ValueError, match=rf"{re.escape(name)}: line {line}: "):
        LOADERS[name](tmp_path / name)


def test_walk_count_that_is_no_number_names_the_corpus(tmp_path):
    path = tmp_path / "walks.txt"
    path.write_text("# users=2 items=2 walks=x\nu0 i0\n")
    with pytest.raises(ValueError, match=r"walks\.txt: header says walks=x, file has 1 walks"):
        load_walks(path)


def test_truncated_stats_row_fails_confidence_stage(tmp_path, capsys):
    work = tmp_path / "work"
    work.mkdir()
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump({"data": {"synthetic": {}}, "work_dir": str(work)}))
    (work / "pair_stats.tsv").write_text(STATS + "0\t0\t1\n1\t1")
    assert main(["-c", str(cfg), "confidence"]) == 1
    err = capsys.readouterr().err
    assert "pair_stats.tsv: line 3: 2 fields, expected 3" in err
    assert not (work / "confidence.tsv").exists()


def test_non_finite_confidence_fails_validation():
    for bad in (np.nan, np.inf):
        conf = ConfidenceMatrix(sp.csr_matrix(np.array([[0.5, bad]])), measure="pmi")
        with pytest.raises(ValueError, match="finite and positive"):
            conf.validate()


def test_table_round_trip(tmp_path):
    path = tmp_path / "t.tsv"
    cols = (np.array([3, -1, 0]), [" lead", "#hash", "x y "], np.array([0.1, 1e300, -2.5]))
    write_table(path, ("%d", "%s", "%.17g"), cols, {"rows": 3, "name": "t"})
    assert path.read_text() == ("# rows=3 name=t\n3\t lead\t0.10000000000000001\n"
                                "-1\t#hash\t1.0000000000000001e+300\n0\tx y \t-2.5\n")
    header, back = read_table(path, (np.int64, object, np.float64), {"rows": int})
    assert header == {"rows": 3, "name": "t"}
    assert np.array_equal(back[0], cols[0]) and back[1].tolist() == cols[1]
    assert np.array_equal(back[2], cols[2])


def test_empty_body_reads_as_empty_columns(tmp_path):
    path = tmp_path / "t.tsv"
    write_table(path, ("%d", "%.17g"), ([], []), {"users": 0})
    header, (a, b) = read_table(path, (np.int64, np.float64), {"users": int})
    assert header == {"users": 0}
    assert a.dtype == np.int64 and b.dtype == np.float64 and len(a) == len(b) == 0


def test_dataset_with_empty_split_round_trips(tmp_path):
    save_dataset(small_dataset(), tmp_path / "a")
    assert (tmp_path / "a" / "test.tsv").read_bytes() == b""
    back = load_dataset(tmp_path / "a")
    assert back.test == set() and back.valid == {(0, 1)}
    save_dataset(back, tmp_path / "b")
    for name in ("train", "valid", "test", "users", "items"):
        assert ((tmp_path / "a" / f"{name}.tsv").read_bytes()
                == (tmp_path / "b" / f"{name}.tsv").read_bytes())


def test_artifacts_round_trip_byte_for_byte(tmp_path):
    pair = sp.csr_matrix(np.array([[0, 2, 1], [3, 0, 0]], dtype=np.int64))
    stats = PairCorpusStats(pair, np.array([3, 3]), np.array([3, 2, 1]), 6)
    conf = ConfidenceMatrix(sp.csr_matrix(np.array([[0.0, 1 / 3, 2.0], [1e-300, 0.0, 0.0]])),
                            measure="pmi", shift_k=1.5)
    recs = [RankedList(0, [(2, 0.5), (0, 1 / 7)]), RankedList(1, []), RankedList(2, [(1, -3.0)])]
    artifacts = [
        (lambda p: save_stats(stats, p), lambda p: save_stats(load_stats(p), p)),
        (lambda p: save_confidence(conf, p), lambda p: save_confidence(load_confidence(p), p)),
        (lambda p: save_recommendations(recs, p),
         lambda p: save_recommendations(load_recommendations(p, 3), p)),
        (lambda p: save_interactions({("a b", "x"), ("#c", "y")}, p),
         lambda p: save_interactions(load_interactions(p), p)),
    ]
    for save, resave in artifacts:
        path = tmp_path / "artifact.tsv"
        save(path)
        first = path.read_bytes()
        resave(path)
        assert path.read_bytes() == first


def test_field_with_tab_or_line_break_is_not_written(tmp_path):
    for key in ("a\tb", "a\nb", "a\rb"):
        path = tmp_path / "inter.tsv"
        with pytest.raises(ValueError, match="tab or line break"):
            save_interactions({(key, "x")}, path)
        assert not path.exists()


def test_header_round_trip_and_errors():
    line = format_header({"users": 3, "measure": "co"})
    assert line == "# users=3 measure=co\n"
    assert parse_header(line, "f", {"users": int}) == {"users": 3, "measure": "co"}
    with pytest.raises(ValueError, match="f: line 1: header lacks a valid items="):
        parse_header(line, "f", {"items": int})
    with pytest.raises(ValueError, match="f: line 1: missing header"):
        parse_header("0\t1\n", "f", {})
