"""The shared table and archive layouts: round trips, and loaders that name the file
(and a table's line)."""

import re

import numpy as np
import pytest
import scipy.sparse as sp
import yaml

from walkrec.cli import main
from walkrec.confidence import ConfidenceMatrix, load_confidence, save_confidence
from walkrec.datasets import (Dataset, load_dataset, load_interactions, save_dataset,
                              save_interactions)
from walkrec.factorization import AlsConfig, FactorModel, load_model, save_model
from walkrec.pairs import PairCorpusStats, load_stats, save_stats
from walkrec.recommend import RankedList, load_recommendations, save_recommendations
from walkrec.tables import format_header, parse_header, read_table, write_table
from walkrec.walks import load_walks

STATS = PairCorpusStats(sp.csr_matrix(np.array([[0, 2, 1], [3, 0, 0]], dtype=np.int64)))
CONF = ConfidenceMatrix(sp.csr_matrix(np.array([[0.0, 1 / 3, 2.0], [1e-300, 0.0, 0.0]])),
                        measure="pmi", shift_k=1.5)
MODEL = FactorModel(np.arange(6.0).reshape(3, 2), np.full((4, 2), 1 / 3), [2.5, 1.0])

# file -> (writer of a valid archive, its loader, kind of archive)
ARCHIVES = {
    "pair_stats.npz": (lambda p: save_stats(STATS, p), load_stats, "pair-count"),
    "confidence.npz": (lambda p: save_confidence(CONF, p), load_confidence, "confidence"),
}
MATRIX = ("data", "indices", "indptr", "shape")  # stored as [[0, x, y], [z, 0, 0]]
BAD_LAYOUT = "data .* is not .*, integer and two integers"
MALFORMED_CSR = "malformed sparse matrix"
OUT_OF_ORDER = "a row's entries are out of order or repeat"
NOT_POSITIVE = r"entry \(\d+, \d+\) value .* is not finite and positive"
# (file, replaced members, a member None to drop it, and what the error must say)
CORRUPT = [
    *[(name, {member: None}, rf"unreadable {kind} archive: '{member} ")
      for name, (_, _, kind) in ARCHIVES.items()
      for member in MATRIX + (("measure", "shift_k") if name == "confidence.npz" else ())],
    ("pair_stats.npz", {"data": np.array([2, 1, 3], dtype=np.int32)}, BAD_LAYOUT),
    ("pair_stats.npz", {"data": np.array([2.0, 1.0, 3.0])}, BAD_LAYOUT),
    ("confidence.npz", {"data": np.array([1, 2, 3])}, BAD_LAYOUT),
    ("confidence.npz", {"data": np.array([0.5, 2.0, 1.0], dtype=np.float32)}, BAD_LAYOUT),
    *[(name, {"shape": shape}, BAD_LAYOUT) for name in ARCHIVES
      for shape in (np.array([2]), np.array([2, 3, 1]), np.array(2), np.array([2.0, 3.0]))],
    ("pair_stats.npz", {"indices": np.array([1.0, 2.0, 0.0])}, BAD_LAYOUT),
    ("pair_stats.npz", {"indptr": np.array([0.0, 2.0, 3.0])}, BAD_LAYOUT),
    ("pair_stats.npz", {"indices": np.array([1, 3, 0])}, MALFORMED_CSR),  # item 3 of 3
    ("confidence.npz", {"indices": np.array([1, 2, -1])}, MALFORMED_CSR),
    ("pair_stats.npz", {"shape": np.array([1, 3])}, MALFORMED_CSR),  # user 1 of 1
    ("pair_stats.npz", {"indptr": np.array([0, 3])}, MALFORMED_CSR),
    ("pair_stats.npz", {"indptr": np.array([0, 3, 2])}, MALFORMED_CSR),
    ("pair_stats.npz", {"data": np.array([2, 1, 3, 4]), "indices": np.array([1, 2, 0, 1])},
     MALFORMED_CSR),  # a value past the last row
    ("confidence.npz", {"shape": np.array([-2, 3])}, MALFORMED_CSR),
    ("pair_stats.npz", {"indices": np.array([2, 1, 0])}, OUT_OF_ORDER),
    ("confidence.npz", {"indices": np.array([1, 1, 0])}, OUT_OF_ORDER),
    ("pair_stats.npz", {"data": np.array([2, 0, 3])}, NOT_POSITIVE),
    ("pair_stats.npz", {"data": np.array([2, 1, -3])}, NOT_POSITIVE),
    *[("confidence.npz", {"data": np.array([0.5, bad, 1.0])}, NOT_POSITIVE)
      for bad in (0.0, -1.0, np.nan, np.inf, -np.inf)],
    ("confidence.npz", {"measure": np.array("svd")}, "unknown measure 'svd'"),
    ("confidence.npz", {"measure": np.array(["pmi"])}, "unknown measure"),
    ("confidence.npz", {"measure": np.array(b"pmi")}, "unknown measure"),
    ("confidence.npz", {"measure": np.array(1)}, "unknown measure"),
    ("confidence.npz", {"shift_k": np.array([1.5])}, "shift_k float64 .* is not one float64"),
    ("confidence.npz", {"shift_k": np.array(1)}, "shift_k int64 .* is not one float64"),
]

# (file, text, line the error must name)
MALFORMED = [
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
    ("train.tsv", "0\t0\n0\t0\n1\t1\n", 2),  # repeated pair
    ("valid.tsv", "1\t0\n0\t1\n1\t0\n", 3),  # repeated pair, not adjacent
    ("interactions.tsv", "a\tx\na\tx\nb\ty\n", 2),  # repeated pair
    ("interactions.tsv", "a\tx\nb\ty\na\tx\n", 3),  # repeated pair, not adjacent
]

LOADERS = {
    "recommendations.tsv": lambda path: load_recommendations(path, 2),
    "interactions.tsv": load_interactions,
    **{f"{name}.tsv": lambda path: load_dataset(path.parent)
       for name in ("train", "valid", "test", "users", "items")},
}


def small_dataset():
    return Dataset(["a", "b"], ["x", "y"],
                   train={(0, 0), (1, 1)}, valid={(0, 1)}, test=set())


@pytest.mark.parametrize("name,text,line", MALFORMED)
def test_malformed_artifact_names_file_and_line(tmp_path, name, text, line):
    save_dataset(small_dataset(), tmp_path)  # a dataset file's siblings stay valid
    (tmp_path / name).write_text(text)
    with pytest.raises(ValueError, match=rf"{re.escape(name)}: line {line}: "):
        LOADERS[name](tmp_path / name)


@pytest.mark.parametrize("name", ARCHIVES)
def test_every_truncation_of_an_archive_names_the_file(tmp_path, name):
    save, load, kind = ARCHIVES[name]
    path = tmp_path / name
    save(path)
    whole = path.read_bytes()
    for keep in range(len(whole)):
        path.write_bytes(whole[:keep])
        with pytest.raises(ValueError, match=rf"{re.escape(name)}: unreadable {kind} archive"):
            load(path)


@pytest.mark.parametrize("name,edits,problem", CORRUPT)
def test_corrupt_archive_names_the_file(tmp_path, name, edits, problem):
    save, load, _ = ARCHIVES[name]
    path = tmp_path / name
    save(path)
    with np.load(path) as saved:
        arrays = {k: saved[k] for k in saved.files}
    for member, value in edits.items():
        arrays[member] = value
    np.savez(path, **{k: v for k, v in arrays.items() if v is not None})
    with pytest.raises(ValueError, match=rf"{re.escape(name)}: {problem}"):
        load(path)


def csr_parts(matrix):
    return [(a.dtype, a.tolist()) for a in (matrix.data, matrix.indices, matrix.indptr)]


def test_archives_round_trip_at_a_path_without_the_suffix(tmp_path):
    path = tmp_path / "artifact.bin"  # np.savez given this name would write artifact.bin.npz
    save_stats(STATS, path)
    assert list(tmp_path.iterdir()) == [path]
    assert csr_parts(load_stats(path).pair_count) == csr_parts(STATS.pair_count)
    save_confidence(CONF, path)
    back = load_confidence(path)
    assert csr_parts(back.matrix) == csr_parts(CONF.matrix)
    assert (back.measure, back.shift_k) == ("pmi", 1.5)
    save_model(MODEL, AlsConfig(factors=2), path)
    assert list(tmp_path.iterdir()) == [path]
    model, _ = load_model(path)
    assert np.array_equal(model.X, MODEL.X) and np.array_equal(model.Y, MODEL.Y)
    assert model.loss_trace == MODEL.loss_trace


def test_walk_count_that_is_no_number_names_the_corpus(tmp_path):
    path = tmp_path / "walks.txt"
    path.write_text("# users=2 items=2 walks=x\nu0 i0\n")
    with pytest.raises(ValueError, match=r"walks\.txt: header says walks=x, file has 1 walks"):
        load_walks(path)


def test_truncated_stats_archive_fails_confidence_stage(tmp_path, capsys):
    work = tmp_path / "work"
    work.mkdir()
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump({"data": {"synthetic": {}}, "work_dir": str(work)}))
    save_stats(STATS, work / "pair_stats.npz")
    (work / "pair_stats.npz").write_bytes((work / "pair_stats.npz").read_bytes()[:-1])
    assert main(["-c", str(cfg), "confidence"]) == 1
    err = capsys.readouterr().err
    assert "pair_stats.npz: unreadable pair-count archive" in err
    assert not (work / "confidence.npz").exists()


def test_non_finite_confidence_fails_validation():
    for bad in (np.nan, np.inf):
        conf = ConfidenceMatrix(sp.csr_matrix(np.array([[0.5, bad]])), measure="pmi")
        with pytest.raises(ValueError, match="finite and positive"):
            conf.validate()


def test_table_round_trip(tmp_path):
    path = tmp_path / "t.tsv"
    cols = (np.array([3, -1, 0]), [" lead", "#hash", "x y "], np.array([0.1, 1e300, -2.5]))
    write_table(path, ("%d", "%s", "%.17g"), cols)
    assert path.read_text() == ("3\t lead\t0.10000000000000001\n"
                                "-1\t#hash\t1.0000000000000001e+300\n0\tx y \t-2.5\n")
    back = read_table(path, (np.int64, object, np.float64))
    assert np.array_equal(back[0], cols[0]) and back[1].tolist() == cols[1]
    assert np.array_equal(back[2], cols[2])


def test_empty_body_reads_as_empty_columns(tmp_path):
    path = tmp_path / "t.tsv"
    write_table(path, ("%d", "%.17g"), ([], []))
    assert path.read_bytes() == b""
    a, b = read_table(path, (np.int64, np.float64))
    assert a.dtype == np.int64 and b.dtype == np.float64 and len(a) == len(b) == 0


def test_dataset_with_empty_split_round_trips(tmp_path):
    save_dataset(small_dataset(), tmp_path / "a")
    assert (tmp_path / "a" / "test.tsv").read_bytes() == b""
    back = load_dataset(tmp_path / "a")
    assert back.test.shape == (0, 2) and back.valid.tolist() == [[0, 1]]
    save_dataset(back, tmp_path / "b")
    for name in ("train", "valid", "test", "users", "items"):
        assert ((tmp_path / "a" / f"{name}.tsv").read_bytes()
                == (tmp_path / "b" / f"{name}.tsv").read_bytes())


def test_artifacts_round_trip_byte_for_byte(tmp_path):
    recs = [RankedList(0, [(2, 0.5), (0, 1 / 7)]), RankedList(1, []), RankedList(2, [(1, -3.0)])]
    artifacts = [
        (lambda p: save_stats(STATS, p), lambda p: save_stats(load_stats(p), p)),
        (lambda p: save_confidence(CONF, p), lambda p: save_confidence(load_confidence(p), p)),
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
