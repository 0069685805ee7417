"""Tests of triple-file I/O."""

import pytest

from repro.exceptions import DatasetError
from repro.sparse import read_triples, write_triples


class TestTripleIO:
    def test_round_trip(self, tiny_matrix, tmp_path):
        path = tmp_path / "ratings.txt"
        write_triples(tiny_matrix, path)
        loaded = read_triples(path, shape=tiny_matrix.shape)
        assert loaded == tiny_matrix

    def test_round_trip_one_based(self, tiny_matrix, tmp_path):
        path = tmp_path / "ratings_1based.txt"
        write_triples(tiny_matrix, path, one_based=True)
        loaded = read_triples(path, one_based=True, shape=tiny_matrix.shape)
        assert loaded == tiny_matrix

    def test_comma_delimiter_and_extra_fields(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text("1,2,3.5,978300760\n2,1,4.0,978300761\n")
        loaded = read_triples(path, delimiter=",", one_based=True)
        assert loaded.nnz == 2
        assert loaded.vals.tolist() == [3.5, 4.0]

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "ratings.txt"
        path.write_text("# header\n\n0 0 1.0\n% matrix market style\n1 1 2.0\n")
        loaded = read_triples(path)
        assert loaded.nnz == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            read_triples(tmp_path / "absent.txt")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(DatasetError):
            read_triples(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0\n")
        with pytest.raises(DatasetError):
            read_triples(path)

    def test_unparseable_value(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0 abc\n")
        with pytest.raises(DatasetError):
            read_triples(path)

