import json
import warnings

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sps

from h2mor.errors import DimensionMismatch, IoError, ParseError, UnsupportedField
from h2mor.mmio import (
    ModelManifest,
    benchmark_files_available,
    find_manifest,
    load_manifest,
    load_matrix_market,
    load_model,
    load_rom_dir,
    save_rom_dir,
    write_matrix_market,
)

from .helpers import random_stable_model

_COORDINATE = "%%MatrixMarket matrix coordinate real general\n"

#: Files the reader refuses before their body, the error, and its message after the path.
MALFORMED_HEADERS = [
    pytest.param("", ParseError, "line 1: empty file", id="empty"),
    pytest.param("%%MatrixMarket vector coordinate real general\n1 1 1\n1 1 1.0\n",
                 ParseError, "line 1: not a MatrixMarket matrix header", id="not-matrix"),
    pytest.param("%%MatrixMarket matrix sparse real general\n1 1 1\n1 1 1.0\n",
                 ParseError, "line 1: unknown format 'sparse'", id="format-sparse"),
    pytest.param("%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 1.0\n",
                 UnsupportedField, "symmetry 'skew-symmetric' not supported",
                 id="skew-symmetric"),
    pytest.param("%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1.0\n",
                 UnsupportedField, "symmetry 'hermitian' not supported", id="hermitian"),
    pytest.param(f"{_COORDINATE}% only\n\n% comments\n", ParseError,
                 "line 5: missing size line", id="no-size-line"),
    pytest.param(f"{_COORDINATE}2 2\n1 1 1.0\n", ParseError,
                 "line 2: coordinate size line needs 'rows cols nnz'", id="coordinate-size"),
    pytest.param("%%MatrixMarket matrix array real general\n2 1 2\n1.0\n2.0\n", ParseError,
                 "line 2: array size line needs 'rows cols'", id="array-size"),
]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadMatrixMarket:
    def test_minimal_coordinate(self, tmp_path):
        path = write(tmp_path, "d.mtx",
                     "%%MatrixMarket matrix coordinate real general\n"
                     "2 2 2\n1 1 -1.0\n2 2 -2.0\n")
        M = load_matrix_market(path)
        assert np.allclose(M.toarray(), np.diag([-1.0, -2.0]))

    def test_symmetric_expansion_matches_general(self, tmp_path):
        sym = write(tmp_path, "s.mtx",
                    "%%MatrixMarket matrix coordinate real symmetric\n"
                    "3 3 4\n1 1 2.0\n2 1 -1.0\n3 2 0.5\n3 3 1.5\n")
        gen = write(tmp_path, "g.mtx",
                    "%%MatrixMarket matrix coordinate real general\n"
                    "3 3 6\n1 1 2.0\n2 1 -1.0\n1 2 -1.0\n3 2 0.5\n2 3 0.5\n3 3 1.5\n")
        assert np.allclose(load_matrix_market(sym).toarray(),
                           load_matrix_market(gen).toarray())

    def test_truncated_names_line(self, tmp_path):
        path = write(tmp_path, "t.mtx",
                     "%%MatrixMarket matrix coordinate real general\n"
                     "2 2 3\n1 1 -1.0\n")
        with pytest.raises(ParseError, match="line"):
            load_matrix_market(path)

    @pytest.mark.parametrize("fmt, body, line", [
        ("coordinate", "2 2 2\n1 1 -1.0\n2 2 -2.0\n1 2 5.0\n", 5),
        ("array", "2 1\n1.0\n2.0\n3.0\n", 5),
        ("array", "2 1\n1.0 2.0 3.0\n", 3),
    ], ids=["coordinate-extra-entry", "array-extra-line", "array-long-line"])
    def test_data_past_declared_count_names_line(self, tmp_path, fmt, body, line):
        # trailing data is not dropped: the first line past the count is named
        path = write(tmp_path, "x.mtx", f"%%MatrixMarket matrix {fmt} real general\n{body}")
        with pytest.raises(ParseError, match=f"x.mtx: line {line}: more than the 2 declared"):
            load_matrix_market(path)

    def test_bad_value_names_line(self, tmp_path):
        path = write(tmp_path, "b.mtx",
                     "%%MatrixMarket matrix coordinate real general\n"
                     "2 2 1\n1 1 oops\n")
        with pytest.raises(ParseError, match="line 3"):
            load_matrix_market(path)

    def test_complex_rejected(self, tmp_path):
        path = write(tmp_path, "c.mtx",
                     "%%MatrixMarket matrix coordinate complex general\n"
                     "1 1 1\n1 1 1.0 0.0\n")
        with pytest.raises(UnsupportedField):
            load_matrix_market(path)

    def test_pattern_rejected(self, tmp_path):
        path = write(tmp_path, "p.mtx",
                     "%%MatrixMarket matrix coordinate pattern general\n"
                     "1 1 1\n1 1\n")
        with pytest.raises(UnsupportedField):
            load_matrix_market(path)

    def test_duplicates_summed(self, tmp_path):
        path = write(tmp_path, "dup.mtx",
                     "%%MatrixMarket matrix coordinate real general\n"
                     "2 2 3\n1 1 1.0\n1 1 2.0\n2 2 1.0\n")
        M = load_matrix_market(path)
        assert np.allclose(M.toarray(), np.diag([3.0, 1.0]))

    def test_index_out_of_range(self, tmp_path):
        path = write(tmp_path, "oor.mtx",
                     "%%MatrixMarket matrix coordinate real general\n"
                     "2 2 1\n3 1 1.0\n")
        with pytest.raises(ParseError, match="line 3"):
            load_matrix_market(path)

    def test_nonsquare_symmetric_coordinate_names_line(self, tmp_path):
        path = write(tmp_path, "ns.mtx",
                     "%%MatrixMarket matrix coordinate real symmetric\n"
                     "% a comment\n2 1 1\n2 1 2.0\n")
        with pytest.raises(ParseError, match="line 3: symmetric coordinate must be square"):
            load_matrix_market(path)

    @pytest.mark.parametrize("fmt, size", [("array", "-1 0"), ("coordinate", "-1 -1 0"),
                                           ("coordinate", "2 2 -1"), ("array", "2 -3")])
    def test_negative_size_names_file_and_line(self, tmp_path, fmt, size):
        path = write(tmp_path, "neg.mtx",
                     f"%%MatrixMarket matrix {fmt} real general\n{size}\n")
        with pytest.raises(ParseError, match=f"neg.mtx: line 2: negative size in '{size}'"):
            load_matrix_market(path)

    @pytest.mark.parametrize("fmt, size", [("coordinate", "99999999999999999999 2 0"),
                                           ("coordinate", "2 99999999999999999999 0"),
                                           ("array", "99999999999999999999 1")])
    def test_size_beyond_int64_names_file_and_line(self, tmp_path, fmt, size):
        path = write(tmp_path, "big.mtx",
                     f"%%MatrixMarket matrix {fmt} real general\n{size}\n")
        with pytest.raises(ParseError,
                           match=f"big.mtx: line 2: dimension beyond int64 in '{size}'"):
            load_matrix_market(path)

    @pytest.mark.parametrize("fmt, size", [("coordinate", "9223372036854775807 2 0"),
                                           ("array", "9223372036854775807 0")])
    def test_size_too_large_to_hold_names_file_and_line(self, tmp_path, fmt, size):
        # within int64, but scipy or numpy refuse the shape before allocating
        path = write(tmp_path, "huge.mtx",
                     f"%%MatrixMarket matrix {fmt} real general\n{size}\n")
        with pytest.raises(ParseError,
                           match=f"huge.mtx: line 2: cannot hold a matrix of size '{size}'"):
            load_matrix_market(path)

    @pytest.mark.parametrize("fmt, size, body, owner, name", [
        ("coordinate", "3 2 1", "1 1 1.0\n", sps.coo_matrix, "tocsr"),
        ("array", "2 1", "1.0\n2.0\n", sps, "csr_matrix"),
    ], ids=["coordinate", "array"])
    def test_conversion_out_of_memory_names_file_and_line(self, tmp_path, monkeypatch, fmt,
                                                          size, body, owner, name):
        # a row count that fits int64 can still need a CSR index array larger
        # than memory; the conversion is made to fail instead of allocating
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(owner, name, out_of_memory)
        path = write(tmp_path, "rows.mtx",
                     f"%%MatrixMarket matrix {fmt} real general\n{size}\n{body}")
        with pytest.raises(ParseError, match="rows.mtx: line 2: cannot hold a matrix of size "
                                             f"'{size}': Unable to allocate"):
            load_matrix_market(path)

    def test_array_format(self, tmp_path):
        path = write(tmp_path, "a.mtx",
                     "%%MatrixMarket matrix array real general\n"
                     "2 2\n1.0\n3.0\n2.0\n4.0\n")
        M = load_matrix_market(path)
        assert np.allclose(M.toarray(), [[1.0, 2.0], [3.0, 4.0]])   # column-major

    def test_symmetric_array(self, tmp_path):
        path = write(tmp_path, "sa.mtx",
                     "%%MatrixMarket matrix array real symmetric\n"
                     "2 2\n1.0\n2.0\n3.0\n")
        M = load_matrix_market(path)
        assert np.allclose(M.toarray(), [[1.0, 2.0], [2.0, 3.0]])

    def test_array_general_is_column_major(self, tmp_path):
        path = write(tmp_path, "a32.mtx",
                     "%%MatrixMarket matrix array real general\n"
                     "3 2\n1\n2\n3\n4\n5\n6\n")
        assert np.array_equal(load_matrix_market(path).toarray(),
                              [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])

    def test_array_symmetric_fills_both_triangles(self, tmp_path):
        # the lower triangle, column by column
        path = write(tmp_path, "s33.mtx",
                     "%%MatrixMarket matrix array real symmetric\n"
                     "3 3\n1 2 3\n4 5\n6\n")
        assert np.array_equal(load_matrix_market(path).toarray(),
                              [[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])

    def test_comments_skipped(self, tmp_path):
        path = write(tmp_path, "cm.mtx",
                     "%%MatrixMarket matrix coordinate real general\n"
                     "% a comment\n\n"
                     "1 1 1\n% another\n1 1 4.25\n")
        assert load_matrix_market(path).toarray()[0, 0] == 4.25

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load_matrix_market(tmp_path / "nope.mtx")

    @pytest.mark.parametrize("text, error, message", MALFORMED_HEADERS)
    def test_malformed_header_names_file_and_line(self, tmp_path, text, error, message):
        path = write(tmp_path, "h.mtx", text)
        with pytest.raises(error) as info:
            load_matrix_market(path)
        assert str(info.value) == f"{path}: {message}"


def parse_error(path):
    """The message of the ParseError reading ``path`` raises."""
    with pytest.raises(ParseError) as info:
        load_matrix_market(path)
    return str(info.value)


class TestReaderGrammar:
    """What the reader accepts and how it names a bad line, format by format."""

    def test_crlf_and_tabs(self, tmp_path):
        path = tmp_path / "crlf.mtx"
        path.write_bytes(b"%%MatrixMarket matrix coordinate real general\r\n"
                         b"2\t2\t3\r\n1\t1\t-1.5\r\n2 \t1\t0.25\r\n2\t2\t-2.0\r\n")
        assert np.array_equal(load_matrix_market(path).toarray(), [[-1.5, 0.0], [0.25, -2.0]])
        path.write_bytes(b"%%MatrixMarket matrix array real general\r\n"
                         b"2\t1\r\n1.5\t-2\r\n")
        assert np.array_equal(load_matrix_market(path).toarray(), [[1.5], [-2.0]])

    @pytest.mark.parametrize("fmt, body, expected", [
        ("coordinate", "2 2 2\n\n% first\n1 1 1.0\n   \n%second\n2 1 3.0\n% last\n\n",
         [[1.0, 0.0], [3.0, 0.0]]),
        ("array", "2 2\n% first\n1.0 3.0\n\n% second\n2.0\n  \n4.0\n%\n",
         [[1.0, 2.0], [3.0, 4.0]]),
    ], ids=["coordinate", "array"])
    def test_blank_and_comment_lines_in_body(self, tmp_path, fmt, body, expected):
        path = write(tmp_path, "c.mtx", f"%%MatrixMarket matrix {fmt} real general\n{body}")
        assert np.array_equal(load_matrix_market(path).toarray(), expected)

    @pytest.mark.parametrize("brk", ["\v", "\f", "\x1c", "\x85", "\u2028"])
    def test_other_line_separators_refused(self, tmp_path, brk):
        # lines end at "\n" (CRLF and CR are translated on reading) and nowhere else
        path = write(tmp_path, "v.mtx", "%%MatrixMarket matrix coordinate real general\n"
                                        f"2 2 2\n1 1 1.0{brk}2 2 4.0\n")
        assert parse_error(path) == f"{path}: line 3: expected 'i j value'"

    @pytest.mark.parametrize("line", ["2 1", "2 1 3.0 4.0", "2 1 3.0 % trailing"])
    def test_coordinate_line_needs_three_tokens(self, tmp_path, line):
        path = write(tmp_path, "t.mtx", "%%MatrixMarket matrix coordinate real general\n"
                                        f"% c\n2 2 3\n1 1 1.0\n\n{line}\n2 2 1.0\n")
        assert parse_error(path) == f"{path}: line 6: expected 'i j value'"

    @pytest.mark.parametrize("entry, message", [
        ("1.0 1 2.0", "bad row index '1.0'"),
        ("1 1e0 2.0", "bad column index '1e0'"),
        ("1 1 oops", "bad value 'oops'"),
        ("1 1 0x10", "bad value '0x10'"),
        ("1 99999999999999999999 2.0", "index (1, 99999999999999999999) out of range"),
    ])
    def test_bad_token_names_line_and_token(self, tmp_path, entry, message):
        path = write(tmp_path, "b.mtx", "%%MatrixMarket matrix coordinate real general\n"
                                        f"2 2 2\n2 2 1.0\n{entry}\n")
        assert parse_error(path) == f"{path}: line 4: {message}"

    @pytest.mark.parametrize("last", ["3 1 1.0", "1 0 1.0", "0 0 1.0", "-1 2 1.0"])
    def test_out_of_range_index_on_last_line(self, tmp_path, last):
        path = write(tmp_path, "r.mtx", "%%MatrixMarket matrix coordinate real general\n"
                                        f"2 2 3\n1 1 1.0\n2 2 1.0\n{last}")
        i, j = last.split()[:2]
        assert parse_error(path) == f"{path}: line 5: index ({i}, {j}) out of range"

    @pytest.mark.parametrize("fmt, body, message", [
        ("coordinate", "2 2 3\n1 1 1.0\n\n", "line 5: unexpected end of file (1 of 3 entries)"),
        ("coordinate", "2 2 1\n% only a comment\n",
         "line 4: unexpected end of file (0 of 1 entries)"),
        ("array", "2 2\n1.0 2.0\n3.0\n", "line 5: unexpected end of file (3 of 4 values)"),
        ("array", "2 2\n1.0 2.0\n3.0 4.0 5.0\n", "line 4: more than the 4 declared values"),
        ("array", "2 1\n1.0 %2.0\n", "line 3: bad value '%2.0'"),
    ])
    def test_count_and_value_errors_name_line(self, tmp_path, fmt, body, message):
        path = write(tmp_path, "n.mtx", f"%%MatrixMarket matrix {fmt} real general\n{body}")
        assert parse_error(path) == f"{path}: {message}"

    @pytest.mark.parametrize("body", ["3 2 0\n", "3 2 0", "3 2 0\n\n% none\n\n"])
    def test_no_entries_loads_zeros_without_warning(self, tmp_path, body):
        path = write(tmp_path, "z.mtx", f"%%MatrixMarket matrix coordinate real general\n{body}")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            M = load_matrix_market(path)
        assert not caught
        assert M.shape == (3, 2) and M.nnz == 0

    def test_array_several_values_per_line(self, tmp_path):
        path = write(tmp_path, "a.mtx", "%%MatrixMarket matrix array real general\n"
                                        "3 2\n1 2 3\n4\t5\n\n6\n")
        assert np.array_equal(load_matrix_market(path).toarray(),
                              [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])

    def test_symmetric_repeated_off_diagonal_is_summed(self, tmp_path):
        path = write(tmp_path, "s.mtx", "%%MatrixMarket matrix coordinate real symmetric\n"
                                        "3 3 4\n2 1 1.5\n3 3 1.0\n2 1 0.25\n1 1 -1.0\n")
        assert np.array_equal(load_matrix_market(path).toarray(),
                              [[-1.0, 1.75, 0.0], [1.75, 0.0, 0.0], [0.0, 0.0, 1.0]])

    @pytest.mark.parametrize("fmt, body, lineno, token", [
        ("coordinate", "2 2 1\n1_0 1 1.0\n", 3, "row index '1_0'"),
        ("coordinate", "2 2 1\n1 1 1_0.5\n", 3, "value '1_0.5'"),
        ("coordinate", "1_0 10 1\n1 1 1.0\n", 2, "row count '1_0'"),
        ("array", "2 1\n1.0\n2_0\n", 4, "value '2_0'"),
    ])
    def test_digit_separators_rejected(self, tmp_path, fmt, body, lineno, token):
        # Python's int and float accept PEP 515 underscores; Matrix Market has none
        path = write(tmp_path, "u.mtx", f"%%MatrixMarket matrix {fmt} real general\n{body}")
        assert parse_error(path) == f"{path}: line {lineno}: bad {token}"


class TestWriteMatrixMarket:
    def test_roundtrip_identity(self, tmp_path):
        rng = np.random.RandomState(5)
        M = sps.random(20, 20, density=0.2, random_state=rng, format="csr")
        M.data *= np.pi   # exercise full-precision values
        path = tmp_path / "m.mtx"
        write_matrix_market(M, path)
        back = load_matrix_market(path)
        assert (back != M).nnz == 0        # identical sparsity and values
        write_matrix_market(back, tmp_path / "m2.mtx")
        assert (tmp_path / "m2.mtx").read_text() == path.read_text()

    @pytest.mark.parametrize("seed", range(8))
    def test_roundtrip_is_bit_identical_and_matches_scipy(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(4, 40)), int(rng.integers(5, 40)))
        k = int(rng.integers(0, 4 * shape[0]))
        rows = 2 * rng.integers(1, (shape[0] + 1) // 2, k)     # odd rows and row 0 stay empty
        cols = rng.integers(0, shape[1], k)
        vals = rng.standard_normal(k) * 10.0 ** rng.integers(-300, 300, k)
        repeat = rng.integers(0, max(k, 1), k // 3)              # entries given twice or more
        extremes = [5e-324, 1e308, -0.0, -1e308, 2.2250738585072014e-308]
        rows = np.concatenate([rows, rows[repeat], np.zeros(5, dtype=int)])
        cols = np.concatenate([cols, cols[repeat], np.arange(5)])
        vals = np.concatenate([vals, rng.standard_normal(len(repeat)), extremes])
        expected = sps.coo_matrix((vals, (rows, cols)), shape=shape)
        expected.sum_duplicates()           # as the writer sums them
        expected = expected.tocsr()
        path = tmp_path / "r.mtx"
        write_matrix_market(sps.coo_matrix((vals, (rows, cols)), shape=shape), path)
        oracle = scipy.io.mmread(path).tocsr()
        scanned = tmp_path / "s.mtx"      # a comment in the body: read line by line
        scanned.write_text(path.read_text() + "% last line\n")
        for M in (load_matrix_market(path), load_matrix_market(scanned), oracle):
            assert M.shape == shape
            assert np.array_equal(M.indptr, expected.indptr)
            assert np.array_equal(M.indices, expected.indices)
            assert np.array_equal(M.data.view(np.uint64), expected.data.view(np.uint64))

    def test_unwritable_path(self):
        with pytest.raises(IoError):
            write_matrix_market(sps.identity(2), "/nonexistent-dir/x.mtx")


class TestManifests:
    def make_tree(self, tmp_path, n=12, m=2, p=2, with_E=True):
        model = random_stable_model(n, m, p, 42)
        d = tmp_path / "toy"
        d.mkdir()
        write_matrix_market(model.A, d / "A.mtx")
        write_matrix_market(model.B, d / "B.mtx")
        write_matrix_market(model.C, d / "C.mtx")
        manifest = {"name": "toy", "A": "toy/A.mtx", "B": "toy/B.mtx", "C": "toy/C.mtx",
                    "n": n, "m": m, "p": p, "notes": "synthetic"}
        if with_E:
            write_matrix_market(model.E, d / "E.mtx")
            manifest["E"] = "toy/E.mtx"
        path = tmp_path / "toy.json"
        path.write_text(json.dumps(manifest))
        return model, path

    def test_load_model(self, tmp_path):
        model, path = self.make_tree(tmp_path)
        loaded = load_model(load_manifest(path))
        assert (loaded.n, loaded.m, loaded.p) == (12, 2, 2)
        assert np.allclose(loaded.A.toarray(), model.A.toarray())
        assert np.allclose(loaded.E.toarray(), model.E.toarray())

    def test_missing_E_means_identity(self, tmp_path):
        _, path = self.make_tree(tmp_path, with_E=False)
        loaded = load_model(load_manifest(path))
        assert np.allclose(loaded.E.toarray(), np.eye(12))

    def test_empty_E_means_identity(self, tmp_path):
        _, path = self.make_tree(tmp_path, with_E=False)
        raw = json.loads(path.read_text())
        path.write_text(json.dumps({**raw, "E": ""}))
        loaded = load_model(load_manifest(path))
        assert np.array_equal(loaded.E.toarray(), np.eye(12))

    def test_declared_dimension_mismatch(self, tmp_path):
        _, path = self.make_tree(tmp_path)
        raw = json.loads(path.read_text())
        raw["n"] = 99
        path.write_text(json.dumps(raw))
        with pytest.raises(DimensionMismatch):
            load_model(load_manifest(path))

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "A": "x", "B": "y", "C": "z"}))
        with pytest.raises(ParseError):
            load_manifest(path)

    def test_json_syntax_error_names_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "bad",\n "A": ,\n "B": "y"}\n')
        with pytest.raises(ParseError, match=f"^{path}: line 2: Expecting value$"):
            load_manifest(path)

    def test_find_manifest_bundled_and_unknown(self):
        manifest = find_manifest("cdplayer")
        assert manifest.name == "cdplayer"
        assert (manifest.n, manifest.m, manifest.p) == (120, 2, 2)
        beam = find_manifest("beam")
        assert (beam.n, beam.m, beam.p) == (348, 1, 1)
        with pytest.raises(IoError, match="cdplayer"):
            find_manifest("definitely-not-a-model")

    def test_manifest_path_env(self, tmp_path, monkeypatch):
        _, path = self.make_tree(tmp_path)
        monkeypatch.setenv("H2MOR_MANIFEST_PATH", str(tmp_path))
        manifest = find_manifest("toy")
        assert manifest.name == "toy"

    def test_data_dir_resolution(self, tmp_path, monkeypatch):
        _, path = self.make_tree(tmp_path)
        manifest = load_manifest(path)
        moved = ModelManifest(**{**manifest.__dict__, "base_dir": None})
        monkeypatch.setenv("H2MOR_BENCH_DATA", str(tmp_path))
        loaded = load_model(moved)
        assert loaded.n == 12

    def test_benchmark_files_available(self, tmp_path, monkeypatch):
        assert not benchmark_files_available("cdplayer")
        _, path = self.make_tree(tmp_path)
        monkeypatch.setenv("H2MOR_MANIFEST_PATH", str(tmp_path))
        monkeypatch.setenv("H2MOR_BENCH_DATA", str(tmp_path))
        assert benchmark_files_available("toy")


class TestRomDir:
    def test_roundtrip(self, tmp_path):
        model = random_stable_model(6, 2, 1, 77)
        save_rom_dir(model, tmp_path / "rom")
        back = load_rom_dir(tmp_path / "rom")
        assert np.allclose(back.A.toarray(), model.A.toarray())
        assert np.allclose(back.E.toarray(), model.E.toarray())
        assert np.allclose(back.B, model.B)
        assert np.allclose(back.C, model.C)
        assert np.allclose(back.D, model.D)
