"""Matrix Market files and benchmark-model manifests."""

from __future__ import annotations

import io
import json
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse as sps

from .errors import DimensionMismatch, IoError, ParseError, UnsupportedField
from .model import StateSpaceModel, make_model

#: Directories listed here (os.pathsep separated) are searched for manifests.
MANIFEST_PATH_VAR = "H2MOR_MANIFEST_PATH"
#: Benchmark matrix files are resolved against this directory when set.
DATA_DIR_VAR = "H2MOR_BENCH_DATA"

_BUNDLED = Path(__file__).parent / "manifests"
#: A model's matrices, as named in manifests and ROM directories; E and D may be absent.
_MATRICES = ("A", "E", "B", "C", "D")
_OPTIONAL = ("E", "D")
#: The size line of each Matrix Market format.
_SIZE_LINE = {"coordinate": "rows cols nnz", "array": "rows cols"}
#: The tokens of a coordinate entry line, and the columns numpy parses them into.
_ENTRY = ("row index", "column index", "value")
_ENTRY_DTYPE = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def load_matrix_market(path) -> sps.csr_matrix:
    """Read a real Matrix Market file (coordinate or array, general or symmetric).

    Symmetric storage is expanded, 1-based indices converted, duplicate
    entries summed.  Complex, pattern, hermitian and skew-symmetric files are
    rejected with :class:`UnsupportedField`; malformed content (data past
    the declared count too) raises :class:`ParseError` naming the line.

    Only the header and size line are read line by line.  numpy parses the
    body in one pass; when it refuses the body, or the parsed count or an
    index is wrong, :func:`_scan_body` reads it again line by line to name
    the bad line (a whole-line comment in the body takes that path too).
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if not text:
        raise ParseError(f"{path}: line 1: empty file")
    lines = _lines(text)

    _, first, end = next(lines)
    header = first.split()
    if len(header) != 5 or header[0] != "%%MatrixMarket" or header[1].lower() != "matrix":
        raise ParseError(f"{path}: line 1: not a MatrixMarket matrix header")
    fmt, field, symmetry = (h.lower() for h in header[2:5])
    if fmt not in _SIZE_LINE:
        raise ParseError(f"{path}: line 1: unknown format '{fmt}'")
    if field not in ("real", "integer"):
        raise UnsupportedField(f"{path}: field '{field}' not supported (real/integer only)")
    if symmetry not in ("general", "symmetric"):
        raise UnsupportedField(f"{path}: symmetry '{symmetry}' not supported")

    # the first line after the header that is neither blank nor a comment
    ln = 1
    for ln, line, end in lines:
        if (s := line.strip()) and not s.startswith("%"):
            size = s.split()
            break
    else:
        raise ParseError(f"{path}: line {ln + 1}: missing size line")
    if len(size) != len(_SIZE_LINE[fmt].split()):
        raise ParseError(f"{path}: line {ln}: {fmt} size line needs '{_SIZE_LINE[fmt]}'")
    dims = [_number(path, tok, ln, what, int)
            for tok, what in zip(size, ("row count", "column count", "entry count"))]
    if min(dims) < 0:
        raise ParseError(f"{path}: line {ln}: negative size in '{' '.join(size)}'")
    nrows, ncols = dims[:2]
    if max(nrows, ncols) > np.iinfo(np.int64).max:
        raise ParseError(f"{path}: line {ln}: dimension beyond int64 in '{' '.join(size)}'")
    if symmetry == "symmetric" and nrows != ncols:
        raise ParseError(f"{path}: line {ln}: symmetric {fmt} must be square")
    body = text[end:]

    if fmt == "coordinate":
        nnz = dims[2]
        entries = _bulk(io.StringIO(body), _ENTRY_DTYPE)
        if entries is None or not _fits(entries, nnz, nrows, ncols):
            entries = _scan_body(path, body, ln + 1, fmt, nnz, nrows, ncols)
    else:
        # array format: dense column-major values
        expected = nrows * ncols if symmetry == "general" else nrows * (nrows + 1) // 2
        vals = _bulk(body.split(), np.float64)
        if vals is None or len(vals) != expected:
            vals = _scan_body(path, body, ln + 1, fmt, expected)

    # numpy or scipy raise these when the declared shape is too large to hold
    try:
        if fmt == "coordinate":
            i, j, v = (entries[key] for key in _ENTRY_DTYPE.names)
            if symmetry == "symmetric":
                i, j, v = _mirror(i, j, v)
            M = sps.coo_matrix((v, (i - 1, j - 1)), shape=(nrows, ncols))
            return M.tocsr()    # conversion sums duplicates
        M = np.zeros((nrows, ncols))
        if symmetry == "general":
            cols, rows = np.divmod(np.arange(nrows * ncols), nrows)
            M[rows, cols] = vals
        else:
            cols, rows = np.triu_indices(nrows)     # the lower triangle, column by column
            M[rows, cols] = vals
            M[cols, rows] = vals
        return sps.csr_matrix(M)
    except (ValueError, MemoryError) as exc:
        raise ParseError(f"{path}: line {ln}: cannot hold a matrix of size "
                         f"'{' '.join(size)}': {exc}") from exc


def _lines(text):
    """Yield (line number, line, offset past its end) of ``text``; lines end at LF."""
    pos, lineno = 0, 1
    while pos < len(text):
        stop = text.find("\n", pos)
        stop = len(text) if stop < 0 else stop
        yield lineno, text[pos:stop], stop + 1
        pos, lineno = stop + 1, lineno + 1


def _number(path, tok, lineno, what, kind=float):
    """``kind(tok)``, or a ParseError naming the line and the token.

    Python's int and float accept PEP 515 digit separators ('1_0');
    Matrix Market has none, so a token with '_' is refused.
    """
    try:
        if "_" in tok:
            raise ValueError(tok)
        return kind(tok)
    except ValueError:
        raise ParseError(f"{path}: line {lineno}: bad {what} '{tok}'") from None


def _bulk(source, dtype):
    """``source``, a body or its tokens, parsed by one np.loadtxt call; None if refused.

    Warnings are errors: numpy before 2.0 only warns on a float such as
    '1.0' in an integer column, and numpy warns on a body without data.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(source, dtype=dtype, comments=None, ndmin=1)
        except (ValueError, Warning):
            return None


def _fits(entries, nnz, nrows, ncols) -> bool:
    """True when the parsed coordinate entries match the declared count and shape."""
    i, j = entries["i"], entries["j"]
    return len(entries) == nnz and (nnz == 0 or bool(
        i.min() >= 1 and i.max() <= nrows and j.min() >= 1 and j.max() <= ncols))


def _scan_body(path, body: str, first: int, fmt, count, nrows=0, ncols=0):
    """Parse the body, whose first line is line ``first``, line by line.

    Blank and comment lines are skipped.  Raises a ParseError naming the
    first bad line; returns the entries (coordinate) or values (array) when
    no line is bad.
    """
    lines = io.StringIO(body).readlines()
    eof = first + len(lines)
    data = ((lineno, s.split()) for lineno, raw in enumerate(lines, start=first)
            if (s := raw.strip()) and not s.startswith("%"))
    if fmt == "coordinate":
        entries = []
        for lineno, parts in data:
            if len(entries) == count:
                raise ParseError(f"{path}: line {lineno}: more than the {count} declared entries")
            if len(parts) != 3:
                raise ParseError(f"{path}: line {lineno}: expected 'i j value'")
            i, j, v = (_number(path, tok, lineno, what, kind)
                       for tok, what, kind in zip(parts, _ENTRY, (int, int, float)))
            if not (1 <= i <= nrows and 1 <= j <= ncols):
                raise ParseError(f"{path}: line {lineno}: index ({i}, {j}) out of range")
            entries.append((i, j, v))
        if len(entries) != count:
            raise ParseError(f"{path}: line {eof}: unexpected end of file "
                             f"({len(entries)} of {count} entries)")
        return np.array(entries, dtype=_ENTRY_DTYPE)

    vals = []
    for lineno, parts in data:
        vals.extend(_number(path, tok, lineno, "value") for tok in parts)
        if len(vals) > count:
            raise ParseError(f"{path}: line {lineno}: more than the {count} declared values")
    if len(vals) != count:
        raise ParseError(f"{path}: line {eof}: unexpected end of file "
                         f"({len(vals)} of {count} values)")
    return np.array(vals, dtype=np.float64)


def _mirror(i, j, v):
    """Symmetric storage expanded: each off-diagonal entry followed by its mirror image."""
    keep = np.column_stack([np.ones(len(i), dtype=bool), i != j]).ravel()
    return (np.column_stack([i, j]).ravel()[keep], np.column_stack([j, i]).ravel()[keep],
            np.repeat(v, 2)[keep])


def write_text(path, text: str) -> None:
    """Write ``text`` to a file; a failure raises :class:`IoError`."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_matrix_market(matrix, path) -> None:
    """Write a real matrix in coordinate/general format, duplicates summed.

    Values are written by :func:`scipy.io.mmwrite` in their shortest
    round-trip form, so reading the file back gives the matrix exactly.
    """
    M = sps.coo_matrix(matrix)
    M.sum_duplicates()
    path = Path(path)
    try:
        with path.open("wb") as fh:
            scipy.io.mmwrite(fh, M, field="real", symmetry="general")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


@dataclass(frozen=True)
class ModelManifest:
    """Named set of Matrix Market paths plus declared dimensions."""

    name: str
    A: str
    B: str
    C: str
    E: str | None = None    # None means E = I
    D: str | None = None
    n: int = 0
    m: int = 0
    p: int = 0
    notes: str = ""
    base_dir: Path | None = None


def load_manifest(path) -> ModelManifest:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: manifest must be a JSON object")
    for key in ("name", "A", "B", "C", "n", "m", "p"):
        if key not in raw:
            raise ParseError(f"{path}: missing manifest field '{key}'")
    for key in ("name", *_MATRICES):
        value = raw.get(key)
        if not isinstance(value, str) and not (key in _OPTIONAL and value is None):
            raise ParseError(f"{path}: manifest field '{key}' must be a string")
    for key in ("n", "m", "p"):
        if type(raw[key]) is not int:
            raise ParseError(f"{path}: manifest field '{key}' must be an integer")
    return ModelManifest(name=raw["name"], A=raw["A"], B=raw["B"], C=raw["C"],
                         E=raw.get("E"), D=raw.get("D"), n=raw["n"], m=raw["m"], p=raw["p"],
                         notes=raw.get("notes", ""), base_dir=path.parent)


def find_manifest(name: str) -> ModelManifest:
    """Resolve a model name (or direct path) to a manifest.

    Searched in order: a literal path, the current directory, directories in
    $H2MOR_MANIFEST_PATH, the manifests bundled with the package.
    """
    cand = Path(name)
    if cand.suffix == ".json" and cand.exists():
        return load_manifest(cand)
    dirs = [Path.cwd()]
    env = os.environ.get(MANIFEST_PATH_VAR, "")
    dirs += [Path(d) for d in env.split(os.pathsep) if d]
    dirs.append(_BUNDLED)
    for d in dirs:
        p = d / f"{name}.json"
        if p.exists():
            return load_manifest(p)
    known = sorted(q.stem for q in _BUNDLED.glob("*.json"))
    raise IoError(f"no manifest found for '{name}' (bundled: {', '.join(known)})")


def _resolve(path_str: str, base_dir: Path | None, data_dir: Path | None) -> Path:
    p = Path(path_str)
    if p.is_absolute():
        return p
    tried = []
    for root in (data_dir, base_dir, Path.cwd()):
        if root is None:
            continue
        cand = root / p
        tried.append(str(cand))
        if cand.exists():
            return cand
    raise IoError(f"matrix file '{path_str}' not found (tried: {', '.join(tried)})")


def _manifest_files(manifest: ModelManifest, data_dir=None) -> dict:
    """Resolved paths of a manifest's matrix files, keyed by matrix name.

    See :func:`load_model` for the search order; an absent or empty E or D
    is left out.
    """
    if data_dir is None:
        data_dir = os.environ.get(DATA_DIR_VAR) or None
    data_dir = None if data_dir is None else Path(data_dir)
    return {key: _resolve(getattr(manifest, key), manifest.base_dir, data_dir)
            for key in _MATRICES if key not in _OPTIONAL or getattr(manifest, key)}


def _assemble(files: dict) -> StateSpaceModel:
    """``make_model`` from the Matrix Market files in ``files``; E and D may be absent."""
    mats = {key: load_matrix_market(path) for key, path in files.items()}
    B, C, D = (mats[key].toarray() if key in mats else None for key in "BCD")
    return make_model(mats.get("E"), mats["A"], B, C, D)


def load_model(manifest: ModelManifest, data_dir=None) -> StateSpaceModel:
    """Assemble a validated model from a manifest.

    Relative matrix paths resolve against ``data_dir`` (default: the
    $H2MOR_BENCH_DATA directory), then the manifest's own directory.
    """
    model = _assemble(_manifest_files(manifest, data_dir))
    declared = (manifest.n, manifest.m, manifest.p)
    if (model.n, model.m, model.p) != declared:
        raise DimensionMismatch(
            f"manifest '{manifest.name}' declares (n, m, p) = {declared}, "
            f"files give {(model.n, model.m, model.p)}")
    return model


def save_rom_dir(model: StateSpaceModel, directory) -> None:
    """Write a model's matrices as Matrix Market files rom_{E,A,B,C,D}.mtx."""
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot write {directory}: {exc}") from exc
    for key in _MATRICES:
        write_matrix_market(getattr(model, key), directory / f"rom_{key}.mtx")


def load_rom_dir(directory) -> StateSpaceModel:
    """Load a model previously written by :func:`save_rom_dir`; rom_D.mtx may be absent."""
    files = {key: Path(directory) / f"rom_{key}.mtx" for key in _MATRICES}
    return _assemble({key: path for key, path in files.items()
                      if key != "D" or path.exists()})


def benchmark_files_available(name: str, data_dir=None) -> bool:
    """True when every matrix file of the named bundled manifest resolves."""
    try:
        _manifest_files(find_manifest(name), data_dir)
    except IoError:
        return False
    return True
