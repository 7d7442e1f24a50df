"""Matrix Market files and benchmark-model manifests."""

from __future__ import annotations

import json
import os
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


def load_matrix_market(path) -> sps.csr_matrix:
    """Read a real Matrix Market file (coordinate or array, general or symmetric).

    Symmetric storage is expanded, 1-based indices converted, duplicate
    entries summed.  Complex, pattern, hermitian and skew-symmetric files are
    rejected with :class:`UnsupportedField`; malformed content raises
    :class:`ParseError` naming the offending line.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines:
        raise ParseError(f"{path}: line 1: empty file")

    header = lines[0].split()
    if len(header) != 5 or header[0] != "%%MatrixMarket" or header[1].lower() != "matrix":
        raise ParseError(f"{path}: line 1: not a MatrixMarket matrix header")
    fmt, field, symmetry = (h.lower() for h in header[2:5])
    if fmt not in ("coordinate", "array"):
        raise ParseError(f"{path}: line 1: unknown format '{fmt}'")
    if field not in ("real", "integer"):
        raise UnsupportedField(f"{path}: field '{field}' not supported (real/integer only)")
    if symmetry not in ("general", "symmetric"):
        raise UnsupportedField(f"{path}: symmetry '{symmetry}' not supported")

    # locate the size line, skipping comments/blank lines
    ln = 1
    while ln < len(lines) and (not lines[ln].strip() or lines[ln].lstrip().startswith("%")):
        ln += 1
    if ln >= len(lines):
        raise ParseError(f"{path}: line {ln + 1}: missing size line")
    size_parts = lines[ln].split()

    def _int(tok, lineno, what):
        try:
            return int(tok)
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: bad {what} '{tok}'") from None

    def _float(tok, lineno):
        try:
            return float(tok)
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: bad value '{tok}'") from None

    if fmt == "coordinate":
        if len(size_parts) != 3:
            raise ParseError(f"{path}: line {ln + 1}: coordinate size line needs 'rows cols nnz'")
        nrows = _int(size_parts[0], ln + 1, "row count")
        ncols = _int(size_parts[1], ln + 1, "column count")
        nnz = _int(size_parts[2], ln + 1, "entry count")
        rows, cols, vals = [], [], []
        seen = 0
        for off, raw in enumerate(lines[ln + 1:], start=ln + 2):
            s = raw.strip()
            if not s or s.startswith("%"):
                continue
            parts = s.split()
            if len(parts) != 3:
                raise ParseError(f"{path}: line {off}: expected 'i j value'")
            i = _int(parts[0], off, "row index")
            j = _int(parts[1], off, "column index")
            v = _float(parts[2], off)
            if not (1 <= i <= nrows and 1 <= j <= ncols):
                raise ParseError(f"{path}: line {off}: index ({i}, {j}) out of range")
            rows.append(i - 1)
            cols.append(j - 1)
            vals.append(v)
            if symmetry == "symmetric" and i != j:
                rows.append(j - 1)
                cols.append(i - 1)
                vals.append(v)
            seen += 1
            if seen == nnz:
                break
        if seen != nnz:
            raise ParseError(
                f"{path}: line {len(lines) + 1}: unexpected end of file "
                f"({seen} of {nnz} entries)")
        M = sps.coo_matrix((vals, (rows, cols)), shape=(nrows, ncols))
        return M.tocsr()    # conversion sums duplicates

    # array format: dense column-major values
    if len(size_parts) != 2:
        raise ParseError(f"{path}: line {ln + 1}: array size line needs 'rows cols'")
    nrows = _int(size_parts[0], ln + 1, "row count")
    ncols = _int(size_parts[1], ln + 1, "column count")
    if symmetry == "symmetric" and nrows != ncols:
        raise ParseError(f"{path}: line {ln + 1}: symmetric array must be square")
    expected = (nrows * ncols if symmetry == "general"
                else nrows * (nrows + 1) // 2)
    vals = []
    for off, raw in enumerate(lines[ln + 1:], start=ln + 2):
        s = raw.strip()
        if not s or s.startswith("%"):
            continue
        for tok in s.split():
            vals.append(_float(tok, off))
        if len(vals) >= expected:
            break
    if len(vals) != expected:
        raise ParseError(
            f"{path}: line {len(lines) + 1}: unexpected end of file "
            f"({len(vals)} of {expected} values)")
    M = np.zeros((nrows, ncols))
    it = iter(vals)
    if symmetry == "general":
        for j in range(ncols):
            for i in range(nrows):
                M[i, j] = next(it)
    else:
        for j in range(ncols):
            for i in range(j, nrows):
                v = next(it)
                M[i, j] = v
                M[j, i] = v
    return sps.csr_matrix(M)


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
    for key in ("name", "A", "B", "C", "n", "m", "p"):
        if key not in raw:
            raise ParseError(f"{path}: missing manifest field '{key}'")
    return ModelManifest(name=raw["name"], A=raw["A"], B=raw["B"], C=raw["C"],
                         E=raw.get("E"), D=raw.get("D"), n=int(raw["n"]),
                         m=int(raw["m"]), p=int(raw["p"]), notes=raw.get("notes", ""),
                         base_dir=path.parent)


def find_manifest(name: str, search_dirs=None) -> ModelManifest:
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
    dirs += list(search_dirs or [])
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


def load_model(manifest: ModelManifest, data_dir=None) -> StateSpaceModel:
    """Assemble a validated model from a manifest.

    Relative matrix paths resolve against ``data_dir`` (default: the
    $H2MOR_BENCH_DATA directory), then the manifest's own directory.
    """
    if data_dir is None:
        env = os.environ.get(DATA_DIR_VAR)
        data_dir = Path(env) if env else None
    else:
        data_dir = Path(data_dir)

    def mat(path_str):
        return load_matrix_market(_resolve(path_str, manifest.base_dir, data_dir))

    A = mat(manifest.A)
    E = mat(manifest.E) if manifest.E else None
    B = mat(manifest.B).toarray()
    C = mat(manifest.C).toarray()
    D = mat(manifest.D).toarray() if manifest.D else None
    model = make_model(E, A, B, C, D)
    declared = (manifest.n, manifest.m, manifest.p)
    if (model.n, model.m, model.p) != declared:
        raise DimensionMismatch(
            f"manifest '{manifest.name}' declares (n, m, p) = {declared}, "
            f"files give {(model.n, model.m, model.p)}")
    return model


def save_rom_dir(model: StateSpaceModel, directory) -> None:
    """Write a model's matrices as Matrix Market files rom_{E,A,B,C,D}.mtx."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_matrix_market(model.E, directory / "rom_E.mtx")
    write_matrix_market(model.A, directory / "rom_A.mtx")
    write_matrix_market(sps.csr_matrix(model.B), directory / "rom_B.mtx")
    write_matrix_market(sps.csr_matrix(model.C), directory / "rom_C.mtx")
    write_matrix_market(sps.csr_matrix(model.D), directory / "rom_D.mtx")


def load_rom_dir(directory) -> StateSpaceModel:
    """Load a model previously written by :func:`save_rom_dir`."""
    directory = Path(directory)
    E = load_matrix_market(directory / "rom_E.mtx")
    A = load_matrix_market(directory / "rom_A.mtx")
    B = load_matrix_market(directory / "rom_B.mtx").toarray()
    C = load_matrix_market(directory / "rom_C.mtx").toarray()
    dpath = directory / "rom_D.mtx"
    D = load_matrix_market(dpath).toarray() if dpath.exists() else None
    return make_model(E, A, B, C, D)


def benchmark_files_available(name: str, data_dir=None) -> bool:
    """True when every matrix file of the named bundled manifest resolves."""
    try:
        manifest = find_manifest(name)
    except IoError:
        return False
    if data_dir is None:
        env = os.environ.get(DATA_DIR_VAR)
        data_dir = Path(env) if env else None
    try:
        for entry in (manifest.A, manifest.B, manifest.C, manifest.E, manifest.D):
            if entry:
                _resolve(entry, manifest.base_dir, data_dir)
    except IoError:
        return False
    return True
