"""CCA-based alignment of monolingual embedding spaces into one shared space.

Each non-pivot language is fitted against the pivot through its bilingual
lexicon and kept as one affine map ``x @ W + b`` into the pivot's original
coordinate system, so pivot embeddings are used without a map and all
languages land in a single space anchored at the pivot. The model prepares
its inputs one way: it scales every language's rows, the pivot's included,
to unit length before anything else.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .config import check, default
from .embedding_store import unit_rows
from .errors import (
    ConfigurationError,
    DimensionError,
    FormatError,
    InsufficientDataError,
    NotFoundError,
    SingularityError,
    in_file,
    text_lines,
    write_text,
)

_PINV_RCOND = 1e-10


@dataclass
class CcaResult:
    """Projection pair maximizing correlation of dictionary-paired vectors."""

    proj_src: np.ndarray  # d1 x k
    proj_tgt: np.ndarray  # d2 x k
    correlations: np.ndarray  # length k, descending
    means_src: np.ndarray
    means_tgt: np.ndarray


@dataclass
class LanguageMap:
    """Affine map ``x @ W + b`` taking one language's prepared rows into
    the shared space, with the canonical correlations of its CCA fit."""

    W: np.ndarray  # d x shared_dim
    b: np.ndarray  # shared_dim
    correlations: np.ndarray = field(default_factory=lambda: np.empty(0))


@dataclass
class AlignmentModel:
    """Per-language affine maps into a single shared space with a pivot.

    Every language's rows, the pivot's included, are prepared one way: each
    row is scaled to unit length (in float32, before the float64 map).
    """

    pivot_lang: str
    shared_dim: int
    regularization: float
    kept_ratio: float
    maps: dict = field(default_factory=dict)  # language -> LanguageMap


def _inv_sqrt(cov, name, lam):
    """Inverse square root of the covariance of ``name`` (X or Y), regularized
    by ``lam``. Its smallest eigenvalue must be positive, and at ``lam`` 0
    above 1e-12 times its largest (or 1e-12 when that is below 1)."""
    eigvals, eigvecs = np.linalg.eigh(cov)
    if eigvals[0] <= (0 if lam else max(eigvals[-1], 1.0) * 1e-12):
        raise SingularityError(
            f"covariance of {name} is rank-deficient with lambda={lam}; "
            "pass a larger regularization lambda")
    return eigvecs @ np.diag(eigvals ** -0.5) @ eigvecs.T


def fit_cca(X, Y, lam=default("alignment", "lambda"),
            kept_ratio=default("alignment", "kept_ratio")):
    """Fit canonical correlation projections for paired rows of X and Y.

    Covariances are regularized with lam*I, whitened by symmetric
    eigendecomposition, and the whitened cross-covariance is decomposed by
    SVD. Keeps k = ceil(kept_ratio * min(d1, d2)) leading directions.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ConfigurationError("X and Y must be 2-d with equal row counts")
    n = X.shape[0]
    if n < 2:
        raise InsufficientDataError("CCA needs at least 2 paired samples")
    check("alignment", "lambda", lam)
    check("alignment", "kept_ratio", kept_ratio)

    mx = X.mean(axis=0)
    my = Y.mean(axis=0)
    Xc = X - mx
    Yc = Y - my
    cxx = Xc.T @ Xc / (n - 1) + lam * np.eye(X.shape[1])
    cyy = Yc.T @ Yc / (n - 1) + lam * np.eye(Y.shape[1])
    cxy = Xc.T @ Yc / (n - 1)

    wx = _inv_sqrt(cxx, "X", lam)
    wy = _inv_sqrt(cyy, "Y", lam)
    u, s, vt = np.linalg.svd(wx @ cxy @ wy)
    k = min(math.ceil(kept_ratio * min(X.shape[1], Y.shape[1])), n)
    return CcaResult(
        proj_src=wx @ u[:, :k],
        proj_tgt=wy @ vt[:k].T,
        correlations=s[:k],
        means_src=mx,
        means_tgt=my,
    )


def _prepare(vectors):
    """The float64 rows a map acts on: the unit rows of ``vectors``."""
    return unit_rows(vectors).astype(np.float64)


def _fold(mean, projection, back_map, pivot_mean):
    """``W, b`` of ``x -> (x - mean) @ projection @ back_map + pivot_mean``."""
    W = projection @ back_map
    return W, pivot_mean - mean @ W


def fit_hub_alignment(spaces, lexicons, pivot,
                      lam=default("alignment", "lambda"),
                      kept_ratio=default("alignment", "kept_ratio")):
    """Fit one CCA per non-pivot language against the pivot and fold each
    into one affine map.

    Every lexicon must have src_lang == pivot and be pre-restricted to the
    vocabularies. Pass the spaces as loaded: the model scales every row to
    unit length, in every language and the pivot's too, both for the
    lexicon pairs fitted here and in ``project`` and ``project_space``
    later. A non-pivot word maps to the shared space by
    centering, projecting with its canonical projection, and back-mapping
    through the pseudo-inverse of the pivot-side projection into the
    pivot's original space; the three steps are folded into ``x @ W + b``
    at fit time. Pivot words keep their prepared vectors.
    """
    if pivot not in spaces:
        raise ConfigurationError(f"pivot language {pivot!r} has no embedding space")
    check("alignment", "lambda", lam)
    check("alignment", "kept_ratio", kept_ratio)
    model = AlignmentModel(
        pivot_lang=pivot,
        shared_dim=spaces[pivot].dim,
        regularization=lam,
        kept_ratio=kept_ratio,
    )
    for lex in lexicons:
        if lex.src_lang != pivot:
            raise ConfigurationError(
                f"lexicon {lex.src_lang}-{lex.tgt_lang}: source must be the pivot"
            )
        lang = lex.tgt_lang
        if lang not in spaces:
            raise ConfigurationError(f"no embedding space for language {lang!r}")
        if not lex.pairs:
            raise InsufficientDataError(f"empty alignment lexicon for {lang!r}")
        src, tgt = spaces[pivot], spaces[lang]
        X = _prepare(src.vectors[[src.vocab[s] for s, _ in lex.pairs]])
        Y = _prepare(tgt.vectors[[tgt.vocab[t] for _, t in lex.pairs]])
        try:
            cca = fit_cca(X, Y, lam=lam, kept_ratio=kept_ratio)
        except (SingularityError, InsufficientDataError) as err:
            raise type(err)(f"[{lang}] {err}") from err
        back = np.linalg.pinv(cca.proj_src, rcond=_PINV_RCOND)
        model.maps[lang] = LanguageMap(
            *_fold(cca.means_tgt, cca.proj_tgt, back, cca.means_src),
            correlations=cca.correlations,
        )
    return model


def _language_map(model, language):
    """The map of a non-pivot language; None for the pivot."""
    if language == model.pivot_lang:
        return None
    if language not in model.maps:
        raise ConfigurationError(f"language {language!r} not in alignment model")
    return model.maps[language]


def checked_map(model, language, space):
    """The map of ``language`` (None for the pivot), which must take the
    rows of ``space`` into the shared space: DimensionError otherwise."""
    lmap = _language_map(model, language)
    takes, gives = (model.shared_dim,) * 2 if lmap is None else lmap.W.shape
    if (takes, gives) != (space.dim, model.shared_dim):
        raise DimensionError(
            f"the {language} map takes {takes} dimensions to {gives}, but the "
            f"{language} space has {space.dim} and the shared space "
            f"{model.shared_dim}")
    return lmap


def _shared_rows(model, language, spaces, rows):
    """Shared-space float64 rows of ``spaces[language].vectors[rows]``:
    prepared, then mapped unless ``language`` is the pivot. A map that does
    not fit the space raises DimensionError."""
    lmap = checked_map(model, language, spaces[language])
    vecs = _prepare(spaces[language].vectors[rows])
    if lmap is None:
        return vecs
    out = vecs @ lmap.W
    out += lmap.b
    return out


def project(model, word, language, spaces):
    """Map one word into the shared space: its ``project_space`` row, to rounding."""
    _language_map(model, language)  # an unknown language before an unknown word
    row = spaces[language].vocab.get(word)
    if row is None:
        raise NotFoundError(f"{word!r} not in {language} vocabulary")
    return _shared_rows(model, language, spaces, slice(row, row + 1))[0]


def project_space(model, language, spaces):
    """Shared-space matrix for a whole vocabulary, one row per word.

    Rows are prepared, the pivot's included, and mapped by the language's
    ``W`` and ``b``; pivot rows are not mapped.
    """
    return _shared_rows(model, language, spaces, slice(None))


def _matrix_lines(*mats):
    for mat in mats:
        mat = np.atleast_2d(np.asarray(mat, dtype=np.float64))
        yield f"{mat.shape[0]} {mat.shape[1]}\n"
        for row in mat:
            yield " ".join(f"{x:.12e}" for x in row) + "\n"


def _read_matrix(lines, start):
    """Parse the "<rows> <cols>" block that begins at ``lines[start]``.

    Returns the matrix and the index of the line after the block. Errors
    carry the 1-based line number within the file.
    """
    try:
        rows, cols = (int(x) for x in lines[start].split())
    except ValueError:
        raise FormatError("expected block header '<rows> <cols>'", start + 1) from None
    if rows < 1 or cols < 1:
        raise FormatError("matrix block must be at least 1 x 1", start + 1)
    data = np.empty((rows, cols))
    for i in range(rows):
        lineno = start + 2 + i
        if lineno > len(lines):
            raise FormatError(f"matrix block ends after {i} of {rows} rows", lineno)
        try:
            row = [float(x) for x in lines[lineno - 1].split()]
        except ValueError:
            raise FormatError("non-numeric matrix cell", lineno) from None
        if len(row) != cols:
            raise FormatError(f"expected {cols} values, found {len(row)}", lineno)
        data[i] = row
        if not np.isfinite(data[i]).all():
            raise FormatError("non-finite matrix cell", lineno)
    return data, start + 1 + rows


# The metadata marker of the one model layout: two blocks (W, b) per language,
# whose rows are prepared as unit rows, which "normalize": true records.
_FORMAT = 2
# The AlignmentModel fields that metadata.json stores under their own names.
_STORED = ("pivot_lang", "shared_dim", "regularization", "kept_ratio")
# Every key of metadata.json, in the order a refusal lists the missing ones.
_KEYS = (*_STORED, "normalize", "languages", "correlations", "sha256", "format")
# How a model that does not load is replaced.
_REFIT = "fit the model again with `crosslex align`"


def is_language_name(name):
    """Whether ``name`` can name a language: one or more letters, digits,
    ``_`` or ``-``, so that it is also a file name inside a directory."""
    return isinstance(name, str) and re.fullmatch(r"[\w-]+", name) is not None


def _digest(lines):
    return hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()


def save_alignment(model, dirpath):
    """Persist a model as a directory: one matrix file per non-pivot
    language (``W`` and ``b`` blocks), then the metadata JSON, which records
    each matrix file's sha256. A model that ``load_alignment``'s checks of
    these files would refuse raises ConfigurationError with the loader's
    message before anything is written."""
    mats = {lang: list(_matrix_lines(lmap.W, lmap.b))
            for lang, lmap in sorted(model.maps.items())}
    meta = {
        "format": _FORMAT,
        **{name: getattr(model, name) for name in _STORED},
        "normalize": True,
        "languages": sorted(model.maps),
        "correlations": {lang: lmap.correlations.tolist()
                         for lang, lmap in sorted(model.maps.items())},
        "sha256": {lang: _digest(lines) for lang, lines in mats.items()},
    }
    meta_path = os.path.join(dirpath, "metadata.json")
    try:
        with in_file(meta_path):
            _check_metadata(meta)
        for lang, lines in mats.items():
            with in_file(os.path.join(dirpath, f"{lang}.mat")):
                _read_language_map(lines, model.shared_dim)
    except FormatError as err:
        raise ConfigurationError(str(err)) from None
    os.makedirs(dirpath, exist_ok=True)
    for lang, lines in mats.items():
        write_text(os.path.join(dirpath, f"{lang}.mat"), lines)
    write_text(meta_path, [json.dumps(meta, indent=2, sort_keys=True), "\n"])


def _read_metadata(path):
    try:
        meta = json.loads("".join(line for _, line in text_lines(path)))
    except json.JSONDecodeError as err:
        raise FormatError(f"invalid JSON: {err.msg}", err.lineno) from None
    _check_metadata(meta)
    return meta


def _check_metadata(meta):
    """Raise FormatError unless ``meta`` is a JSON object with every model
    key, this format, language names, stored values of their type and in
    their range (the numbers in that of their ``[alignment]`` key), unit-row
    preparation, and for exactly the listed languages, lists of numbers as
    correlations and strings as digests."""
    if not isinstance(meta, dict):
        raise FormatError("metadata must be a JSON object")
    missing = [key for key in _KEYS if key not in meta]
    if missing:
        raise FormatError(f"metadata lacks {', '.join(missing)}; {_REFIT}")
    if meta["format"] != _FORMAT:
        raise FormatError(f"unsupported model format {meta['format']!r}; {_REFIT}")
    if not isinstance(meta["languages"], list) or not all(
            isinstance(lang, str) for lang in meta["languages"]):
        raise FormatError("metadata 'languages' must be a list of strings")
    bad = [lang for lang in (meta["pivot_lang"], *meta["languages"])
           if not is_language_name(lang)]
    if bad:
        raise FormatError(f"metadata names an invalid language {bad[0]!r}")
    if type(meta["shared_dim"]) is not int or meta["shared_dim"] < 1:
        raise FormatError("metadata 'shared_dim' must be an integer >= 1")
    if meta["normalize"] is not True:
        raise FormatError(f"metadata 'normalize' must be true; {_REFIT}")
    for name, key in (("regularization", "lambda"), ("kept_ratio", "kept_ratio")):
        value = meta[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise FormatError(f"metadata {name!r} must be a number")
        try:
            check("alignment", key, value)
        except ConfigurationError as err:
            raise FormatError(f"metadata {name!r}: {err}") from None
    for key, kind, fits in (
            ("correlations", "lists of numbers", lambda values: isinstance(
                values, list) and all(isinstance(x, (int, float)) for x in values)),
            ("sha256", "strings", lambda digest: isinstance(digest, str))):
        table = meta[key]
        if not isinstance(table, dict) or not all(map(fits, table.values())):
            raise FormatError(f"metadata {key!r} must map languages to {kind}")
        if set(table) != set(meta["languages"]):
            raise FormatError(
                f"metadata {key!r} names {sorted(table)}, not the languages "
                f"{sorted(set(meta['languages']))}; {_REFIT}")


def _read_language_map(lines, shared_dim):
    """``W, b`` of a ``.mat`` file's two blocks, checked against each other
    and ``W``'s columns against ``shared_dim``; errors carry the line of the
    offending block's header."""
    blocks, headers = [], []
    at = 0
    while at < len(lines):
        headers.append(at + 1)
        mat, at = _read_matrix(lines, at)
        blocks.append(mat)
    if len(blocks) != 2:
        raise FormatError(
            f"found {len(blocks)} matrix blocks, expected 2 (W, b); {_REFIT}",
            headers[2] if len(blocks) > 2 else len(lines) + 1)
    W, b = blocks
    if b.shape[0] != 1:
        raise FormatError(f"b block has {b.shape[0]} rows, expected 1", headers[1])
    if b.shape[1] != W.shape[1]:
        raise FormatError(
            f"b block has {b.shape[1]} values, expected {W.shape[1]} "
            "(W's columns)", headers[1])
    if W.shape[1] != shared_dim:
        raise FormatError(f"W block has {W.shape[1]} columns, expected "
                          f"{shared_dim} (shared_dim)", headers[0])
    return W, b[0]


def load_alignment(dirpath):
    """Read a model written by ``save_alignment``; a corrupt metadata file
    or ``.mat`` file, one of another layout, or one whose text is not the
    one that its recorded sha256 names, raises FormatError naming the file."""
    meta_path = os.path.join(dirpath, "metadata.json")
    with in_file(meta_path):
        meta = _read_metadata(meta_path)
    model = AlignmentModel(**{name: meta[name] for name in _STORED})
    for lang in meta["languages"]:
        path = os.path.join(dirpath, f"{lang}.mat")
        with in_file(path):
            lines = [line for _, line in text_lines(path)]
            model.maps[lang] = LanguageMap(
                *_read_language_map(lines, model.shared_dim),
                correlations=np.array(meta["correlations"][lang], dtype=np.float64),
            )
            if _digest(lines) != meta["sha256"][lang]:
                raise FormatError("not the map that metadata.json records (its "
                                  "sha256 differs), so it is from another model")
    return model
