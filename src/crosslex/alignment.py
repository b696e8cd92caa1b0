"""CCA-based alignment of monolingual embedding spaces into one shared space.

Each non-pivot language is fitted against the pivot through its bilingual
lexicon and kept as one affine map ``x @ W + b`` into the pivot's original
coordinate system, so pivot embeddings are used without a map and all
languages land in a single space anchored at the pivot. The model owns the
preparation of its inputs: a fitted model normalizes, scaling every
language's rows, the pivot's included, to unit length before anything else.
"""

from __future__ import annotations

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
    the shared space, with the canonical correlations of its CCA fit
    (empty for a model read from the older four-block layout)."""

    W: np.ndarray  # d x shared_dim
    b: np.ndarray  # shared_dim
    correlations: np.ndarray = field(default_factory=lambda: np.empty(0))


@dataclass
class AlignmentModel:
    """Per-language affine maps into a single shared space with a pivot.

    ``normalize`` is the model's input preparation: each row is scaled to
    unit length (in float32, before the float64 map) for every language,
    the pivot included, and always set by ``fit_hub_alignment``. ``legacy``
    marks a model read from a directory without the format marker.
    """

    pivot_lang: str
    shared_dim: int
    regularization: float
    kept_ratio: float
    normalize: bool
    maps: dict = field(default_factory=dict)  # language -> LanguageMap
    legacy: bool = False


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


def _prepare(vectors, normalize):
    """The float64 rows a map acts on: unit rows first when ``normalize``."""
    return (unit_rows(vectors) if normalize else vectors).astype(np.float64)


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
        normalize=True,
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
        X = _prepare(src.vectors[[src.vocab[s] for s, _ in lex.pairs]], True)
        Y = _prepare(tgt.vectors[[tgt.vocab[t] for _, t in lex.pairs]], True)
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
    prepared as the model says, then mapped unless ``language`` is the
    pivot. A map that does not fit the space raises DimensionError."""
    lmap = checked_map(model, language, spaces[language])
    vecs = _prepare(spaces[language].vectors[rows], model.normalize)
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

    Rows are prepared as ``model.normalize`` says, the pivot's included,
    and mapped by the language's ``W`` and ``b``; pivot rows are not mapped.
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


# The metadata marker of a model that records its own input preparation and
# writes two blocks (W, b) per language; older models have no marker.
_FORMAT = 2
# The AlignmentModel fields that metadata.json stores under their own names.
_STORED = ("pivot_lang", "shared_dim", "regularization", "kept_ratio", "normalize")


def is_language_name(name):
    """Whether ``name`` can name a language: one or more letters, digits,
    ``_`` or ``-``, so that it is also a file name inside a directory."""
    return isinstance(name, str) and re.fullmatch(r"[\w-]+", name) is not None


def save_alignment(model, dirpath):
    """Persist a model as a directory: one matrix file per non-pivot
    language (``W`` and ``b`` blocks), then the metadata JSON. A model that
    ``load_alignment``'s checks of these files would refuse raises
    ConfigurationError with the loader's message before anything is written."""
    meta = {
        "format": _FORMAT,
        **{name: getattr(model, name) for name in _STORED},
        "languages": sorted(model.maps),
        "correlations": {lang: lmap.correlations.tolist()
                         for lang, lmap in sorted(model.maps.items())},
    }
    mats = {os.path.join(dirpath, f"{lang}.mat"): list(_matrix_lines(lmap.W, lmap.b))
            for lang, lmap in sorted(model.maps.items())}
    meta_path = os.path.join(dirpath, "metadata.json")
    try:
        with in_file(meta_path):
            _check_metadata(meta)
        for path, lines in mats.items():
            with in_file(path):
                _read_language_map(lines, model.shared_dim)
    except FormatError as err:
        raise ConfigurationError(str(err)) from None
    os.makedirs(dirpath, exist_ok=True)
    for path, lines in mats.items():
        write_text(path, lines)
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
    key, language names, stored values of their type and in their range
    (the numbers in that of their ``[alignment]`` key), a known format and
    lists of numbers as correlations."""
    if not isinstance(meta, dict):
        raise FormatError("metadata must be a JSON object")
    missing = [key for key in (*_STORED, "languages") if key not in meta]
    if missing:
        raise FormatError(f"metadata lacks {', '.join(missing)}")
    if not isinstance(meta["languages"], list) or not all(
            isinstance(lang, str) for lang in meta["languages"]):
        raise FormatError("metadata 'languages' must be a list of strings")
    bad = [lang for lang in (meta["pivot_lang"], *meta["languages"])
           if not is_language_name(lang)]
    if bad:
        raise FormatError(f"metadata names an invalid language {bad[0]!r}")
    if type(meta["shared_dim"]) is not int or meta["shared_dim"] < 1:
        raise FormatError("metadata 'shared_dim' must be an integer >= 1")
    if type(meta["normalize"]) is not bool:
        raise FormatError("metadata 'normalize' must be true or false")
    for name, key in (("regularization", "lambda"), ("kept_ratio", "kept_ratio")):
        value = meta[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise FormatError(f"metadata {name!r} must be a number")
        try:
            check("alignment", key, value)
        except ConfigurationError as err:
            raise FormatError(f"metadata {name!r}: {err}") from None
    if meta.get("format", _FORMAT) != _FORMAT:
        raise FormatError(f"unsupported model format {meta['format']!r}")
    correlations = meta.get("correlations", {})
    if not isinstance(correlations, dict) or not all(
            isinstance(values, list)
            and all(isinstance(x, (int, float)) for x in values)
            for values in correlations.values()):
        raise FormatError("metadata 'correlations' must map languages to "
                          "lists of numbers")


def _read_language_map(lines, shared_dim):
    """``W, b`` of a ``.mat`` file: its two blocks, or the four blocks of
    the older layout (mean, projection, back-map, pivot mean) folded.
    The blocks are checked against each other and ``W``'s columns against
    ``shared_dim``; errors carry the line of the offending block's header."""
    blocks, headers = [], []
    at = 0
    while at < len(lines):
        headers.append(at + 1)
        mat, at = _read_matrix(lines, at)
        blocks.append(mat)
    if len(blocks) == 4:
        W, b = _fold(*_check_legacy_blocks(blocks, headers))
        name, line = "back-map", headers[2]  # whose columns are W's
    elif len(blocks) != 2:
        raise FormatError(
            f"found {len(blocks)} matrix blocks, expected 2 (W, b) or 4",
            headers[4] if len(blocks) > 4 else len(lines) + 1)
    else:
        W, b = blocks
        if b.shape[0] != 1:
            raise FormatError(f"b block has {b.shape[0]} rows, expected 1", headers[1])
        if b.shape[1] != W.shape[1]:
            raise FormatError(
                f"b block has {b.shape[1]} values, expected {W.shape[1]} "
                "(W's columns)", headers[1])
        b = b[0]
        name, line = "W", headers[0]
    if W.shape[1] != shared_dim:
        raise FormatError(f"{name} block has {W.shape[1]} columns, expected "
                          f"{shared_dim} (shared_dim)", line)
    return W, b


def _check_legacy_blocks(blocks, headers):
    mean, projection, back_map, pivot_mean = blocks
    for name, mat, line in (("mean", mean, headers[0]),
                            ("pivot mean", pivot_mean, headers[3])):
        if mat.shape[0] != 1:
            raise FormatError(f"{name} block has {mat.shape[0]} rows, expected 1", line)
    if projection.shape[0] != mean.shape[1]:
        raise FormatError(
            f"projection block has {projection.shape[0]} rows, expected "
            f"{mean.shape[1]} (the mean's length)", headers[1])
    if back_map.shape[0] != projection.shape[1]:
        raise FormatError(
            f"back-map block has {back_map.shape[0]} rows, expected "
            f"{projection.shape[1]} (the projection's columns)", headers[2])
    if pivot_mean.shape[1] != back_map.shape[1]:
        raise FormatError(
            f"pivot mean block has {pivot_mean.shape[1]} values, expected "
            f"{back_map.shape[1]} (the back-map's columns)", headers[3])
    return mean[0], projection, back_map, pivot_mean[0]


def load_alignment(dirpath):
    """Read a model written by ``save_alignment``; a corrupt metadata file
    or ``.mat`` file raises FormatError naming the file. A model without the
    format marker normalizes, as ``align`` did before it recorded so."""
    meta_path = os.path.join(dirpath, "metadata.json")
    with in_file(meta_path):
        meta = _read_metadata(meta_path)
    model = AlignmentModel(**{name: meta[name] for name in _STORED},
                           legacy="format" not in meta)
    model.normalize = model.normalize or model.legacy
    correlations = meta.get("correlations", {})
    for lang in meta["languages"]:
        path = os.path.join(dirpath, f"{lang}.mat")
        with in_file(path):
            lines = [line for _, line in text_lines(path)]
            model.maps[lang] = LanguageMap(
                *_read_language_map(lines, model.shared_dim),
                correlations=np.array(correlations.get(lang, []), dtype=np.float64),
            )
    return model
