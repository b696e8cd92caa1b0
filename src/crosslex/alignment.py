"""CCA-based alignment of monolingual embedding spaces into one shared space.

Each non-pivot language is fitted against the pivot through its bilingual
lexicon; words are mapped into the pivot's original coordinate system, so
pivot embeddings are reusable unchanged and all languages land in a single
space anchored at the pivot.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigurationError,
    FormatError,
    InsufficientDataError,
    NotFoundError,
    SingularityError,
    in_file,
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
    """Affine map taking one language's vectors into the pivot space."""

    mean: np.ndarray  # centering vector in the language's own space
    projection: np.ndarray  # d x k, into the canonical space
    back_map: np.ndarray  # k x dim_pivot, out of the canonical space
    pivot_mean: np.ndarray  # added after back-mapping

    def apply(self, vec, normalize):
        v = np.asarray(vec, dtype=np.float64)
        if normalize:
            n = np.linalg.norm(v)
            if n > 0:
                v = v / n
        return (v - self.mean) @ self.projection @ self.back_map + self.pivot_mean


@dataclass
class AlignmentModel:
    """Per-language projections into a single shared space with a pivot."""

    pivot_lang: str
    shared_dim: int
    regularization: float
    kept_ratio: float
    normalize: bool
    maps: dict = field(default_factory=dict)  # language -> LanguageMap

    @property
    def languages(self):
        return [self.pivot_lang] + sorted(self.maps)


def _inv_sqrt(cov):
    """Inverse square root of a symmetric positive definite matrix."""
    eigvals, eigvecs = np.linalg.eigh(cov)
    if eigvals[0] <= 0:
        raise SingularityError(
            "covariance is rank-deficient; pass a positive regularization lambda"
        )
    return eigvecs @ np.diag(eigvals ** -0.5) @ eigvecs.T


def fit_cca(X, Y, lam=1e-3, kept_ratio=0.8):
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
    if lam < 0:
        raise ConfigurationError("lambda must be >= 0")
    if not 0 < kept_ratio <= 1:
        raise ConfigurationError("kept_ratio must be in (0, 1]")

    mx = X.mean(axis=0)
    my = Y.mean(axis=0)
    Xc = X - mx
    Yc = Y - my
    cxx = Xc.T @ Xc / (n - 1) + lam * np.eye(X.shape[1])
    cyy = Yc.T @ Yc / (n - 1) + lam * np.eye(Y.shape[1])
    cxy = Xc.T @ Yc / (n - 1)

    if lam == 0:
        for cov, name in ((cxx, "X"), (cyy, "Y")):
            eigvals = np.linalg.eigvalsh(cov)
            if eigvals[0] <= max(eigvals[-1], 1.0) * 1e-12:
                raise SingularityError(
                    f"covariance of {name} is rank-deficient with lambda=0; "
                    "pass a positive regularization lambda"
                )

    wx = _inv_sqrt(cxx)
    wy = _inv_sqrt(cyy)
    u, s, vt = np.linalg.svd(wx @ cxy @ wy)
    k = min(math.ceil(kept_ratio * min(X.shape[1], Y.shape[1])), n)
    return CcaResult(
        proj_src=wx @ u[:, :k],
        proj_tgt=wy @ vt[:k].T,
        correlations=s[:k],
        means_src=mx,
        means_tgt=my,
    )


def _pair_matrices(src_space, tgt_space, lexicon, normalize):
    xs, ys = [], []
    for s, t in lexicon.pairs:
        xs.append(src_space.vector(s))
        ys.append(tgt_space.vector(t))
    X = np.array(xs, dtype=np.float64)
    Y = np.array(ys, dtype=np.float64)
    if normalize:
        X = X / np.linalg.norm(X, axis=1, keepdims=True)
        Y = Y / np.linalg.norm(Y, axis=1, keepdims=True)
    return X, Y


def fit_hub_alignment(spaces, lexicons, pivot, lam=1e-3, kept_ratio=0.8,
                      normalize=True):
    """Fit one CCA per non-pivot language against the pivot and compose.

    Every lexicon must have src_lang == pivot and be pre-restricted to the
    vocabularies. A non-pivot word maps to the shared space by centering,
    projecting with its canonical projection, and back-mapping through the
    pseudo-inverse of the pivot-side projection into the pivot's original
    space. Pivot words keep their original vectors.
    """
    if pivot not in spaces:
        raise ConfigurationError(f"pivot language {pivot!r} has no embedding space")
    model = AlignmentModel(
        pivot_lang=pivot,
        shared_dim=spaces[pivot].dim,
        regularization=lam,
        kept_ratio=kept_ratio,
        normalize=normalize,
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
        X, Y = _pair_matrices(spaces[pivot], spaces[lang], lex, normalize)
        try:
            cca = fit_cca(X, Y, lam=lam, kept_ratio=kept_ratio)
        except (SingularityError, InsufficientDataError) as err:
            raise type(err)(f"[{lang}] {err}") from err
        back = np.linalg.pinv(cca.proj_src, rcond=_PINV_RCOND)
        model.maps[lang] = LanguageMap(
            mean=cca.means_tgt,
            projection=cca.proj_tgt,
            back_map=back,
            pivot_mean=cca.means_src,
        )
    return model


def project(model, word, language, spaces):
    """Map one word into the shared space."""
    if language == model.pivot_lang:
        space = spaces[language]
        if word not in space.vocab:
            raise NotFoundError(f"{word!r} not in {language} vocabulary")
        return space.vector(word).astype(np.float64)
    if language not in model.maps:
        raise ConfigurationError(f"language {language!r} not in alignment model")
    space = spaces[language]
    if word not in space.vocab:
        raise NotFoundError(f"{word!r} not in {language} vocabulary")
    return model.maps[language].apply(space.vector(word), model.normalize)


def project_space(model, language, spaces):
    """Shared-space matrix for a whole vocabulary, one row per word."""
    space = spaces[language]
    if language == model.pivot_lang:
        return space.vectors.astype(np.float64)
    if language not in model.maps:
        raise ConfigurationError(f"language {language!r} not in alignment model")
    vecs = space.vectors.astype(np.float64)
    if model.normalize:
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        vecs = vecs / norms
    m = model.maps[language]
    return (vecs - m.mean) @ m.projection @ m.back_map + m.pivot_mean


def _write_matrix(fh, mat):
    mat = np.atleast_2d(np.asarray(mat, dtype=np.float64))
    fh.write(f"{mat.shape[0]} {mat.shape[1]}\n")
    for row in mat:
        fh.write(" ".join(f"{x:.12e}" for x in row) + "\n")


def _read_matrix(lines, start):
    """Parse the "<rows> <cols>" block that begins at ``lines[start]``.

    Returns the matrix and the index of the line after the block. Errors
    carry the 1-based line number within the file.
    """
    if start >= len(lines):
        raise FormatError("missing matrix block", start + 1)
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
    return data, start + 1 + rows


def save_alignment(model, dirpath):
    """Persist a model as a directory: metadata JSON + one matrix file per
    non-pivot language (mean, projection, back-map, pivot-mean blocks)."""
    os.makedirs(dirpath, exist_ok=True)
    meta = {
        "pivot_lang": model.pivot_lang,
        "shared_dim": model.shared_dim,
        "regularization": model.regularization,
        "kept_ratio": model.kept_ratio,
        "normalize": model.normalize,
        "languages": sorted(model.maps),
    }
    with open(os.path.join(dirpath, "metadata.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for lang, lmap in sorted(model.maps.items()):
        with open(os.path.join(dirpath, f"{lang}.mat"), "w", encoding="utf-8") as fh:
            _write_matrix(fh, lmap.mean)
            _write_matrix(fh, lmap.projection)
            _write_matrix(fh, lmap.back_map)
            _write_matrix(fh, lmap.pivot_mean)


_META_KEYS = ("pivot_lang", "shared_dim", "regularization", "kept_ratio",
              "normalize", "languages")


def _read_metadata(path):
    with open(path, encoding="utf-8") as fh:
        try:
            meta = json.load(fh)
        except json.JSONDecodeError as err:
            raise FormatError(f"invalid JSON: {err.msg}", err.lineno) from None
        except UnicodeDecodeError:
            raise FormatError("invalid UTF-8 bytes") from None
    if not isinstance(meta, dict):
        raise FormatError("metadata must be a JSON object")
    missing = [key for key in _META_KEYS if key not in meta]
    if missing:
        raise FormatError(f"metadata lacks {', '.join(missing)}")
    if not isinstance(meta["languages"], list) or not all(
            isinstance(lang, str) for lang in meta["languages"]):
        raise FormatError("metadata 'languages' must be a list of strings")
    return meta


def _read_language_map(lines):
    """The four blocks of a ``.mat`` file, checked against each other.
    Errors carry the line of the offending block's header."""
    blocks, headers = [], []
    at = 0
    for _ in range(4):
        headers.append(at + 1)
        mat, at = _read_matrix(lines, at)
        blocks.append(mat)
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
    return LanguageMap(mean[0], projection, back_map, pivot_mean[0])


def load_alignment(dirpath):
    """Read a model written by ``save_alignment``. A corrupt metadata file
    or ``.mat`` file raises FormatError naming the file."""
    meta_path = os.path.join(dirpath, "metadata.json")
    with in_file(meta_path):
        meta = _read_metadata(meta_path)
    model = AlignmentModel(
        pivot_lang=meta["pivot_lang"],
        shared_dim=meta["shared_dim"],
        regularization=meta["regularization"],
        kept_ratio=meta["kept_ratio"],
        normalize=meta["normalize"],
    )
    for lang in meta["languages"]:
        path = os.path.join(dirpath, f"{lang}.mat")
        with in_file(path):
            # Bytes that are not UTF-8 become non-numeric cells with a line.
            with open(path, encoding="utf-8", errors="surrogateescape") as fh:
                lines = fh.readlines()
            model.maps[lang] = _read_language_map(lines)
    return model
