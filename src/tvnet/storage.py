"""On-disk formats for the command-line pipeline.

Matrices and sequences are headerless CSV with floats printed at 17
significant digits (lossless round trip); structured records are JSON.
Every write is atomic: content goes to a temporary file in the target
directory first, then an os.replace.
"""

import hashlib
import json
import os
import tempfile

import numpy as np

from .basis import BasisSet
from .errors import InvalidInputError


def fmt_float(x):
    return format(float(x), ".17g")


def atomic_write_text(path, text):
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, obj):
    atomic_write_text(path, json.dumps(obj, indent=1, sort_keys=True) + "\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_csv_matrix(path, M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    lines = [",".join(fmt_float(v) for v in row) for row in M]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_csv_matrix(path):
    return np.loadtxt(path, delimiter=",", ndmin=2)


def write_codes_csv(path, codes):
    """One row per code: integer time, then the k coefficients."""
    lines = []
    for c in codes:
        lines.append(",".join([str(int(c.time))]
                              + [fmt_float(v) for v in c.code]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_codes_csv(path):
    """Returns (times, codes) with codes as a (T, k) array."""
    M = read_csv_matrix(path)
    return M[:, 0].astype(int), M[:, 1:]


def matrices_to_dict(mats):
    """Sequence of same-size square matrices in the basis JSON layout
    {"n", "k", "bases": [row-major n*n lists]}; no symmetry requirement."""
    M = np.asarray(mats, dtype=float)
    k, n = M.shape[0], M.shape[1]
    return {"n": n, "k": k, "bases": M.reshape(k, n * n).tolist()}


def matrices_from_dict(d):
    """The (k, n, n) array of a matrices_to_dict layout."""
    n, k = int(d["n"]), int(d["k"])
    mats = np.asarray(d["bases"], dtype=float)
    if mats.shape != (k, n * n):
        raise InvalidInputError("matrix JSON shape does not match its n/k fields")
    return mats.reshape(k, n, n)


def basis_set_to_dict(bases):
    return matrices_to_dict(bases.bases)


def basis_set_from_dict(d):
    return BasisSet(bases=matrices_from_dict(d))


def hash_bytes(data):
    return hashlib.sha256(data).hexdigest()


def hash_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def hash_obj(obj):
    """Content hash of a JSON-serializable object, order-insensitive in
    dictionary keys."""
    return hash_bytes(json.dumps(obj, sort_keys=True).encode())
