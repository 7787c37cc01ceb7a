"""Tensor trains: decomposition, orthogonalization, and per-sample interface stacks.

A tensor train (TT) stores an order-M coefficient tensor as a chain of order-3
components ``V_m`` of shape ``(r_{m-1}, n_m, r_m)`` with boundary ranks
``r_0 = r_M = 1``.  All multi-index linearizations are row-major (C order),
which fixes the index bijection used by :func:`design_matrix` and
:func:`save_tt`.  :func:`tt_svd` decomposes a dense tensor exactly, and
:func:`tt_to_dense` contracts a train of at most ``DENSIFY_CAP`` entries.

The per-sample contractions live in :class:`InterfaceStacks`, which a sweep
advances one mode per microstep; :func:`design_matrix` reads its rows and
:func:`tt_evaluate_batch` runs its left push through every mode.

Instances of :class:`TensorTrain` are immutable: component arrays are copied
on construction and marked read-only, so values can be shared freely across
threads.
"""
from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

DENSIFY_CAP = 10**7
EXACT_RANK_RTOL = 1e-14  # singular values below this (relative) count as zero


class TensorTrainError(ValueError):
    pass


@dataclass(frozen=True)
class TensorTrain:
    """Chain of order-3 components with orthogonality bookkeeping.

    ``lorth`` counts the leading components known to be left-orthogonal
    (``components[:lorth]``), ``rorth`` is the first index from which all
    components are known right-orthogonal (``components[rorth:]``).  A train
    in canonical form with core at mode ``m`` has ``lorth >= m`` and
    ``rorth <= m + 1``.
    """

    components: tuple
    lorth: int = 0
    rorth: int = field(default=-1)

    def __post_init__(self):
        comps = []
        for c in self.components:
            c = np.array(c, dtype=float, order="C")
            if c.ndim != 3:
                raise TensorTrainError(f"component has order {c.ndim}, expected 3")
            c.flags.writeable = False
            comps.append(c)
        if not comps:
            raise TensorTrainError("empty tensor train")
        if comps[0].shape[0] != 1 or comps[-1].shape[2] != 1:
            raise TensorTrainError("boundary ranks must be 1")
        for left, right in zip(comps[:-1], comps[1:]):
            if left.shape[2] != right.shape[0]:
                raise TensorTrainError(
                    f"rank mismatch: {left.shape} -> {right.shape}")
        object.__setattr__(self, "components", tuple(comps))
        if self.rorth == -1:
            object.__setattr__(self, "rorth", len(comps))
        if not (0 <= self.lorth <= len(comps)) or not (0 <= self.rorth <= len(comps)):
            raise TensorTrainError("orthogonality markers out of range")

    @property
    def order(self) -> int:
        return len(self.components)

    @property
    def dims(self) -> tuple:
        return tuple(c.shape[1] for c in self.components)

    @property
    def ranks(self) -> tuple:
        """Representation ranks ``(r_1, ..., r_{M-1})``."""
        return tuple(c.shape[2] for c in self.components[:-1])

    def with_component(self, m: int, comp: np.ndarray) -> "TensorTrain":
        comp = np.asarray(comp, dtype=float)
        comps = list(self.components)
        comps[m] = comp
        # replacing a component invalidates orthogonality through mode m
        return TensorTrain(tuple(comps), lorth=min(self.lorth, m),
                           rorth=max(self.rorth, m + 1))

    def is_canonical_at(self, m: int) -> bool:
        return self.lorth >= m and self.rorth <= m + 1


def tt_random(dims, ranks, rng) -> TensorTrain:
    """Random TT with prescribed representation ranks; components unit-norm."""
    dims = tuple(int(n) for n in dims)
    full = (1,) + tuple(int(r) for r in ranks) + (1,)
    comps = []
    for m, n in enumerate(dims):
        c = rng.standard_normal((full[m], n, full[m + 1]))
        comps.append(c / np.linalg.norm(c))
    return TensorTrain(tuple(comps))


def tt_svd(t: np.ndarray) -> TensorTrain:
    """Decompose a finite dense tensor exactly by successive thin SVDs.

    Singular values at most ``EXACT_RANK_RTOL`` relative to the largest are
    dropped; the result is left-orthogonal up to the last component.  An
    all-zero tensor yields the rank-one zero train.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim < 1 or t.size == 0 or not np.isfinite(t).all():
        raise TensorTrainError("tt_svd needs a nonempty finite tensor with dims >= 1")
    dims = t.shape
    M = t.ndim
    if not t.any():
        comps = [np.zeros((1, n, 1)) for n in dims]
        return TensorTrain(tuple(comps), lorth=M - 1)
    comps = []
    carry = t.reshape(1, -1)
    r_prev = 1
    for k in range(M - 1):
        mat = carry.reshape(r_prev * dims[k], -1)
        U, s, Vt = np.linalg.svd(mat, full_matrices=False)
        r = max(int(np.count_nonzero(s > EXACT_RANK_RTOL * s[0])), 1)
        comps.append(U[:, :r].reshape(r_prev, dims[k], r))
        carry = s[:r, None] * Vt[:r]
        r_prev = r
    comps.append(carry.reshape(r_prev, dims[-1], 1))
    return TensorTrain(tuple(comps), lorth=M - 1)


def tt_to_dense(tt: TensorTrain) -> np.ndarray:
    """Contract the chain into a dense array (row-major multi-index order)."""
    total = int(np.prod(tt.dims, dtype=np.int64))
    if total > DENSIFY_CAP:
        raise TensorTrainError(f"dense tensor would have {total} entries (cap {DENSIFY_CAP})")
    arr = tt.components[0].reshape(tt.dims[0], -1)
    for c in tt.components[1:]:
        r = c.shape[0]
        arr = arr.reshape(-1, r) @ c.reshape(r, -1)
    return arr.reshape(tt.dims)


def _left_qr(tt: TensorTrain, stop: int) -> TensorTrain:
    """Left-orthogonalize components ``0..stop-1`` by thin QR, carrying each
    R factor into the next component."""
    comps = list(tt.components)
    for k in range(stop):
        rl, n, rr = comps[k].shape
        Q, R = np.linalg.qr(comps[k].reshape(rl * n, rr))
        comps[k] = Q.reshape(rl, n, Q.shape[1])
        comps[k + 1] = np.tensordot(R, comps[k + 1], axes=(1, 0))
    return TensorTrain(tuple(comps), lorth=stop, rorth=max(tt.rorth, stop + 1))


def left_orthogonalize(tt: TensorTrain) -> TensorTrain:
    """Push the non-orthogonal factor to the last component via thin QR."""
    return _left_qr(tt, tt.order - 1)


def right_orthogonalize(tt: TensorTrain) -> TensorTrain:
    """Push the non-orthogonal factor to the first component via thin QR."""
    comps = list(tt.components)
    M = len(comps)
    for k in range(M - 1, 0, -1):
        rl, n, rr = comps[k].shape
        Q, R = np.linalg.qr(comps[k].reshape(rl, n * rr).T)
        comps[k] = Q.T.reshape(Q.shape[1], n, rr)
        comps[k - 1] = np.tensordot(comps[k - 1], R.T, axes=(2, 0))
    return TensorTrain(tuple(comps), lorth=0, rorth=1)


def canonicalize(tt: TensorTrain, m: int) -> TensorTrain:
    """Return the train in canonical form with core at mode ``m``."""
    if not 0 <= m < tt.order:
        raise TensorTrainError(f"mode {m} out of range for order {tt.order}")
    return _left_qr(right_orthogonalize(tt), m)


# ---------------------------------------------------------------------------
# fixed-interface operator and per-sample interface stacks


def _push_left(L: np.ndarray, comp: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-sample left interface one mode further: (n, r_{k-1}) -> (n, r_k)."""
    return np.einsum("nl,ler,ne->nr", L, comp, b)


def _require_canonical(tt: TensorTrain, m: int) -> None:
    if not 0 <= m < tt.order:
        raise TensorTrainError(f"mode {m} out of range")
    if not tt.is_canonical_at(m):
        raise TensorTrainError(
            f"train is not canonical at mode {m} "
            f"(lorth={tt.lorth}, rorth={tt.rorth})")


@dataclass
class InterfaceStacks:
    """Per-sample interface vectors of a microstep on mode ``mode``.

    Together with the univariate basis values they realize the isometric
    embedding of the mode-``m`` component into the full coefficient space,
    one sample at a time.  ``left`` is the left interface at every sample,
    shape (n, r_{m-1}); ``rights`` stacks the right interfaces of modes
    M-1, ..., m, so that :attr:`right`, shape (n, r_m), is on top.  A sweep
    builds the stacks once and :meth:`advance` moves them to mode ``m + 1``
    after each microstep by one left push and one pop, O(M) contractions
    per sweep instead of O(M^2).
    """

    mode: int
    basis_values: list  # per-mode (n, d_k) arrays
    left: np.ndarray
    rights: list

    @property
    def right(self) -> np.ndarray:
        return self.rights[-1]

    def advance(self, tt: TensorTrain) -> None:
        """Move to mode ``m + 1`` once the microstep has updated component
        ``m`` and the train is canonical at ``m + 1``; components right of
        ``m + 1`` must be the ones the stacks were built from."""
        _require_canonical(tt, self.mode + 1)
        self.left = _push_left(self.left, tt.components[self.mode],
                               self.basis_values[self.mode])
        self.rights.pop()
        self.mode += 1


def fixed_interface(tt: TensorTrain, m: int, basis_values) -> InterfaceStacks:
    """Interface stacks for a microstep on mode ``m`` at the samples whose
    per-mode basis values are given, shape (n, d_k) each.

    Requires the train to be canonical at ``m``; then the embedding
    ``V_m -> full tensor`` is an isometry of Frobenius norms.
    """
    _require_canonical(tt, m)
    B = [np.asarray(b, dtype=float) for b in basis_values]
    n = len(B[0]) if B else 0
    if [b.shape for b in B] != [(n, d) for d in tt.dims]:
        raise TensorTrainError(f"basis values must have shapes (n, d) for d in {tt.dims}")
    rights = [np.ones((n, 1))]
    for k in range(tt.order - 1, m, -1):
        rights.append(np.einsum("ler,ne,nr->nl", tt.components[k], B[k], rights[-1]))
    L = np.ones((n, 1))
    for k in range(m):
        L = _push_left(L, tt.components[k], B[k])
    return InterfaceStacks(mode=m, basis_values=B, left=L, rights=rights)


def design_matrix(stacks: InterfaceStacks, weights=None) -> np.ndarray:
    """Per-sample rows of the weighted microstep operator at the stacks' mode.

    Row i is ``sqrt(w_i) * (left_i (x) b(y^i_m) (x) right_i)`` flattened
    row-major, so that ``row @ V_m.ravel()`` equals the weighted evaluation
    of the represented function at sample i.
    """
    n = len(stacks.left)
    A = np.einsum("nl,ne,nr->nler", stacks.left, stacks.basis_values[stacks.mode],
                  stacks.right).reshape(n, -1)
    if weights is not None:
        w = np.asarray(weights, dtype=float)
        if w.shape != (n,):
            raise TensorTrainError("weights length does not match sample count")
        A = np.sqrt(w)[:, None] * A
    return A


def tt_evaluate_batch(tt: TensorTrain, basis_values) -> np.ndarray:
    """Values of the represented function at n points, given per-mode basis
    values of shape (n, d_m): the left interface pushed through every mode."""
    if len(basis_values) == 0:
        raise TensorTrainError("no basis values given")
    L = np.ones((len(basis_values[0]), 1))
    for comp, b in zip(tt.components, basis_values):
        L = _push_left(L, comp, np.asarray(b, dtype=float))
    return L[:, 0]


# ---------------------------------------------------------------------------
# serialization

TT_FORMAT = "ttrec-tensor-train"
TT_FORMAT_VERSION = 1


def tt_to_json(tt: TensorTrain) -> dict:
    return {
        "format": TT_FORMAT,
        "version": TT_FORMAT_VERSION,
        "dims": list(tt.dims),
        "ranks": [1, *tt.ranks, 1],
        "components": [c.ravel(order="C").tolist() for c in tt.components],
    }


def tt_from_json(doc: dict) -> TensorTrain:
    if doc.get("format") != TT_FORMAT:
        raise TensorTrainError("not a serialized tensor train")
    dims = doc["dims"]
    ranks = doc["ranks"]
    comps = []
    for m, flat in enumerate(doc["components"]):
        shape = (ranks[m], dims[m], ranks[m + 1])
        comps.append(np.asarray(flat, dtype=float).reshape(shape))
    return TensorTrain(tuple(comps))


@contextlib.contextmanager
def atomic_open(path):
    """A text file to write that replaces ``path`` by an atomic rename when
    the block exits normally.

    The file is a temp file ``.ttrec-*`` in the target's directory, created
    with the permissions ``open(path, "w")`` would give; if the block
    raises, it is removed and ``path`` is left as it was.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".ttrec-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_tt(tt: TensorTrain, path) -> None:
    """Write ``tt`` as JSON to ``path`` through :func:`atomic_open`."""
    with atomic_open(path) as fh:
        json.dump(tt_to_json(tt), fh)
        fh.write("\n")


def load_tt(path) -> TensorTrain:
    with open(path) as fh:
        return tt_from_json(json.load(fh))
