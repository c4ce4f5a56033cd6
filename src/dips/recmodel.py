"""Neural collaborative-filtering recommender and the weighted sketch loss.

The model keeps a per-user embedding plus item-side parameters (item
embeddings and a small MLP tower).  Explicit ratings come from an MLP on
the concatenated user/item embeddings; implicit next-item scores come
from dotting a user tower output with every item embedding so one pass
yields all scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor

EXPLICIT = "explicit"
IMPLICIT = "implicit"


class RecParams:
    """Global recommender parameters: user embedding, item embeddings, MLP tower."""

    def __init__(self, n_items, dim=32, hidden=64, setting=EXPLICIT, rng=None):
        if setting not in (EXPLICIT, IMPLICIT):
            raise ValueError(f"unknown setting {setting!r}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.n_items = n_items
        self.dim = dim
        self.hidden = hidden
        self.setting = setting

        def emb(*shape):
            return Tensor(rng.uniform(-0.1, 0.1, size=shape), requires_grad=True)

        def dense(fan_in, fan_out):
            w = rng.normal(size=(fan_in, fan_out)) / np.sqrt(fan_in)
            return Tensor(w, requires_grad=True)

        self.user_emb = emb(dim)
        self.item_emb = emb(n_items, dim)
        in_dim = 2 * dim if setting == EXPLICIT else dim
        out_dim = 1 if setting == EXPLICIT else dim
        self.w1 = dense(in_dim, hidden)
        self.b1 = dc.zeros(hidden, requires_grad=True)
        self.w2 = dense(hidden, out_dim)
        self.b2 = dc.zeros(out_dim, requires_grad=True)

    def item_params(self):
        """Item-side parameters (everything but the user embedding)."""
        return [self.item_emb, self.w1, self.b1, self.w2, self.b2]

    def all_params(self):
        return [self.user_emb] + self.item_params()

    def param_names(self):
        return ["user_emb", "item_emb", "w1", "b1", "w2", "b2"]

    def state_arrays(self):
        return {name: getattr(self, name).data for name in self.param_names()}

    def load_arrays(self, arrays):
        for name in self.param_names():
            cur = getattr(self, name)
            new = np.asarray(arrays[name], dtype=np.float64)
            if new.shape != cur.shape:
                raise ValueError(f"checkpoint mismatch for {name}: {new.shape} vs {cur.shape}")
            setattr(self, name, Tensor(new, requires_grad=True))


@dataclass
class LocalParams:
    """Per-user adapted parameters: adapted user embedding, frozen item side."""

    user: Tensor
    base: RecParams


def _check_item(rec, item):
    if not 0 <= int(item) < rec.n_items:
        raise IndexError(f"item {item} out of range [0, {rec.n_items})")


def predict_explicit(theta: LocalParams, item) -> Tensor:
    """Predicted rating g(item; theta), a scalar tensor."""
    rec = theta.base
    _check_item(rec, item)
    x = dc.concat([theta.user, dc.gather(rec.item_emb, int(item))])
    h = dc.relu(dc.matmul(x, rec.w1) + rec.b1)
    out = dc.matmul(h, rec.w2) + rec.b2
    return dc.tsum(out)  # (1,) -> scalar


def predict_explicit_many(theta: LocalParams, items) -> Tensor:
    """Predicted ratings for several items in one matrix pass."""
    rec = theta.base
    items = np.asarray(items, dtype=np.int64)
    if items.size and (items.min() < 0 or items.max() >= rec.n_items):
        raise IndexError(f"item index out of range [0, {rec.n_items})")
    rows = dc.gather(rec.item_emb, items)
    user_rows = dc.broadcast_to(dc.reshape(theta.user, (1, rec.dim)), (items.size, rec.dim))
    x = dc.concat([user_rows, rows], axis=1)
    h = dc.relu(dc.matmul(x, rec.w1) + rec.b1)
    return dc.tsum(dc.matmul(h, rec.w2) + rec.b2, axis=1)


def predict_implicit(theta: LocalParams) -> Tensor:
    """Unnormalized scores over all items; softmax is applied by the loss."""
    rec = theta.base
    h = dc.relu(dc.matmul(theta.user, rec.w1) + rec.b1)
    t = dc.matmul(h, rec.w2) + rec.b2
    return dc.matmul(rec.item_emb, t)


def logsumexp(scores: Tensor) -> Tensor:
    # shift by a detached max; subtracting a constant keeps gradients exact
    m = float(np.max(scores.data))
    return dc.log(dc.tsum(dc.exp(scores - m))) + m


def pointwise_loss(rating, prediction, kind) -> Tensor:
    """Single-interaction loss: squared error (``"mse"``, explicit ratings) or
    categorical cross-entropy over all item scores (``"cce"``, implicit)."""
    if kind == "mse":
        d = prediction - float(rating)
        return dc.mul(d, d)
    if kind == "cce":
        j = int(rating)
        if prediction.ndim != 1:
            raise ValueError("cce: prediction must be a score vector")
        if not 0 <= j < prediction.shape[0]:
            raise ValueError(f"cce: class index {j} out of range [0, {prediction.shape[0]})")
        return logsumexp(prediction) - dc.gather(prediction, j)
    raise ValueError(f"unknown loss kind {kind!r}")


def next_item_loss(theta: LocalParams, item, rating) -> Tensor:
    """Outer-objective loss on the next interaction."""
    if theta.base.setting == EXPLICIT:
        return pointwise_loss(rating, predict_explicit(theta, item), "mse")
    _check_item(theta.base, item)
    return pointwise_loss(item, predict_implicit(theta), "cce")


def sketch_loss(z, y, mask, theta: LocalParams) -> Tensor:
    """Weighted per-item loss sum over interacted items.

    ``z`` is a length-M weight vector (array or tensor), ``y`` the rating
    vector and ``mask`` the binary interaction mask.  Weights must vanish
    outside the mask; entries of ``y`` outside the mask are never read.
    """
    rec = theta.base
    mask = np.asarray(mask)
    z_data = z.data if isinstance(z, Tensor) else np.asarray(z, dtype=np.float64)
    if z_data.shape != (rec.n_items,):
        raise ValueError(f"sketch_loss: z has shape {z_data.shape}, expected ({rec.n_items},)")
    if np.any(z_data < -1e-12):
        raise ValueError("sketch_loss: negative sketch weights")
    if np.any((z_data != 0) & (mask == 0)):
        raise ValueError("sketch_loss: positive weight on a non-interacted item")
    z = dc.as_tensor(z)
    items = np.flatnonzero(mask)
    zw = dc.gather(z, items)
    if rec.setting == EXPLICIT:
        preds = predict_explicit_many(theta, items)
        d = preds - Tensor(np.asarray(y, dtype=np.float64)[items])
        return dc.tsum(zw * d * d)
    scores = predict_implicit(theta)
    lse = logsumexp(scores)
    return lse * dc.tsum(zw) - dc.tsum(zw * dc.gather(scores, items))
