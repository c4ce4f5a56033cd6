"""The recorded double-backward through the unrolled inner loop.

Production computes the meta-gradient and the sketch-weight gradient v in
closed form (``recmodel.unrolled_backward``).  This is the autodiff form it
replaced, kept as the reference the tests pin it to: each inner step is a
``diffcore.grad(..., create_graph=True)`` of ``recmodel.sketch_loss``, so
the outer loss can be differentiated through every step.
"""

import numpy as np

from dips import diffcore as dc
from dips import recmodel as rm
from dips.diffcore import Tensor

from tensor_view import tensor_view


def recorded_inner_adapt(rec, z, y, mask, alpha, n_steps):
    """The adapted stack (B, d) as a Tensor whose steps stay on the graph;
    ``z`` may be an array or a Tensor, and ``rec`` a tensor view, to
    differentiate w.r.t. its parameters too."""
    n_users = len(z.data if isinstance(z, Tensor) else z)
    u = dc.broadcast_to(rec.user_emb, (n_users, rec.dim))
    # on plain-array parameters the stack itself is the leaf the steps need
    u = u if u.requires_grad else Tensor(u.data, requires_grad=True)
    if n_steps == 0 or alpha == 0.0:
        return u
    for _ in range(n_steps):
        loss = rm.sketch_loss(rec, u, z, y, mask)
        (g,) = dc.grad(loss, [u], create_graph=True, allow_unused=True)
        u = u - alpha * g
    return u


def recorded_backward(rec, z, y, mask, next_items, next_ratings, alpha, n_steps):
    """``(grads, v, loss)`` of ``recmodel.unrolled_backward`` with both
    ``theta`` and ``sketch``, from one backward of the recorded graph."""
    rec = tensor_view(rec)
    z_probe = Tensor(np.asarray(z, dtype=np.float64), requires_grad=True)
    u = recorded_inner_adapt(rec, z_probe, y, mask, alpha, n_steps)
    loss = rm.next_item_loss(rec, u, next_items, next_ratings)
    grads = dc.grad(loss, rec.params() + [z_probe])
    return [g.data for g in grads[:-1]], grads[-1].data, loss.item()
