"""Parameters as autodiff leaves, for the tests that differentiate w.r.t. them.

``RecParams`` and ``PolicyParams`` hold plain float64 arrays.  The graph
functions of ``recmodel`` and the recorded references take them as they
are, as constants; a test that wants gradients w.r.t. the parameters
records the graph on a tensor view instead.
"""

import copy

from dips.diffcore import Tensor


def tensor_view(params):
    """A shallow copy of ``params`` (a ``RecParams`` or a ``PolicyParams``)
    whose parameters are ``Tensor(arr, requires_grad=True)`` on the same
    memory: a step on the original moves the view, and the other way round."""
    view = copy.copy(params)
    for name in params.param_names():
        setattr(view, name, Tensor(getattr(params, name), requires_grad=True))
    return view
