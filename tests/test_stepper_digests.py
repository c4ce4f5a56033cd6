"""Recorded digests of whole training and evaluation runs.

For every policy, both settings and tau in {1, 2}, with stochastic
training on, one small synthetic run is hashed: the sketch trace, the
training generator's final state and the bytes of rec and phi that
``train()`` returns, and the records ``evaluate()`` gives on the test
split.  The digests are recorded constants, so any change to what a sketch
keeps, to what is drawn or in which order, or to the trained parameters
moves them.
"""

import hashlib
import io
import json

import numpy as np
import pytest

from dips import datasets as ds
from dips import metrics as met
from dips import trainer as tr

# (policy, setting, tau) -> (training digest, evaluation digest)
DIGESTS = {
    ('random', 'explicit', 1): ('e05d5837ba9fd25c', '39f707e19974d140'),
    ('random', 'explicit', 2): ('f08fef9ea9c6d60f', 'db62ed6873cb028e'),
    ('random', 'implicit', 1): ('a57e75462a9ca681', '81eb03e107566256'),
    ('random', 'implicit', 2): ('c8733f8e8d3573f1', 'b5e0e03bb6474bfc'),
    ('hardest', 'explicit', 1): ('c967ac181fd2e967', 'aedf3c4b759d4aa9'),
    ('hardest', 'explicit', 2): ('ccb5e0e73a62acf4', '84cb2fb621e7171a'),
    ('hardest', 'implicit', 1): ('58e26cb3ed68a79c', '894e51e5bc5290c8'),
    ('hardest', 'implicit', 2): ('b7ab16b5b483b7f8', '8a58c340c26758fd'),
    ('influence', 'explicit', 1): ('b5eacebb8c407e57', '80a1f45ab2775e07'),
    ('influence', 'explicit', 2): ('aa2bc9dd53f46a2e', '24e6ac340aac8f50'),
    ('influence', 'implicit', 1): ('8d522e2517885fb0', '57f8fa32ef7ab572'),
    ('influence', 'implicit', 2): ('8190116feaea3be6', '68407517efcc5250'),
    ('dips', 'explicit', 1): ('5d678199fd27bbd0', 'f79f3c18b17eafe9'),
    ('dips', 'explicit', 2): ('b27b697915311e3f', '0ec1ec613cb85c60'),
    ('dips', 'implicit', 1): ('c57498f842bbb4b4', 'ff83e74a645ed049'),
    ('dips', 'implicit', 2): ('a1b3a3de8919a5fa', '01e42d0a5a706385'),
    ('dips1', 'explicit', 1): ('5488590b90f796fe', '9b53703d766c51a2'),
    ('dips1', 'explicit', 2): ('ed832556e823e40d', '73a9bf434eb218bb'),
    ('dips1', 'implicit', 1): ('0a4cbb6379bf03ba', '418603253f36e81b'),
    ('dips1', 'implicit', 2): ('5e0a1c6b22728558', '5884b5f88c3c5bc6'),
    ('oracle', 'explicit', 1): ('1488eb4eb3c44565', 'f366bd303156cded'),
    ('oracle', 'explicit', 2): ('a9313d18d9ea1256', '8dd1c9b05c48d588'),
    ('oracle', 'implicit', 1): ('877a8d660976e48a', '1754fde676a68ed6'),
    ('oracle', 'implicit', 2): ('e5b6e6f82422724f', '4d989ea5cf611477'),
}


def _data(setting):
    return ds.synth_stream(ds.SynthConfig(
        n_users=14, n_items=24, length=9, n_anchors=2, n_groups=2, setting=setting), seed=3)


def _cfg(policy, setting, tau):
    return tr.TrainConfig(
        sketch_size=3, tau=tau, mode="online" if tau == 1 else "batch", queue_size=3,
        inner_steps=2, inner_lr=0.3, lr_user=1e-2, lr_item=1e-2, lr_policy=1e-2,
        batch_size=3, epochs=1, seed=4, setting=setting, policy=policy, dim=3, hidden=4,
        policy_hidden=8, policy_dropout_rate=0.2, stochastic_train=True)


def _digests(monkeypatch, policy, setting, tau):
    sd = _data(setting)
    cfg = _cfg(policy, setting, tau)
    gens = []
    default_rng = np.random.default_rng
    trace = io.StringIO()
    with monkeypatch.context() as mp:
        mp.setattr(np.random, "default_rng", lambda *a: gens.append(default_rng(*a)) or gens[-1])
        res = tr.train(cfg, sd.splits, oracle_anchors=sd.anchors, trace_file=trace)
    h = hashlib.sha256(trace.getvalue().encode())
    h.update(json.dumps(gens[0].bit_generator.state, sort_keys=True).encode())
    for params in (res.rec, res.phi):
        for arr in params.state_arrays().values():
            h.update(arr.tobytes())
    h.update(json.dumps(res.metric_log, sort_keys=True).encode())
    out = met.evaluate(res.rec, res.phi, sd.splits.test, cfg, return_records=True,
                       exclude_history=setting == "implicit", anchors=sd.anchors)
    e = hashlib.sha256()
    for r in out.records:
        e.update(np.array([r.user, r.step], dtype=np.int64).tobytes())
        e.update(r.metric.encode())
        e.update(np.float64(r.value).tobytes())
    return h.hexdigest()[:16], e.hexdigest()[:16]


@pytest.mark.parametrize("tau", [1, 2])
@pytest.mark.parametrize("setting", ["explicit", "implicit"])
@pytest.mark.parametrize("policy", tr.POLICIES)
def test_training_and_evaluation_give_the_recorded_digests(monkeypatch, policy, setting, tau):
    assert _digests(monkeypatch, policy, setting, tau) == DIGESTS[policy, setting, tau]
