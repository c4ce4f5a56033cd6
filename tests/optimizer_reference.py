"""The textbook order of the Adam update.

Production's ``trainer.Adam.step`` takes Kingma & Ba's one-division order,
p -= alpha * m / (sqrt(v) + eps_t) with alpha = lr sqrt(c2) / c1 and
eps_t = eps sqrt(c2).  This is the order it replaced, kept as the reference
the tests pin it to within rounding: p -= lr * mhat / (sqrt(vhat) + eps),
both moments bias-corrected by a division, through the same block plan and
scratch rows.  The moments themselves are computed in the same order, bit
for bit.
"""

import numpy as np

from dips import trainer as tr


class TextbookAdam(tr.Adam):
    def step(self, grads):
        self.t += 1
        c1, c2 = 1 - self.b1 ** self.t, 1 - self.b2 ** self.t
        for p, m, v, g, blocks in zip(self.params, self.m, self.v, grads, self.plan):
            for index, (s1, s2) in blocks:
                p_b, m_b, v_b = p[index], m[index], v[index]
                np.multiply(p_b, self.weight_decay, out=s1)
                s1 += np.asarray(g)[index]                 # s1 = g
                np.multiply(s1, 1 - self.b1, out=s2)
                m_b *= self.b1
                m_b += s2
                np.multiply(s1, 1 - self.b2, out=s2)
                s2 *= s1
                v_b *= self.b2
                v_b += s2
                np.divide(m_b, c1, out=s1)                 # s1 = mhat
                s1 *= self.lr
                np.divide(v_b, c2, out=s2)                 # s2 = vhat
                np.sqrt(s2, out=s2)
                s2 += self.eps
                s1 /= s2
                p_b -= s1
