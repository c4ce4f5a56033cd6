"""Loading, filtering and splitting of interaction logs, plus a synthetic
stream generator with planted anchor items for desk-scale benchmarks.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class UserStream:
    """One user's time-ordered interactions (dense ids)."""

    user: int
    items: np.ndarray
    ratings: np.ndarray

    def __len__(self):
        return len(self.items)


@dataclass(frozen=True)
class Catalog:
    """Dense re-indexing of the retained raw user/item ids."""

    user_ids: tuple       # dense -> raw
    item_ids: tuple

    @property
    def n_users(self):
        return len(self.user_ids)

    @property
    def n_items(self):
        return len(self.item_ids)

    def item_index(self):
        return {raw: i for i, raw in enumerate(self.item_ids)}


@dataclass(frozen=True)
class SplitSpec:
    fractions: tuple = (0.6, 0.2, 0.2)
    seed: int = 0

    def __post_init__(self):
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise ValueError(f"split fractions must sum to 1, got {self.fractions}")


@dataclass
class DatasetSplits:
    train: list
    valid: list
    test: list
    n_items: int


class DataError(ValueError):
    pass


def _parse_records(path, fmt):
    """Yield (user, item, rating, timestamp, line_no) from a log file."""
    if not os.path.exists(path):
        raise DataError(f"dataset file not found: {path}")
    records = []
    if fmt == "movielens-dat":
        with open(path) as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split("::")
                if len(parts) != 4:
                    raise DataError(f"{path}:{line_no}: expected 4 '::'-separated fields")
                try:
                    records.append((int(parts[0]), int(parts[1]),
                                    float(parts[2]), int(parts[3]), line_no))
                except ValueError as e:
                    raise DataError(f"{path}:{line_no}: {e}") from None
    elif fmt == "csv":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            cols = [c.strip().lower() for c in header]
            if cols[:2] != ["user", "item"]:
                raise DataError(f"{path}:1: expected header user,item[,rating],timestamp")
            has_rating = "rating" in cols
            for line_no, row in enumerate(reader, 2):
                if not row:
                    continue
                try:
                    user, item = int(row[0]), int(row[1])
                    rating = float(row[2]) if has_rating else 1.0
                    ts = int(row[-1])
                except (ValueError, IndexError) as e:
                    raise DataError(f"{path}:{line_no}: {e}") from None
                records.append((user, item, rating, ts, line_no))
    else:
        raise DataError(f"unknown format {fmt!r} (expected movielens-dat or csv)")
    return records


def _to_streams(records, min_ratings):
    """Group by user, sort by (timestamp, file order), dedupe, re-index densely."""
    by_user = {}
    for user, item, rating, ts, line_no in records:
        by_user.setdefault(user, []).append((ts, line_no, item, rating))
    kept = {}
    for user, rows in by_user.items():
        rows.sort(key=lambda r: (r[0], r[1]))  # stable on timestamp ties
        seen = set()
        items, ratings = [], []
        for ts, line_no, item, rating in rows:
            if item in seen:
                continue  # keep the first occurrence
            seen.add(item)
            items.append(item)
            ratings.append(rating)
        if len(items) >= min_ratings:
            kept[user] = (items, ratings)
    if not kept:
        raise DataError("no users left after the minimum-interaction filter")
    users = sorted(kept)
    item_ids = sorted({i for u in users for i in kept[u][0]})
    catalog = Catalog(tuple(users), tuple(item_ids))
    imap = catalog.item_index()
    streams = []
    for dense_u, raw_u in enumerate(users):
        raw_items, ratings = kept[raw_u]
        streams.append(UserStream(
            user=dense_u,
            items=np.array([imap[i] for i in raw_items], dtype=np.int64),
            ratings=np.array(ratings, dtype=np.float64)))
    return streams, catalog


def load_explicit(path, fmt="movielens-dat", min_ratings=20):
    """Explicit-rating streams: parsed, time-sorted, deduped, dense ids."""
    return _to_streams(_parse_records(path, fmt), min_ratings)


def load_implicit(path, fmt="csv", min_ratings=20, threshold=3.5):
    """Implicit streams: ratings strictly above the threshold count as
    positives; logs without a rating column keep every event."""
    records = _parse_records(path, fmt)
    has_ratings = any(r[2] != 1.0 for r in records)
    if has_ratings:
        records = [r for r in records if r[2] > threshold]
        if not records:
            raise DataError("no interactions above the implicit threshold")
    records = [(u, i, 1.0, ts, ln) for u, i, _, ts, ln in records]
    return _to_streams(records, min_ratings)


def k_core_filter(streams, k=20):
    """Iteratively peel users and items with fewer than k interactions."""
    if k < 1:
        raise ValueError("k must be >= 1")
    pairs = [(s.user, int(it), float(r))
             for s in streams for it, r in zip(s.items, s.ratings)]
    order = {(s.user, int(it)): pos
             for s in streams for pos, it in enumerate(s.items)}
    while True:
        user_deg, item_deg = {}, {}
        for u, i, _ in pairs:
            user_deg[u] = user_deg.get(u, 0) + 1
            item_deg[i] = item_deg.get(i, 0) + 1
        bad_users = {u for u, d in user_deg.items() if d < k}
        bad_items = {i for i, d in item_deg.items() if d < k}
        if not bad_users and not bad_items:
            break
        pairs = [(u, i, r) for u, i, r in pairs
                 if u not in bad_users and i not in bad_items]
        if not pairs:
            raise DataError(
                f"k-core filter (k={k}) removed everything "
                f"({len(bad_users)} users, {len(bad_items)} items in final round)")
    by_user = {}
    for u, i, r in pairs:
        by_user.setdefault(u, []).append((order[(u, i)], i, r))
    out = []
    for s in streams:
        if s.user not in by_user:
            continue
        rows = sorted(by_user[s.user])
        out.append(UserStream(
            user=s.user,
            items=np.array([i for _, i, _ in rows], dtype=np.int64),
            ratings=np.array([r for _, _, r in rows])))
    return out


def split_users(streams, spec: SplitSpec):
    """Seeded disjoint user partition by the configured fractions."""
    n = len(streams)
    if n < 5:
        raise DataError(f"need at least 5 users to split, got {n}")
    rng = np.random.default_rng(spec.seed)
    order = rng.permutation(n)
    n_train = int(round(spec.fractions[0] * n))
    n_valid = int(round(spec.fractions[1] * n))
    train = [streams[i] for i in order[:n_train]]
    valid = [streams[i] for i in order[n_train:n_train + n_valid]]
    test = [streams[i] for i in order[n_train + n_valid:]]
    return train, valid, test


@dataclass
class SynthConfig:
    n_users: int = 200
    n_items: int = 100
    length: int = 30
    n_anchors: int = 3
    n_groups: int = 4
    anchor_weight: float = 1.5
    noise: float = 0.6
    user_bias_std: float = 0.0   # per-user mean rating offset, revealed by anchors
    junk_prob: float = 0.0       # chance a filler rating is replaced by junk
    filler_like_prob: float = 0.75  # implicit: chance a filler is a group-liked item
    clip: bool = True
    setting: str = "explicit"

    def __post_init__(self):
        # each message begins with the field it names, so the CLI can
        # report it as the synth.* key
        if self.n_groups < 2:
            raise ValueError(f"n_groups must be at least 2 (taste groups), got {self.n_groups}")
        if not 0 <= self.n_anchors <= self.length:
            raise ValueError(f"n_anchors must lie in [0, length = {self.length}], "
                             f"got {self.n_anchors}")
        anchored = self.n_groups * self.n_anchors
        if anchored > self.n_items:
            raise ValueError(f"n_groups * n_anchors = {anchored} anchor items exceed "
                             f"n_items = {self.n_items}")
        if not math.isfinite(self.anchor_weight):
            raise ValueError(f"anchor_weight must be finite, got {self.anchor_weight}")
        for name in ("noise", "user_bias_std"):
            # written so that NaN fails too
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be >= 0 and finite, got {getattr(self, name)}")
        if not 0 <= self.junk_prob <= 1:
            raise ValueError(f"junk_prob must lie in [0, 1], got {self.junk_prob}")
        if self.setting == "implicit" and not 0 <= self.filler_like_prob <= 1:
            raise ValueError(f"filler_like_prob must lie in [0, 1] in the implicit setting, "
                             f"got {self.filler_like_prob}")
        # a stream is its group's anchors, then fillers drawn without
        # replacement from the items outside every anchor block
        if self.length - self.n_anchors > self.n_items - anchored:
            raise ValueError(f"length {self.length} is longer than n_anchors = {self.n_anchors} "
                             f"plus the {self.n_items - anchored} items outside the anchor "
                             f"blocks")


@dataclass
class SynthData:
    splits: DatasetSplits
    anchors: dict = field(default_factory=dict)   # user -> set of anchor items
    groups: dict = field(default_factory=dict)    # user -> group id
    preferences: np.ndarray = None                # group x item signs


def _group_items(g, A, pool, signs, setting):
    """Group g's anchor items and, in the implicit setting, its liked and
    disliked fillers and the probabilities the liked ones are drawn with."""
    anchor_items = np.arange(g * A, (g + 1) * A)
    if setting != "implicit":
        return anchor_items, None, None, None
    liked = pool[signs[pool] > 0]
    # liked items follow a shared popularity skew within the group, so a
    # model that identifies the group can concentrate its top-ranked slots on
    # a small head of likely next items; an empty liked pool has no
    # popularity to normalise
    pop = 1.0 / (1.0 + np.arange(len(liked)))
    return anchor_items, liked, pool[signs[pool] <= 0], pop / pop.sum() if len(liked) else None


def synth_stream(cfg: SynthConfig, seed=0, split=SplitSpec()) -> SynthData:
    """Streams where a few early "anchor" items reveal the user's taste group.

    Items 0..G*A-1 are anchor blocks, one block per group.  A user's first
    interactions are their group's anchors, rated with almost no noise;
    later filler items carry the same group signal buried in much larger
    noise.  A sketch that retains the anchors therefore supports a better
    per-user fit than one holding only recent items, by construction.
    """
    rng = np.random.default_rng(seed)
    G, A = cfg.n_groups, cfg.n_anchors
    # group taste signs over all items; constant columns are resampled so no
    # item is liked (or disliked) by every group — per-item means then carry
    # no group information and only group inference helps prediction
    prefs = rng.choice([-1.0, 1.0], size=(G, cfg.n_items))
    flat = np.abs(prefs.sum(axis=0)) == G
    while flat.any():
        prefs[:, flat] = rng.choice([-1.0, 1.0], size=(G, int(flat.sum())))
        flat = np.abs(prefs.sum(axis=0)) == G
    for g in range(G):
        block = np.arange(g * A, (g + 1) * A)
        prefs[g, block] = np.where(np.arange(A) % 2 == 0, 1.0, -1.0)

    # every group's fillers are the items outside all anchor blocks
    pool = np.arange(G * A, cfg.n_items)
    n_fill = cfg.length - A
    # what a stream takes from its group, built when the group's first user
    # is drawn
    by_group = {}

    streams, anchors, groups = [], {}, {}
    for u in range(cfg.n_users):
        g = int(rng.integers(G))
        if g not in by_group:
            by_group[g] = _group_items(g, A, pool, prefs[g], cfg.setting)
        anchor_items, liked, disliked, liked_p = by_group[g]
        if cfg.setting == "implicit":
            # group signal lives in the choice of items: fillers lean toward
            # the group's liked items, so a sketch that pins the group down
            # early predicts upcoming interactions better
            n_liked = int(rng.binomial(n_fill, cfg.filler_like_prob))
            n_liked = min(n_liked, len(liked))
            n_liked = max(n_liked, n_fill - len(disliked))
            # drawing no liked filler takes nothing from the generator
            liked_fill = (rng.choice(liked, size=n_liked, replace=False, p=liked_p)
                          if n_liked else liked[:0])
            fillers = np.concatenate([
                liked_fill, rng.choice(disliked, size=n_fill - n_liked, replace=False)])
            fillers = fillers[rng.permutation(n_fill)]
        else:
            fillers = rng.choice(pool, size=n_fill, replace=False)
        items = np.concatenate([anchor_items, fillers])
        bias = rng.normal(0.0, cfg.user_bias_std) if cfg.user_bias_std else 0.0
        sig = bias + cfg.anchor_weight * prefs[g, items]
        noise = rng.normal(0.0, cfg.noise, size=cfg.length)
        noise[:A] = rng.normal(0.0, 0.02, size=A)
        ratings = 3.0 + sig + noise
        if cfg.junk_prob > 0.0:
            # a slice of filler feedback is junk (mis-clicks, shared accounts):
            # uninformative extreme values uncorrelated with the user's taste
            junk = rng.random(cfg.length) < cfg.junk_prob
            junk[:A] = False
            ratings[junk] = 3.0 + rng.uniform(-4.0, 4.0, size=int(junk.sum()))
        if cfg.clip:
            ratings = np.clip(ratings, 1.0, 5.0)
        if cfg.setting == "implicit":
            ratings = np.ones(cfg.length)
        elif not np.isfinite(ratings).all():
            raise DataError(f"synthetic user {u}: a rating overflows float64 (anchor_weight, "
                            "noise or user_bias_std too large)")
        streams.append(UserStream(user=u, items=items, ratings=ratings))
        anchors[u] = set(range(g * A, (g + 1) * A))
        groups[u] = g
    train, valid, test = split_users(streams, split)
    return SynthData(
        splits=DatasetSplits(train, valid, test, cfg.n_items),
        anchors=anchors, groups=groups, preferences=prefs)
