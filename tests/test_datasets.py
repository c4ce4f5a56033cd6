import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dips import datasets as ds


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ----------------------------------------------------------------- parsing

def test_movielens_dat_line(tmp_path):
    lines = "\n".join(f"1::{100 + i}::{(i % 5) + 1}::{978300000 + i}" for i in range(20))
    path = write(tmp_path, "r.dat", lines + "\n")
    streams, cat = ds.load_explicit(path, "movielens-dat", min_ratings=20)
    assert cat.n_users == 1 and cat.n_items == 20
    assert streams[0].ratings[0] == 1.0
    assert cat.item_ids[0] == 100  # raw id preserved in the catalog


def test_malformed_line_reports_line_number(tmp_path):
    path = write(tmp_path, "bad.dat", "1::2::5::100\n1::2::five::100\n")
    with pytest.raises(ds.DataError, match="bad.dat:2"):
        ds.load_explicit(path, "movielens-dat", min_ratings=1)


def test_wrong_field_count_reports_line_number(tmp_path):
    path = write(tmp_path, "bad2.dat", "1::2::5\n")
    with pytest.raises(ds.DataError, match="bad2.dat:1"):
        ds.load_explicit(path, "movielens-dat", min_ratings=1)


def test_min_ratings_threshold(tmp_path):
    rows = [f"1::{i}::3::{i}" for i in range(19)]          # 19 ratings -> dropped
    rows += [f"2::{i}::3::{i}" for i in range(20)]          # 20 ratings -> kept
    path = write(tmp_path, "r.dat", "\n".join(rows) + "\n")
    streams, cat = ds.load_explicit(path, "movielens-dat", min_ratings=20)
    assert [s.user for s in streams] == [0]
    assert cat.user_ids == (2,)


def test_streams_sorted_by_timestamp_with_stable_ties(tmp_path):
    rows = ["1::10::1::300", "1::11::2::100", "1::12::3::200",
            "1::13::4::200",  # same ts as item 12, later in file
            "1::14::5::50"]
    path = write(tmp_path, "r.dat", "\n".join(rows) + "\n")
    streams, cat = ds.load_explicit(path, "movielens-dat", min_ratings=1)
    raw = [cat.item_ids[i] for i in streams[0].items]
    assert raw == [14, 11, 12, 13, 10]


def test_duplicate_user_item_keeps_first(tmp_path):
    rows = ["1::10::5::100", "1::10::1::200", "1::11::3::300"]
    path = write(tmp_path, "r.dat", "\n".join(rows) + "\n")
    streams, _ = ds.load_explicit(path, "movielens-dat", min_ratings=1)
    assert len(streams[0]) == 2
    assert streams[0].ratings[0] == 5.0


def test_empty_result_rejected(tmp_path):
    path = write(tmp_path, "r.dat", "1::10::5::100\n")
    with pytest.raises(ds.DataError, match="no users"):
        ds.load_explicit(path, "movielens-dat", min_ratings=5)


def test_csv_loader(tmp_path):
    rows = ["user,item,rating,timestamp"] + [f"7,{i},4.0,{i}" for i in range(6)]
    path = write(tmp_path, "r.csv", "\n".join(rows) + "\n")
    streams, cat = ds.load_explicit(path, "csv", min_ratings=1)
    assert len(streams[0]) == 6
    with pytest.raises(ds.DataError, match="header"):
        ds.load_explicit(write(tmp_path, "h.csv", "a,b,c\n1,2,3\n"), "csv")


def test_unknown_format_rejected(tmp_path):
    path = write(tmp_path, "r.dat", "x\n")
    with pytest.raises(ds.DataError, match="format"):
        ds.load_explicit(path, "parquet")


# ---------------------------------------------------------------- implicit

def test_implicit_threshold_strict(tmp_path):
    rows = ["user,item,rating,timestamp",
            "1,10,3.5,1", "1,11,4.0,2", "1,12,5.0,3", "1,13,2.0,4"]
    path = write(tmp_path, "r.csv", "\n".join(rows) + "\n")
    streams, cat = ds.load_implicit(path, min_ratings=1)
    raw = [cat.item_ids[i] for i in streams[0].items]
    assert raw == [11, 12]  # 3.5 excluded (strict >), 2.0 excluded
    assert np.all(streams[0].ratings == 1.0)


def test_implicit_flag_mode_keeps_all(tmp_path):
    rows = ["user,item,timestamp"] + [f"1,{i},{i}" for i in range(5)]
    path = write(tmp_path, "r.csv", "\n".join(rows) + "\n")
    streams, _ = ds.load_implicit(path, min_ratings=1)
    assert len(streams[0]) == 5


# ------------------------------------------------------------------ k-core

def make_streams(pairs):
    by_user = {}
    for u, i in pairs:
        by_user.setdefault(u, []).append(i)
    return [ds.UserStream(user=u, items=np.array(items, dtype=np.int64),
                          ratings=np.full(len(items), 3.0))
            for u, items in sorted(by_user.items())]


def test_k_core_already_core_unchanged():
    # complete bipartite 3x3, k=3
    pairs = [(u, i) for u in range(3) for i in range(3)]
    streams = make_streams(pairs)
    out = ds.k_core_filter(streams, k=3)
    assert len(out) == 3
    for a, b in zip(out, streams):
        np.testing.assert_array_equal(a.items, b.items)


def test_k_core_star_graph_rejected():
    streams = make_streams([(0, i) for i in range(10)])
    with pytest.raises(ds.DataError, match="removed everything"):
        ds.k_core_filter(streams, k=2)


def oracle_peel(pairs, k):
    pairs = set(pairs)
    while True:
        ud, idg = {}, {}
        for u, i in pairs:
            ud[u] = ud.get(u, 0) + 1
            idg[i] = idg.get(i, 0) + 1
        drop = {(u, i) for u, i in pairs if ud[u] < k or idg[i] < k}
        if not drop:
            return pairs
        pairs -= drop


def test_k_core_matches_peeling_oracle():
    rng = np.random.default_rng(0)
    pairs = list({(int(u), int(i))
                  for u, i in zip(rng.integers(0, 12, 300), rng.integers(0, 15, 300))})
    streams = make_streams(pairs)
    out = ds.k_core_filter(streams, k=3)
    got = {(s.user, int(i)) for s in out for i in s.items}
    assert got == oracle_peel(pairs, 3)


def test_k_core_idempotent():
    rng = np.random.default_rng(1)
    pairs = list({(int(u), int(i))
                  for u, i in zip(rng.integers(0, 10, 200), rng.integers(0, 12, 200))})
    once = ds.k_core_filter(make_streams(pairs), k=3)
    twice = ds.k_core_filter(once, k=3)
    assert [(s.user, tuple(s.items)) for s in once] == \
           [(s.user, tuple(s.items)) for s in twice]


# ------------------------------------------------------------------- split

def test_split_sizes_and_partition():
    streams = make_streams([(u, i) for u in range(10) for i in range(3)])
    train, valid, test = ds.split_users(streams, ds.SplitSpec(seed=7))
    assert (len(train), len(valid), len(test)) == (6, 2, 2)
    users = [s.user for s in train + valid + test]
    assert sorted(users) == list(range(10))


def test_split_deterministic():
    streams = make_streams([(u, i) for u in range(15) for i in range(2)])
    a = ds.split_users(streams, ds.SplitSpec(seed=3))
    b = ds.split_users(streams, ds.SplitSpec(seed=3))
    assert [[s.user for s in part] for part in a] == [[s.user for s in part] for part in b]


def test_split_requires_five_users():
    streams = make_streams([(u, 0) for u in range(4)])
    with pytest.raises(ds.DataError, match="at least 5"):
        ds.split_users(streams, ds.SplitSpec())


def test_bad_fractions_rejected():
    with pytest.raises(ValueError, match="sum to 1"):
        ds.SplitSpec(fractions=(0.5, 0.2, 0.2))


# --------------------------------------------------------------- synthetic

def test_synth_at_most_once_and_anchors_first():
    sd = ds.synth_stream(ds.SynthConfig(n_users=20, n_items=50, length=20,
                                        n_anchors=3, n_groups=4), seed=0)
    for split in (sd.splits.train, sd.splits.valid, sd.splits.test):
        for s in split:
            assert len(set(s.items.tolist())) == len(s.items)
            assert set(s.items[:3].tolist()) == sd.anchors[s.user]
            g = sd.groups[s.user]
            assert sd.anchors[s.user] == set(range(g * 3, g * 3 + 3))


def test_synth_anchor_ratings_are_clean():
    cfg = ds.SynthConfig(n_users=30, n_items=50, length=20, n_anchors=3,
                         n_groups=4, anchor_weight=1.5, noise=0.6)
    sd = ds.synth_stream(cfg, seed=1)
    all_streams = sd.splits.train + sd.splits.valid + sd.splits.test
    anchor_dev, filler_dev = [], []
    for s in all_streams:
        g = sd.groups[s.user]
        clean = 3.0 + cfg.anchor_weight * sd.preferences[g, s.items]
        dev = np.abs(s.ratings - np.clip(clean, 1, 5))
        anchor_dev.extend(dev[:3])
        filler_dev.extend(dev[3:])
    assert np.mean(anchor_dev) < 0.05
    assert np.mean(filler_dev) > 0.2


def test_synth_null_structure_without_anchor_weight():
    cfg = ds.SynthConfig(n_users=40, n_items=50, length=15, n_anchors=2,
                         n_groups=2, anchor_weight=0.0, noise=0.5)
    sd = ds.synth_stream(cfg, seed=2)
    all_streams = sd.splits.train + sd.splits.valid + sd.splits.test
    # ratings carry no group signal: mean rating is ~3 regardless of the
    # group's preference sign on the item
    pos, neg = [], []
    for s in all_streams:
        g = sd.groups[s.user]
        signs = sd.preferences[g, s.items]
        pos.extend(s.ratings[signs > 0])
        neg.extend(s.ratings[signs < 0])
    assert abs(np.mean(pos) - np.mean(neg)) < 0.15


def test_synth_config_validation():
    with pytest.raises(ValueError, match="anchor"):
        ds.SynthConfig(n_items=5, n_groups=3, n_anchors=2, length=4)
    with pytest.raises(ValueError, match="longer"):
        ds.SynthConfig(n_items=30, length=31)


def test_synth_config_rejects_too_few_filler_items():
    # 8 fillers per stream, but only 11 - 2 * 2 = 7 items lie outside the
    # anchor blocks; every other invalid value is named as well
    with pytest.raises(ValueError, match="n_anchors = 2 plus the 7 items outside the anchor"):
        ds.SynthConfig(n_items=11, length=10, n_anchors=2, n_groups=2)
    ds.SynthConfig(n_items=12, length=10, n_anchors=2, n_groups=2)
    for bad, match in ((dict(length=1), "n_anchors must lie in"),
                       (dict(noise=-1.0), "noise must be >= 0"),
                       (dict(user_bias_std=-0.5), "user_bias_std must be >= 0"),
                       (dict(setting="implicit", filler_like_prob=1.5), "filler_like_prob"),
                       (dict(anchor_weight=np.nan), "^anchor_weight must be finite"),
                       (dict(anchor_weight=-np.inf), "^anchor_weight must be finite"),
                       (dict(noise=np.nan), "^noise must be >= 0 and finite"),
                       (dict(noise=np.inf), "^noise must be >= 0 and finite"),
                       (dict(user_bias_std=np.nan), "^user_bias_std must be >= 0 and finite"),
                       (dict(user_bias_std=np.inf), "^user_bias_std must be >= 0 and finite"),
                       (dict(junk_prob=np.nan), r"^junk_prob must lie in \[0, 1\]"),
                       (dict(junk_prob=-0.1), r"^junk_prob must lie in \[0, 1\]"),
                       (dict(junk_prob=1.01), r"^junk_prob must lie in \[0, 1\]")):
        with pytest.raises(ValueError, match=match):
            ds.SynthConfig(**{"n_items": 30, "length": 8, "n_anchors": 2, **bad})
    ds.SynthConfig(n_items=30, length=8, filler_like_prob=1.5)   # unread when explicit
    ds.SynthConfig(anchor_weight=-2.0, noise=0.0, junk_prob=1.0)


def test_synth_stream_rejects_ratings_that_overflow():
    # finite settings can still overflow float64; the clip bounds an
    # overflowed rating, without it the stream is a data error
    cfg = ds.SynthConfig(n_users=10, n_items=30, length=8, noise=1e308, clip=False)
    with pytest.raises(ds.DataError, match="synthetic user 0: a rating overflows"), \
            np.errstate(all="ignore"):
        ds.synth_stream(cfg, seed=0)
    with np.errstate(all="ignore"):
        sd = ds.synth_stream(dataclasses.replace(cfg, clip=True), seed=0)
    assert all(np.isfinite(s.ratings).all() for s in sd.splits.train)


def test_synth_implicit_with_an_empty_liked_pool():
    # seed 0 gives one group no liked item outside the anchor blocks: its
    # users draw every filler from the disliked pool
    cfg = ds.SynthConfig(n_users=10, n_items=8, length=4, n_anchors=2, n_groups=2,
                         setting="implicit")
    sd = ds.synth_stream(cfg, seed=0)
    pool = np.arange(4, 8)
    assert any(not np.any(sd.preferences[g, pool] > 0) for g in range(2))
    for s in sd.splits.train + sd.splits.valid + sd.splits.test:
        assert len(set(s.items.tolist())) == 4
        assert set(s.items[:2].tolist()) == sd.anchors[s.user]


def test_synth_deterministic():
    cfg = ds.SynthConfig(n_users=10, n_items=30, length=10)
    a = ds.synth_stream(cfg, seed=5)
    b = ds.synth_stream(cfg, seed=5)
    for s1, s2 in zip(a.splits.train, b.splits.train):
        np.testing.assert_array_equal(s1.items, s2.items)
        np.testing.assert_array_equal(s1.ratings, s2.ratings)


# ------------------------------------------------------- recorded streams

# gate 5's two data settings (tests/test_acceptance.py)
_GATE5_EXPLICIT = dict(n_users=2000, n_items=500, length=40, n_anchors=4, n_groups=2,
                       anchor_weight=0.4, noise=1.0, user_bias_std=0.8, junk_prob=0.12,
                       clip=False)
_GATE5_IMPLICIT = dict(n_users=2000, n_items=500, length=40, n_anchors=4, n_groups=2,
                       filler_like_prob=0.75, setting="implicit")
# the benchmark's Movielens-scale workload: the CLI's defaults at M = 3706
_ML1M = dict(n_users=5, n_items=3706, length=40)
# one group has no liked item outside the anchor blocks
_EMPTY_LIKED = dict(n_users=10, n_items=8, length=4, n_anchors=2, n_groups=2,
                    setting="implicit")
# five of eight groups draw no user at seed 0
_SPARSE_GROUPS = dict(n_users=5, n_items=60, length=10, n_anchors=2, n_groups=8)
_ALL_LIKED = dict(n_users=30, n_items=60, length=12, n_anchors=2, n_groups=3,
                  filler_like_prob=1.0, setting="implicit")


def synth_digest(sd):
    """sha256 over every stream (in split order), the preference matrix,
    the groups and the anchors."""
    h = hashlib.sha256()
    for split in (sd.splits.train, sd.splits.valid, sd.splits.test):
        h.update(b"|split")
        for s in split:
            h.update(np.int64(s.user).tobytes())
            h.update(s.items.astype(np.int64).tobytes())
            h.update(s.ratings.astype(np.float64).tobytes())
    h.update(sd.preferences.tobytes())
    for u in sorted(sd.groups):
        h.update(np.array([u, sd.groups[u]], dtype=np.int64).tobytes())
        h.update(np.array(sorted(sd.anchors[u]), dtype=np.int64).tobytes())
    return h.hexdigest()


# recorded from the generator that derived every user's filler pools anew;
# a change that moves, adds or drops one draw changes them
_SYNTH_DIGESTS = [
    ("_GATE5_EXPLICIT", 0, "6a9ff49e2eeabe9dce8781e71dd05f6c6971c304e081e97cf03db60a51d2a653"),
    ("_GATE5_EXPLICIT", 1, "f3f15cd3034b01886d91ad80dc9e40482afa6ba0f0e8b5d463d4118a08c68381"),
    ("_GATE5_EXPLICIT", 2, "2a2c834d2391bab1f0e4b07ebf8c58edd03400ec9327b3c4975c74998c90d3bd"),
    ("_GATE5_IMPLICIT", 0, "0b6437c718761e9b0b4e96429ba74f5342c08bdc8bc8a8a8280568f9899a3c4c"),
    ("_GATE5_IMPLICIT", 1, "93d10feb1b803ee9e1441914c4fa9b4fba2e974c69073b12a44cea2cad2c623c"),
    ("_GATE5_IMPLICIT", 2, "adabd5b0b165ce6aa9cdd7b16b0e38a5beb4d46c0a2041f1590c5e84e363f376"),
    ("_ML1M", 0, "a910439f4d5b71f0a64ff0da3efb8a42976f06a4ed22d2290dfeec2bd0e8849b"),
    ("_ML1M", 1, "04925fb37afa2dd1f1c50a30b410dbf9f4172d857b0ca94b544a84a5457ffb5d"),
    ("_EMPTY_LIKED", 0, "5fbe946554eabb6a21d6ee94ab836799fc6e91b2065c2da1aecde5a8a0120172"),
    ("_SPARSE_GROUPS", 0, "ec42810b70274a90d2afe920ab76721300035d45d7fede8ec4cd88f6b2a7afcf"),
    ("_ALL_LIKED", 0, "191206d5514ab6ca96e8fbd5cbdfee10662761bffba94a141de81055393d2416"),
    ("_ALL_LIKED", 1, "abac3af836362757da5cc8709f997213351d3cd64ee9b581ee43bc6bf071cb5f"),
]


@pytest.mark.parametrize("config, seed, digest", _SYNTH_DIGESTS,
                         ids=[f"{c}-{s}" for c, s, _ in _SYNTH_DIGESTS])
def test_synth_stream_matches_its_recorded_digest(config, seed, digest):
    sd = ds.synth_stream(ds.SynthConfig(**globals()[config]), seed=seed)
    assert synth_digest(sd) == digest
    for s in sd.splits.train + sd.splits.valid + sd.splits.test:
        assert s.items.dtype == np.int64 and s.ratings.dtype == np.float64
    assert all(type(a) is int for u in sd.anchors for a in sd.anchors[u])


def test_the_sparse_groups_config_leaves_a_group_without_users():
    sd = ds.synth_stream(ds.SynthConfig(**_SPARSE_GROUPS), seed=0)
    assert len(set(sd.groups.values())) < _SPARSE_GROUPS["n_groups"]


# -------------------------------------------------------------- properties

@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 10)),
                min_size=1, max_size=120, unique=True),
       st.integers(1, 4))
def test_k_core_property_matches_oracle(pairs, k):
    streams = make_streams(pairs)
    expect = oracle_peel(pairs, k)
    if not expect:
        with pytest.raises(ds.DataError):
            ds.k_core_filter(streams, k=k)
        return
    out = ds.k_core_filter(streams, k=k)
    got = {(s.user, int(i)) for s in out for i in s.items}
    assert got == expect
    # every emitted stream stays duplicate-free and order-preserving
    for s in out:
        assert len(set(s.items.tolist())) == len(s.items)
