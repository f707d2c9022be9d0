import numpy as np
import pytest

from memtracker import autodiff as ad
from memtracker import memory as mem
from memtracker.autodiff import Tensor

N, n, C = 4, 3, 5


def fresh(n_slots=N, decay=0.99):
    return mem.MemoryState.zeros(n_slots, n, C, decay, dtype=np.float64)


def rand_template(rng):
    return Tensor(rng.standard_normal((n, n, C)))


def gates(skip, read, alloc):
    return Tensor(np.array([skip, read, alloc], dtype=np.float64))


def scalar(x):
    return Tensor(np.array(x, dtype=np.float64))


# --- memory keys -------------------------------------------------------------

def test_key_of_constant_template():
    t = Tensor(np.full((n, n, C), 4.5))
    np.testing.assert_allclose(mem.memory_key(t).data, 4.5)


def test_key_of_zero_template_scores_zero():
    m = fresh()
    sims = ad.cosine_rows(m.keys, Tensor(np.ones(C))).data
    np.testing.assert_allclose(sims, 0.0)


def test_key_hand_mean():
    t = np.zeros((2, 2, 1))
    t[:, :, 0] = [[1.0, 2.0], [3.0, 4.0]]
    got = mem.memory_key(Tensor(t)).data
    np.testing.assert_allclose(got, [2.5])


# --- reading -----------------------------------------------------------------

def test_read_identical_keys_gives_mean(rng):
    m = fresh(2)
    t = rng.standard_normal((n, n, C))
    m.slots = Tensor(np.stack([t, t + 0.0]))  # same key (same template)
    m.keys = Tensor(np.stack([t.mean(axis=(0, 1))] * 2))
    retrieved, w = mem.read(m, Tensor(rng.standard_normal(C)), scalar(5.0))
    np.testing.assert_allclose(w.data, [0.5, 0.5], atol=1e-9)
    np.testing.assert_allclose(retrieved.data, t, atol=1e-9)


def test_read_weight_closed_form_beta20():
    # cosines (1, 0) at strength 20 -> softmax([20, 0])
    m = fresh(2)
    key = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    slot0 = np.zeros((n, n, C))
    slot0[:, :, 0] = 1.0  # key along channel 0
    m.slots = Tensor(np.stack([slot0, np.zeros((n, n, C))]))
    m.keys = Tensor(np.stack([slot0.mean(axis=(0, 1)), np.zeros(C)]))
    _, w = mem.read(m, Tensor(key), scalar(20.0))
    e = np.exp(-20.0)
    np.testing.assert_allclose(w.data, [1 / (1 + e), e / (1 + e)], rtol=1e-7)
    assert w.data[1] == pytest.approx(2.0611536e-9, rel=1e-4)


def test_read_key_scale_invariance(rng):
    m = fresh()
    m.slots = Tensor(rng.standard_normal((N, n, n, C)))
    m.keys = Tensor(m.slots.data.mean(axis=(1, 2)))
    k = rng.standard_normal(C)
    _, w1 = mem.read(m, Tensor(k), scalar(3.0))
    _, w2 = mem.read(m, Tensor(7.0 * k), scalar(3.0))
    np.testing.assert_allclose(w1.data, w2.data, atol=1e-9)


def test_read_weights_simplex(rng):
    m = fresh()
    m.slots = Tensor(rng.standard_normal((N, n, n, C)))
    m.keys = Tensor(m.slots.data.mean(axis=(1, 2)))
    for _ in range(100):
        _, w = mem.read(m, Tensor(rng.standard_normal(C)), scalar(float(rng.uniform(1, 30))))
        assert (w.data >= 0).all()
        assert w.data.sum() == pytest.approx(1.0, abs=1e-6)


# --- allocation --------------------------------------------------------------

def test_allocation_argmin():
    np.testing.assert_allclose(mem.allocation_weight(np.array([0.5, 0.2, 0.9])), [0, 1, 0])


def test_allocation_tie_lowest_index():
    np.testing.assert_allclose(mem.allocation_weight(np.array([0.2, 0.2])), [1, 0])


def test_allocation_avoids_just_written_slot(rng):
    m = fresh()
    w1 = mem.allocation_weight(m.access)
    j1 = int(np.argmax(w1))
    m = mem.write_positive(m, rand_template(rng), gates(0.0, 0.0, 1.0),
                           Tensor(np.zeros(N)), scalar(0.5))
    w2 = mem.allocation_weight(m.access)
    assert int(np.argmax(w2)) != j1


# --- positive writing --------------------------------------------------------

def test_write_skip_changes_nothing(rng):
    m = fresh()
    m.slots = Tensor(rng.standard_normal((N, n, n, C)))
    m.keys = Tensor(m.slots.data.mean(axis=(1, 2)))
    before = m.slots.data.copy()
    w_read = np.abs(rng.standard_normal(N))
    w_read /= w_read.sum()
    m2 = mem.write_positive(m, rand_template(rng), gates(1.0, 0.0, 0.0),
                            Tensor(w_read), scalar(0.7))
    np.testing.assert_allclose(m2.slots.data, before, atol=1e-12)
    np.testing.assert_allclose(m2.access, 0.99 * m.access + w_read, atol=1e-12)


def test_write_allocate_replaces_slot_exactly(rng):
    m = fresh()
    m.access = np.array([5.0, 0.1, 3.0, 2.0])
    t_new = rand_template(rng)
    m2 = mem.write_positive(m, t_new, gates(0.0, 0.0, 1.0), Tensor(np.zeros(N)), scalar(0.9))
    np.testing.assert_allclose(m2.slots.data[1], t_new.data, atol=1e-12)


def test_write_read_gate_blend(rng):
    m = fresh(2)
    base = rng.standard_normal((n, n, C))
    m.slots = Tensor(np.stack([base, rng.standard_normal((n, n, C))]))
    m.keys = Tensor(m.slots.data.mean(axis=(1, 2)))
    t_new = rand_template(rng)
    w_read = Tensor(np.array([1.0, 0.0]))
    m2 = mem.write_positive(m, t_new, gates(0.0, 1.0, 0.0), w_read, scalar(0.3))
    np.testing.assert_allclose(m2.slots.data[0], 0.7 * base + 0.3 * t_new.data, atol=1e-6)


def test_write_weight_sums_to_read_plus_alloc_gate(rng):
    for _ in range(50):
        g = np.abs(rng.standard_normal(3))
        g /= g.sum()
        w_read = np.abs(rng.standard_normal(N))
        w_read /= w_read.sum()
        w_alloc = mem.allocation_weight(np.abs(rng.standard_normal(N)))
        w_write = g[1] * w_read + g[2] * w_alloc
        assert w_write.sum() == pytest.approx(g[1] + g[2], abs=1e-9)
        assert 0.0 <= w_write.sum() <= 1.0 + 1e-9


def test_keys_consistent_after_write(rng):
    m = fresh()
    for _ in range(5):
        g = np.abs(rng.standard_normal(3))
        g /= g.sum()
        w_read = np.abs(rng.standard_normal(N))
        w_read /= w_read.sum()
        m = mem.write_positive(m, rand_template(rng), Tensor(g), Tensor(w_read),
                               scalar(float(rng.uniform(0.05, 0.95))))
        for j in range(N):
            np.testing.assert_allclose(m.keys.data[j], mem.memory_key(m.slots[j]).data,
                                       atol=1e-6)


def test_access_decay_of_untouched_slots(rng):
    m = fresh()
    m.access = np.array([1.0, 2.0, 3.0, 4.0])
    m2 = mem.write_positive(m, rand_template(rng), gates(1.0, 0.0, 0.0),
                            Tensor(np.zeros(N)), scalar(0.5))
    np.testing.assert_allclose(m2.access, 0.99 * m.access)
    assert (m2.access >= 0).all()


# --- hard read / queue variants ----------------------------------------------

def test_hard_read_is_infinite_strength_limit(rng):
    m = fresh()
    m.slots = Tensor(rng.standard_normal((N, n, n, C)))
    m.keys = Tensor(m.slots.data.mean(axis=(1, 2)))
    k = Tensor(rng.standard_normal(C))
    hard, j = mem.hard_read(m, k)
    _, w_sharp = mem.read(m, k, scalar(500.0))
    assert int(np.argmax(w_sharp.data)) == j
    assert w_sharp.data[j] == pytest.approx(1.0, abs=1e-6)
    np.testing.assert_allclose(hard.data, m.slots.data[j])


def test_queue_write_cycles_and_mean_retrieval(rng):
    m = fresh(3)
    templates = [rng.standard_normal((n, n, C)) for _ in range(3)]
    for t in templates[:2]:
        m = mem.queue_write(m, Tensor(t))
    got = mem.queue_retrieve(m).data
    np.testing.assert_allclose(got, (templates[0] + templates[1]) / 2, atol=1e-9)
    m = mem.queue_write(m, Tensor(templates[2]))
    got = mem.queue_retrieve(m).data
    np.testing.assert_allclose(got, np.mean(templates, axis=0), atol=1e-9)
    # wraps: next write replaces the oldest
    t_new = rng.standard_normal((n, n, C))
    m = mem.queue_write(m, Tensor(t_new))
    np.testing.assert_allclose(m.slots.data[0], t_new, atol=1e-12)


from oracles import OracleQueue, oracle_write_negative


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n_slots, decay", [(8, 0.99), (1, 0.99), (8, 1.0)])
def test_queue_write_matches_ring_buffer_oracle(n_slots, decay):
    rng = np.random.default_rng(21)
    m = fresh(n_slots, decay)
    ring = OracleQueue(n_slots, (n, n, C), decay)
    for _ in range(100):
        t = rng.standard_normal((n, n, C))
        m = mem.queue_write(m, Tensor(t))
        ring.write(t)
        assert _same_bytes(m.slots.data, ring.slots)
        assert _same_bytes(m.keys.data, ring.keys())
        assert _same_bytes(m.access, ring.access)
        assert _same_bytes(mem.queue_retrieve(m).data, ring.retrieve())


# --- distractor extraction -----------------------------------------------------

from oracles import distractor_coords, oracle_distractors


def test_distractor_included_far_peak():
    score = np.zeros((12, 12))
    score[5, 5] = 1.0
    score[5, 10] = 0.8
    feats = Tensor(np.random.default_rng(0).standard_normal((12 + n - 1, 12 + n - 1, C)))
    got = mem.extract_distractors(score, feats, tau=4.0, score_ratio=0.7, top_k=2, template_n=n)
    assert (5, 10) in got.coords


def test_distractor_excluded_near_peak():
    score = np.zeros((12, 12))
    score[5, 5] = 1.0
    score[5, 7] = 0.9
    score[5, 10] = 0.8
    feats = Tensor(np.random.default_rng(0).standard_normal((12 + n - 1, 12 + n - 1, C)))
    got = mem.extract_distractors(score, feats, tau=4.0, score_ratio=0.7, top_k=2, template_n=n)
    assert (5, 7) not in got.coords
    assert (5, 10) in got.coords


def test_distractor_uniform_map_gives_sentinel():
    score = np.full((9, 9), 0.25)
    feats = Tensor(np.random.default_rng(0).standard_normal((9 + n - 1, 9 + n - 1, C)))
    got = mem.extract_distractors(score, feats, tau=4.0, score_ratio=0.7, top_k=2, template_n=n)
    assert got.is_sentinel
    np.testing.assert_allclose(got.templates[0].data, 0.0)


def test_distractor_matches_oracle_on_random_maps():
    rng = np.random.default_rng(99)
    for _ in range(100):
        P = int(rng.integers(8, 14))
        score = rng.standard_normal((P, P))
        feats = Tensor(rng.standard_normal((P + n - 1, P + n - 1, C)))
        got = mem.extract_distractors(score, feats, tau=4.0, score_ratio=0.7,
                                      top_k=2, template_n=n)
        expect = oracle_distractors(score, tau=4.0, ratio=0.7, top_k=2)
        assert distractor_coords(got) == expect
        for tmpl, (i, j) in zip(got.templates, distractor_coords(got)):
            np.testing.assert_allclose(tmpl.data, feats.data[i:i + n, j:j + n, :])


# --- negative writing ----------------------------------------------------------

def _dset(templates, coords):
    return mem.DistractorSet(templates=templates, coords=coords)


def test_negative_write_fresh_memory_fills_first_slots(rng):
    m = fresh()
    t1, t2 = rand_template(rng), rand_template(rng)
    m2 = mem.write_negative(m, _dset([t1, t2], [(0, 0), (1, 1)]))
    np.testing.assert_allclose(m2.slots.data[0], t1.data)
    np.testing.assert_allclose(m2.slots.data[1], t2.data)


def test_negative_write_queue_cycles_all_slots():
    # 16 slots, 2 per round: every slot is written once before any reuse
    rng = np.random.default_rng(5)
    m = mem.MemoryState.zeros(16, n, C, 0.99, dtype=np.float64)
    seen = []
    markers = {}
    for round_idx in range(8):
        t1 = Tensor(np.full((n, n, C), float(round_idx) + 0.25))
        t2 = Tensor(np.full((n, n, C), float(round_idx) + 0.75))
        before = m.slots.data.copy()
        m = mem.write_negative(m, _dset([t1, t2], [(0, 0), (1, 1)]))
        changed = [j for j in range(16) if not np.allclose(before[j], m.slots.data[j])]
        seen.extend(changed)
    assert sorted(seen) == list(range(16))


def test_negative_write_sentinel_cancels_nothing(rng):
    m = fresh()
    zero = Tensor(np.zeros((n, n, C)))
    m2 = mem.write_negative(m, _dset([zero], [None]))
    retrieved, _ = mem.read(m2, Tensor(rng.standard_normal(C)), scalar(5.0))
    np.testing.assert_allclose(retrieved.data, 0.0)


def test_negative_write_includes_read_weight_in_access(rng):
    m = fresh()
    w_neg = np.abs(rng.standard_normal(N))
    w_neg /= w_neg.sum()
    m2 = mem.write_negative(m, _dset([rand_template(rng)], [(0, 0)]),
                            read_weight=Tensor(w_neg))
    expect = 0.99 * m.access + w_neg
    expect[0] += 1.0
    np.testing.assert_allclose(m2.access, expect, atol=1e-12)


def test_negative_write_too_many_rejected(rng):
    m = fresh(2)
    ts = [rand_template(rng) for _ in range(3)]
    with pytest.raises(ValueError):
        mem.write_negative(m, _dset(ts, [(0, 0)] * 3))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("with_read", [False, True])
@pytest.mark.parametrize("k", [1, 2])
def test_negative_write_matches_sequential_oracle(k, with_read, dtype):
    rng = np.random.default_rng(40 + k)
    base = rng.standard_normal((N, n, n, C)).astype(dtype)
    access = np.array([0.5, 0.2, 0.5, 0.2])  # ties: slots 1 and 3 go first
    ts = [rng.standard_normal((n, n, C)).astype(dtype) for _ in range(k)]
    w_read = Tensor(rng.dirichlet(np.ones(N)).astype(dtype)) if with_read else None
    g_slots = rng.standard_normal((N, n, n, C)).astype(dtype)
    g_keys = rng.standard_normal((N, C)).astype(dtype)

    def run(write):
        slots = Tensor(base.copy(), requires_grad=True)
        tmpls = [Tensor(t.copy(), requires_grad=True) for t in ts]
        new_slots, keys, new_access = write(slots, tmpls)
        ad.backward(ad.add(ad.tsum(ad.mul(new_slots, g_slots)), ad.tsum(ad.mul(keys, g_keys))))
        return [new_slots.data, keys.data, new_access, slots.grad] + [t.grad for t in tmpls]

    def library(slots, tmpls):
        m = mem.MemoryState(slots=slots, keys=Tensor(base.mean(axis=(1, 2))), access=access.copy(),
                            decay=0.99)
        out = mem.write_negative(m, _dset(tmpls, [(0, 0)] * k), read_weight=w_read)
        return out.slots, out.keys, out.access

    got = run(library)
    expect = run(lambda slots, tmpls: oracle_write_negative(slots, access, 0.99, tmpls, w_read))
    for a, b in zip(got, expect):
        assert _same_bytes(a, b)
