import numpy as np
import pytest

from memtracker import attention as attn
from memtracker.autodiff import Tensor


def bank_from(arr, window=1, stride=1):
    return attn.pool_patches(Tensor(np.asarray(arr, dtype=np.float64)), window, stride)


def test_patch_count_22_map():
    fmap = Tensor(np.random.default_rng(0).standard_normal((22, 22, 4)))
    bank = attn.pool_patches(fmap, 6, 1)
    assert len(bank.data) == (22 - 6 + 1) ** 2 == 289


def test_single_patch_equals_global_mean(rng):
    fmap = rng.standard_normal((5, 5, 3))
    bank = bank_from(fmap, window=5)
    assert len(bank.data) == 1
    np.testing.assert_allclose(bank.data[0], fmap.mean(axis=(0, 1)), atol=1e-12)


def test_constant_map_gives_identical_vectors():
    fmap = np.full((7, 7, 2), 1.75)
    bank = bank_from(fmap, window=3)
    np.testing.assert_allclose(bank.data, 1.75)


def _hand_params(hidden, channels, attn_size, seed):
    rng = np.random.default_rng(seed)
    return {
        "attn/wa": Tensor(rng.standard_normal((1, attn_size))),
        "attn/wh": Tensor(rng.standard_normal((attn_size, hidden))),
        "attn/wf": Tensor(rng.standard_normal((attn_size, channels))),
        "attn/b": Tensor(rng.standard_normal(attn_size)),
    }


def test_scores_zero_when_output_row_zero(rng):
    params = _hand_params(4, 3, 5, 0)
    params["attn/wa"] = Tensor(np.zeros((1, 5)))
    bank = bank_from(rng.standard_normal((4, 4, 3)), window=2)
    scores = attn.attention_scores(Tensor(rng.standard_normal(4)), bank, params)
    np.testing.assert_allclose(scores.data, 0.0)


def test_identical_patches_identical_scores():
    params = _hand_params(4, 3, 5, 1)
    bank = bank_from(np.full((4, 4, 3), 0.6), window=2)
    scores = attn.attention_scores(Tensor(np.random.default_rng(2).standard_normal(4)), bank, params)
    assert np.allclose(scores.data, scores.data[0])


def test_two_patch_closed_form():
    # hand evaluation of wa . tanh(wh h + wf f_i + b) for two explicit patches
    params = _hand_params(2, 2, 3, 7)
    h = np.array([0.3, -0.8])
    f1, f2 = np.array([0.5, 1.0]), np.array([-1.0, 0.25])
    bank = Tensor(np.stack([f1, f2]))
    got = attn.attention_scores(Tensor(h), bank, params).data
    wa, wh, wf, b = (params[k].data for k in ("attn/wa", "attn/wh", "attn/wf", "attn/b"))
    for k, f in enumerate((f1, f2)):
        expect = float((wa @ np.tanh(wh @ h + wf @ f + b))[0])
        assert got[k] == pytest.approx(expect, abs=1e-12)


def test_attended_vector_of_equal_patches_is_that_patch(rng):
    fmap = np.tile(np.array([1.0, -2.0, 0.5]), (5, 5, 1))
    bank = bank_from(fmap, window=1)
    scores = Tensor(rng.standard_normal(25) * 3)
    vec, alpha = attn.attended_vector(scores, bank)
    np.testing.assert_allclose(vec.data, [1.0, -2.0, 0.5], atol=1e-9)


def test_attended_vector_closed_form_weights():
    v1, v2 = np.array([2.0, 0.0]), np.array([0.0, 3.0])
    bank = Tensor(np.stack([v1, v2]))
    vec, alpha = attn.attended_vector(Tensor(np.array([np.log(2.0), 0.0])), bank)
    np.testing.assert_allclose(alpha.data, [2 / 3, 1 / 3], atol=1e-12)
    np.testing.assert_allclose(vec.data, (2 / 3) * v1 + (1 / 3) * v2, atol=1e-12)


def test_weights_form_simplex(rng):
    bank = bank_from(rng.standard_normal((6, 6, 4)), window=3)
    _, alpha = attn.attended_vector(Tensor(rng.standard_normal(len(bank.data))), bank)
    assert (alpha.data > 0).all()
    assert alpha.data.sum() == pytest.approx(1.0, abs=1e-6)


def test_attended_in_convex_hull(rng):
    for _ in range(20):
        bank = bank_from(rng.standard_normal((4, 4, 3)), window=2)
        vec, _ = attn.attended_vector(Tensor(rng.standard_normal(len(bank.data)) * 4), bank)
        lo = bank.data.min(axis=0) - 1e-9
        hi = bank.data.max(axis=0) + 1e-9
        assert ((vec.data >= lo) & (vec.data <= hi)).all()


def test_uniform_variant_equals_equal_scores(rng):
    bank = bank_from(rng.standard_normal((5, 5, 3)), window=2)
    uniform, _ = attn.uniform_attended_vector(bank)
    equal_scores, _ = attn.attended_vector(Tensor(np.full(len(bank.data), 0.37)), bank)
    np.testing.assert_allclose(uniform.data, equal_scores.data, atol=1e-9)


def test_score_count_mismatch_rejected(rng):
    bank = bank_from(rng.standard_normal((4, 4, 2)), window=2)
    with pytest.raises(ValueError):
        attn.attended_vector(Tensor(np.zeros(len(bank.data) + 1)), bank)
