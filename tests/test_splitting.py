import numpy as np
import pytest

from qmono import geometry, hilbert, operators as ops, quat, splitting
from qmono.hilbert import LatticeField, LatticeSpec


@pytest.fixture(scope="module")
def spec():
    return LatticeSpec(n=16, box=4.0)


def random_field(spec, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((spec.n,) * 3 + (4,))
    f = LatticeField(spec, vals)
    return LatticeField(spec, vals / hilbert.norm(f))


def test_split_reconstruct_and_membership(spec):
    for seed in range(4):
        psi = random_field(spec, seed)
        pair = splitting.split(psi)
        rec = splitting.reconstruct(pair)
        assert np.abs(rec.values - psi.values).max() < 1e-14
        assert splitting.slice_residual(pair.psi1) < 1e-14
        assert splitting.slice_residual(pair.psi2) < 1e-14


def test_norm_additivity(spec):
    for seed in range(10):
        psi = random_field(spec, 100 + seed)
        pair = splitting.split(psi)
        total = hilbert.norm(pair.psi1) ** 2 + hilbert.norm(pair.psi2) ** 2
        assert abs(hilbert.norm(psi) ** 2 - total) < 1e-12


def test_split_of_slice_member(spec):
    rng = np.random.default_rng(7)
    psi = splitting.random_slice_member(spec, rng)
    pair = splitting.split(psi)
    assert np.abs(pair.psi1.values - psi.values).max() < 1e-14
    assert np.abs(pair.psi2.values).max() < 1e-14


def _slice_member_ref(spec, rng):
    # the slice sampler with its hand-written Gaussian, before it drew
    # hilbert.gaussian_field
    pts = spec.points()
    center = rng.uniform(-0.45 * spec.box, 0.45 * spec.box, size=3)
    while not 0.3 * spec.box < np.linalg.norm(center) < 0.45 * spec.box:
        center = rng.uniform(-0.45 * spec.box, 0.45 * spec.box, size=3)
    width = rng.uniform(0.08 * spec.box, 0.12 * spec.box)
    env = np.exp(-np.sum((pts - center) ** 2, axis=-1) / (2.0 * width**2))
    amp = rng.standard_normal(4)
    psi1 = splitting.split(LatticeField(spec, env[..., None] * amp)).psi1
    return psi1.values / hilbert.norm(psi1)


@pytest.mark.parametrize("n, box", [(14, 6.0), (32, 6.0), (16, 7.3)])
def test_slice_member_keeps_the_bits_of_its_gaussian(n, box):
    lattice = LatticeSpec(n=n, box=box)
    for seed in range(40):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):
            got = splitting.random_slice_member(lattice, rng).values
            want = _slice_member_ref(lattice, ref)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), seed
        assert rng.bit_generator.state == ref.bit_generator.state


def test_in_slice_residual_of_constant_field(spec):
    # psi = e0 everywhere: residual is max |dirq(x) - e3|, order one off-axis
    psi = hilbert.constant(spec, quat.E0)
    res = splitting.slice_residual(psi)
    assert res > 1e-10
    expected = quat.qnorm(geometry.dirq(spec.points()) - quat.E3).max()
    assert res == pytest.approx(expected, rel=1e-12)


def test_orthogonality_structure(spec):
    w, wt = quat.E3, quat.E1
    for seed in range(5):
        psi = random_field(spec, 200 + seed)
        pair = splitting.split(psi)
        cross = hilbert.inner(pair.psi1, hilbert.rscale(pair.psi2, wt))
        # the decomposition is orthogonal in the slice field: both the real
        # part and the omega component of inner(psi1, psi2 omega_tilde) vanish
        assert abs(cross[0]) < 1e-12
        assert abs(float(np.sum(cross * w))) < 1e-12
        # while inner(psi1, psi2) itself lands in the slice field
        q12 = hilbert.inner(pair.psi1, pair.psi2)
        perp = q12 - q12[0] * quat.E0 - float(np.sum(q12 * w)) * w
        assert quat.qnorm(perp) < 1e-12


def test_slice_is_complex_linear(spec):
    rng = np.random.default_rng(11)
    psi = splitting.random_slice_member(spec, rng)
    phi = splitting.random_slice_member(spec, rng)
    z = 0.3 * quat.E0 - 1.2 * quat.E3
    combo = LatticeField(spec, psi.values + hilbert.rscale(phi, z).values)
    assert splitting.slice_residual(combo) < 1e-12
    # right multiplication by a non-slice unit leaves the slice
    kicked = hilbert.rscale(psi, quat.E1)
    assert splitting.slice_residual(kicked) > 0.5


def _members(spec, seed, count):
    rng = np.random.default_rng(seed)
    return [splitting.random_slice_member(spec, rng) for _ in range(count)]


def test_reduce_check_twisted_shift(spec):
    op = ops.twisted_shift(spec, [2, 1, 0])
    before, after = splitting.reduce_check(op, _members(spec, 1, 4))
    assert before.shape == after.shape == (4,)
    assert before.max() <= 1e-12 and after.max() <= 1e-12


def test_reduce_check_hamiltonian(spec):
    # the transported-hop Hamiltonian commutes with J exactly, so it
    # preserves the slice to roundoff
    before, after = splitting.reduce_check(ops.hamiltonian(spec, 1.0), _members(spec, 2, 4))
    assert before.shape == after.shape == (4,)
    assert before.max() <= 1e-12 and after.max() <= 1e-12


def test_reduce_check_left_unit_fails(spec):
    before, after = splitting.reduce_check(ops.left_unit(spec, 0), _members(spec, 3, 3))
    assert before.shape == after.shape == (3,)
    # the inputs are slice members; the outputs leave the slice at order one
    assert before.max() <= 1e-12
    assert after.max() > 0.1
