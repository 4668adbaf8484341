import pytest

from usmod.errors import (
    ImproperIdealError,
    InvalidMultiplicativeSetError,
    InvalidRingError,
    NotPrimeError,
    ResourceExceededError,
)
from usmod.caps import Caps
from usmod.modules import regular_module
from usmod.rings import (
    Ideal,
    all_ideals,
    check_mult_set,
    check_ring_axioms,
    complement_of_prime,
    is_prime_ideal,
    is_regular_set,
    is_u_S_noetherian,
    make_product,
    make_trivial_extension,
    make_zmod,
    mult_set_closure,
    quotient_ring,
    spectrum,
    unit_mult_set,
)


def test_make_zmod_examples():
    r6 = make_zmod(6)
    assert r6.size == 6
    assert r6.mul[2][3] == 0
    r2 = make_zmod(2)
    assert r2.add[1][1] == 0
    r4 = make_zmod(4)
    assert r4.mul[2][2] == 0  # 2 is nilpotent


def test_make_zmod_rejects_small():
    with pytest.raises(InvalidRingError):
        make_zmod(1)
    with pytest.raises(InvalidRingError):
        make_zmod(0)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9, 12, 36])
def test_zmod_axioms(n):
    check_ring_axioms(make_zmod(n))


def test_product_crt_isomorphism():
    # Z/6 -> Z/2 x Z/3, x -> (x mod 2, x mod 3), is a ring isomorphism
    prod = make_product(make_zmod(2), make_zmod(3))
    r6 = make_zmod(6)
    assert prod.size == 6
    crt = [(x % 2) * 3 + x % 3 for x in range(6)]
    assert sorted(crt) == list(range(6))
    assert crt[r6.one] == prod.one
    for x in range(6):
        for y in range(6):
            assert crt[r6.add[x][y]] == prod.add[crt[x]][crt[y]]
            assert crt[r6.mul[x][y]] == prod.mul[crt[x]][crt[y]]
    # non-coprime pair: Z/2 x Z/2 has exponent 2, Z/4 does not, so they differ
    klein = make_product(make_zmod(2), make_zmod(2))
    z4 = make_zmod(4)
    assert all(klein.add[x][x] == klein.zero for x in range(4))
    assert z4.add[1][1] != z4.zero


def test_product_idempotent_pair():
    klein = make_product(make_zmod(2), make_zmod(2))
    e1 = 1 * 2 + 0  # (1,0)
    e2 = 0 * 2 + 1  # (0,1)
    assert klein.mul[e1][e2] == klein.zero


def test_product_identity_and_cap():
    prod = make_product(make_zmod(4), make_zmod(3))
    assert prod.size == 12
    assert prod.names[prod.one] == "(1,1)"
    with pytest.raises(ResourceExceededError):
        make_product(make_zmod(9), make_zmod(9), Caps(max_ring=64))


def test_trivial_extension_square_zero():
    r2 = make_zmod(2)
    ext = make_trivial_extension(r2, regular_module(r2))
    assert ext.size == 4
    m01 = 0 * 2 + 1  # (0,1)
    assert ext.mul[m01][m01] == ext.zero
    assert ext.names[ext.one] == "(1,0)"

    r3 = make_zmod(3)
    ext3 = make_trivial_extension(r3, regular_module(r3))
    assert ext3.size == 9
    for m in range(3):
        for n in range(3):
            assert ext3.mul[0 * 3 + m][0 * 3 + n] == ext3.zero


def test_quotient_ring_examples():
    r6 = make_zmod(6)
    q1, _ = quotient_ring(r6, Ideal(r6, (0, 2, 4)))
    assert q1.size == 2
    q2, surj = quotient_ring(r6, Ideal(r6, (0, 3)))
    assert q2.size == 3
    assert surj[3] == surj[0]
    q3, surj = quotient_ring(r6, Ideal(r6, (0,)))
    assert surj == tuple(range(6))
    assert (q3.add, q3.mul, q3.zero, q3.one) == (r6.add, r6.mul, r6.zero, r6.one)
    with pytest.raises(ImproperIdealError):
        quotient_ring(r6, Ideal(r6, tuple(range(6))))


def test_all_ideals_examples():
    r6 = make_zmod(6)
    assert [i.members for i in all_ideals(r6)] == [
        (0,),
        (0, 3),
        (0, 2, 4),
        (0, 1, 2, 3, 4, 5),
    ]
    r4 = make_zmod(4)
    assert [i.members for i in all_ideals(r4)] == [(0,), (0, 2), (0, 1, 2, 3)]
    field = make_zmod(5)
    assert len(all_ideals(field)) == 2


def test_spectrum_examples():
    r6 = make_zmod(6)
    primes, maximals = spectrum(r6)
    assert {p.members for p in primes} == {(0, 3), (0, 2, 4)}
    assert primes == maximals
    r4 = make_zmod(4)
    primes4, maximals4 = spectrum(r4)
    assert [p.members for p in primes4] == [(0, 2)]
    field = make_zmod(7)
    primes_f, max_f = spectrum(field)
    assert [p.members for p in primes_f] == [(0,)]
    assert primes_f == max_f


def test_spectrum_consistency_quotients_are_fields():
    # quotient by any maximal ideal has exactly two ideals
    for n in (4, 6, 8, 9, 12):
        ring = make_zmod(n)
        _, maximals = spectrum(ring)
        for m in maximals:
            q, _ = quotient_ring(ring, m)
            assert len(all_ideals(q)) == 2


def test_mult_set_closure_examples():
    r6 = make_zmod(6)
    s = mult_set_closure(r6, [4])
    assert s.members == (1, 4)
    assert s.sigma == 4
    s2 = mult_set_closure(r6, [2])
    assert s2.members == (1, 2, 4)
    assert s2.sigma == 2  # 1*2*4 = 8 = 2 mod 6
    with pytest.raises(InvalidMultiplicativeSetError):
        mult_set_closure(make_zmod(4), [2])
    for gens in ([7], [-1], [4, 6]):  # -1 is not read as 5
        with pytest.raises(InvalidMultiplicativeSetError, match="not an element"):
            mult_set_closure(r6, gens)


def test_mult_set_closure_idempotent():
    r12 = make_zmod(12)
    s = mult_set_closure(r12, [4])
    again = mult_set_closure(r12, s.members)
    assert again.members == s.members and again.sigma == s.sigma
    check_mult_set(s)


def test_sigma_absorbs_every_member():
    # sigma = s * (product of the rest) for each member s
    r12 = make_zmod(12)
    for gens in ([5], [4], [7], [5, 7]):
        s = mult_set_closure(r12, gens)
        for x in s.members:
            rest = r12.product(y for y in s.members if y != x)
            assert r12.mul[x][rest] == s.sigma or len(s.members) == 1


def test_complement_of_prime():
    r6 = make_zmod(6)
    s = complement_of_prime(r6, Ideal(r6, (0, 2, 4)))
    assert s.members == (1, 3, 5)
    s2 = complement_of_prime(r6, Ideal(r6, (0, 3)))
    assert s2.members == (1, 2, 4, 5)
    field = make_zmod(5)
    s3 = complement_of_prime(field, Ideal(field, (0,)))
    assert s3.members == (1, 2, 3, 4)
    with pytest.raises(NotPrimeError):
        complement_of_prime(r6, Ideal(r6, (0,)))  # 2*3=0 outside {0}
    # {0,2,3,4} passes the prime test on products but is not an ideal
    for members in ((0, 2, 3, 4), (0, 7)):
        with pytest.raises(NotPrimeError, match="not an ideal"):
            complement_of_prime(r6, Ideal(r6, members))


def test_is_regular_set():
    r6 = make_zmod(6)
    assert not is_regular_set(r6, mult_set_closure(r6, [4]))  # 4*3 = 0
    r4 = make_zmod(4)
    assert is_regular_set(r4, mult_set_closure(r4, [3]))
    assert is_regular_set(r6, mult_set_closure(r6, [1]))


def test_unit_set_is_regular():
    for n in (4, 6, 9, 12):
        ring = make_zmod(n)
        assert is_regular_set(ring, unit_mult_set(ring))


def test_u_S_noetherian_always_with_witness_one():
    r6 = make_zmod(6)
    assert is_u_S_noetherian(r6, mult_set_closure(r6, [4])) == (True, 1)
    r4 = make_zmod(4)
    assert is_u_S_noetherian(r4, mult_set_closure(r4, [3])) == (True, 1)
    klein = make_product(make_zmod(2), make_zmod(2))
    ok_k, _ = is_u_S_noetherian(klein, mult_set_closure(klein, [klein.one]))
    assert ok_k


def test_prime_ideal_definition_scan():
    r6 = make_zmod(6)
    assert is_prime_ideal(Ideal(r6, (0, 3)))
    assert not is_prime_ideal(Ideal(r6, (0,)))  # 2*3 = 0
    assert not is_prime_ideal(Ideal(r6, tuple(range(6))))  # not proper


def test_composite_ring_axioms():
    r2 = make_zmod(2)
    check_ring_axioms(make_product(r2, make_zmod(3)))
    check_ring_axioms(make_trivial_extension(r2, regular_module(r2)))
