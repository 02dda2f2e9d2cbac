"""Pinned digests of the mod-p layer's output: factor patterns at every prime
below 500, Dedekind samples and irreducibility verdicts.

The digests were taken from the implementation that ran a square-free
decomposition over F_p before its distinct-degree pass; the single pass
that peels multiplicities must reproduce them exactly.  The entries of
degree 24, 33 and 40 and the product with multiplicities on degrees 4 to 7
were taken from the pass that went one degree at a time, before degrees
were taken in blocks [d, 2d - 1].  `primes` is checked against trial
division.
"""

import hashlib
import math
import random

import pytest

from frickelab.algebraic import galois_cycle_types
from frickelab.poly import UniPoly, factor_mod_p, irreducible_over_Q, primes

QUINTIC = UniPoly([-4, 4, 3, -4, -2, 1])


def _inputs():
    rng = random.Random(1009)
    out = {"quintic": QUINTIC}
    for d in (12, 17, 20, 24, 33, 40):
        out[f"monic{d}"] = UniPoly([rng.randint(-30, 30) for _ in range(d)] + [1])
    out["x4+1"] = UniPoly([1, 0, 0, 0, 1])
    out["quintic*(x^5-x-1)"] = QUINTIC * UniPoly([-1, -1, 0, 0, 0, 1])
    out["quintic^2"] = QUINTIC * QUINTIC
    # multiplicities on factors of degree 4 to 7, the block [4, 7]
    m4, m5, m6, m7 = (UniPoly([rng.randint(-30, 30) for _ in range(d)] + [1]) for d in (4, 5, 6, 7))
    out["m4^2*m5*m6*m7^3"] = m4 * m4 * m5 * m6 * m7 ** 3
    return out


# name: (samples, irreducibility verdict, factor_mod_p at each prime < 500)
GOLDEN = {
    "quintic": (
        "539dd65805bf92f9ca826dca28fe97fc2604227cbb0bf0c3c5c300b1c8ec89a0",
        "11951869689c884a1fdcc0aafbb01cc6e9ff6e13db6e55819e3bfa466c0f8236",
        "83598eea4274cbde42785c81b1bde21f98a5ad2d1160571da5bfe49d34af4cdb",
    ),
    "monic12": (
        "381cc7c7f3c3ff4fd62a5652d6f15a2ec89375bc35ed0ab06d2fe3220067b031",
        "99e6eca401e833a4df82ff3df3301257856db2224bbe140e1ce4a6802f0eac2d",
        "64123dae990bac63afa17ca1abdb0c7b3478d72995dfd73365a737fded00cbc3",
    ),
    "monic17": (
        "80fbd1ddadfac9014ea3ce8efd5b66f1968bad4ade9ae92f723342889222db21",
        "bece15bc7ccce829040a3b3873a806c66bdb2620c7733ef040e6e0926418cbd2",
        "5831c0d80ef1e268ce71f66ab8d9b44b9d2fd4267eff85bd5b99166b7ceb6630",
    ),
    "monic20": (
        "0966fa5f293d328cec291aad84503cab0dc34102f83f1998a0bbb3c23394a8ec",
        "ed504b56ac93390c61830405c66aa801ac9a0f479cea8921ecfdb876e747b3ea",
        "075b7cfad18f387f1bfa20ea2154304e091ca972f403d04c9735acb6ce72312a",
    ),
    "x4+1": (
        "1fd6a3d4c319bd27cf552522462a2b28303101652961301dbbaff2688f6c54e8",
        "3f450de49d217f9e4fbe5ff7c659bb24422d3b98c526209f2e45694b50fac592",
        "406dcf73b94d4d0a748287b1e3f5442f00780797521e0182d2da7df807a8b655",
    ),
    "quintic*(x^5-x-1)": (
        "775d5371eeb77283183f167bc76cf8baf13339b6bdf90ff524b73b024d9e640a",
        "3f450de49d217f9e4fbe5ff7c659bb24422d3b98c526209f2e45694b50fac592",
        "d5ff21c89ce15cfc2140989c81e7dc0a9296caf9995ddf7a5c91c82741fc6692",
    ),
    "quintic^2": (
        "539dd65805bf92f9ca826dca28fe97fc2604227cbb0bf0c3c5c300b1c8ec89a0",
        "3f450de49d217f9e4fbe5ff7c659bb24422d3b98c526209f2e45694b50fac592",
        "663c3f978a18cbe93f422859a9625675fd19da472a2a6ccb9ca58718589947b5",
    ),
    "monic24": (
        "63d3bcc2711590d0c4a1cb8606e9178a4db3e45c209ff2b4e219ced8136af0db",
        "cd53e87c6a7aa0547ca5b20e3d2360d8999b6579241cdd5c398964a249707312",
        "b1c92aab7736033f19bd2c77161f75538545bd38cbfa6139d1f719df8a91c8aa",
    ),
    "monic33": (
        "7da9982b8083761c6c19bffb4a6d7b748f977f2bf3ac2b7de6a22b8055910415",
        "60d7cb081cc614f3c14ad157de9aaf103dd15fda6894d2ae62b662a6243d096b",
        "c241e69e1e4c64d1616f14c41979ca3ff1715ac7a9d58f6dce088c4b49e1d837",
    ),
    "monic40": (
        "d8581ef0c6e0f738289effa4010590865a3ff64efb56f4c4c8ea5d6b06798f06",
        "3f450de49d217f9e4fbe5ff7c659bb24422d3b98c526209f2e45694b50fac592",
        "b65677f2b5086acb354f9da3ee7a5a6d9d17d61a2daad89240235a2167544c5c",
    ),
    "m4^2*m5*m6*m7^3": (
        "e32adefe9a771c4bad11255b9515b1482dec4aaa4c433cf5e175d6e44455698d",
        "b5ee3b56bd4deddce3d457a6148015f075c3d697bae8f7321217688601380e9f",
        "c4f17b9963880ae572bd525250f9c5b6a32dd6cb5f84a9ccc06884687c698922",
    ),
}


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_mod_p_output_matches_pinned_digests(name):
    p = _inputs()[name]
    samples, verdict, patterns = GOLDEN[name]
    assert _sha(galois_cycle_types(p, 500).samples) == samples
    assert _sha(irreducible_over_Q(p, 500)) == verdict
    assert _sha([(q, factor_mod_p(p, q)) for q in primes(500) if p.lc() % q]) == patterns


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))


def test_primes_matches_trial_division():
    for bound in range(-2, 601):
        got = primes(bound)
        assert type(got) is list
        assert got == [n for n in range(bound + 1) if _is_prime_by_trial_division(n)], bound
