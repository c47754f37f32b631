"""Byte stability of the set-up every solve starts from.

Procedure 1's delay budgets and the wire parasitics of every suite
circuit are hashed float by float (``float.hex``). The digests were
recorded before the network's output set and the wire-length mean were
cached, so a set-up change that moves one value by one ulp fails here.
The budget digests hold on every Python version; the parasitics were
recorded on Python 3.10/3.11 and on 3.12/3.13.
"""

import hashlib

import pytest

from repro.interconnect.parasitics import network_parasitics
from repro.netlist.benchmarks import (
    ISCAS85_LIKE_SPECS,
    ISCAS_LIKE_SPECS,
    benchmark_circuit,
)
from repro.technology.process import Technology
from repro.timing.budgeting import assign_delay_budgets
from repro.units import MHZ

SUITE = ("s27", "c17", *ISCAS_LIKE_SPECS, *ISCAS85_LIKE_SPECS)

#: sha256 of the Procedure 1 budgets at 300 MHz, one
#: ``"<gate> <budget.hex()>"`` line per gate in name order.
SUITE_BUDGETS_SHA256 = {
    "s27": "9fff17d78bb0511d7569bb7f29b162e9b1ca4e867e2dca24e0c773c120d0f8e5",
    "c17": "07a2c706bbf5f68129d90481ef898efb93e0231d2dc191c02e02e3e966229cdb",
    "s298": "213d022938221825b27b5b126093a3d8257989575dfe666434543f3097153bb7",
    "s344": "3a81d7c75238cd6b1c42f94f25f2a18963e402c9edfca47f80e878cd354fb95c",
    "s349": "a775c1c45491995a29447a002239a5c479e7e18272e22e711ef7d2a8ec0558bd",
    "s382": "e949b7f102924353de4b2a051c76149a51db206cb159381c843b9219647de9f5",
    "s386": "410d0d11b24a60f8033fe94a9c3e0683ab3cd4d27199cd295917efce292ae311",
    "s400": "e2a530f4ab53ef5977fd1b8c3d6cfce3b8d46a09f3c63aa03db30a54ff8df2cb",
    "s444": "6fd25a11136f7f842172aa99c0caf44253e3f028ac098b2d979e97d0f93739e6",
    "s526": "b08f87eab3015b67a3fe9bde74ec52fe8c98f2a58925cf9e47bfcc72ceaacd1c",
    "c432": "d89c85f60c1532244d47d36ad68052e69d72459d04c0a47198005f816fdaca4e",
    "c499": "3acc4697309a02b8e3bb5b49b0707cb159b7ba9c1617570f8ec48ffe6e1f66a4",
    "c880": "9fdef7cb7a7775ecaeb53ab4af8610545418cb7a534f7ea951b25b9848625b20",
    "c1355": "4f2de654d7ab09b09aff33f380700298e1d1916f3b2e3e450fe4eb2f61c19a81",
    "c1908": "d146c66338676a9ae164823a12b90b144f6f5d013aea3ca991f7417add826c37",
    "c2670": "ddb4f2628dbf5035ea814a00058b826c62eef72205de280977763b8ead7adbaf",
    "c3540": "84963874a456ba8b40e16eb966f2cbf576a70b04d7242a735ba27ba32d115ac9",
    "c5315": "ace1891d985e7747b0af2299fcc5a38e6de02afb0f4a514fffa2c74215091137",
}

#: sha256 of ``network_parasitics`` on the default technology, one line
#: per driver in name order: its branch lengths, caps, resistances and
#: flight times as ``float.hex``. Python 3.12 made ``sum`` over floats
#: compensated, which moves the wire-length pmf by an ulp, so each
#: circuit has a digest for the left-to-right sum (Python <= 3.11) and
#: one for the compensated sum.
SUITE_PARASITICS_SHA256 = {
    "s27": ("17ea7fc2545e8fe6c457c2e9452145d52d583f6762bca8b8d032be978f8ae427",
            "df7f5d2a53ef534b38d11cb12ce836e918e6e5de0b3c42295f3e5ae76a3c13e8"),
    "c17": ("384867e85e1bfc922914f133a88b15f4759ed817450279e4189cd47dbb40651d",
            "384867e85e1bfc922914f133a88b15f4759ed817450279e4189cd47dbb40651d"),
    "s298": ("5f292bb1d012ef54695f6792d247ff47ac6ccb3a59fbd363791e7c3a8e3e9ead",
             "5f292bb1d012ef54695f6792d247ff47ac6ccb3a59fbd363791e7c3a8e3e9ead"),
    "s344": ("90f93321f749d9e359ee7c319ab01b48a53a1d8cc7047f91481df148b6044643",
             "301cefd7436799b5e3695877616f5b3cd3d303bf465a7944d582ba71edd36a0c"),
    "s349": ("feac30eb5e0c3d1dc9c82439289302eef821a4ca7ca2b7c40572050ad3467568",
             "2e10a3b03095199f003e1f1dbe0f42608a4d6ddaa7e05257f01c5ea0cd0284aa"),
    "s382": ("50e32602b917c587e90614b814416122d916972ffd877a131edaa6a441f24484",
             "c69b44d53bb3bb730ad33fb71d79f1e983e846338b3a1746b5d7939ce5f3ef11"),
    "s386": ("94f0db1cbb9c96910d49bdb6e0c05bdd1a044c2b01bc6aef3f6b945bbf5aa051",
             "ccfbd2708603ab7d4cc739ac10fa098fd2882bc4ff108da3ae9a8203791a2318"),
    "s400": ("a73dfe4398a9e968b047afaac49c6e9764a7ea31246a21a5d857c6aad5363fa1",
             "2a8f6ee1ac3934155ef86d1ec99da640d136662a2bde219331f23332b534a2f9"),
    "s444": ("82cfcde7a8ba4d6a368cf777138ed06591bc45f36643e3a1f3be329f9c10f6c4",
             "6bafd20a71595fe5257ccb48fa0e409bb26e35396a1e342d1c86a47c8078b8f0"),
    "s526": ("10dd4e19b737a05ac0c44fa1f65f4a4ef26480c31e8204af1aee479ec770b773",
             "2f5d6cf459d25e8a7e77918ed4159af169c950a40b1751ed7287b73949c20671"),
    "c432": ("3f16b825276c5718c720dc7f79b1fa969054787d76c9f5efb7afa66993177069",
             "5df4ed28a4c4c5f3a01c6f152108be8f273d4141b1c412f14815bf23e5bc4fed"),
    "c499": ("a17c9d339a5806a1fc1e9fac162253369d9ba11772755a7cc1774f9208506e42",
             "c9f606478bbe8768ba58b684f8a2af9849dce365630d144d8158c7ee8723b0a8"),
    "c880": ("288c48fc78efae151592790c844869fb6ba6d034709c53c3a94cdeb333f270ce",
             "6dbc0ba73f7f5ca0cb71e0d3fed84c80f1db9fd1f65dbc8d109da960a5a9f61a"),
    "c1355": ("93d228c3dd8084349310d7eec477f53106014ebd0c4c5d18bff6a8917c6c9774",
              "294f24a68468149f38185c8451e2ff780f4c05b93365aac2f7464926e2dbaad7"),
    "c1908": ("ab12750c05790d1765b6124703f0b261d13ab513066b166236196afcb19aef70",
              "dd75d96002581703f5cc61494b9f4f46d47607e0786714b01f740baba20ac478"),
    "c2670": ("31eeda95f5e8e81a9945d05824a1823392f836a6d87d33d721b777b6697d16da",
              "4f80222972e1790ae58b1c4f60fe78d07c1d0a5864c6662c7d67a6515890ffa0"),
    "c3540": ("e755aba05faf15bc6c73148a404e6159570639c82b98e1cc36f6c9be718d9111",
              "24b4506780852c8e65dbbab4427b2b45f133bc94b1bc38ac7a91993d536b0474"),
    "c5315": ("61f728fe191854aacf8f5c430a646b7c85962e19492532678a6957673be50e5d",
              "e0227d54a8db403be77e503e772dfdb951ff231fa02f50fe976415eb6684fbc0"),
}

COMPENSATED_SUM = sum([1.0, 1e100, 1.0, -1e100]) == 2.0


def _sha256(lines):
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def test_digest_tables_cover_the_suite():
    assert set(SUITE_BUDGETS_SHA256) == set(SUITE)
    assert set(SUITE_PARASITICS_SHA256) == set(SUITE)


@pytest.mark.parametrize("name", SUITE)
def test_procedure1_budgets_are_byte_stable(name):
    budgets = assign_delay_budgets(benchmark_circuit(name),
                                   1.0 / (300 * MHZ)).budgets
    assert _sha256(f"{gate} {budgets[gate].hex()}\n"
                   for gate in sorted(budgets)) == SUITE_BUDGETS_SHA256[name]


@pytest.mark.parametrize("name", SUITE)
def test_wire_parasitics_are_byte_stable(name):
    parasitics = network_parasitics(Technology.default(),
                                    benchmark_circuit(name))
    lines = (" ".join([driver] + [value.hex() for value in (
        *net.branch_lengths, *net.branch_caps, *net.branch_resistances,
        *net.branch_flight_times)]) + "\n"
        for driver, net in sorted(parasitics.items()))
    assert _sha256(lines) == SUITE_PARASITICS_SHA256[name][COMPENSATED_SUM]
