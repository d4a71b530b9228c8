"""Golden pin: scenario state hashes and event logs for fixed seeds.

The scenario suite is the determinism contract: for seeds 0-3, every
scenario's final `state_hash` and the SHA-256 of its event log must stay
byte-identical unless a change alters protocol behaviour on purpose. A
change that alters both runs of an in-process comparison alike still
fails here.
"""

import hashlib

import pytest

from otpwallet import scenarios

# seed -> scenario -> (state_hash, sha256 of "\n".join(event_log))
GOLDEN = {
    0: {
        "depletion": ("a95672460023573be911b23a66e9806b",
                      "2e8485eddfd0d312b18f08e45e312325c11d09e2e4b35d588389c254611916fa"),
        "dos-pending": ("ff347b66a2fb9dd19f117ff038563a38",
                        "f16f2aa96fe63396234f7642c2fac075bb5c9be47556904bd03f579361bbaaa3"),
        "fork-replay": ("b4a125c3f38202f9addf633b63ea0ac8",
                        "f8ff65b35e01fa655bddeff64cfb68c3507b26fe790f761b0bd136541f1e7cda"),
        "theorem1": ("27a9231de71e14866296f6f925887e45",
                     "68b128af649f73d290b37544259f0d0a4f5f9cb99dcfef4b36daa6ce52ed4e49"),
        "theorem2": ("f6a700e208768c81fa990937cad82ecc",
                     "168415f7caddf818831177667b1d416949ec7695a8ccc6bc300fc1ee09a8dc33"),
        "theorem3": ("f8d227980a0ea79c11281018317d6800",
                     "828707bc4a2e97783ba8bae516226fe9a24e02fc96b4e4e681aa9f2707d7d3c3"),
        "theorem4": ("f78c7a144d9a77924d4a9611b82f0c1f",
                     "723cc172402288d3f279e63d8fa8f7e2b6a6a1615caca03b8b11ed2174a5fe4d"),
        "theorem5": ("3fb738b77ed20e50627299c05a0dbe90",
                     "50e6b807ca5b34a7781a7dd7a4cac6adc598f799f433d68083bbba1b3205c3c4"),
        "theorem6": ("cbf6ee6c68e1b01c7db17b050d3bd63e",
                     "e7a4e89bf6edde9c3297bcf962b862dcb4d95584eddd7da593ee6a52c75db94e"),
    },
    1: {
        "depletion": ("fb8bd9c78f981a19abae45c3ff824f74",
                      "c602d81bb88ad5c0c7ab090f7be96395ad8f9ab55e2a68841cefa122102b601d"),
        "dos-pending": ("e50442b11afa9668716cafb02122bb25",
                        "dcd891e0fddf62b056beef26885e3b60d93f111c3feb48acc5506fc95a3ab296"),
        "fork-replay": ("2c4f470247dc2b6646639afc1bacac3f",
                        "f784af598b0a6f2161c169416f366d4911c61d3cbb09850b51dc42dbe0b18679"),
        "theorem1": ("6d2bc7871a6f81a579717f72dce8eb1c",
                     "768ae5bf79387fff0bdd7de67c0494d7ef0599a9bcff8cd209251d6cdc7f3d14"),
        "theorem2": ("cb8c37ec9eee7eb9d718d5ea7ce739c8",
                     "625695364ea89ea3f2bf95d11dae62d6cdff3e74afba1c7f98f50fba543e69df"),
        "theorem3": ("87b03d7998c0bfe61f9b094ca95afc43",
                     "21dc11ccd8e700db02541751f0c6acd47582365984f93fb977cf4d19f9621a09"),
        "theorem4": ("add09f4749e470a504e5677c92916352",
                     "e141e70394f71930087eacc260fab8aaeb1498bec0073edebc4d80fcf62d6830"),
        "theorem5": ("417ce9560503699ddf546ca3a9926e05",
                     "5f4b1ec370f6c92c4b0e6119b2068ed53eb525addc9cab9f03123ff6ec4d0bd2"),
        "theorem6": ("9bbe9b6420750acca367faa6d6e04e20",
                     "ca4eb658c3a92c22c046b6fe91c63d8c90a6f0546f33876c97689a01b28f0890"),
    },
    2: {
        "depletion": ("97c105a4d05fbc7d4c67f4d0c05b9ca5",
                      "3ae99a8250a093f0de2fab5f5af158cafdd9f9e58d3ec1ea62ef171689f60a7c"),
        "dos-pending": ("7151fcd59a780be5e780508e98899a27",
                        "9f42692d352d3150f0ec20e2f6b4b2c8ed9bb92de6a42b762779c104437fe8e3"),
        "fork-replay": ("0d94832e93a4544edd283dd6c1f796f4",
                        "8f0d1c5916ad6b45c52a9ac9b4d63d8fcd15d18c3e1a35981c2819b14a3a3706"),
        "theorem1": ("d044fc3845d36a747f933e38c9b1b670",
                     "dd6bb69710185db5cf8fc0c49fd67613028f85d39e55494d5993dd6d6aa4b99e"),
        "theorem2": ("95713201ad5b8dd5b5c6814b7c10a872",
                     "ef9fdd6d63e25befc525ad01a6fb5b76cbdefc15f824d0644bd82f5648312391"),
        "theorem3": ("e54bae123a3e1fc50da3a9f88f88cb23",
                     "e0f0943b8003b4c9d83b7ac93f44245c52ccbfe85d235c8617dbed82a89a552b"),
        "theorem4": ("bffed3574e1d33a2cd7e8bccbc904865",
                     "ffbcf596f0cf371ef3a4649e6c2d6140c050cba392abdc18c54a5afb4272a381"),
        "theorem5": ("ef459ce8811e1e47056794de9b0b37db",
                     "a0748fab334061d54d9035fbcdeddb452d94475d216b5018b3d1dfa6c4b37ef3"),
        "theorem6": ("ce48bc253370ecedb1415b8fc9417f0e",
                     "914c717cfed51681b22584f1e1b031782fdd4306c38bbe1cf35cd8b2f9d43584"),
    },
    3: {
        "depletion": ("8a1330550bdb54a110d81d3d02d00edc",
                      "829f4aec566dddc8fba910a6ef4f6d2b121a36de4dbe11e860d485538872b0ec"),
        "dos-pending": ("0bbe2bfa994d091f1ea956bbf60ee27c",
                        "0cbcd36a1bca5493e3183dad7b1843d9ba923e0b3f4244ae5f3f563e20a7d430"),
        "fork-replay": ("d7c9fde9a8b2c24a53564553b18b2ff0",
                        "c81169d7ef4ca817ed1abf9c8d12a68e8aaa15830cf7315dc59965c92c766bac"),
        "theorem1": ("e70475636394f2e5ab89a921513ee068",
                     "ebda232b1bb5ee278cd12fc0d55ed4312050d11987267c8886a71eb024475065"),
        "theorem2": ("e8afac38f14f382f9c17f8a734cef7cb",
                     "31944f1bcfb59797ce02eb165db8bb964e6e15aaed28cf43069431b2ea7e076a"),
        "theorem3": ("e224b0e5a2e7b92bc0f28b84992f2efa",
                     "c1e8aeeccda059234deea4fec9b9a85bcbc6d0c918d4a8be5d733c1d43ba9d52"),
        "theorem4": ("c412eab1f6bec78ac074b1c7e92e7643",
                     "4aaa68560bf3094d1289ea5e7184bf1da72846cdf52d8996fa50e419d0378c2e"),
        "theorem5": ("bb065d3b0af0cf9e1edaab3225d1596b",
                     "7b85264a2ec9dd8dc56c896bb621cdd4a35233dbf030ccfa42d5860fc2153085"),
        "theorem6": ("b1f14d329241344fe6e2a2368c5f4bc6",
                     "c70201c12ae2a1802305d78b41a05e6e412efe1f6e243b0abcfce561c91aafae"),
    },
}


def event_digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_scenario_outputs_match_the_pin(seed):
    got = {r.name: (r.state_hash, event_digest(r.event_log))
           for r in scenarios.run_all(seed)}
    assert got == GOLDEN[seed]
