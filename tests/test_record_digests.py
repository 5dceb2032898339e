"""The records, minus ``runtime_ms``, pinned by the sha256 of their
canonical JSON (sorted keys, no spaces): every record of ``verify --suite
all`` at seeds 0, 1 and 2, the word-identity checks at gmax = 4..8,
RS-GAMMA24 at g in {3, 5, 6}, rs_cap in {1, 97, 9218, 20000} and sample in
{1, 200}, EX21-MATRICES at (gmax 8, dmax 4), GEN-FIX-ONES at gmax 10,
THM41-MEMBER at g = 5 and THM41-MOD8 at g = 6.  A
change that alters any record fails here; a declared record change edits
its digest line and says so in CHANGES.md."""

import hashlib
import json

import pytest

from crosscap import families
from crosscap.cli import main
from crosscap.ledger import run_check

SUITE = {
    (0, "EX21-MATRICES"): "aa855107d4b652e0ffc39b0b6f5f30b5ab33e27eb2fec9897230e10671a8d279",
    (0, "GEN-FIX-ONES"): "8101f755269b84f8d02ee8e90601841c8d3ed4ae1f52a45a1d3af40675ba56e3",
    (0, "LEM42-3CHAIN"): "345b99bda25f3044f0dbb9a273404873387b6d0050d3effd9d6a0a07fde428eb",
    (0, "LEM43-COMM"): "52e9b8dba93187f078ff055d7182c6d556be772ddf9b39f78e5f59494e1c0f85",
    (0, "PROP34-TC"): "f50779a27f3c857192ca4491f1433c93ab346c6a80433b059edcf66fb70795ac",
    (0, "PROP52-STALLINGS"): "132ce483ee1f317e6736585a4a36726bc460ead68e3c7890b8cc97357f4a726d",
    (0, "PSI-O2"): "d71ab942b467d4e6f8014b2646b63821b4f973ffddf74117d98d868ac510be03",
    (0, "RS-GAMMA24"): "1858d372dd9f608955282c4c706fde33b743b5a11182c935edb46247b70e404e",
    (0, "T2-EQ-YY"): "be0cd7585ebfa1f863282923548ff855a61481bf96c38060130a3f00487825ad",
    (0, "THETA-BASIS"): "f807d3cfd3adfd09e7e6bf52895706d4c154e76bdb91da452481e88deeffeb3e",
    (0, "THM23-ELEM"): "cf6d1f80c8a94b6d2ed57a28c73b0d913eaa3cdb70a1307c6f0f7ec179f5870d",
    (0, "THM23-KER"): "4b49e490aa127ef041314456c2cf9091180ba404d843ef26638e08f26cb71896",
    (0, "THM23-OBSTRUCT"): "891c71b9ec8085aa8bd4876149c6f3e39a17d64f7cf7e12b733c7940e5613280",
    (0, "THM31-CLOSURE"): "53f7e04c740ee390b13016b15f92c49fd07a99daf8c63517f6f9d534beb6a9b1",
    (0, "THM31-MEMBER"): "c15cfcfe0f93ee7c495c31dac4f950f945ce97ba32ac8df82f304576da8bd40e",
    (0, "THM41-MEMBER"): "3d7cb77965d9b5e70d0cf7e56694078a24d277f705438d979297d7aeffde10e7",
    (0, "THM41-MOD8"): "db23680a29071d15b10493d9836baa295a9f1dbf36ce0242386e620bff7f1b11",
    (0, "THM51-COUNTS"): "727a358651a27b72882bf6a00b2e4a946b671cb8505ec1ff894027fab0b73caa",
    (0, "TOWER-2L"): "47f6593984537bd9d4146def0c381b65ce5369688c9115dbd8df3dae7318d7a8",
    (1, "EX21-MATRICES"): "aa855107d4b652e0ffc39b0b6f5f30b5ab33e27eb2fec9897230e10671a8d279",
    (1, "GEN-FIX-ONES"): "8101f755269b84f8d02ee8e90601841c8d3ed4ae1f52a45a1d3af40675ba56e3",
    (1, "LEM42-3CHAIN"): "345b99bda25f3044f0dbb9a273404873387b6d0050d3effd9d6a0a07fde428eb",
    (1, "LEM43-COMM"): "52e9b8dba93187f078ff055d7182c6d556be772ddf9b39f78e5f59494e1c0f85",
    (1, "PROP34-TC"): "f50779a27f3c857192ca4491f1433c93ab346c6a80433b059edcf66fb70795ac",
    (1, "PROP52-STALLINGS"): "132ce483ee1f317e6736585a4a36726bc460ead68e3c7890b8cc97357f4a726d",
    (1, "PSI-O2"): "d71ab942b467d4e6f8014b2646b63821b4f973ffddf74117d98d868ac510be03",
    (1, "RS-GAMMA24"): "9717a5bc8025a6eb8b5910e6d2046a3659378270ad9462c58e2dd84d89265e55",
    (1, "T2-EQ-YY"): "be0cd7585ebfa1f863282923548ff855a61481bf96c38060130a3f00487825ad",
    (1, "THETA-BASIS"): "f807d3cfd3adfd09e7e6bf52895706d4c154e76bdb91da452481e88deeffeb3e",
    (1, "THM23-ELEM"): "cf6d1f80c8a94b6d2ed57a28c73b0d913eaa3cdb70a1307c6f0f7ec179f5870d",
    (1, "THM23-KER"): "4b49e490aa127ef041314456c2cf9091180ba404d843ef26638e08f26cb71896",
    (1, "THM23-OBSTRUCT"): "891c71b9ec8085aa8bd4876149c6f3e39a17d64f7cf7e12b733c7940e5613280",
    (1, "THM31-CLOSURE"): "53f7e04c740ee390b13016b15f92c49fd07a99daf8c63517f6f9d534beb6a9b1",
    (1, "THM31-MEMBER"): "c15cfcfe0f93ee7c495c31dac4f950f945ce97ba32ac8df82f304576da8bd40e",
    (1, "THM41-MEMBER"): "3d7cb77965d9b5e70d0cf7e56694078a24d277f705438d979297d7aeffde10e7",
    (1, "THM41-MOD8"): "db23680a29071d15b10493d9836baa295a9f1dbf36ce0242386e620bff7f1b11",
    (1, "THM51-COUNTS"): "727a358651a27b72882bf6a00b2e4a946b671cb8505ec1ff894027fab0b73caa",
    (1, "TOWER-2L"): "47f6593984537bd9d4146def0c381b65ce5369688c9115dbd8df3dae7318d7a8",
    (2, "EX21-MATRICES"): "aa855107d4b652e0ffc39b0b6f5f30b5ab33e27eb2fec9897230e10671a8d279",
    (2, "GEN-FIX-ONES"): "8101f755269b84f8d02ee8e90601841c8d3ed4ae1f52a45a1d3af40675ba56e3",
    (2, "LEM42-3CHAIN"): "345b99bda25f3044f0dbb9a273404873387b6d0050d3effd9d6a0a07fde428eb",
    (2, "LEM43-COMM"): "52e9b8dba93187f078ff055d7182c6d556be772ddf9b39f78e5f59494e1c0f85",
    (2, "PROP34-TC"): "f50779a27f3c857192ca4491f1433c93ab346c6a80433b059edcf66fb70795ac",
    (2, "PROP52-STALLINGS"): "132ce483ee1f317e6736585a4a36726bc460ead68e3c7890b8cc97357f4a726d",
    (2, "PSI-O2"): "d71ab942b467d4e6f8014b2646b63821b4f973ffddf74117d98d868ac510be03",
    (2, "RS-GAMMA24"): "237c976b57ec3fca9c75101aa360d33fb5cfa71b05565e783df3cdc1e94b47c8",
    (2, "T2-EQ-YY"): "be0cd7585ebfa1f863282923548ff855a61481bf96c38060130a3f00487825ad",
    (2, "THETA-BASIS"): "f807d3cfd3adfd09e7e6bf52895706d4c154e76bdb91da452481e88deeffeb3e",
    (2, "THM23-ELEM"): "cf6d1f80c8a94b6d2ed57a28c73b0d913eaa3cdb70a1307c6f0f7ec179f5870d",
    (2, "THM23-KER"): "4b49e490aa127ef041314456c2cf9091180ba404d843ef26638e08f26cb71896",
    (2, "THM23-OBSTRUCT"): "891c71b9ec8085aa8bd4876149c6f3e39a17d64f7cf7e12b733c7940e5613280",
    (2, "THM31-CLOSURE"): "53f7e04c740ee390b13016b15f92c49fd07a99daf8c63517f6f9d534beb6a9b1",
    (2, "THM31-MEMBER"): "c15cfcfe0f93ee7c495c31dac4f950f945ce97ba32ac8df82f304576da8bd40e",
    (2, "THM41-MEMBER"): "3d7cb77965d9b5e70d0cf7e56694078a24d277f705438d979297d7aeffde10e7",
    (2, "THM41-MOD8"): "db23680a29071d15b10493d9836baa295a9f1dbf36ce0242386e620bff7f1b11",
    (2, "THM51-COUNTS"): "727a358651a27b72882bf6a00b2e4a946b671cb8505ec1ff894027fab0b73caa",
    (2, "TOWER-2L"): "47f6593984537bd9d4146def0c381b65ce5369688c9115dbd8df3dae7318d7a8",
}

IDENTITY = {
    ("T2-EQ-YY", 4): "5f04bf3d9e426a43e9687c0d2ba3b842f9acfcc434bf7c7ba2dba6a14eeaa477",
    ("T2-EQ-YY", 5): "5994be90814c3f8c28c70999ea20f0988fa60100b075369c5f9fd2b7abf89e3b",
    ("T2-EQ-YY", 6): "be0cd7585ebfa1f863282923548ff855a61481bf96c38060130a3f00487825ad",
    ("T2-EQ-YY", 7): "5d3b14275020f6e581a30aec5fc03de2d85348633d27ec90cd127f729eb581e7",
    ("T2-EQ-YY", 8): "3583a57d80b27648b98e3143132d51c6d61ea5e565550e09d3e721999847e079",
    ("LEM42-3CHAIN", 4): "1d6ef666f6cbbd3d17180fb4aba81679401bf35faba2b127f4796ba8befa47a6",
    ("LEM42-3CHAIN", 5): "2aca05f08bb135be890cbe801408ba67c1e2d7ef802c7308922fab7d2f3f8f9b",
    ("LEM42-3CHAIN", 6): "345b99bda25f3044f0dbb9a273404873387b6d0050d3effd9d6a0a07fde428eb",
    ("LEM42-3CHAIN", 7): "d7438b91c12ef10bae0f75c46ec45727a6360298b9861f3c9c6fb3d18b929b78",
    ("LEM42-3CHAIN", 8): "483778be3459edc4dca873898a72107075389edf41ff3202ddbf975d9dbb831f",
    ("LEM43-COMM", 4): "84c5fb11ac7212c5fffc3d64ee5e612c7f44f97319b89e8082ec3e20d2436c49",
    ("LEM43-COMM", 5): "bef573b58483eaa61d6075165d237ceb9f4782077accf2a0945b45467258610d",
    ("LEM43-COMM", 6): "52e9b8dba93187f078ff055d7182c6d556be772ddf9b39f78e5f59494e1c0f85",
    ("LEM43-COMM", 7): "e4c3d7d975e4b681e1e32273e44775f16d68b22913604124ffa1cd9c0b648d44",
    ("LEM43-COMM", 8): "1a806f834cacaf5538e6940e00824c30fd5cf1c88c77170ea86167b44aaf3a87",
}


# RS-GAMMA24 at (g, rs_cap, sample), with the default seed
RS_GRID = {
    (3, 1, 1): "703fbd2f9ff9aebaca7e7f87f9cff227f6a37d41fa3bfdd656f28a86cf7b240b",
    (3, 1, 200): "3cc31afbd50e4cbbbc97988a2b6034ce326cc3f8a168387f31b93f53c91c79b9",
    (3, 97, 1): "63090d01a84866282f0db018dbac5dd0d1b820d6e2222599bae30646064b9b98",
    (3, 97, 200): "31acf686c552cb6f6252eec410e420afbdcf261d1dc5ec06665078bfecb0f8ec",
    (3, 9218, 1): "c42236050331cc46f926d21100c9814778e098736884d83123f24f4b2b35890c",
    (3, 9218, 200): "20da2c39c2a266f10b21930b998f7205a2db3010ce1c459ca9e9d46c13caa116",
    (3, 20000, 1): "e509169bceb96ff1ee086693e5edd31d79239ffd959e1df80a14191d628b241b",
    (3, 20000, 200): "a0dfca3b834e874b70c86aaeab40a674627c662436da85219d2804dc5810c47f",
    (5, 1, 1): "0b8088a247390ad73f8d9cbd94b2e39932d4aa2db31f816e1a854e44229a9eb2",
    (5, 1, 200): "3faa1275045c1a6ec4bdecfe61c7dd341ac2db2fbedf571c40ae3db5b753ecc9",
    (5, 97, 1): "5e8ac0d0523f33a76046495fc7d1d533050aa86683b2e4f10d351d4932b7aca4",
    (5, 97, 200): "5c76b56b9dd13f7dac09cb0b951c8a70236f83216e21fc7685a465c8d48f5ee5",
    (5, 9218, 1): "e5494711ccf341821b7a868836f7c42b479e55b0ea6c23c06e3d0a075a50e8f1",
    (5, 9218, 200): "3fda01b268f46fb5b713200d50688efb55b5929ea6a188f5ddbe9ae976f1a4fa",
    (5, 20000, 1): "0ad3a1e4692016183f387c5ab7c9e0e8de10a04103be8eb3656138762e37ccb3",
    (5, 20000, 200): "d30c394006ffbd06d008d63762e7f6c6d4cc371fbe406749f542048f34e9888a",
    (6, 1, 1): "6da891c2c88c6991b39dd4d87b765137684019be3198dfa7c9786f8f4b04a347",
    (6, 1, 200): "58274f3853ea08679ca3b146cc3d9dab8090a887ef1070208d16a59050b54d3c",
    (6, 97, 1): "77c3095005284c9f6e1228a7512f81bba81d97482acd72b92daa5b90b008c7ec",
    (6, 97, 200): "a5f04db04971990373220bcb4f90127a27a62b764dfb51636652e5feb3c6f813",
    (6, 9218, 1): "edfde80ae391a066f1fcc5fe58d18f03302eb420334cb3f968f122833092a68b",
    (6, 9218, 200): "d938f1e15d54999dfcbb36a73666b639286ca07e91a3b3ab9cb42197bf5f72b6",
    (6, 20000, 1): "10c7d4f2a2fdd0deb9549eba240ba4ed755efc408eeb416e1b170ddc50c15ef3",
    (6, 20000, 200): "955448a304b3e43b56b83b82a3087dabd16b52bb2a50b7492b963ce7e32e5f50",
}

POINTS = {
    ("EX21-MATRICES", (("dmax", 4), ("gmax", 8))): "08b6fd1c9d40a0cc14d3af786ac0350585f24c99a71571c103dfb336d6c2ba01",
    ("GEN-FIX-ONES", (("gmax", 10),)): "2d7f68a9c60010c82f0d787dd2fed9f43384316eec93cf42817ca3d23377d986",
    ("THM41-MEMBER", (("g", 5),)): "13e0f7b71e725eef41128c85b959cfe6db6a973af11c5a10cd32147ae7bcb92b",
    ("THM41-MOD8", (("g", 6),)): "c9994751697d2c96b715663054295d609e8b652a829001075ae26f8f5f5e7e05",
}


def digest(record: dict) -> str:
    """The sha256 of ``record`` without its ``runtime_ms``, in canonical JSON."""
    rest = {k: v for k, v in record.items() if k != "runtime_ms"}
    return hashlib.sha256(json.dumps(rest, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verify_all_records_are_pinned(capsys, seed):
    code = main(["verify", "--suite", "all", "--format", "json", "--seed", str(seed)])
    records = json.loads(capsys.readouterr().out)
    assert code == 0
    got = {(seed, r["id"]): digest(r) for r in records}
    assert got == {key: value for key, value in SUITE.items() if key[0] == seed}


@pytest.mark.parametrize("check_id, gmax", sorted(IDENTITY))
def test_identity_check_records_are_pinned(check_id, gmax):
    assert digest(run_check(check_id, {"gmax": gmax}).to_json()) == IDENTITY[check_id, gmax]


@pytest.mark.parametrize("g, rs_cap, sample", sorted(RS_GRID))
def test_rs_gamma24_records_are_pinned(g, rs_cap, sample):
    record = run_check("RS-GAMMA24", {"g": g, "rs_cap": rs_cap, "sample": sample}).to_json()
    assert record["status"] == "pass"
    assert digest(record) == RS_GRID[g, rs_cap, sample]


@pytest.mark.parametrize("check_id, params", sorted(POINTS))
def test_records_off_the_defaults_are_pinned(check_id, params):
    record = run_check(check_id, dict(params)).to_json()
    assert record["status"] == "pass"
    assert digest(record) == POINTS[check_id, params]


def test_a_planted_record_change_fails_its_digest(monkeypatch):
    record = run_check("T2-EQ-YY", {"gmax": 5}).to_json()
    assert digest(record) == IDENTITY["T2-EQ-YY", 5]
    record["details"]["pairs"] += 1
    assert digest(record) != IDENTITY["T2-EQ-YY", 5]
    # a relation planted wrong: the pair (4, 1, 3) becomes a failure
    real = families.twist_square_relations

    def relations(gmax):
        for name, g, factors in real(gmax):
            yield name, g, factors[:1] if name == (4, 1, 3) else factors

    monkeypatch.setattr(families, "twist_square_relations", relations)
    record = run_check("T2-EQ-YY", {"gmax": 5}).to_json()
    assert record["details"]["failures"] == [(4, 1, 3)]
    assert digest(record) != IDENTITY["T2-EQ-YY", 5]
