"""Golden SHA-256 digests of the CLI's output files, one short config per
plant branch plus both capability maps at the default 2 cm grid and at the
5 mm grid the benchmark times.  Each run's manifest.json holds every
resolved config value, so its digest pins the config defaults too.

A change that means to keep the output bytes must leave every digest here
as it is.  A change that means to alter them (a new channel, a physics fix)
re-pins them in this one table and says why.
"""

import hashlib

import pytest

from stsbot.cli import EXIT_OK, main

CONFIGS = {
    "weight_unloading": "mode = weight_unloading\nfz_pct = 0.10\nrepetitions = 2\n"
                        "pause = 0.5\nseed = 42\n",
    "com_balance": "mode = com_balance\nfz_pct = 0.1\nky = 200\nrepetitions = 1\nseed = 42\n",
    "transfer_98kg": "mode = transfer\npayload = 98\ntransfer.v_z = 0.04\nrepetitions = 1\n",
    "transfer_unloaded": "mode = transfer\npayload = 0\nrepetitions = 2\n",
    "detached": "robot_attached = false\nrepetitions = 1\nseed = 42\n",
    "arm_only": "human.enabled = false\nrepetitions = 1\nseed = 42\n",
    "map_rehab": "map.configuration = rehab\n",
    "map_transfer": "map.configuration = transfer\n",
    "map_rehab_5mm": "map.configuration = rehab\nmap.step = 0.005\n",
    "map_transfer_5mm": "map.configuration = transfer\nmap.step = 0.005\n",
}

GOLDEN = {
    ("weight_unloading", "log.csv"):
        "6df69147afc2fe2d5ac88872b1cb2e0841d7996fcd735407a1fcd7a808d3abb1",
    ("weight_unloading", "metrics.json"):
        "b28afcee0119c623e819743789f6749369def0d7288fef3a51a2ec592bfca667",
    ("com_balance", "log.csv"):
        "c69b9d4614b8ec8b47b7a4b49aa548bb6ea36a80f7c3ce211c18391b80b15a03",
    ("com_balance", "metrics.json"):
        "5cd5433eaa5d9c1ada75ce8d270acc0d4e0a9b01613e0ae4a63fb81aff1b987e",
    ("transfer_98kg", "log.csv"):
        "87ae87f0bc30b233487b1c5e3c069244a0493528c0ae86cbc52b6c0e6b9d5e0d",
    ("transfer_98kg", "metrics.json"):
        "5f4ad0e795ebdeb79ff845f6b3a70b7d878838ddfb4da81b4c52ba9fff1b882b",
    ("transfer_unloaded", "log.csv"):
        "067822945b9a4dc0ef7ae3c137dd3d634818a1bec3cec59d1ee41db861218803",
    ("transfer_unloaded", "metrics.json"):
        "b61caa67e502d5f033933108dbe23ed78588736297684fc63e11f1cb15982924",
    ("detached", "log.csv"):
        "e69956cc937d11ae02ea11cb0c3317ee524e6a444c7acc41469b03d824129106",
    ("detached", "metrics.json"):
        "056e25706e3096f79d18d8f4edec2a1b68d980f31af533f40264d9f3d9992a3f",
    ("arm_only", "log.csv"):
        "3b4b0821d5d390a8368ab890e1a11ffb17b52d2e0579b60aaada52588c1b07ce",
    ("arm_only", "metrics.json"):
        "33b7657a9068bd11461973ab90b6429c199b7c771f6f82d4279672b56074f71f",
    ("map_rehab", "map.csv"):
        "d78b8e700cb4d39e0d53bd5478693a2eb7288efa8bcf3ea4a1b8d27f9b6323b9",
    ("map_transfer", "map.csv"):
        "c32208f17fb665992a6f9bcb40ee5905f7a4c99d96a2a2d6853579002f96353b",
    ("map_rehab", "map.json"):
        "e61210e41d208f11dce1276369165307af7f7f17fc5779c1c6d43d3ce92338f1",
    ("map_transfer", "map.json"):
        "023241f9e7b74257d94b51be922f234a8e8cc25ce92f3dff416e2370dbc0844e",
    ("map_rehab_5mm", "map.csv"):
        "c851fe2f3aead3b1cb4a5b26b940bb7daca146932114dd93584fdaf08ff0b972",
    ("map_transfer_5mm", "map.csv"):
        "c12ac0abe6f065bac4d8b115f3b4f4dae6baa2e59aa831abb1ede583c63f55e8",
    ("weight_unloading", "manifest.json"):
        "b72f95bd1aea3aee8f042ae0e9c28930fb0eb386881c16932767fd8cb2020500",
    ("com_balance", "manifest.json"):
        "86fcaa59ca24e97c63fc9f088797d12378521d1628d5aacd59bebdf57e9524b9",
    ("transfer_98kg", "manifest.json"):
        "f8a27ddf381427f7c8c25247d71c6c970e5107eb0abae352e28282d22af86536",
    ("transfer_unloaded", "manifest.json"):
        "0d037aa1a051c1f0b6b05c793ba31cd0b6d8b7117026e3a2c03eca5f914229be",
    ("detached", "manifest.json"):
        "4fcff42572b654e5c5fcd4baee3ff398d6132685cc6f5327d659a6a76db67eec",
    ("arm_only", "manifest.json"):
        "7316bb89738621b927640941f31fc2c210d93a396383533c2abaf8b3a8a46b87",
    ("map_rehab", "manifest.json"):
        "67a30d0fd173558198126c584ff1b1ee5102602beae12059d62a81a205145e56",
    ("map_transfer", "manifest.json"):
        "8776ea986e612f5aa0f1c93d99ea4a8c7db684b060dcf40d77d459ece989a333",
    ("map_rehab_5mm", "manifest.json"):
        "c4ac911df0f42982107c9541df1c748068818f1f6d458ba71ef20e0e3c1d6e2f",
    ("map_transfer_5mm", "manifest.json"):
        "e9ae70b6532fae057b59a90b863d19631bb39a2301890dfdd960c37efd911d7a",
}


def _outputs(tmp_path, name):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(CONFIGS[name])
    out = tmp_path / name
    if name.startswith("map_"):
        assert main(["map", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    else:
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert main(["analyze", "--log", str(out / "log.csv"), "--out", str(out)]) == EXIT_OK
    return out


@pytest.mark.parametrize("name", list(CONFIGS))
def test_output_bytes_match_golden_digests(tmp_path, name):
    out = _outputs(tmp_path, name)
    got = {(n, f): hashlib.sha256((out / f).read_bytes()).hexdigest()
           for (n, f) in GOLDEN if n == name}
    want = {key: GOLDEN[key] for key in got}
    assert got == want
