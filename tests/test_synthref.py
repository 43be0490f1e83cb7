"""SynthRef: a synthesized workload carried as its generator spec.

The digests below were taken from the generators before recipes carried
specs in place of records, with the fingerprint of that time, which
hashed each record as decimal text.  The fingerprint now hashes packed
records, so :func:`decimal_digest`, a copy of that old hash kept here,
checks them: they pin what each generator builds.  The tests also check
that a spec keys a recipe exactly as the records it stands for."""

import hashlib
import json
import pickle

import pytest

from repro.config_io import config_to_dict, recipe_from_dict, workload_to_dict
from repro.sim.parallel import RunRecipe, make_recipe
from repro.workloads import (
    ALL_PROFILE_NAMES,
    MT_APP_NAMES,
    SynthRef,
    homogeneous_mix,
    multithreaded_workload,
)
from tests.conftest import tiny_config

GENERATORS = {"profile": homogeneous_mix, "mt": multithreaded_workload}


def decimal_digest(workload) -> str:
    """The workload content hash the digests below were taken with:
    SHA-256 of the workload name and each core's hex digest, a core's
    digest hashing its name and then ``b"%d,%d,%d,%d;" % (gap, addr,
    write, pc)`` per record, the write flag as 0 or 1."""
    h = hashlib.sha256(workload.name.encode())
    for t in workload:
        core = hashlib.sha256(t.name.encode())
        for r in zip(t.gaps, t.addrs, map(bool, t.writes), t.pcs):
            core.update(b"%d,%d,%d,%d;" % r)
        h.update(core.hexdigest().encode())
    return h.hexdigest()


#: :func:`decimal_digest` of every generator at cores=2, 64 accesses per
#: core, seed 3.
FINGERPRINTS = {
    "profile": {
        "bwaves.1":
            "007e57a8aeefb5635ec1b31cb913b5ebe3373d1be0897a04428f3bd91d927a32",
        "bwaves.2":
            "f82c7f49cb118e14c6b1871fa8545a4b74e6e0c6e7baed7802084df5d1334a5c",
        "bwaves.3":
            "f39768dd1247fdf568b281f12bf74678ce1322125f541c821cd233a6de60028a",
        "cactus.1":
            "70e9758e74306b31d0bcf5f78ec7da34ae4ef2b6fd85cd9779ece0a53c4307cf",
        "cactus.2":
            "c6def99359820153a971100ec6846b3ef52747db357a9f8d452c0f7bae2e0d5c",
        "cactus.3":
            "6d38169ff8a4a5cde8d968fb78028d00336de47bd227a34e79ebc035878b94ca",
        "deepsjeng.1":
            "9df206178c37010545338d1d5a100de9d7219f88364aa06cde3d38e139b3437c",
        "deepsjeng.2":
            "64eea69e3f7d325a5a049f197ab2f4387cb1772833024ae29b0aa6cd60b46ceb",
        "deepsjeng.3":
            "4579d21656199841a9fa6d5432e6116b76cb8d401973af4365d31bbeeffc0ab8",
        "exchange2.1":
            "4659431c938e0b3ea6d5c36f21717d0f085b7cbb096b114398bb5f2251dabb56",
        "exchange2.2":
            "dde025c80b50f5724f0f2afe4cf4ecf69e62ad85fdafb8fdadba430858c53fdd",
        "exchange2.3":
            "d4ccf38c478fea8bf865482d4088d98fdcaaf8399da270fa63bb4cb8a6ac676e",
        "fotonik3d.1":
            "5dd6e0076d70a357112af943aa5ab3233aecc7ab1689e729ebb5643d7e498c4a",
        "fotonik3d.2":
            "81e52eeda672feea756a63dd0190e8534dab193b25a6b80cc9e7c8f04c236196",
        "fotonik3d.3":
            "430f618b971ca1f165eefe4b6077bc332fbb535cd253c7507c526e994914d240",
        "gcc.1":
            "f9eba1ca4b8bb07b4a6268cfbc5e64b84661ab7c6053589e647e9cd87c93d8c7",
        "gcc.2":
            "e043cd5d90f86bf1f836cd138d102676106c1d23b84b4d1c4689265d0de39833",
        "gcc.3":
            "4ff8074cf7d6b4dfb47f84966d1b9eba0e43601d1ddea69ad2fb4330f60a8b56",
        "lbm.1":
            "1c8b801158c2594c22120267aa483bf887b6fd1171b80513b723f227bfcacae3",
        "lbm.2":
            "78ddbf2fe6d4d70329560f32279d7876c563db16fd9ccf1da54f5490f851e0a4",
        "lbm.3":
            "dd37942b3793629897b34fce49958bf99a293cba4053985cc6c27b951820042a",
        "leela.1":
            "8706990fcb4eaf5c09e039e0187b1bd06846a40a27366cc48b34a953ddce81af",
        "leela.2":
            "4811d3717eaaca00972860a684d931dc4c7d4e480a5d7a5f4ef5804b1975c8d8",
        "leela.3":
            "1aca262781b3c437920eaf7c17463d51acc3296ee228603c5631942c03b01d6c",
        "mcf.1":
            "81be01f553ac53719a90b45a1006316e0bd7ddd907d33638bc54b84decca5e35",
        "mcf.2":
            "91e1cb6a4e8ea481449944c9f396bda7ac89e335abbe7d3a9447b2fd04da999d",
        "mcf.3":
            "bf46fe2314ce96b1660e9ddc70a5c5578f5d1e9eeca3e5bd2c165b33cfd277d5",
        "omnetpp.1":
            "131018f4123e1ac1767ac9635b72058f9a4c2281dbccc778c22efa24ab76e49b",
        "omnetpp.2":
            "56dcec79eab173d70ab1436976b743f672c292de7691f30bb3b5ddf7902f9b51",
        "omnetpp.3":
            "673887cfd1ae80816e9b0881c45d84826430fc8f1713ca54e0120612c0b5d031",
        "wrf.1":
            "8229ca2b7f33555dc48354a9fba846cfe968a291d564aa67235e38a7f8662351",
        "wrf.2":
            "d960646f7216ef900becf01ec8ced0cc5bf60f4f79db092417e09d69a7754c62",
        "wrf.3":
            "04cb1825e17e023542411ca8ddd4a848f0aec21f354c8eacccd04aac61c950cd",
        "xalancbmk.1":
            "6f9dd3edf22a60421c39aec4fb0f28f60c5ac601746f7e13ec584a653ac3fb51",
        "xalancbmk.2":
            "584e85103c95bb903995829e64d082ffcedb9ecfff7996dd0c036a1fde099f16",
        "xalancbmk.3":
            "5bf2eb6e51c7c22b1e7155258525a5455b99c925df4303e927a60c941ed893d4",
    },
    "mt": {
        "canneal":
            "a492c5ee566b411a062df353b90dc4d5ec51edea2e1d85293f5b9715d8ba5cb4",
        "facesim":
            "f8d7bd26851b81d017d83482568dc4abca89f7bf8eed66429fbb6c1bbb460149",
        "vips":
            "7f2b98f6a3f3b95258e3ee9e4529fc7b45fc9067e8b4be4697ac3ffb3417562c",
        "applu":
            "e4f581d9356f09045b50bbe1de0dc2f28216bdc0f1f2ca6ae83b35acda7ddf85",
        "tpce":
            "7bf5342087e14bad7bd68a179adc62fdd09407be599ec920c60694377bd1ef83",
    },
}

#: :func:`decimal_digest` of every generator at cores=2, 5000 accesses per
#: core, seed 11, taken from the record-at-a-time generators.  At this
#: length every streaming region wraps and every pointer chase finishes
#: a lap, which the 64-access table above never reaches.
LONG_FINGERPRINTS = {
    "profile": {
        "bwaves.1":
            "45aea8bcc1c59fd5dfb969d6052313ef7314643980212e37f70c91702bda031f",
        "bwaves.2":
            "bcfb21aad73c1ddccec874e4e443a4e336afb4a95d30638faa89ef0e41b89b34",
        "bwaves.3":
            "b71fd0d40223fb4e1a01c344aeda93d4ef51f14c540a4de10b23a7ff683d3aff",
        "cactus.1":
            "cbf04e2b3ce815d899af32cdbcb18764c946dfd434aa144a79153238d372d9ff",
        "cactus.2":
            "aeada6570bfc584a263b5dc852205a3985e2ccfd50606c77938d30ff63de9fb4",
        "cactus.3":
            "362c6e6959f72317597b83971f68c2fe196d849516fcd37e26e4942100a1175f",
        "deepsjeng.1":
            "36ef47c671bd4e0ffea127a5fe412fcf3315b77449b071ddfcb49bd69933ce49",
        "deepsjeng.2":
            "7a7e1e187d9f121d7c0026612943eaeaa80141e63970e079d5d72e765e0c5d86",
        "deepsjeng.3":
            "f88ce9bbe6be650d89e31f7e7e711020a9dbd469f5bc859816361743e76b362a",
        "exchange2.1":
            "283527f3a95c2d862f10ac4e752ac3759d12a53bab0f174402fcb8d0dcfaac74",
        "exchange2.2":
            "09fbcb977b307b555dfc7c312acc8594e4749d9b58ad14d1dbbc84312cfccf1f",
        "exchange2.3":
            "66ec65534bfd7d5c1e2695fd2a044d2df2661a572beaed4a52462817c15c3ab6",
        "fotonik3d.1":
            "89fe39240baa3fdb5383eec40c49d0a2f1a2fe8791a9c6801e2970f96ff4d386",
        "fotonik3d.2":
            "37aeac57baab9ac11d6feb28b52b9ee00aa2d89f10e166020d0aa22a022e6458",
        "fotonik3d.3":
            "441d022b25e93144bae409d5f5283b42af44dab74494e577fe9cad17d3b4a753",
        "gcc.1":
            "3b19a84caf96019465147b984591749a22ff507bfe21eef66e7b8a92fd2b78b2",
        "gcc.2":
            "c42dd11227d8cb34288ae49d636d6d4bad2237c8d769476a3dc73ab0701ba680",
        "gcc.3":
            "47f7c4ed7762c9fe056ea0865f2cceac540c92013a45920c0efe8203800e6786",
        "lbm.1":
            "2f360e5b78181225d21e57f7e5b6a9231e4b00f6da80a5693bda749752307220",
        "lbm.2":
            "f1de846923be51975ffab0060959aa8edf4e158aa73c2c3ebf7d14f44e4a7f62",
        "lbm.3":
            "7f184ac1c34b5269007ed880c9d5e6b2e82433086300925e520c41f4fdd9a377",
        "leela.1":
            "ec05b804aa6dce094070cf50d32780b446c3a1f6d14d95ae0bf953762fbdc471",
        "leela.2":
            "eda5d791d55b8562e56672306695442a5e003bf5acc05097c1ce292e358ddad6",
        "leela.3":
            "6feb57c0098106affe4ee25c5ce7f2241afbcaea66efc5ca3e778506d3cd6264",
        "mcf.1":
            "c8a067475f62884ccedb77efb5a52bf8d802ea01d951fdd84d85a1de84cdb978",
        "mcf.2":
            "8037a0e9b79d3bc5df170d85e6581902d17b895bf318523fefdefb5f8b03b0c4",
        "mcf.3":
            "e5028b37c0ee0df666035ee4884e952d58c2989c49b785c15e220aa48510b62f",
        "omnetpp.1":
            "4149f7e311173418793eabe581008614f8de77f5410f07bbf7f5479be15d4fa3",
        "omnetpp.2":
            "6776125b8eb78d25e6f216e4de3c5994165b73bc6e5cb7b9185b2e99fa5ec738",
        "omnetpp.3":
            "3d7c73ac92bd9a49001e6174546a1c6f327f04942af940668143b80ab8c28b0c",
        "wrf.1":
            "63964b0f1dee5718fc81c112ad2314c2d9a4b36fce40308c806faa29243bb746",
        "wrf.2":
            "ce2c9ae3ef7315b23db4947aaccd6d9a43916a76cdd57707ddae12e43004d5e4",
        "wrf.3":
            "854989f679317937c929ff85b2351c234150082be5d36a1eb6ca50406854aeab",
        "xalancbmk.1":
            "5e4a91dc784606d8b83e595333c8bb8fe8b8c63a884a0c4a479c04a4d002a099",
        "xalancbmk.2":
            "59ed05d9ffece988af3026b9b5905ba5223e951c4bb87c7fa59634cacc2a7a27",
        "xalancbmk.3":
            "1be4b9fda33d78f5b45817f61a710106b6498b5c22f69e2989dd65aff7ba7e3d",
    },
    "mt": {
        "canneal":
            "b020cf576ac65c10aea1b8e3450cff38bda87acec46da38779568c7d0a089090",
        "facesim":
            "1abc60a3a0d90e4f1db6ea96e8561eba7f194441368b03c3fae7cfa5e955048d",
        "vips":
            "c4176d027314de1874245eb5b746e9303ddebb6882b9ca820e431269809c6474",
        "applu":
            "3660e90b12d19716be2e8412ca0b4596bbf3e6023d4247e4f2750cd7f216d7da",
        "tpce":
            "e29c2dac8e89a82dd60261e778a7cfb55df9068b72e2c258fad4326293bded65",
    },
}

SPECS = ([("profile", app) for app in ALL_PROFILE_NAMES]
         + [("mt", app) for app in MT_APP_NAMES])


@pytest.mark.parametrize("kind,app", SPECS,
                         ids=[f"{kind}-{app}" for kind, app in SPECS])
def test_synthesized_content_is_pinned(kind, app):
    built = GENERATORS[kind](app, cores=2, n_accesses=64, seed=3)
    assert decimal_digest(built) == FINGERPRINTS[kind][app]
    ref = SynthRef(kind, app, cores=2, accesses=64, seed=3)
    assert ref.fingerprint() == built.fingerprint()
    by_records = make_recipe(built, "inclusive", config=tiny_config())
    by_spec = recipe_from_dict({
        "workload": {"kind": kind, "app": app, "cores": 2, "accesses": 64,
                     "seed": 3},
        "scheme": "inclusive",
        "config": config_to_dict(by_records.config),
    })
    assert by_spec.workload == ref
    assert by_spec.key() == by_records.key()


@pytest.mark.parametrize("kind,app", SPECS,
                         ids=[f"{kind}-{app}" for kind, app in SPECS])
def test_long_synthesized_content_is_pinned(kind, app):
    built = GENERATORS[kind](app, cores=2, n_accesses=5000, seed=11)
    assert decimal_digest(built) == LONG_FINGERPRINTS[kind][app]


def test_ref_names_and_builds_what_its_generator_builds():
    for kind, app in (("profile", "gcc.1"), ("mt", "vips")):
        ref = SynthRef(kind, app, cores=3, accesses=40, seed=2)
        built = ref.resolve()
        direct = GENERATORS[kind](app, cores=3, n_accesses=40, seed=2)
        assert ref.name == built.name == direct.name
        assert ref.fingerprint() == built.fingerprint() == \
            direct.fingerprint()


def test_ref_parses_the_command_line_form():
    assert SynthRef.parse("mt:applu", 4, 100) == \
        SynthRef("mt", "applu", 4, 100)
    assert SynthRef.parse("gcc.1", 4, 100, seed=9) == \
        SynthRef("profile", "gcc.1", 4, 100, 9)


@pytest.mark.parametrize("args", [
    ("profile", "nonesuch"),
    ("profile", "canneal"),
    ("mt", "gcc.1"),
    ("records", "gcc.1"),
    ("profile", "gcc.1", 0),
    ("profile", "gcc.1", 2, -5),
])
def test_ref_rejects_what_no_generator_builds(args):
    with pytest.raises(ValueError):
        SynthRef(*args)


@pytest.mark.parametrize("generator", [
    lambda n: homogeneous_mix("gcc.1", cores=2, n_accesses=n),
    lambda n: multithreaded_workload("vips", cores=2, n_accesses=n),
])
def test_generators_reject_negative_lengths(generator):
    assert generator(0).total_accesses() == 0
    with pytest.raises(ValueError, match="n_accesses"):
        generator(-5)


def test_ref_travels_as_its_spec():
    ref = SynthRef("profile", "gcc.1", cores=8, accesses=1000, seed=1)
    blob = pickle.dumps(ref)
    assert pickle.loads(blob) == ref
    assert len(blob) < 200
    assert len(json.dumps(workload_to_dict(ref))) < 128
    recipe = RunRecipe(ref, "inclusive", tiny_config())
    assert len(pickle.dumps(recipe)) < 4096


def test_recipe_executes_a_ref_like_its_records():
    ref = SynthRef("mt", "canneal", cores=2, accesses=150, seed=4)
    by_spec = RunRecipe(ref, "ziv:notinprc", tiny_config()).execute()
    by_records = RunRecipe(ref.resolve(), "ziv:notinprc",
                           tiny_config()).execute()
    assert by_spec.workload == by_records.workload == ref.name
    assert by_spec.cycles == by_records.cycles
    assert by_spec.stats == by_records.stats
