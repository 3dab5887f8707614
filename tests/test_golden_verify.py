"""Golden bytes of ``dfanet verify``.

Each digest is the sha256 of the command's stdout, then its stderr, then its
exit code, on one network document and automaton. The nets are each
automaton's exact acceptor, the acceptor with one readout entry flipped, the
acceptor with its whole readout inverted, and its embedding-head net, checked
exhaustively and on 300 sampled draws. A change to the verifier or its report
that alters one byte of the verdict, the count or the first witness fails here.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from dfanet.automata import make_mod_counter_dfa, make_parity_dfa, random_dfa
from dfanet.cli import main
from dfanet.compiler import build_embedding_head, build_unrolled_acceptor
from dfanet.formats import DfaDocument, format_dfa_document, format_network_document

from test_compiler import flipped_readout, flipped_readout_entries

AUTOMATA = {
    "parity": make_parity_dfa(),
    "mod5": make_mod_counter_dfa(5),
    "random5x3": random_dfa(5, 3, seed=4),
}
LENGTHS = {"parity": (0, 1, 2, 5, 9, 15), "mod5": (0, 1, 2, 5, 9), "random5x3": (0, 1, 2, 5, 9)}
NETS = {
    "exact": build_unrolled_acceptor,
    "flipped": lambda dfa, length: flipped_readout(build_unrolled_acceptor(dfa, length), dfa.state_count - 1),
    "inverted": lambda dfa, length: flipped_readout_entries(
        build_unrolled_acceptor(dfa, length), np.ones(dfa.state_count, dtype=bool)
    ),
    "embedding": build_embedding_head,
}

GOLDEN = {
    "parity-exact-T0": "209b24623cc550a55fafea2b171cf5b5024e953586a5cb0820e30e104901da3c",
    "parity-exact-T0-sampled300": "4b68dc0de82761700b09a0c27172b428720e33c380fbb32e46f46d4dbece1df3",
    "parity-exact-T1": "e313bc179b2efb5ac60f9ebf0deded0237fa9b91ef95058a1b16b5ea1d532bdf",
    "parity-exact-T1-sampled300": "4b68dc0de82761700b09a0c27172b428720e33c380fbb32e46f46d4dbece1df3",
    "parity-exact-T2": "31c2f8c7763a4e88206f1b462da0c025ce0d61b9f9f57e0e9fb86dbfa6030bca",
    "parity-exact-T2-sampled300": "4b68dc0de82761700b09a0c27172b428720e33c380fbb32e46f46d4dbece1df3",
    "parity-exact-T5": "6e2d2d473528a5821041617493f820fc55589e3809cface551f2fec003a27e92",
    "parity-exact-T5-sampled300": "4b68dc0de82761700b09a0c27172b428720e33c380fbb32e46f46d4dbece1df3",
    "parity-exact-T9": "91061f81a868b4e60799b7a290204171e6fa6f2d1fd6f7b2f8c5f040ef7383f2",
    "parity-exact-T9-sampled300": "4b68dc0de82761700b09a0c27172b428720e33c380fbb32e46f46d4dbece1df3",
    "parity-exact-T15": "da0efb08b660e9905695276db7ab4f359e095652e6aca8365dfe548ac3c33fdc",
    "parity-exact-T15-sampled300": "4b68dc0de82761700b09a0c27172b428720e33c380fbb32e46f46d4dbece1df3",
    "parity-flipped-T0": "d2d182da42bf4a0fd46896cb445aaf9484413a7b37eacee0cf313b7495bfd856",
    "parity-flipped-T0-sampled300": "d16753189f27e95f2b2aea3c530cc7c7363574618757cf3fe57ad9f070555013",
    "parity-flipped-T1": "0819d1b4982f37ac70e7fa114d9c37e04a3f6214d65bcf09df053a0968c75f4a",
    "parity-flipped-T1-sampled300": "4e0a1c596e228b7b0405ed41b426ca4577e9af25a6152f131ac217fe7e119869",
    "parity-flipped-T2": "31817e54f09e8d3c0a1af26cdb96c5a360a9bc72ca6e66ebd1ffee3b9ef2ac59",
    "parity-flipped-T2-sampled300": "23194e30d0e970bf6477ab871f53a8400abbf52a07be6371040faa7f14ceeee6",
    "parity-flipped-T5": "8f113c286719d7125d32c5e9678b821cf99882ec6e4135065e82916ef4a4548c",
    "parity-flipped-T5-sampled300": "5cf5ba05350cac57e02fadd3dab60ddc02f0fe4d6cf4f16f6b1cabe2e6953dcc",
    "parity-flipped-T9": "ff677c56b3e20d171f351850939ec997e76e6af65685ef21db91a20510093ddb",
    "parity-flipped-T9-sampled300": "19532bac234549c3414750996c695c3c2f44e559c14da61ba02eb9418eaf3af3",
    "parity-flipped-T15": "b53e408261886c53f9a8c13abafbac111fabe58d2df47e619cd6a4d0a8b0c45d",
    "parity-flipped-T15-sampled300": "175038349b16a7b6b4aa246c0059694de6c0027f29351d5ab2533d6b9d3f4e2b",
    "parity-inverted-T0": "d2d182da42bf4a0fd46896cb445aaf9484413a7b37eacee0cf313b7495bfd856",
    "parity-inverted-T0-sampled300": "d16753189f27e95f2b2aea3c530cc7c7363574618757cf3fe57ad9f070555013",
    "parity-inverted-T1": "111dba45721ef17e1adfa1b485e51be6bf98c571a55536da42bcd99f21f0175f",
    "parity-inverted-T1-sampled300": "e71c3b00384bdae79c9fd27a0f92b462ae59754e3b17ff54caca157ee607f95b",
    "parity-inverted-T2": "4e79ffdb8c9db1cbbfc03011aa0d89794e0775efb72b6272cd6cb38dcf45c254",
    "parity-inverted-T2-sampled300": "caecd20dfcc08ac9430da048e208d113c645fd31b58b5404aa0a1822ced6677d",
    "parity-inverted-T5": "7ee5889409806095475dd231d663652a1a7cecfca3ea88dfc2a313ff208960ce",
    "parity-inverted-T5-sampled300": "3d37d92a7ef4f20cdeb54dd2f94029c6f101c2ac2c962bf0d9928685713027c7",
    "parity-inverted-T9": "20cf758f7f670fd5e4603a0d7199334746c535663d51020e8dcbdc9cffab337a",
    "parity-inverted-T9-sampled300": "c2ab14e520097bc50492a27afab0ca7c8dbd45b2497e5166302f8fe95d2b3a35",
    "parity-inverted-T15": "45a112b681fdb4318bd084144983e7410a1a5b5733a1569871f3d99af4c62b23",
    "parity-inverted-T15-sampled300": "ecb1d8166beaa56c6cc5673748bcaa9083e7c1246ab94a023e2a4f66c2b095a6",
    "parity-embedding-T0": "209b24623cc550a55fafea2b171cf5b5024e953586a5cb0820e30e104901da3c",
    "parity-embedding-T0-sampled300": "4b68dc0de82761700b09a0c27172b428720e33c380fbb32e46f46d4dbece1df3",
    "parity-embedding-T1": "e313bc179b2efb5ac60f9ebf0deded0237fa9b91ef95058a1b16b5ea1d532bdf",
    "parity-embedding-T1-sampled300": "4b68dc0de82761700b09a0c27172b428720e33c380fbb32e46f46d4dbece1df3",
    "parity-embedding-T2": "31c2f8c7763a4e88206f1b462da0c025ce0d61b9f9f57e0e9fb86dbfa6030bca",
    "parity-embedding-T2-sampled300": "4b68dc0de82761700b09a0c27172b428720e33c380fbb32e46f46d4dbece1df3",
    "parity-embedding-T5": "6e2d2d473528a5821041617493f820fc55589e3809cface551f2fec003a27e92",
    "parity-embedding-T5-sampled300": "4b68dc0de82761700b09a0c27172b428720e33c380fbb32e46f46d4dbece1df3",
    "parity-embedding-T9": "91061f81a868b4e60799b7a290204171e6fa6f2d1fd6f7b2f8c5f040ef7383f2",
    "parity-embedding-T9-sampled300": "4b68dc0de82761700b09a0c27172b428720e33c380fbb32e46f46d4dbece1df3",
    "parity-embedding-T15": "da0efb08b660e9905695276db7ab4f359e095652e6aca8365dfe548ac3c33fdc",
    "parity-embedding-T15-sampled300": "4b68dc0de82761700b09a0c27172b428720e33c380fbb32e46f46d4dbece1df3",
    "mod5-exact-T0": "209b24623cc550a55fafea2b171cf5b5024e953586a5cb0820e30e104901da3c",
    "mod5-exact-T0-sampled300": "4b68dc0de82761700b09a0c27172b428720e33c380fbb32e46f46d4dbece1df3",
    "mod5-exact-T1": "e313bc179b2efb5ac60f9ebf0deded0237fa9b91ef95058a1b16b5ea1d532bdf",
    "mod5-exact-T1-sampled300": "4b68dc0de82761700b09a0c27172b428720e33c380fbb32e46f46d4dbece1df3",
    "mod5-exact-T2": "31c2f8c7763a4e88206f1b462da0c025ce0d61b9f9f57e0e9fb86dbfa6030bca",
    "mod5-exact-T2-sampled300": "4b68dc0de82761700b09a0c27172b428720e33c380fbb32e46f46d4dbece1df3",
    "mod5-exact-T5": "6e2d2d473528a5821041617493f820fc55589e3809cface551f2fec003a27e92",
    "mod5-exact-T5-sampled300": "4b68dc0de82761700b09a0c27172b428720e33c380fbb32e46f46d4dbece1df3",
    "mod5-exact-T9": "91061f81a868b4e60799b7a290204171e6fa6f2d1fd6f7b2f8c5f040ef7383f2",
    "mod5-exact-T9-sampled300": "4b68dc0de82761700b09a0c27172b428720e33c380fbb32e46f46d4dbece1df3",
    "mod5-flipped-T0": "d2d182da42bf4a0fd46896cb445aaf9484413a7b37eacee0cf313b7495bfd856",
    "mod5-flipped-T0-sampled300": "d16753189f27e95f2b2aea3c530cc7c7363574618757cf3fe57ad9f070555013",
    "mod5-flipped-T1": "e313bc179b2efb5ac60f9ebf0deded0237fa9b91ef95058a1b16b5ea1d532bdf",
    "mod5-flipped-T1-sampled300": "4b68dc0de82761700b09a0c27172b428720e33c380fbb32e46f46d4dbece1df3",
    "mod5-flipped-T2": "31c2f8c7763a4e88206f1b462da0c025ce0d61b9f9f57e0e9fb86dbfa6030bca",
    "mod5-flipped-T2-sampled300": "4b68dc0de82761700b09a0c27172b428720e33c380fbb32e46f46d4dbece1df3",
    "mod5-flipped-T5": "88281e96e3579ea145622beabbd16ef54c65d7f6aa37ff31a64f944a5906b0cf",
    "mod5-flipped-T5-sampled300": "78bd9102df37393beae982e9c10a00d38eb3437c4c9d029c2a3b9eeac613eba5",
    "mod5-flipped-T9": "1c832911fa1c26f9cd5924549e16087c712fd9ee1e662ef2790134ee7f737dd2",
    "mod5-flipped-T9-sampled300": "38a54af8c5f08a1c98461ad016fb950218f20704abfd95aa6ede2db92e3af926",
    "mod5-inverted-T0": "d2d182da42bf4a0fd46896cb445aaf9484413a7b37eacee0cf313b7495bfd856",
    "mod5-inverted-T0-sampled300": "d16753189f27e95f2b2aea3c530cc7c7363574618757cf3fe57ad9f070555013",
    "mod5-inverted-T1": "111dba45721ef17e1adfa1b485e51be6bf98c571a55536da42bcd99f21f0175f",
    "mod5-inverted-T1-sampled300": "e71c3b00384bdae79c9fd27a0f92b462ae59754e3b17ff54caca157ee607f95b",
    "mod5-inverted-T2": "4e79ffdb8c9db1cbbfc03011aa0d89794e0775efb72b6272cd6cb38dcf45c254",
    "mod5-inverted-T2-sampled300": "caecd20dfcc08ac9430da048e208d113c645fd31b58b5404aa0a1822ced6677d",
    "mod5-inverted-T5": "7ee5889409806095475dd231d663652a1a7cecfca3ea88dfc2a313ff208960ce",
    "mod5-inverted-T5-sampled300": "3d37d92a7ef4f20cdeb54dd2f94029c6f101c2ac2c962bf0d9928685713027c7",
    "mod5-inverted-T9": "20cf758f7f670fd5e4603a0d7199334746c535663d51020e8dcbdc9cffab337a",
    "mod5-inverted-T9-sampled300": "c2ab14e520097bc50492a27afab0ca7c8dbd45b2497e5166302f8fe95d2b3a35",
    "mod5-embedding-T0": "209b24623cc550a55fafea2b171cf5b5024e953586a5cb0820e30e104901da3c",
    "mod5-embedding-T0-sampled300": "4b68dc0de82761700b09a0c27172b428720e33c380fbb32e46f46d4dbece1df3",
    "mod5-embedding-T1": "e313bc179b2efb5ac60f9ebf0deded0237fa9b91ef95058a1b16b5ea1d532bdf",
    "mod5-embedding-T1-sampled300": "4b68dc0de82761700b09a0c27172b428720e33c380fbb32e46f46d4dbece1df3",
    "mod5-embedding-T2": "31c2f8c7763a4e88206f1b462da0c025ce0d61b9f9f57e0e9fb86dbfa6030bca",
    "mod5-embedding-T2-sampled300": "4b68dc0de82761700b09a0c27172b428720e33c380fbb32e46f46d4dbece1df3",
    "mod5-embedding-T5": "6e2d2d473528a5821041617493f820fc55589e3809cface551f2fec003a27e92",
    "mod5-embedding-T5-sampled300": "4b68dc0de82761700b09a0c27172b428720e33c380fbb32e46f46d4dbece1df3",
    "mod5-embedding-T9": "91061f81a868b4e60799b7a290204171e6fa6f2d1fd6f7b2f8c5f040ef7383f2",
    "mod5-embedding-T9-sampled300": "4b68dc0de82761700b09a0c27172b428720e33c380fbb32e46f46d4dbece1df3",
    "random5x3-exact-T0": "209b24623cc550a55fafea2b171cf5b5024e953586a5cb0820e30e104901da3c",
    "random5x3-exact-T0-sampled300": "4b68dc0de82761700b09a0c27172b428720e33c380fbb32e46f46d4dbece1df3",
    "random5x3-exact-T1": "69c4f15807e9d5b41350db6238418958772930862553a9718c8234198f25db91",
    "random5x3-exact-T1-sampled300": "4b68dc0de82761700b09a0c27172b428720e33c380fbb32e46f46d4dbece1df3",
    "random5x3-exact-T2": "de3287b522e75c486b17f443b539617442220c9f21b679d122b242eb101e8ef1",
    "random5x3-exact-T2-sampled300": "4b68dc0de82761700b09a0c27172b428720e33c380fbb32e46f46d4dbece1df3",
    "random5x3-exact-T5": "3c6cf7e70b71a003c3ab55af2d9fc0586aff45ccc372666233df225f05da2859",
    "random5x3-exact-T5-sampled300": "4b68dc0de82761700b09a0c27172b428720e33c380fbb32e46f46d4dbece1df3",
    "random5x3-exact-T9": "03bceff44d8e637596008f44aa4b7993ec3a6554cbc5d032891c2807ae557264",
    "random5x3-exact-T9-sampled300": "4b68dc0de82761700b09a0c27172b428720e33c380fbb32e46f46d4dbece1df3",
    "random5x3-flipped-T0": "73eef59498357b930b6b0b8f0a30a8ebe8f03d9511fb2f91c37f6a80a0f46765",
    "random5x3-flipped-T0-sampled300": "74bce71887b34aba79d8f0c237894ea643e1d9240908ba7002fd2bfa6c0fe63f",
    "random5x3-flipped-T1": "3d95bfd872be14fb7d95bd8d521d1794b3f5b6d09280db02c6f861cc380a1d86",
    "random5x3-flipped-T1-sampled300": "2936a055708d2d99dc2a7249dcce20b6510ab84297125c69003a3ef9acb18cb4",
    "random5x3-flipped-T2": "e3759e895165b89df08b96f40f06be62bfc50a56711fad0c9e996253fd1058f0",
    "random5x3-flipped-T2-sampled300": "7688f67d0064818f76e96a67f6d3df7e7ea1f1ab237a320897b89ad5b9611fa9",
    "random5x3-flipped-T5": "48760b4866ffa1f8e80f525444fa3b2390219b1a4f6c1b2a88e1bb2090d7dc52",
    "random5x3-flipped-T5-sampled300": "bb58cd237dd2acd110e4b3ebf921871e9446eb5e181046c4e8682d6e39f56b91",
    "random5x3-flipped-T9": "5b3570ef51088d1a5490ea482f00a5789603d3b7ac60b329aba17628a75d050b",
    "random5x3-flipped-T9-sampled300": "ddfa6b23205ab357730630102ae42de0fcbafc8262c72c26ba21d28a889ff30b",
    "random5x3-inverted-T0": "73eef59498357b930b6b0b8f0a30a8ebe8f03d9511fb2f91c37f6a80a0f46765",
    "random5x3-inverted-T0-sampled300": "74bce71887b34aba79d8f0c237894ea643e1d9240908ba7002fd2bfa6c0fe63f",
    "random5x3-inverted-T1": "fe63b3acafd0cc0937f217e25bfd3fdcfed955b0c8da204a81febc607733f653",
    "random5x3-inverted-T1-sampled300": "e71c3b00384bdae79c9fd27a0f92b462ae59754e3b17ff54caca157ee607f95b",
    "random5x3-inverted-T2": "95250feab084563230501c3da004b88ddbe77569cfb7dbb7c877a0d17a7765cb",
    "random5x3-inverted-T2-sampled300": "caecd20dfcc08ac9430da048e208d113c645fd31b58b5404aa0a1822ced6677d",
    "random5x3-inverted-T5": "c4a5c134dd0cf03979ade172449438475ba2188b2c2cf933a07bd117573782e8",
    "random5x3-inverted-T5-sampled300": "3134e2de2e5b1520ea00ad30101aa3a71bacffe85f57cd7677eed169b7169b9d",
    "random5x3-inverted-T9": "79d221a300be259e790ffb450a1a81e20580bee2fac345186202175366d3ab29",
    "random5x3-inverted-T9-sampled300": "3ce11050305d437175668e8d918ababf85ed34c8ca2584e8dc150a09bdeaa9dd",
    "random5x3-embedding-T0": "73eef59498357b930b6b0b8f0a30a8ebe8f03d9511fb2f91c37f6a80a0f46765",
    "random5x3-embedding-T0-sampled300": "74bce71887b34aba79d8f0c237894ea643e1d9240908ba7002fd2bfa6c0fe63f",
    "random5x3-embedding-T1": "fe63b3acafd0cc0937f217e25bfd3fdcfed955b0c8da204a81febc607733f653",
    "random5x3-embedding-T1-sampled300": "e71c3b00384bdae79c9fd27a0f92b462ae59754e3b17ff54caca157ee607f95b",
    "random5x3-embedding-T2": "fed2db31b3db443b9783c9d91b7172d2fc65f4a63b5499e87111f6a336411576",
    "random5x3-embedding-T2-sampled300": "ef800e3fda5cd6ad48f07678d5eeee79f679d3d546633177914e01ec8876897d",
    "random5x3-embedding-T5": "03390bf4f954fd7318528964fc495a1ca0a60a2e40ef3cc8fdf3e6123f63542e",
    "random5x3-embedding-T5-sampled300": "1ffb1de9a62d12b101f377eb795cd51da1b18327ec10875b4c31852a780958a6",
    "random5x3-embedding-T9": "a8ea5aae28508a15bd4630356efa3331914de557f39dc477c25cd70cdbba014a",
    "random5x3-embedding-T9-sampled300": "04cdf21ccc24395fff4bf981bba300b142dd4ba0e82bb10ee2df390bdb61f5cc",
}


def cases():
    for name, lengths in LENGTHS.items():
        for net in NETS:
            for length in lengths:
                for sampled in (None, 300):
                    yield name, net, length, sampled


def case_id(case):
    name, net, length, sampled = case
    return f"{name}-{net}-T{length}" + ("" if sampled is None else f"-sampled{sampled}")


def verify_digest(tmp_path, name, net, length, sampled):
    dfa = AUTOMATA[name]
    dfa_path, net_path = tmp_path / f"{name}.dfa", tmp_path / "in.net"
    dfa_path.write_text(format_dfa_document(DfaDocument.from_dfa(dfa)))
    net_path.write_text(format_network_document(NETS[net](dfa, length)))
    argv = ["verify", str(net_path), str(dfa_path), "--length", str(length)]
    if sampled is not None:
        argv += ["--sampled", str(sampled)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    return hashlib.sha256(f"{stdout.getvalue()}\0{stderr.getvalue()}\0{code}".encode()).hexdigest()


@pytest.mark.parametrize("case", list(cases()), ids=case_id)
def test_verify_output_matches_the_golden_digest(tmp_path, case):
    assert verify_digest(tmp_path, *case) == GOLDEN[case_id(case)]
