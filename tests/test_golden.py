"""Golden bytes of ``dfanet compile``.

Each digest is the sha256 of one compiled network document followed by the
command's stdout, less its ``wrote <path>`` line. A change to any builder, to
the writer or to the report that alters one byte fails here; a refactor that
claims identical output proves it by leaving this file alone.
"""

import dataclasses
import hashlib
import io
from contextlib import redirect_stdout

import pytest

from dfanet.automata import make_parity_dfa, random_dfa
from dfanet.cli import main
from dfanet.formats import DfaDocument, format_dfa_document

LENGTHS = (0, 1, 2, 5, 9, 20)
AUTOMATA = {
    "parity": make_parity_dfa(),
    # a 3-symbol table whose start state is not state 0
    "random5x3": dataclasses.replace(random_dfa(5, 3, seed=4), start_state=2),
}

GOLDEN = {
    "parity-transition": "05f173fb4b51ed3f05a7de14f00428f6ac802801ae10339c486e80b3e32d2a82",
    "parity-binary": "52cfa932f5f4d72b501161843b3f93b795bc5182dca22b683ebec93760f238d6",
    "parity-unrolled-T0": "68bdd39d0bca12fc3756eaf647589a2de5577531362cda26d058b40e7c5a15b3",
    "parity-unrolled-T1": "6e27d10ca6d2d392a17013d2f85c610ff620d683439ad2433d7fbb1fb744ce62",
    "parity-unrolled-T2": "ac21e97f73b1a5c689971f36bf28d516267b6f4e25fc16051f5c0182b02c993b",
    "parity-unrolled-T5": "765ac06067fae9a72172eb458b6ef06dac62f04c186f3febeb8f8cf9670b375e",
    "parity-unrolled-T9": "4d9b85136e082cc5750aa627560ffd2fc827016689267b5abe56b7b3d99a6c33",
    "parity-unrolled-T20": "0ff3bb26bba7104c39516d6bfcdc697843f5e367d58f7a507ca26ffa6b0fba4d",
    "parity-embedding-T0": "ed8a09a3962f152206e44e342812ac83c2e2eca87ef2d82bdabadc7937c7809d",
    "parity-embedding-T1": "984a007aac213371f15ff950f7464a48460fa5d6b16638cf9353d1a4371d5dac",
    "parity-embedding-T2": "a59b5fbed8e474827fdfe23e52b98ee01415c8287c20bd641c1718858cc80461",
    "parity-embedding-T5": "06d03645fbc1e6e1aca82db365fecf67d1a91e87b1f298fa2e21653546add36f",
    "parity-embedding-T9": "d374ee4dad7ff04cd8bea006d40cb7b6ac300d762592a2466994c1ed9ff8f31d",
    "parity-embedding-T20": "f7d0cd30821a52305d32ff87ed081e72d9c75c7b524a664b747fd24307ac0013",
    "parity-compressed-T0": "98b640c11807e4892613de32e357215d2e674aa2412b3db144398242e3d9ab83",
    "parity-compressed-T1": "90c90cb2347cece17ca3440bb0f83d04556d5fffa1eca7b83812895df500bfde",
    "parity-compressed-T2": "466aa79d0cc83ea525074178f42b69e9457a0ab92296292108ba5980754b1b33",
    "parity-compressed-T5": "1f13f4421b4f9535e397ac2f9daec859fcaec77b0d0b7e07e8c869eaa4eb0a97",
    "parity-compressed-T9": "534c2d8c16f7538af265a5757dd218cd6b055f2acd94a8866a9de6dc496a924f",
    "parity-compressed-T20": "4a79bba5be89c9cde637bb9eb9489728e3ba2c07b1b3493253fbb92ec0a8d3cd",
    "random5x3-transition": "49a43999da2a120e85da908b0b3563336cfb839f4a1078acb1805b4996c76340",
    "random5x3-binary": "af12c8881348de5ddf14cecc79150d481cf3327a4db575ef39b20ff273463cff",
    "random5x3-unrolled-T0": "7d1beaa30a083d27e4f8ded05bf6258b87f6db3ae839e6451bd187bf6fc91293",
    "random5x3-unrolled-T1": "a2a68fb75c39e911adc342c7118c8edc61883e033d2d55a7b6a114396ebb4606",
    "random5x3-unrolled-T2": "b087107364c53147faaa05b0df3c49b7887134c3975c93274eaaf5ed66dd26ce",
    "random5x3-unrolled-T5": "469a924ba73e7a9db0f5e7b4709898f426fc15dc18b6bf4f9baddf16c07ffe26",
    "random5x3-unrolled-T9": "cbe6796439750fa3dfbe8a8be6618299a2f261fa5d1b7c523b7463670f310662",
    "random5x3-unrolled-T20": "0dc5df37986431745122eb6dcff98b954f259311905b66d557b3c743fc377cfe",
    "random5x3-embedding-T0": "8cc5d28782764505289d5a60402edc2a32dd1b48fcdf8ebe6f0685730205a7f2",
    "random5x3-embedding-T1": "ddc46408441748e65542decb88a5a8c434f2be4760a17916609e1344bda9dfd9",
    "random5x3-embedding-T2": "20c63a09bb9b3331e296257aab29070296c0d70c9ec71e8773ffd51d1b7378f6",
    "random5x3-embedding-T5": "e4275be6da50fefb46bcb02526c7ffc0d95112546c64961ebdeb869614414255",
    "random5x3-embedding-T9": "75e820be9ae1f8e88dbcd8f46977d8d9716faba5cfc38f35f49f8d28b80a24b5",
    "random5x3-embedding-T20": "1340894a103a4ac0e27863f94cd648f1617ebf357a596362c945157472f1e655",
    "random5x3-compressed-T0": "eee23ea647c7d2a1212cf82d01c914e95046e38c2c58b3092082946a2d91c256",
    "random5x3-compressed-T1": "2fa43cfcc40c3d0ad5ef4c23e2fd9d3e103544a7c1bfb0a04b14f7956f408ac9",
    "random5x3-compressed-T2": "099f6cbc2ed0ac5e13b77967bc46985537807770e382b5fc40ef55ab46f4b8fa",
    "random5x3-compressed-T5": "b28986c483f85211324977a2b1c20e2d1b2702962176fb939a763866aae32a54",
    "random5x3-compressed-T9": "8a28c00cc4622b5b0cfc320e94eace0e9437e735b7b307936ee2658af265d8ae",
    "random5x3-compressed-T20": "e726e7f90736904e74691d9ff2fd95601a5b2e492a3f8b2fa57db9669f8b7a31",
}


def cases():
    for name in AUTOMATA:
        for target in ("transition", "binary"):
            yield name, target, None
        for target in ("unrolled", "embedding", "compressed"):
            for length in LENGTHS:
                yield name, target, length


def case_id(case):
    name, target, length = case
    return f"{name}-{target}" + ("" if length is None else f"-T{length}")


def compile_digest(tmp_path, name, target, length):
    dfa_path, net_path = tmp_path / f"{name}.dfa", tmp_path / "out.net"
    dfa_path.write_text(format_dfa_document(DfaDocument.from_dfa(AUTOMATA[name])))
    argv = ["compile", str(dfa_path), "--target", target, "--out", str(net_path)]
    if length is not None:
        argv += ["--length", str(length)]
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        assert main(argv) == 0
    report = "".join(line for line in stdout.getvalue().splitlines(True) if not line.startswith("wrote "))
    return hashlib.sha256(net_path.read_bytes() + report.encode()).hexdigest()


@pytest.mark.parametrize("case", list(cases()), ids=case_id)
def test_compile_bytes_match_the_golden_digest(tmp_path, case):
    assert compile_digest(tmp_path, *case) == GOLDEN[case_id(case)]
