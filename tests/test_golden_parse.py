"""Golden outcomes of ``parse_network_document`` on malformed documents.

Each digest is the sha256 of one parse's outcome: the dims, metadata and the
bytes of every layer when the document is accepted, or the ``DocumentError``'s
line, column and message when it is not. The documents are mutations of valid
unrolled, binary and compressed-embedding documents, drawn with
``random.Random(case)`` so they are the same on every run. The mutations put
comment and blank lines inside weights blocks, shorten, lengthen and cut rows,
swap values for literals such as ``1_0``, ``٣`` or ``nan``, change the
separators, cut the document inside a block, declare a 1e9 × 1e9 shape, and
delete, copy or swap whole lines. A change to the parser that accepts or
rejects one more document, or names another line, column or message, fails
here.
"""

import dataclasses
import hashlib
import random

import pytest

from dfanet.automata import make_mod_counter_dfa, make_parity_dfa, random_dfa
from dfanet.compiler import (
    build_binary_threshold_network,
    build_compressed_embedding,
    build_embedding_head,
    build_unrolled_acceptor,
)
from dfanet.formats import DocumentError, format_network_document, parse_network_document


def compressed_document(dfa, length, seed):
    projection, achieved = build_compressed_embedding(dfa, seed=seed)
    net = build_embedding_head(dfa, length, head=projection)
    meta = dict(net.metadata, construction="compressed-embedding", seed=seed, achieved_min_distance=achieved)
    return format_network_document(dataclasses.replace(net, metadata=meta))


BASES = {
    "unrolled-parity-T0": format_network_document(build_unrolled_acceptor(make_parity_dfa(), 0)),
    "unrolled-parity-T2": format_network_document(build_unrolled_acceptor(make_parity_dfa(), 2)),
    "unrolled-random3x3-T2": format_network_document(build_unrolled_acceptor(random_dfa(3, 3, seed=1), 2)),
    "binary-mod5": format_network_document(build_binary_threshold_network(make_mod_counter_dfa(5))),
    "compressed-mod4-T1": compressed_document(make_mod_counter_dfa(4), 1, seed=3),
    "compressed-random4x2-T2": compressed_document(random_dfa(4, 2, seed=7), 2, seed=0),
}

# literals a value can be swapped for: accepted by float() or not, finite or not
LITERALS = [
    "1_0", "\u0663", "nan", "-nan", "NaN", "inf", "-Infinity", "1e999", "-0", "+0", "5e-324", "1e-400",
    ".5", "1.", "0x10", "1e", ".", "", "\u00e9", "\x00", "\uff11", "1.0.0", "+1.5", "nan(1)", "0" * 400,
]
SEPARATORS = ["\t", "\u3000", "\x1f", "\u00a0", "\u2003", "  ", "\x1c", "\u200b", ","]


def weight_rows(lines):
    """Indices of the lines that are rows of some weights block."""
    rows, inside = [], False
    for i, line in enumerate(lines):
        if line == "weights":
            inside = True
        elif line.startswith("bias"):
            inside = False
        elif inside:
            rows.append(i)
    return rows


def shape_lines(lines):
    return [i for i, line in enumerate(lines) if line.startswith("shape ")]


def replace_value(lines, i, rng, literal):
    values = lines[i].split(" ")
    values[rng.randrange(len(values))] = literal
    lines[i] = " ".join(values)


def mutate(lines, rng, kind):
    """Apply one mutation of ``kind`` to ``lines`` in place, at a weights row where there is one."""
    lines[:] = lines or [""]
    i = rng.choice(weight_rows(lines) or range(len(lines)))
    if kind == "comment-in-block":
        lines.insert(i + rng.randrange(2), rng.choice(["# a comment", "#", "  # indented comment"]))
    elif kind == "blank-in-block":
        lines.insert(i + rng.randrange(2), rng.choice(["", "   ", "\t", "\u3000"]))
    elif kind == "short-row":
        lines[i] = lines[i].rpartition(" ")[0]
    elif kind == "long-row":
        lines[i] = lines[i] + " " + rng.choice(["0.0", "1.0", "-2.5"])
    elif kind in ("underscore", "arabic-digit"):
        replace_value(lines, i, rng, "1_0" if kind == "underscore" else "\u0663")
    elif kind == "literal":
        replace_value(lines, i, rng, rng.choice(LITERALS))
    elif kind == "ideographic-space":
        lines[i] = lines[i].replace(" ", "\u3000", rng.choice([1, -1]))
    elif kind == "separator":
        lines[i] = lines[i].replace(" ", rng.choice(SEPARATORS), rng.choice([1, -1]))
    elif kind == "hash-after-values":
        lines[i] = lines[i] + rng.choice(["#", " #", " # trailing", "#1.0"])
    elif kind == "cut-in-block":
        del lines[i + rng.randrange(2):]
    elif kind == "cut-in-row":
        lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
        del lines[i + 1:]
    elif kind == "huge-shape":
        lines[rng.choice(shape_lines(lines) or [i])] = "shape 1000000000 1000000000"
    elif kind == "shape":
        j = rng.choice(shape_lines(lines) or [i])
        out_dim, in_dim = (int(d) for d in (lines[j].split()[1:] + ["1", "1"])[:2])
        lines[j] = f"shape {max(out_dim + rng.choice([-1, 1]), 0)} {in_dim}" if rng.random() < 0.5 else (
            f"shape {out_dim} {max(in_dim + rng.choice([-1, 1]), 0)}"
        )
    elif kind == "indent":
        lines[i] = rng.choice([" ", "\t", "\u3000"]) + lines[i] + rng.choice(["", " ", "\t"])
    elif kind == "commented-row":
        lines[i] = "#" + lines[i]
    elif kind == "delete":
        del lines[rng.randrange(len(lines))]
    elif kind == "copy":
        j = rng.randrange(len(lines))
        lines.insert(j, lines[j])
    elif kind == "swap":
        j, k = rng.randrange(len(lines)), rng.randrange(len(lines))
        lines[j], lines[k] = lines[k], lines[j]
    elif kind == "crlf":
        lines[:] = [line + "\r" for line in lines]
    else:
        raise AssertionError(kind)


KINDS = [
    "comment-in-block", "blank-in-block", "short-row", "long-row", "underscore", "arabic-digit", "literal",
    "ideographic-space", "separator", "hash-after-values", "cut-in-block", "cut-in-row", "huge-shape", "shape",
    "indent", "commented-row", "delete", "copy", "swap", "crlf",
]
CASES = 300


def mutated_document(case):
    """Case ``case``'s base name, mutation kinds and text."""
    rng = random.Random(case)
    base = rng.choice(sorted(BASES))
    kinds = [KINDS[case % len(KINDS)]] + ([rng.choice(KINDS)] if rng.random() < 0.3 else [])
    lines = BASES[base].split("\n")
    for kind in kinds:
        mutate(lines, rng, kind)
    return base, kinds, "\n".join(lines)


def case_id(case):
    base, kinds, _ = mutated_document(case)
    return f"{case:03d}-{base}-" + "+".join(kinds)


def outcome_digest(text):
    try:
        net = parse_network_document(text)
    except DocumentError as exc:
        blob = f"error\0{exc.line}\0{exc.column}\0{exc}".encode()
    else:
        parts = [f"net\0{net.input_dim}\0{net.output_dim}\0{sorted(net.metadata.items())!r}".encode()]
        for layer in net.layers:
            thresholds = b"-" if layer.thresholds is None else layer.thresholds.tobytes()
            parts += [f"\0{layer.activation}\0{layer.strict}\0{layer.weights.shape}\0".encode(),
                      layer.weights.tobytes(), b"\0", layer.bias.tobytes(), b"\0", thresholds]
        blob = b"".join(parts)
    return hashlib.sha256(blob).hexdigest()


GOLDEN = {
    "000-unrolled-parity-T0-comment-in-block": "c1b818127d25f4e661434fe9c9cd708628617eab1134a554f6f07b22682acffe",
    "001-compressed-mod4-T1-blank-in-block": "1aad7713ae695f42257b004df7ecac88e16a95dd1bb8256f82e324eb698cb4cb",
    "002-binary-mod5-short-row+cut-in-row": "162a82ecc99ba24fcd5c4a9712f4b9520c010c4cfa1cf5b279fe43581fca6b67",
    "003-compressed-mod4-T1-long-row": "105307be7e9610e1beb2ca6595592c0e80afa02b4eadb874dbe6064c8da76210",
    "004-compressed-mod4-T1-underscore": "3a058487876f69e9b5a4d93a1518f32c8bb171269719b939d3aa6c1dde7e2d4e",
    "005-unrolled-parity-T2-arabic-digit+cut-in-row": "215247d102ac7872f503dbf0e41ee7e91fa43cf362f77a70280bd6d632ec3c63",
    "006-unrolled-parity-T2-literal": "09bdd877a5a24655835d2ba72adc88290cac75aec5eb8c17626818df73c3990a",
    "007-compressed-random4x2-T2-ideographic-space": "ad3d880f25c8193b1e0a80a0fb70be3bade015d1056dd1f7c922f28730f086f1",
    "008-compressed-mod4-T1-separator": "1aad7713ae695f42257b004df7ecac88e16a95dd1bb8256f82e324eb698cb4cb",
    "009-unrolled-parity-T0-hash-after-values": "c1b818127d25f4e661434fe9c9cd708628617eab1134a554f6f07b22682acffe",
    "010-unrolled-parity-T2-cut-in-block+commented-row": "337b4a26fbb8729af81ff11a3cea625e9ce8a8bfe1b164e5c06168245a938b42",
    "011-unrolled-parity-T0-cut-in-row": "8245ff1488d8e6039dd5c82d1a3ab6892c059a9ef0b10cd4a48612bd72bd4dbf",
    "012-unrolled-parity-T0-huge-shape+delete": "7411b58c9aac97799891be6ba4c93326ed1eb3509b6c37794a536697d9dcee53",
    "013-compressed-random4x2-T2-shape+arabic-digit": "354f1e6b9846bf2e1c639e0598898f56847ed8be83c4b3a44f12678b7c3887ac",
    "014-binary-mod5-indent": "ecd4bfba5723e0ddac35fc07f33052d824665331ef913c17f020735ccab25f61",
    "015-compressed-mod4-T1-commented-row+blank-in-block": "adcd78163de9bc1a3bde415ff758622b6450d424b38777b9267e0437ae4a1e63",
    "016-compressed-random4x2-T2-delete": "89cf067c324a8d70674a5df45f67f5f82bca3a4c85820161ec93c496b954f4d8",
    "017-unrolled-parity-T2-copy": "49c4e145fea0b423458db5399cd722ce1ee0142a070b0e0272507205c1f163d6",
    "018-compressed-mod4-T1-swap+indent": "374a01f3d2ee6fb822920dc50bf11036d443734b6633921e5d38bead04af5ff7",
    "019-unrolled-random3x3-T2-crlf+delete": "f4c67830cc3945bfecab4e0540a3a0ac754b72f8fd1a0f0268005d1b190644ba",
    "020-unrolled-random3x3-T2-comment-in-block": "ced4fb2c7fbcd8240ad39de24c7ef8a257f6d7355f54c6960844d74da41bd177",
    "021-compressed-mod4-T1-blank-in-block": "1aad7713ae695f42257b004df7ecac88e16a95dd1bb8256f82e324eb698cb4cb",
    "022-compressed-mod4-T1-short-row+crlf": "c94541112fd08d11909849c762974d421c33323503c7d4c1d154ea6eb70481b8",
    "023-compressed-random4x2-T2-long-row": "674a5e27ca71a42f954caf4f1cfbb913cfe3759a7e2d3e40a4a9c8c6f700ebd9",
    "024-unrolled-random3x3-T2-underscore": "6495618bf7f2000f5c2196ce616c1e238f47f725280015b8036def6bea7a7875",
    "025-unrolled-parity-T0-arabic-digit": "d91e4b1d67dca888e52ce847b2218617d8c6599e530a4f215f15db5ea046cc65",
    "026-unrolled-random3x3-T2-literal": "eb235969afbf30bb67fc42b41f190ae0a12f34a31eaeaa6f896325192451b16a",
    "027-unrolled-random3x3-T2-ideographic-space": "ced4fb2c7fbcd8240ad39de24c7ef8a257f6d7355f54c6960844d74da41bd177",
    "028-binary-mod5-separator": "ecd4bfba5723e0ddac35fc07f33052d824665331ef913c17f020735ccab25f61",
    "029-unrolled-parity-T2-hash-after-values+crlf": "c78ae036fc7264561bf03cd575d3c6744c3a06f11e647d7f6d3c188f1a028b96",
    "030-unrolled-parity-T2-cut-in-block": "0e38a198a8a25e6e121e797efde140ca8be5aeacb2f66f842e248ec484537e60",
    "031-binary-mod5-cut-in-row": "7d6417018e3f8f0501f4d96e27402696e0d1c952f28638f1fecebf072f00f42b",
    "032-binary-mod5-huge-shape": "91b90873102bc66238cebd66d610f14377863156dc30b7eedd673b666fa740c4",
    "033-unrolled-parity-T2-shape+ideographic-space": "837ca779033c96e04f1ee09fa17232abb7ad0370cce23d3be538d14bf7d1367d",
    "034-unrolled-parity-T2-indent": "54acebc005bcc00faa406e5591d47c64015207565fcc19fc3e5d98f6e1a0cec3",
    "035-unrolled-parity-T2-commented-row": "0efcbf92b3aa4c7ccf24b0d3b96d12f23a021b83ad3f80f0db06d26e4e58d0bf",
    "036-compressed-random4x2-T2-delete+comment-in-block": "f2fe461dcde66cf583d19405e1ea812a6142c2b74b867bbea18589bbbe061ca4",
    "037-unrolled-random3x3-T2-copy": "6ce79f656fffb37e336f75b30743dc4684cb545f6054b32c808310acde751a18",
    "038-unrolled-random3x3-T2-swap": "7cef578050fdb93eee2d991d8e19e6225efccc49a0acb8ee98cfbf005c05a2e4",
    "039-compressed-mod4-T1-crlf+comment-in-block": "1aad7713ae695f42257b004df7ecac88e16a95dd1bb8256f82e324eb698cb4cb",
    "040-unrolled-parity-T0-comment-in-block": "c1b818127d25f4e661434fe9c9cd708628617eab1134a554f6f07b22682acffe",
    "041-unrolled-parity-T0-blank-in-block": "c1b818127d25f4e661434fe9c9cd708628617eab1134a554f6f07b22682acffe",
    "042-unrolled-random3x3-T2-short-row+separator": "f80aefc526a9e1200e83e9ac492a185c6fb93f2b8d6118596becb921a59e969a",
    "043-binary-mod5-long-row+underscore": "38f681762fe493c8a24f1da2baf908f1c469a1e1166cf91151718b561d5f914a",
    "044-unrolled-parity-T0-underscore": "b4f7890be13854631c41442dd874ecb7cf0872ed3d83794006ddcd877f2a842e",
    "045-compressed-random4x2-T2-arabic-digit": "20cbad61e20d814b6bbe5210f2d3784a97f4d876b9d0e112800ae6c033c04536",
    "046-binary-mod5-literal": "f6451e7ccd7f7db7d3479902e0301344ee3966063d4c860f35d0c029e828654e",
    "047-compressed-random4x2-T2-ideographic-space+copy": "376b5d54e6b226c08052119b7b039691451bb65577bdf8b5fccd83b0efa58b87",
    "048-unrolled-parity-T2-separator": "f5744f22e6ccf7c8268ad3eb0914fa227fefd30daa0702ed44a2fcff6f760572",
    "049-binary-mod5-hash-after-values": "4be7962202761b09a1f8e9f37e391e27b4bd5c570d49b735f3e4d8507b5a17d1",
    "050-unrolled-parity-T0-cut-in-block": "642e7ae8e4fbcbb8692e206123338db6e9869a348c6a3c1bd119624ce9e6739c",
    "051-compressed-mod4-T1-cut-in-row": "06aba794a20203a0a187a23ef5244b740bb345abfbe423c9204a330dab81b8cb",
    "052-compressed-random4x2-T2-huge-shape+delete": "4af9ce3fd5aff62973c8d0a7f8c67359b32831b254d16abbd02e870556f19526",
    "053-unrolled-parity-T2-shape": "dd9d667f41e0cfffc4b61a87bd502dad96c18d6efae7d367572945c6d623a5ba",
    "054-compressed-mod4-T1-indent": "1aad7713ae695f42257b004df7ecac88e16a95dd1bb8256f82e324eb698cb4cb",
    "055-binary-mod5-commented-row": "da7f3eb75048edac39eac26370921a0b5f0291607cd185a0b1954d08521c2176",
    "056-unrolled-parity-T2-delete+delete": "68dc673f4618d8a7c18a3b24fd611ae1a5d8e95877b5a0892590d69937ff854f",
    "057-binary-mod5-copy": "ecd4bfba5723e0ddac35fc07f33052d824665331ef913c17f020735ccab25f61",
    "058-unrolled-parity-T2-swap+literal": "fb365ac062be769b633a6431a9ab7b5feea41f8d02c421dab43b29a8c8540972",
    "059-compressed-mod4-T1-crlf+indent": "1aad7713ae695f42257b004df7ecac88e16a95dd1bb8256f82e324eb698cb4cb",
    "060-compressed-random4x2-T2-comment-in-block+underscore": "ab16fa55e21a935510efe8142ed44a88f8cf23cc423baa4ac46b643ec3a6b5fe",
    "061-unrolled-parity-T0-blank-in-block+literal": "3b6f2e561d7f43adfcaa5b1cfaba2609676b17a476014e38ecfa0855a78e946c",
    "062-unrolled-parity-T2-short-row+ideographic-space": "88c4e98cf32d71780ce0afab048577d971377003dc8f53779f014649197a034a",
    "063-unrolled-parity-T0-long-row": "c1b818127d25f4e661434fe9c9cd708628617eab1134a554f6f07b22682acffe",
    "064-unrolled-parity-T0-underscore+crlf": "2bfad2996027f5935b7e2633565208a5e8fc3f3e19d690c0d274fe5d1081aaa9",
    "065-unrolled-parity-T0-arabic-digit+delete": "a285fcfa70c244799e1ba6a056a57808f07e663a74bafab0547e26ec868eb33b",
    "066-binary-mod5-literal": "65aca429a9eb8b95a174570a8852db093336b1c5735bf38b51b1cde4a5602637",
    "067-binary-mod5-ideographic-space+shape": "23559f13653e4ece6ebc6610a07c94c642056bc75c11bfe9ef45ea4890d5e34e",
    "068-unrolled-random3x3-T2-separator": "68349e35db9ccffa05c63901f25031784f43c163b3e2e0bd40c1af529afb609a",
    "069-unrolled-random3x3-T2-hash-after-values+arabic-digit": "cc1642ea66d1590970bcd2e5c6f87159b844d14609eafbf9733da0fa0482086e",
    "070-binary-mod5-cut-in-block+indent": "2c322af17645d7d041630051274fe466e8a57e7fd4290446b24e9a0f48a510f5",
    "071-compressed-random4x2-T2-cut-in-row": "be4186f169078f1768ec5c5eed84417e27def5cce9f568548c2c7d96800ca047",
    "072-binary-mod5-huge-shape": "5aeda395e1f61a38d908018627e07708f711b04672aa90eaec309ade40c19521",
    "073-compressed-random4x2-T2-shape+commented-row": "bf78c590f14119066f32d76ed698d198afb6341574810e4e340e1c2779f130aa",
    "074-unrolled-parity-T2-indent": "54acebc005bcc00faa406e5591d47c64015207565fcc19fc3e5d98f6e1a0cec3",
    "075-unrolled-parity-T0-commented-row": "b506092d2108417914139c4f65953ff953522dfb862b327f01f4c0aac19e4ba0",
    "076-compressed-random4x2-T2-delete": "4ea11a0296a3de6fc9151180075d82d7e618f407f8c5669614e9826f0fe433e7",
    "077-compressed-random4x2-T2-copy": "9e9d4343b29c7c75031d61cf5189f5fe3c2bc5a38be36354f77c3757c3be9d2f",
    "078-compressed-mod4-T1-swap+separator": "f290eb8d008deb34d44a128cd175675527d9adcad2dc349bb8693c6edda86188",
    "079-compressed-mod4-T1-crlf": "1aad7713ae695f42257b004df7ecac88e16a95dd1bb8256f82e324eb698cb4cb",
    "080-compressed-random4x2-T2-comment-in-block": "ad3d880f25c8193b1e0a80a0fb70be3bade015d1056dd1f7c922f28730f086f1",
    "081-unrolled-parity-T2-blank-in-block": "54acebc005bcc00faa406e5591d47c64015207565fcc19fc3e5d98f6e1a0cec3",
    "082-compressed-mod4-T1-short-row": "e7cd35bae74471da46ffa614390313984ec4f870e23001d7cc1e99bb31b5d04d",
    "083-unrolled-parity-T0-long-row": "c1b818127d25f4e661434fe9c9cd708628617eab1134a554f6f07b22682acffe",
    "084-unrolled-random3x3-T2-underscore+blank-in-block": "face8a2daeb8e621963281d53f60729f46594c7c1ffcd5a43da5b24796440865",
    "085-compressed-mod4-T1-arabic-digit": "e7d515c7952a52c74435f827444b96cf3072c7a7ff4d1250576b8cacd241760b",
    "086-binary-mod5-literal": "ff9f7b3db01d37635df3d6c40d3b8ad8519c7f8d8cdbe0686b8d723888e37c65",
    "087-compressed-mod4-T1-ideographic-space": "1aad7713ae695f42257b004df7ecac88e16a95dd1bb8256f82e324eb698cb4cb",
    "088-unrolled-parity-T0-separator": "c1b818127d25f4e661434fe9c9cd708628617eab1134a554f6f07b22682acffe",
    "089-binary-mod5-hash-after-values": "5b5555fd277e11a024b5966807d0596bb70a4aaded43930cb4c2ac64d0b591d7",
    "090-compressed-mod4-T1-cut-in-block": "7c266f6b30f5c2fb0daf1dfe1cf6a53e978a70dd3b822457a626f4ac7ef4ae25",
    "091-binary-mod5-cut-in-row": "a3127ad43d98215d77e50c9d0a5ac39741ca3da018171df528089c7be916f88d",
    "092-unrolled-parity-T0-huge-shape": "dd63c8bcf05e3fd229a28bac7a2b503ac1da68debc97eeaa752b47524ab15163",
    "093-unrolled-parity-T0-shape": "c86fc1334cbcc9b618a043706651a93d66f993ba0af7ef3e39dc725ddc2e6094",
    "094-unrolled-parity-T2-indent+separator": "54acebc005bcc00faa406e5591d47c64015207565fcc19fc3e5d98f6e1a0cec3",
    "095-unrolled-parity-T2-commented-row": "0efcbf92b3aa4c7ccf24b0d3b96d12f23a021b83ad3f80f0db06d26e4e58d0bf",
    "096-compressed-random4x2-T2-delete": "6bb0948fb23019ec1e62a50a7f38f42d20cf103083e6a6519cd6dfad43773441",
    "097-compressed-mod4-T1-copy": "1aad7713ae695f42257b004df7ecac88e16a95dd1bb8256f82e324eb698cb4cb",
    "098-compressed-random4x2-T2-swap": "0c2aa3268130bd0aa5b00d0689a953fe419d884a507c70e815443609740b7197",
    "099-unrolled-parity-T0-crlf": "c1b818127d25f4e661434fe9c9cd708628617eab1134a554f6f07b22682acffe",
    "100-compressed-mod4-T1-comment-in-block": "1aad7713ae695f42257b004df7ecac88e16a95dd1bb8256f82e324eb698cb4cb",
    "101-unrolled-parity-T2-blank-in-block": "54acebc005bcc00faa406e5591d47c64015207565fcc19fc3e5d98f6e1a0cec3",
    "102-compressed-mod4-T1-short-row": "e9395257b9a91c6fc48ae4e212d51ad54ac49327ac563c14da0b54deec3ac0e4",
    "103-unrolled-random3x3-T2-long-row": "5c40c7cd2e1e542641bcefc16210197ec59c993bd1879ca02c51b6cb9cac925d",
    "104-binary-mod5-underscore": "b4575535348d01cc3285ae1b8335c53accd38a26dde0c1d1a26d4fbe352785ab",
    "105-unrolled-parity-T2-arabic-digit": "82b969c8c385a6435a0baf85b39c3afe9dec10fe3185c316f2f5f998e24637d7",
    "106-unrolled-random3x3-T2-literal": "1ec7c45963072aaa0dd808c8fb0a8a74063e6eae2dbe5e13dcfc9761ce54c7f1",
    "107-compressed-mod4-T1-ideographic-space": "1aad7713ae695f42257b004df7ecac88e16a95dd1bb8256f82e324eb698cb4cb",
    "108-compressed-mod4-T1-separator": "1e2a8d689228eecb9cb7aa81e2de57e3e3678e1692f1b7c36ec41cbed0139b64",
    "109-compressed-random4x2-T2-hash-after-values+indent": "4070985b2b51267257a68a5da862b4d023095f49df1a19adf9e0a0fbd2ff4563",
    "110-unrolled-parity-T0-cut-in-block": "4029ddbc9554122b2082029d3f43487e6965a5d68a752b5601f2dfe634a6a024",
    "111-compressed-mod4-T1-cut-in-row": "c8afcb7714e1424f743451183bd82987317947ff0b204c338dfdb29e03efede0",
    "112-unrolled-parity-T0-huge-shape": "dd63c8bcf05e3fd229a28bac7a2b503ac1da68debc97eeaa752b47524ab15163",
    "113-binary-mod5-shape": "23559f13653e4ece6ebc6610a07c94c642056bc75c11bfe9ef45ea4890d5e34e",
    "114-compressed-mod4-T1-indent": "1aad7713ae695f42257b004df7ecac88e16a95dd1bb8256f82e324eb698cb4cb",
    "115-compressed-random4x2-T2-commented-row+long-row": "e75dab8111e363df372b6f4a4dd1e4a07b047e4bf3f50a56d90d4622cd29a49a",
    "116-unrolled-random3x3-T2-delete": "f55f6a5f3ba040b08f4a7b51a21e349aa11c165532a8cfae4ba12754f1453c07",
    "117-compressed-mod4-T1-copy+literal": "3c3cb9caa10b3eb6c4c3b669ec4613a86596b42386044c288816077c0b4a641a",
    "118-unrolled-random3x3-T2-swap": "9fc2b08a022278e4cbab6460873fa7932aca6c7df91011d44450f184f0b0a1cf",
    "119-compressed-random4x2-T2-crlf+copy": "0dfee1790607c75287a256ae4177d37eabcb955f1ecb88e03226a29ddceb0858",
    "120-unrolled-parity-T2-comment-in-block+swap": "0efcbf92b3aa4c7ccf24b0d3b96d12f23a021b83ad3f80f0db06d26e4e58d0bf",
    "121-binary-mod5-blank-in-block+huge-shape": "91b90873102bc66238cebd66d610f14377863156dc30b7eedd673b666fa740c4",
    "122-unrolled-parity-T2-short-row+hash-after-values": "0b094af44c4d8970fd59d10d1f45bcf7338a6d09d264d6c3d5e8883e651ff411",
    "123-binary-mod5-long-row+shape": "9257529859a89c39684f3676deb0111b03b45d0e2212481346e4d6674e66be6c",
    "124-compressed-random4x2-T2-underscore": "9c2b6f557e8a44383db8e11c48d3239d41efd618c99ed7613555755ddeadd7e3",
    "125-compressed-mod4-T1-arabic-digit+crlf": "bcaf97a1e87e38667269e9947f2ef69e3989b975c33e14757b75def545523430",
    "126-unrolled-parity-T2-literal+crlf": "87756bfd8450fe58ae17d8b9a665beb3068b6202d32aaf0136e45c73dbd349dc",
    "127-binary-mod5-ideographic-space": "ecd4bfba5723e0ddac35fc07f33052d824665331ef913c17f020735ccab25f61",
    "128-compressed-mod4-T1-separator": "1aad7713ae695f42257b004df7ecac88e16a95dd1bb8256f82e324eb698cb4cb",
    "129-unrolled-parity-T2-hash-after-values": "7a5ecccd31c0af32a2cbe0fa4f925f77af315c863072aa279534da9675f88225",
    "130-unrolled-parity-T2-cut-in-block": "219796974df1baf61b7450a6418eeb2a724b5b31ec5f297c037fb0d820c448a5",
    "131-compressed-random4x2-T2-cut-in-row": "fbc86344f6b6d12ca93549a898381a2a6a957c0e2e08989eee0a8847edda05a4",
    "132-unrolled-parity-T0-huge-shape+blank-in-block": "0377570d4550eac4e609d53b988d76bfb551ea2e495fb1dcb0f51a69369f05e0",
    "133-unrolled-parity-T0-shape": "c1b818127d25f4e661434fe9c9cd708628617eab1134a554f6f07b22682acffe",
    "134-unrolled-parity-T0-indent": "c1b818127d25f4e661434fe9c9cd708628617eab1134a554f6f07b22682acffe",
    "135-unrolled-random3x3-T2-commented-row": "5fcde892e92e8b1a4349fea98b20c136ef1eff76ae85e1619cbc3d4206522080",
    "136-unrolled-parity-T2-delete": "f5744f22e6ccf7c8268ad3eb0914fa227fefd30daa0702ed44a2fcff6f760572",
    "137-binary-mod5-copy+cut-in-block": "d6ee032f82fe48aeccf064ed79e443108fc7c788f995095ee55ad63cbbce8e61",
    "138-compressed-mod4-T1-swap": "c780792413b066b0299c077588d4473401978296a83de7db60e8e1bd57bf5ffc",
    "139-binary-mod5-crlf": "ecd4bfba5723e0ddac35fc07f33052d824665331ef913c17f020735ccab25f61",
    "140-binary-mod5-comment-in-block+comment-in-block": "ecd4bfba5723e0ddac35fc07f33052d824665331ef913c17f020735ccab25f61",
    "141-unrolled-parity-T2-blank-in-block": "54acebc005bcc00faa406e5591d47c64015207565fcc19fc3e5d98f6e1a0cec3",
    "142-unrolled-parity-T2-short-row": "69c383baac783091b3bed089a4e7fe02d84c9902735ea65b0edd9cce61b821bd",
    "143-compressed-mod4-T1-long-row": "183ba519412ac3305669c9296607116beab36046007144b24a8ef1fb68eeb989",
    "144-unrolled-parity-T0-underscore+short-row": "c21717b33f68542e8a6ca7cf3ee6604119eb7c03493019e95da3215f6c55d164",
    "145-unrolled-parity-T0-arabic-digit": "d91e4b1d67dca888e52ce847b2218617d8c6599e530a4f215f15db5ea046cc65",
    "146-compressed-mod4-T1-literal+cut-in-block": "5ae6c82b62d02abfa2233e8fd9de8f505c69c88d43d70504e9756589cc524c4c",
    "147-unrolled-parity-T2-ideographic-space": "54acebc005bcc00faa406e5591d47c64015207565fcc19fc3e5d98f6e1a0cec3",
    "148-unrolled-parity-T0-separator": "4c4ee6fc47c74df497e1de735953cbea5a0edf83e727fa0e5539bd548723059c",
    "149-binary-mod5-hash-after-values+huge-shape": "5aeda395e1f61a38d908018627e07708f711b04672aa90eaec309ade40c19521",
    "150-compressed-random4x2-T2-cut-in-block": "c8afcb7714e1424f743451183bd82987317947ff0b204c338dfdb29e03efede0",
    "151-unrolled-random3x3-T2-cut-in-row": "a970d80b26e00c11db34b61cbf91d89aa8e56adf018f9a90820cd4e1216e4ab9",
    "152-unrolled-parity-T0-huge-shape": "dd63c8bcf05e3fd229a28bac7a2b503ac1da68debc97eeaa752b47524ab15163",
    "153-unrolled-parity-T0-shape+separator": "c1b818127d25f4e661434fe9c9cd708628617eab1134a554f6f07b22682acffe",
    "154-compressed-mod4-T1-indent": "1aad7713ae695f42257b004df7ecac88e16a95dd1bb8256f82e324eb698cb4cb",
    "155-unrolled-parity-T2-commented-row": "ddf4f0e81c34f4f8b5c8e5f3509254d71f03ae35856f8a8fd5550bcb0bf76caf",
    "156-unrolled-parity-T0-delete": "91d2c48980307b201e6a0cd4e41230501c9103a48fc4eb09ba03792fd80247f0",
    "157-unrolled-parity-T2-copy": "54acebc005bcc00faa406e5591d47c64015207565fcc19fc3e5d98f6e1a0cec3",
    "158-unrolled-random3x3-T2-swap": "9cffedc545cbf0233ed26c4c3ab74efa4f713362a121071da9c9f03f482ae56c",
    "159-unrolled-parity-T0-crlf+indent": "c1b818127d25f4e661434fe9c9cd708628617eab1134a554f6f07b22682acffe",
    "160-binary-mod5-comment-in-block": "ecd4bfba5723e0ddac35fc07f33052d824665331ef913c17f020735ccab25f61",
    "161-unrolled-parity-T2-blank-in-block+arabic-digit": "2aacbd7855f41525c320391b7c5f44ab5f419f0f6640673b0b841585e4e5033c",
    "162-binary-mod5-short-row": "6cc23cf6fd9af5b88ad99c1ad6336b8ed053b4b38d12e93e8b799e96cfaf1552",
    "163-unrolled-parity-T2-long-row": "674a5e27ca71a42f954caf4f1cfbb913cfe3759a7e2d3e40a4a9c8c6f700ebd9",
    "164-binary-mod5-underscore": "2bfa0288a0d6b4d9e97de52540673b0b97910f1b3344b0d47703aadf332cf2de",
    "165-binary-mod5-arabic-digit+shape": "1d2c08374a3ac3f7f7f4617f522b0eeff2950f8be7791bac2e2a505b2c512773",
    "166-compressed-mod4-T1-literal": "1aad7713ae695f42257b004df7ecac88e16a95dd1bb8256f82e324eb698cb4cb",
    "167-compressed-mod4-T1-ideographic-space": "1aad7713ae695f42257b004df7ecac88e16a95dd1bb8256f82e324eb698cb4cb",
    "168-unrolled-random3x3-T2-separator+cut-in-row": "6fe6b6da85b03a8020d2022b7283ee1755aae0f51167136617331f3531faa7c0",
    "169-compressed-random4x2-T2-hash-after-values": "f81a857d1f186e328da92065afbcd9aaefab1c2103c5cb63948e3c0e507037c0",
    "170-compressed-random4x2-T2-cut-in-block": "87a48b3108f8bbd3a47097b1a644ef6c7ada4707bb19140ea88f56d9c727a19d",
    "171-unrolled-parity-T2-cut-in-row": "66e13bb1d6c60c96f94895cb904cead555b27a624a5bb01865ea36c280ad8485",
    "172-compressed-random4x2-T2-huge-shape+hash-after-values": "537bfede9c190c90b3693d5709395377b9e2e9dc1f7c3c661c2c64fd3bf705d6",
    "173-compressed-random4x2-T2-shape": "b5a36c3187fa63676dcb9688d325128c18efecd1e80293baa1a0bb62e0917132",
    "174-binary-mod5-indent": "ecd4bfba5723e0ddac35fc07f33052d824665331ef913c17f020735ccab25f61",
    "175-unrolled-parity-T0-commented-row+swap": "207775fa52a0dea1e2bf095e599638a94bbcde85f750db8c0110d86bd197968f",
    "176-binary-mod5-delete+ideographic-space": "fd94a53bbc4072d971888108f089dd1b2f4eb956f45ef9424b2830dda0a79473",
    "177-compressed-mod4-T1-copy": "c333d6dbc7c371fe7f4c82c75279c93ef63334388b248986ca31544b9b1995ba",
    "178-binary-mod5-swap": "9c48955b5f459e367e1cfe2cc59d7577f2ffb3f1dc7c49b50d83a6cef040a119",
    "179-compressed-mod4-T1-crlf+short-row": "5ba50bcd3e11521b54e24dfbf39d7ca21a3fa42f6718dc72fde5acd26f6cd43a",
    "180-compressed-mod4-T1-comment-in-block+comment-in-block": "1aad7713ae695f42257b004df7ecac88e16a95dd1bb8256f82e324eb698cb4cb",
    "181-unrolled-parity-T2-blank-in-block": "54acebc005bcc00faa406e5591d47c64015207565fcc19fc3e5d98f6e1a0cec3",
    "182-unrolled-parity-T0-short-row": "219c37b236775aa621a8efd6150b0c639d6bbf2542c0904b1c75cb667b13e1b0",
    "183-binary-mod5-long-row+comment-in-block": "4365d11b5896d9200f948c2a287e4e4a82ca91bdc280f43e9b30da5317dd1f89",
    "184-compressed-random4x2-T2-underscore+cut-in-block": "be4186f169078f1768ec5c5eed84417e27def5cce9f568548c2c7d96800ca047",
    "185-binary-mod5-arabic-digit+hash-after-values": "3cdfd4fce084ed2bca338f821fe687633a56cd2c8e79fe823d97f7c033b1effd",
    "186-compressed-random4x2-T2-literal": "3af1822df2d1a053c134f21597a00c65dfcff6bee837a03290fa39896333974f",
    "187-compressed-random4x2-T2-ideographic-space": "ad3d880f25c8193b1e0a80a0fb70be3bade015d1056dd1f7c922f28730f086f1",
    "188-unrolled-random3x3-T2-separator": "ced4fb2c7fbcd8240ad39de24c7ef8a257f6d7355f54c6960844d74da41bd177",
    "189-unrolled-parity-T0-hash-after-values": "c1b818127d25f4e661434fe9c9cd708628617eab1134a554f6f07b22682acffe",
    "190-binary-mod5-cut-in-block+cut-in-block": "8245ff1488d8e6039dd5c82d1a3ab6892c059a9ef0b10cd4a48612bd72bd4dbf",
    "191-unrolled-parity-T2-cut-in-row": "cbf4403c04e8ddde94c469607b6c41f344e8a807b47d3a424e0592354213b2dd",
    "192-compressed-random4x2-T2-huge-shape": "d3800f3c8ed790d8ac369fc18e016ea9210e02fe6a9b3d29cb0b02b358c1c4df",
    "193-unrolled-parity-T2-shape": "e2d64fffbed2d3ceec63e5686e73093b51aa7c2f3a6a43ec1f6e024c3acf32d2",
    "194-unrolled-parity-T2-indent+underscore": "d13a9e1e39de4bd4512fd41ca6ac1eab7186bf56b3c99a24046e736ca7210760",
    "195-unrolled-parity-T2-commented-row": "ddf4f0e81c34f4f8b5c8e5f3509254d71f03ae35856f8a8fd5550bcb0bf76caf",
    "196-unrolled-random3x3-T2-delete": "8b1a226737d3e212a2408f007864fe86ccca7ecea764ef1a7c0df02a2b3b16c8",
    "197-unrolled-parity-T2-copy+arabic-digit": "bdab3b8f388f7dd53512add82a4102336351db6dde1bcf30e335b51909ad46e2",
    "198-binary-mod5-swap": "e60fd0e3499e4f297d79c10c8aadbfde2b727360aeec2877afae20322f2a3e06",
    "199-compressed-random4x2-T2-crlf": "ad3d880f25c8193b1e0a80a0fb70be3bade015d1056dd1f7c922f28730f086f1",
    "200-binary-mod5-comment-in-block": "ecd4bfba5723e0ddac35fc07f33052d824665331ef913c17f020735ccab25f61",
    "201-binary-mod5-blank-in-block": "ecd4bfba5723e0ddac35fc07f33052d824665331ef913c17f020735ccab25f61",
    "202-unrolled-parity-T0-short-row": "0082f13708a91a2c16ca611102f382cbcac5cc1593aeeb1ab111715d300b093c",
    "203-binary-mod5-long-row+commented-row": "1e0971abd2904c09fd4f1bb9d5e3ba386c716e3ac1e87f7175bf1b2d9032c707",
    "204-unrolled-parity-T0-underscore": "1492557f7c89ea9b76c1d44e9c2a61b3a56a8dad19d88cb8f39185825f5be4dd",
    "205-unrolled-parity-T0-arabic-digit": "bb2960700b9e1a7a54cbece05c1aa7fe282812841c84658c99c42d95f439fe0c",
    "206-binary-mod5-literal+ideographic-space": "78504749cc4ea41b8fb41c92c8e6853bc406049126724fec7531c326733712ec",
    "207-unrolled-parity-T2-ideographic-space": "54acebc005bcc00faa406e5591d47c64015207565fcc19fc3e5d98f6e1a0cec3",
    "208-compressed-random4x2-T2-separator": "ad3d880f25c8193b1e0a80a0fb70be3bade015d1056dd1f7c922f28730f086f1",
    "209-unrolled-parity-T2-hash-after-values": "07276c64ef1ee5d3d2e7c2a6f8e22586b15e9a55d2b8e5f156e68be13c435518",
    "210-unrolled-parity-T0-cut-in-block+huge-shape": "f290eb8d008deb34d44a128cd175675527d9adcad2dc349bb8693c6edda86188",
    "211-unrolled-parity-T2-cut-in-row": "b837aa60f920bd372a0384ef538e55697e247e85bd8bfcad5d480aec9e239b5e",
    "212-unrolled-parity-T0-huge-shape": "dd63c8bcf05e3fd229a28bac7a2b503ac1da68debc97eeaa752b47524ab15163",
    "213-compressed-mod4-T1-shape": "adcd78163de9bc1a3bde415ff758622b6450d424b38777b9267e0437ae4a1e63",
    "214-unrolled-parity-T2-indent": "54acebc005bcc00faa406e5591d47c64015207565fcc19fc3e5d98f6e1a0cec3",
    "215-binary-mod5-commented-row": "da7f3eb75048edac39eac26370921a0b5f0291607cd185a0b1954d08521c2176",
    "216-compressed-mod4-T1-delete": "09a2c43dd8fecbf4fc9bf833fb7b73ac3fd8854cfe9517cf19660cb8bd715bab",
    "217-compressed-random4x2-T2-copy+separator": "b05ca54938613d2791dcfa4ecc8918a074233dab48e557a8b9eb582712c02281",
    "218-compressed-random4x2-T2-swap+crlf": "03ab7b8b407300b5e4efe9d2ede0ad174fb6301772ad3ca9c3e1057e18471d26",
    "219-unrolled-random3x3-T2-crlf": "ced4fb2c7fbcd8240ad39de24c7ef8a257f6d7355f54c6960844d74da41bd177",
    "220-unrolled-random3x3-T2-comment-in-block": "ced4fb2c7fbcd8240ad39de24c7ef8a257f6d7355f54c6960844d74da41bd177",
    "221-compressed-mod4-T1-blank-in-block": "1aad7713ae695f42257b004df7ecac88e16a95dd1bb8256f82e324eb698cb4cb",
    "222-binary-mod5-short-row+hash-after-values": "ea93d1cd5be3a6af31fd86158628c24be40f23f84bdb531f52c9fac9a53a2fd0",
    "223-compressed-random4x2-T2-long-row": "3578c664c5c226e2e67c5c9fe173a8aa7a91ea3a9647f46c181037221bfa07d1",
    "224-binary-mod5-underscore": "1e7885588ad5e4d408e2e4e368206bf4b5a495dec52a2ca2444df826a422aae9",
    "225-unrolled-random3x3-T2-arabic-digit": "2a708cd14eba9d961ecf3fdf56ae3b00fd75be31a8a3a094a2f322e6463f9057",
    "226-unrolled-parity-T0-literal+copy": "022186d0e042365589a23a9e0a42e025771ac1f61c415d27136dcb15c85bea5b",
    "227-unrolled-parity-T0-ideographic-space": "c1b818127d25f4e661434fe9c9cd708628617eab1134a554f6f07b22682acffe",
    "228-unrolled-random3x3-T2-separator": "ced4fb2c7fbcd8240ad39de24c7ef8a257f6d7355f54c6960844d74da41bd177",
    "229-unrolled-parity-T2-hash-after-values+copy": "f4b631effe5841043bc694a00883fd0b6c0061e70cbabb1dd2d950e34cd280f2",
    "230-unrolled-random3x3-T2-cut-in-block+copy": "1660d64056ed136a39d4631046df838b32a503b096b8d545ae0e223c1b1d20cc",
    "231-binary-mod5-cut-in-row": "b05b53735d8cc80ded8674745ba560ef4166aba878af4fbd10f9b0e4c0c3eb01",
    "232-compressed-random4x2-T2-huge-shape+short-row": "537bfede9c190c90b3693d5709395377b9e2e9dc1f7c3c661c2c64fd3bf705d6",
    "233-unrolled-random3x3-T2-shape": "fa7ef1aa0388076118d4ed9215e9a227bf00d81d4223f11ff7aa9b1e7ad0d89a",
    "234-compressed-random4x2-T2-indent+blank-in-block": "ad3d880f25c8193b1e0a80a0fb70be3bade015d1056dd1f7c922f28730f086f1",
    "235-compressed-random4x2-T2-commented-row": "cd7a3057c024ec96b2b5cdbb294d2a7234571d4fc18a9ee45565203cb180e9e0",
    "236-unrolled-random3x3-T2-delete": "a1d48b56242184f6a1a0f09b05bc17c70e206b8ed594fc38c6795083dd6b909b",
    "237-unrolled-parity-T2-copy": "69225f106b17a0c56add1a85ee479de8827075daa669eee2ffa123af9b957727",
    "238-compressed-random4x2-T2-swap+short-row": "038993f5a8759bb93a76fc1b9c92b5e4dc4290fb1f3dc94fd205ae194db4aac9",
    "239-binary-mod5-crlf+underscore": "3c85d71530f5526b06f991053f636b27ed048a502fa475558baf86e3cf5453cc",
    "240-unrolled-parity-T2-comment-in-block+cut-in-block": "f5d8b2df00abfc88fb95491832a3cdfc90448eca48d7da8c52f6e6318699e793",
    "241-unrolled-random3x3-T2-blank-in-block": "ced4fb2c7fbcd8240ad39de24c7ef8a257f6d7355f54c6960844d74da41bd177",
    "242-compressed-random4x2-T2-short-row+delete": "b74168b9e652fb32f9db40457842ab192048db00b245f0590d16daf05487f04c",
    "243-unrolled-parity-T2-long-row": "c5e33a2b17cc3b5ee0e2add2600ecda7407295abb59ca34fce0b8cf4d83473af",
    "244-unrolled-random3x3-T2-underscore": "b6a72034d2c4d1acaf7cf089d5a80c1cf8f093e741685bf3815202806dff836e",
    "245-compressed-mod4-T1-arabic-digit+short-row": "5db004484b8e12158a1e0c74b7f9f55699c686e989fbbe76ba865be7c2f5683e",
    "246-binary-mod5-literal": "ecd4bfba5723e0ddac35fc07f33052d824665331ef913c17f020735ccab25f61",
    "247-unrolled-parity-T0-ideographic-space": "c1b818127d25f4e661434fe9c9cd708628617eab1134a554f6f07b22682acffe",
    "248-unrolled-parity-T0-separator": "c1b818127d25f4e661434fe9c9cd708628617eab1134a554f6f07b22682acffe",
    "249-compressed-random4x2-T2-hash-after-values": "35d9ea35c2703cf56da41a1dc49945eea3e312b39606aa8bfdc59b891fa1ee0a",
    "250-unrolled-parity-T0-cut-in-block": "4f988e1f84dc5544b3aa96f061d014e1bc804d4ee4f560c244a358fbd6c5166a",
    "251-unrolled-parity-T0-cut-in-row": "8760fc462525a8d873041996b26b11f80adbf9e5e8a58ca46a86c9c5e7ce3a54",
    "252-unrolled-parity-T2-huge-shape+hash-after-values": "c8eac69176478af26e83ef195a7f4fbc914b14155d539fdc736cc6825155ef3c",
    "253-unrolled-parity-T2-shape": "90126c1bd30ee1b871be4ed09e6e8b88ec4551afe7957876bf8b26db4cf646e9",
    "254-compressed-random4x2-T2-indent": "ad3d880f25c8193b1e0a80a0fb70be3bade015d1056dd1f7c922f28730f086f1",
    "255-binary-mod5-commented-row": "8580ca46810d5dce735b87c39c360d9a52de05ea57b1c220b5c9c679c6d91f27",
    "256-unrolled-parity-T0-delete": "cb9e447c6eb68a0afb1fb7a2030b00b4acd47be9a63906bf02e79d7861f5e045",
    "257-compressed-random4x2-T2-copy": "ad3d880f25c8193b1e0a80a0fb70be3bade015d1056dd1f7c922f28730f086f1",
    "258-unrolled-random3x3-T2-swap": "1f23f7075554e812fc46fd292f89323773ce0c386a538c2d723da468435738f3",
    "259-binary-mod5-crlf": "ecd4bfba5723e0ddac35fc07f33052d824665331ef913c17f020735ccab25f61",
    "260-compressed-mod4-T1-comment-in-block+shape": "5885ca821fa9a947709f5aef0aa30543396fb11756f4b707d2f6669e780b9d8a",
    "261-unrolled-parity-T0-blank-in-block": "c1b818127d25f4e661434fe9c9cd708628617eab1134a554f6f07b22682acffe",
    "262-compressed-random4x2-T2-short-row": "934ac3416c9025f31b7b5a1d45e5c4fc9ad33b74e3a9e0d27045f96c7617460a",
    "263-unrolled-random3x3-T2-long-row": "ff86fd414f74d47096909cd74268e26575130aefcd4da510668c64adfdbc001e",
    "264-unrolled-parity-T2-underscore": "c01c7a2baed7cb8e5b81bde689263dd997eebf8bbcd43bfef84cbdf12aa24ec1",
    "265-unrolled-parity-T0-arabic-digit": "100c336419e23caf5472030b806c9b292d8a1d0223f3c6a4e6e3fb4c62cab466",
    "266-binary-mod5-literal": "72f72af42db9e5a8d881488cba9810ee1ca8cd0c393bf43215c8f1e7bb102d9d",
    "267-compressed-mod4-T1-ideographic-space+cut-in-block": "07d1743fb9823a78dcbf76145f1721fb1e4dfd153504acffa57f5cb7c7a4da0b",
    "268-unrolled-parity-T2-separator": "905a6cbf721ffcbdf523b1a0b3d6448d47ad9c2fcddd1be53028b6f70ac2ca27",
    "269-binary-mod5-hash-after-values+short-row": "76630097fb5347ec6a1b1904323466b9b7706a0137532d015210fc19996d931d",
    "270-compressed-mod4-T1-cut-in-block": "10dbcc8bc8c832c94d0f79b7e23fa9c98f4df0479244e7eaef1665f12350ffb2",
    "271-unrolled-parity-T0-cut-in-row": "f9857429d82a39f3110fab3ef8e2b443cd931c6ec9dc7a1aeeab02c1e56dbf65",
    "272-unrolled-parity-T0-huge-shape": "dd63c8bcf05e3fd229a28bac7a2b503ac1da68debc97eeaa752b47524ab15163",
    "273-compressed-mod4-T1-shape": "adcd78163de9bc1a3bde415ff758622b6450d424b38777b9267e0437ae4a1e63",
    "274-compressed-mod4-T1-indent": "1aad7713ae695f42257b004df7ecac88e16a95dd1bb8256f82e324eb698cb4cb",
    "275-binary-mod5-commented-row": "da7f3eb75048edac39eac26370921a0b5f0291607cd185a0b1954d08521c2176",
    "276-compressed-random4x2-T2-delete+cut-in-block": "6572d72f491f41131004623082b4e16b65fb8255272edcf58ed9df33de800e09",
    "277-binary-mod5-copy": "ecd4bfba5723e0ddac35fc07f33052d824665331ef913c17f020735ccab25f61",
    "278-compressed-random4x2-T2-swap": "da8546793eae707e7e26314314236c0ad5ae2dfef08f211a1b4e4703b1739d02",
    "279-unrolled-parity-T0-crlf": "c1b818127d25f4e661434fe9c9cd708628617eab1134a554f6f07b22682acffe",
    "280-compressed-random4x2-T2-comment-in-block": "ad3d880f25c8193b1e0a80a0fb70be3bade015d1056dd1f7c922f28730f086f1",
    "281-binary-mod5-blank-in-block": "ecd4bfba5723e0ddac35fc07f33052d824665331ef913c17f020735ccab25f61",
    "282-unrolled-random3x3-T2-short-row+commented-row": "68349e35db9ccffa05c63901f25031784f43c163b3e2e0bd40c1af529afb609a",
    "283-unrolled-random3x3-T2-long-row+delete": "7a7d10b689a28ce37d2e7e0591f2e991681e084fc8aa5b35dea91d3d8f76fc55",
    "284-binary-mod5-underscore": "ad67c4a9c0ad284693e80cc8313847dc9f7c2e18a1b90e3de4a7594962eba930",
    "285-unrolled-parity-T2-arabic-digit+swap": "b9b11106a141bba0d231b8262b6d74c182e31f8bd0ae33f13b6355a439cbc58f",
    "286-unrolled-parity-T0-literal+short-row": "0082f13708a91a2c16ca611102f382cbcac5cc1593aeeb1ab111715d300b093c",
    "287-unrolled-parity-T2-ideographic-space+separator": "08824f0b2da8c4f02662e1329ea34dc67ab4c954f8e8e7b424178c37590132df",
    "288-compressed-random4x2-T2-separator": "d584b3c0d20bfd306066cc7001f3e9626640e1c7e058d4e7c63e8c78f15f33b8",
    "289-compressed-random4x2-T2-hash-after-values": "f81a857d1f186e328da92065afbcd9aaefab1c2103c5cb63948e3c0e507037c0",
    "290-unrolled-parity-T2-cut-in-block": "219796974df1baf61b7450a6418eeb2a724b5b31ec5f297c037fb0d820c448a5",
    "291-unrolled-random3x3-T2-cut-in-row": "d5f107ea7317ad891165cd2f6daa0cd9644447d9ac84be4e3b60ea910e021d31",
    "292-compressed-mod4-T1-huge-shape": "7fe01766dc4a12117ef17f07b3c35c942add68428b7e5ebcad74e42d8ebf842a",
    "293-unrolled-parity-T0-shape": "3ee951f3885faa3c3977f8ea3080811eeb7c1c96f82c9cea5b2cb0973c10afaa",
    "294-compressed-mod4-T1-indent+literal": "8922d534af1168af0e9b079851ee242c2f2f6cf89924037f404bc7ffa9d1fb94",
    "295-compressed-random4x2-T2-commented-row": "b39c082d04363a70c75bb819af6fb4ec1920f7304f5f8419a357713ce370a679",
    "296-binary-mod5-delete": "78e992bbaaafeb26440ea9de3b13f912c47e06d7a32015986403f01d69f9aa34",
    "297-unrolled-parity-T2-copy": "54acebc005bcc00faa406e5591d47c64015207565fcc19fc3e5d98f6e1a0cec3",
    "298-compressed-mod4-T1-swap": "5d153b3ff8c73e40d16afacfb0afc6905a7d9d59f763a47760e50c2e129d259a",
    "299-compressed-random4x2-T2-crlf": "ad3d880f25c8193b1e0a80a0fb70be3bade015d1056dd1f7c922f28730f086f1",
}


def test_mutations_cover_every_kind_and_both_outcomes():
    assert {kind for case in range(CASES) for kind in mutated_document(case)[1]} == set(KINDS)
    errors = 0
    for case in range(CASES):
        try:
            parse_network_document(mutated_document(case)[2])
        except DocumentError:
            errors += 1
    assert 0 < errors < CASES


@pytest.mark.parametrize("case", range(CASES), ids=case_id)
def test_parse_outcome_matches_the_golden_digest(case):
    assert outcome_digest(mutated_document(case)[2]) == GOLDEN[case_id(case)]
