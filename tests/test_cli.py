import csv
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfanet.cli import build_parser, main
from dfanet.compiler import verify_exact
from dfanet.formats import DocumentError, format_network_document, parse_dfa_document, parse_network_document

from test_compiler import flipped_readout, half_block_net, trained_export
from test_formats import BAD_LAYERS, ONE_LAYER_TEXT, VALID_NETWORKS, dfa_documents, network_documents

PARITY_TEXT = """\
states: even odd
symbols: 0 1
start: even
accept: even
transitions:
  even 0 -> even
  even 1 -> odd
  odd 0 -> odd
  odd 1 -> even
"""


@pytest.fixture
def parity_file(tmp_path):
    path = tmp_path / "parity.dfa"
    path.write_text(PARITY_TEXT)
    return path


def test_compile_then_verify_exact(tmp_path, parity_file, capsys):
    net_path = tmp_path / "parity4.net"
    assert main(["compile", str(parity_file), "--target", "unrolled", "--length", "4",
                 "--out", str(net_path)]) == 0
    out = capsys.readouterr().out
    assert "depth: 5" in out  # T transition modules + readout
    assert net_path.exists()

    assert main(["verify", str(net_path), str(parity_file), "--length", "4"]) == 0
    out = capsys.readouterr().out
    assert "16/16" in out and "exact" in out


def test_compile_transition_width(tmp_path, parity_file, capsys):
    net_path = tmp_path / "t.net"
    assert main(["compile", str(parity_file), "--target", "transition",
                 "--out", str(net_path)]) == 0
    out = capsys.readouterr().out
    assert "4 -> 4 -> 2" in out  # hidden width nk = 4


def test_compile_deterministic_bytes(tmp_path, parity_file):
    a, b = tmp_path / "a.net", tmp_path / "b.net"
    main(["compile", str(parity_file), "--target", "unrolled", "--length", "3", "--out", str(a)])
    main(["compile", str(parity_file), "--target", "unrolled", "--length", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_verify_corrupted_network_exits_one(tmp_path, parity_file, capsys):
    net_path = tmp_path / "net.net"
    main(["compile", str(parity_file), "--target", "unrolled", "--length", "3",
          "--out", str(net_path)])
    text = net_path.read_text()
    # flip the accepting-indicator readout weights (the last weights row)
    lines = text.splitlines()
    for i in range(len(lines) - 1, -1, -1):
        if lines[i].startswith("weights"):
            lines[i + 1] = "0.0 1.0"
            break
    net_path.write_text("\n".join(lines) + "\n")

    assert main(["verify", str(net_path), str(parity_file), "--length", "3"]) == 1
    out = capsys.readouterr().out
    assert "witness" in out


def test_verify_sampled_counts_matching_draws(tmp_path, parity_file, capsys):
    # both readout weights inverted: every draw of every string mismatches
    net_path = tmp_path / "inverted.net"
    main(["compile", str(parity_file), "--target", "unrolled", "--length", "2", "--out", str(net_path)])
    net_path.write_text(net_path.read_text().replace("weights\n1.0 0.0\nbias 0.0\n", "weights\n0.0 1.0\nbias 0.0\n"))
    capsys.readouterr()
    assert main(["verify", str(net_path), str(parity_file), "--length", "2", "--sampled", "200"]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "0/200 sampled checks match"


@pytest.mark.parametrize("accept,warned", [("even", False), ("odd", True)])
def test_verify_warns_on_stderr_when_the_automaton_differs(tmp_path, parity_file, capsys, accept, warned):
    net_path, dfa_path = tmp_path / "parity3.net", tmp_path / "given.dfa"
    main(["compile", str(parity_file), "--target", "unrolled", "--length", "3", "--out", str(net_path)])
    dfa_path.write_text(PARITY_TEXT.replace("accept: even", f"accept: {accept}"))
    capsys.readouterr()
    code = main(["verify", str(net_path), str(dfa_path), "--length", "3"])
    out, err = capsys.readouterr()
    assert code == (1 if warned else 0)
    assert out.splitlines()[0] == ("0/8" if warned else "8/8") + " exhaustive checks match"
    assert (err.startswith("warning: ") and "dfa_sha256" in err) if warned else err == ""


def test_malformed_dfa_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.dfa"
    bad.write_text(PARITY_TEXT.replace("  odd 1 -> even\n", ""))
    assert main(["compile", str(bad), "--target", "transition", "--out",
                 str(tmp_path / "x.net")]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "missing entry" in err


@pytest.mark.parametrize("activation,shape,line", BAD_LAYERS)
def test_verify_bad_network_document_exits_two(tmp_path, parity_file, capsys, activation, shape, line):
    net_path = tmp_path / "bad.net"
    net_path.write_text(ONE_LAYER_TEXT.format(activation=activation, shape=shape))
    assert main(["verify", str(net_path), str(parity_file), "--length", "1"]) == 2
    assert f"line {line}" in capsys.readouterr().err


def run_verify(tmp_path, net_text, dfa_text, length):
    """``dfanet verify`` on the two texts; returns the exit code and stderr."""
    net_path, dfa_path = tmp_path / "fuzz.net", tmp_path / "fuzz.dfa"
    net_path.write_text(net_text)
    dfa_path.write_text(dfa_text)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["verify", str(net_path), str(dfa_path), "--length", str(length)])
    return code, err.getvalue()


def parses(parse, text):
    try:
        parse(text)
    except DocumentError:
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(network_documents(), dfa_documents(), st.integers(0, 3))
def test_verify_fuzzed_documents_exit_cleanly(tmp_path_factory, net_text, dfa_text, length):
    # any document: exit 0, 1 or 2, never an exception; a parse error is exit 2 with its line
    code, err = run_verify(tmp_path_factory.mktemp("fuzz"), net_text, dfa_text, length)
    if not (parses(parse_network_document, net_text) and parses(parse_dfa_document, dfa_text)):
        assert code == 2 and err.startswith("error: line ")
    assert code in (0, 1, 2)


def test_verify_network_without_outputs_exits_two(tmp_path):
    text = "dfanet-network-v1\ninput_dim 2\noutput_dim 0\nlayer_count 1\n" \
           "layer 0\nactivation relu\nshape 0 2\nweights\nbias\n"
    code, err = run_verify(tmp_path, text, PARITY_TEXT, 1)
    assert code == 2 and "no output unit" in err


def test_verify_network_with_inf_weight_gives_a_verdict_without_warnings(tmp_path):
    # the readout computes 0 * inf = nan; the repository's warning filter fails any warning
    readout = "weights\n1.0 0.0\nbias 0.0\n"
    assert VALID_NETWORKS[0].count(readout) == 1
    text = VALID_NETWORKS[0].replace(readout, "weights\ninf 0.0\nbias 0.0\n")
    code, _ = run_verify(tmp_path, text, PARITY_TEXT, 2)
    # strings ending in the even state read inf (accept), the odd ones nan (reject): parity
    assert code == 0


def write_network(path, net):
    path.write_text(format_network_document(net))
    return str(path)


def test_verify_budget_refusal_exits_two(tmp_path, parity_file, capsys):
    # the walk cannot decide a net that reads half a symbol block, so it would enumerate 2^30 strings
    net_path = write_network(tmp_path / "big.net", half_block_net(parse_dfa_document(PARITY_TEXT).dfa, 30))
    assert main(["verify", net_path, str(parity_file), "--length", "30"]) == 2
    assert "budget" in capsys.readouterr().err


def test_verify_walks_past_the_enumeration_budget(tmp_path, parity_file, capsys):
    net_path = tmp_path / "big.net"
    main(["compile", str(parity_file), "--target", "unrolled", "--length", "30", "--out", str(net_path)])
    capsys.readouterr()
    assert main(["verify", str(net_path), str(parity_file), "--length", "30"]) == 0
    assert capsys.readouterr().out == "1073741824/1073741824 exhaustive checks match\nexact\n"

    flipped = write_network(tmp_path / "flipped.net", flipped_readout(parse_network_document(net_path.read_text()), 1))
    assert main(["verify", flipped, str(parity_file), "--length", "30"]) == 1
    assert capsys.readouterr().out == (
        "536870912/1073741824 exhaustive checks match\n"
        f"first witness: {'0' * 29 + '1'!r} automaton=False network=True\n"
    )
    assert main(["verify", str(net_path), str(parity_file), "--length", "30", "--sampled", "200"]) == 0


def test_verify_of_a_written_trained_export_prints_the_in_process_verdict(tmp_path, parity_file, capsys):
    parity = parse_dfa_document(PARITY_TEXT).dfa
    net = trained_export(parity, 6, samples=200, epochs=60, seed=0)
    report = verify_exact(net, parity, 6)
    witness, expected, got = report.witness
    net_path = write_network(tmp_path / "trained.net", net)
    assert main(["verify", net_path, str(parity_file), "--length", "6"]) == 1
    assert capsys.readouterr().out == (
        f"{64 - report.mismatch_count}/64 exhaustive checks match\n"
        f"first witness: {''.join(map(str, witness))!r} automaton={expected} network={got}\n"
    )


def test_the_parser_is_built_once_and_keeps_no_options_between_calls(tmp_path, parity_file, capsys):
    assert build_parser() is build_parser()
    net_path = tmp_path / "parity3.net"
    assert main(["compile", str(parity_file), "--target", "unrolled", "--length", "3", "--out", str(net_path)]) == 0
    assert main(["verify", str(net_path), str(parity_file), "--length", "3", "--sampled", "50"]) == 0
    capsys.readouterr()
    assert main(["verify", str(net_path), str(parity_file), "--length", "3"]) == 0
    assert capsys.readouterr().out == "8/8 exhaustive checks match\nexact\n"

    # with no --out, compile writes beside the automaton, and export-dot to stdout
    assert main(["compile", str(parity_file), "--target", "unrolled", "--length", "3"]) == 0
    assert (tmp_path / "parity.unrolled.net").read_bytes() == net_path.read_bytes()
    assert main(["export-dot", str(parity_file), "--out", str(tmp_path / "parity.dot")]) == 0
    capsys.readouterr()
    assert main(["export-dot", str(parity_file)]) == 0
    assert capsys.readouterr().out == (tmp_path / "parity.dot").read_text()

    with pytest.raises(SystemExit) as usage:
        main(["verify", str(net_path), str(parity_file), "--length", "three", "--sampled", "5"])
    assert usage.value.code == 2
    capsys.readouterr()
    assert main(["verify", str(net_path), str(parity_file), "--length", "3"]) == 0
    assert capsys.readouterr().out == "8/8 exhaustive checks match\nexact\n"


def test_compressed_target_requires_length(tmp_path, parity_file, capsys):
    assert main(["compile", str(parity_file), "--target", "compressed",
                 "--out", str(tmp_path / "c.net")]) == 2


@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_compressed_target_rejects_a_non_finite_epsilon(tmp_path, parity_file, capsys, epsilon):
    assert main(["compile", str(parity_file), "--target", "compressed", "--length", "3",
                 "--epsilon", epsilon, "--out", str(tmp_path / "c.net")]) == 2
    assert "positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv,out", [
    (["compile", "{dfa}", "--target", "unrolled", "--length", "2", "-o", "{out}"], "missing/x.net"),
    (["export-dot", "{dfa}", "-o", "{out}"], "."),
    (["experiment", "thm3", "--seeds", "2", "--out", "{out}"], "parity.dfa"),
], ids=["compile-into-a-missing-directory", "export-dot-onto-a-directory", "experiment-out-is-a-file"])
def test_failed_write_exits_two_naming_the_path(tmp_path, parity_file, capsys, argv, out):
    out = str(tmp_path / out)
    assert main([arg.format(dfa=parity_file, out=out) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert out in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    # 284 PiB of weights and 213 PiB of sampled strings: beyond any address space, so refused at once
    ["compile", "{dfa}", "--target", "unrolled", "--length", str(10**8), "-o", "{out}"],
    ["verify", "{net}", "{dfa}", "--length", "3", "--sampled", str(10**16)],
], ids=["compile", "verify"])
def test_a_size_too_large_to_allocate_exits_two(tmp_path, parity_file, capsys, argv):
    net = tmp_path / "parity3.net"
    assert main(["compile", str(parity_file), "--target", "unrolled", "--length", "3", "-o", str(net)]) == 0
    capsys.readouterr()
    out = tmp_path / "huge.net"
    assert main([arg.format(dfa=parity_file, net=net, out=out) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "allocate" in err and "Traceback" not in err
    assert not out.exists()


def test_export_dot_roundtrip(tmp_path, parity_file, capsys):
    assert main(["export-dot", str(parity_file)]) == 0
    first = capsys.readouterr().out
    assert main(["export-dot", str(parity_file)]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "doublecircle" in first


def test_experiment_requires_two_seeds(tmp_path, capsys):
    assert main(["experiment", "thm3", "--seeds", "1", "--out", str(tmp_path)]) == 2


def test_experiment_thm3_writes_sorted_csv(tmp_path, capsys):
    assert main(["experiment", "thm3", "--seeds", "2", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "chance band" in out

    with (tmp_path / "thm3.csv").open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["config", "seed", "metric", "value"]
    body = rows[1:]
    assert body == sorted(body, key=lambda r: (r[0], int(r[1]), r[2]))
    metrics = {row[2] for row in body}
    assert metrics == {"held_out_accuracy", "train_accuracy"}


def _fresh_python(code: str) -> str:
    """Stdout of ``code`` run in a new interpreter that imports dfanet from this checkout."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_importing_the_cli_loads_neither_experiments_nor_scipy():
    # compile and verify start up without the process-pool modules that experiments imports
    code = ("import sys, dfanet.cli; print(sorted(m for m in sys.modules "
            "if m == 'dfanet.experiments' or m.split('.')[0] == 'scipy'))")
    assert _fresh_python(code) == "[]"


def test_dfanet_loads_only_numpy_and_the_standard_library():
    code = ("import json, sys; before = set(sys.modules)\n"
            "import dfanet, dfanet.experiments, dfanet.cli\n"
            "print(json.dumps(sorted({m.split('.')[0] for m in set(sys.modules) - before})))")
    loaded = set(json.loads(_fresh_python(code)))
    foreign = {m for m in loaded - {"dfanet", "numpy"} - sys.stdlib_module_names
               if not (m.startswith("__") and m.endswith("__"))}
    assert not foreign, f"dfanet loads modules outside numpy and the standard library: {sorted(foreign)}"
