import csv

import pytest

from dfanet.cli import main

from test_formats import BAD_LAYERS, ONE_LAYER_TEXT

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


def test_verify_budget_refusal_exits_two(tmp_path, parity_file, capsys):
    net_path = tmp_path / "big.net"
    main(["compile", str(parity_file), "--target", "unrolled", "--length", "30",
          "--out", str(net_path)])
    capsys.readouterr()
    assert main(["verify", str(net_path), str(parity_file), "--length", "30"]) == 2
    assert "budget" in capsys.readouterr().err

    assert main(["verify", str(net_path), str(parity_file), "--length", "30",
                 "--sampled", "200"]) == 0


def test_compressed_target_requires_length(tmp_path, parity_file, capsys):
    assert main(["compile", str(parity_file), "--target", "compressed",
                 "--out", str(tmp_path / "c.net")]) == 2


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
