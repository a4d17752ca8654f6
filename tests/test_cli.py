import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flagcomb
from flagcomb import DistancePath, EmbeddedPartition, verify
from flagcomb.cli import main
from flagcomb.codefile import parse_code, serialize_code, serialize_code_json
from flagcomb.config import ENV_VAR, load_config
from flagcomb.errors import InvalidFlag, ParseError
from flagcomb.render import RenderSpec, render


# ---------------------------------------------------------------------------
# Code files
# ---------------------------------------------------------------------------

def test_parse_text_roundtrip(type_135_text):
    c = parse_code(type_135_text)
    assert (c.q, c.n, c.type.dims, len(c)) == (2, 6, (1, 3, 5), 3)
    again = parse_code(serialize_code(c))
    assert set(again.flags) == set(c.flags)


def test_parse_json_roundtrip(type_135_text):
    c = parse_code(type_135_text)
    again = parse_code(serialize_code_json(c))
    assert set(again.flags) == set(c.flags)
    doc = json.loads(serialize_code_json(c))
    assert doc["type"] == [1, 3, 5]


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_code("")
    with pytest.raises(ParseError):
        parse_code("2 6\n")                 # header too short
    with pytest.raises(ParseError):
        parse_code("2 6 full\n\n1 0 x\n")   # bad row token
    with pytest.raises(ParseError):
        parse_code("{not json")
    with pytest.raises(InvalidFlag) as exc:
        parse_code("2 3 full\n\n1 0 0\n0 1 0\n1 1 0\n")  # singular flag
    assert exc.value.flag_index == 1


def test_entries_reduced_mod_q():
    c = parse_code("3 2 1\n\n4 7\n")
    assert c.flags[0].generator.entries == ((1, 1),)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def test_ascii_frame_golden():
    out = render(RenderSpec("frame", "ascii", 5))
    assert out == "o*o*\n o*o\n  o*\n   o"


def test_ascii_path_marks_endpoints():
    out = render(RenderSpec("path", "ascii", 7,
                            deltas=(0, 1, 2, 1, 1, 2, 1, 0)))
    lines = out.splitlines()
    assert lines[-1].startswith("x") and lines[-1].rstrip().endswith("x")
    assert out.count("o") == 6  # six positive-height vertices


def test_render_deterministic_and_svg_wellformed():
    import xml.etree.ElementTree as ET
    for target in ("support", "enriched", "frame"):
        a = render(RenderSpec(target, "svg", 6))
        assert a == render(RenderSpec(target, "svg", 6))
        ET.fromstring(a)
    svg = render(RenderSpec("staircase", "svg", 8,
                            partition=(5, 5, 1, 1, 1, 1)))
    ET.fromstring(svg)


def test_ascii_staircase_silhouette():
    out = render(RenderSpec("staircase", "ascii", 6, partition=(5, 4, 3, 1)))
    assert all("|" in line for line in out.splitlines())


def test_render_rejects_bad_specs():
    from flagcomb.errors import InvalidSpec
    with pytest.raises(InvalidSpec):
        render(RenderSpec("nope", "ascii", 5))
    with pytest.raises(InvalidSpec):
        render(RenderSpec("path", "ascii", 5))  # missing deltas
    with pytest.raises(InvalidSpec):
        render(RenderSpec("path", "ascii", 5, deltas=(0, 2, 0, 0, 0, 0)))


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

def test_config_defaults_and_env_override(tmp_path, monkeypatch):
    cfg = load_config()
    assert cfg.max_n_combinatorics == 14
    assert cfg.max_n_flag_exhaustive == 8
    path = tmp_path / "cfg.json"
    path.write_text('{"max_n_combinatorics": 10}')
    monkeypatch.setenv(ENV_VAR, str(path))
    assert load_config().max_n_combinatorics == 10


# ---------------------------------------------------------------------------
# CLI end to end
# ---------------------------------------------------------------------------

def _code_file(tmp_path, text):
    p = tmp_path / "code.txt"
    p.write_text(text)
    return str(p)


def test_cli_analyze_general_type(tmp_path, capsys, type_135_text):
    rc = main(["analyze", _code_file(tmp_path, type_135_text)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "d_f = 2" in out
    assert "i=2 (dim 3): |C_i|=2, d_I(C_i)=3" in out


def test_cli_analyze_full_code_json(tmp_path, capsys):
    text = ("2 3 full\n\n1 0 0\n0 1 0\n0 0 1\n\n0 0 1\n0 1 0\n1 0 0\n")
    rc = main(["analyze", "--json", _code_file(tmp_path, text)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["size"] == 2 and doc["consistent"] is True
    assert doc["d_f"] + doc["codistance"] == 2  # D^3


def test_cli_paths(capsys):
    assert main(["paths", "3", "--list"]) == 0
    out = capsys.readouterr().out
    assert "total 4" in out and "0,1,1,0" in out


def test_cli_bijection(capsys):
    assert main(["bijection", "5"]) == 0
    out = capsys.readouterr().out
    assert "NO" not in out


def _patch_everywhere(monkeypatch, name, make):
    """Rebind flagcomb.<name> to make(original) in every flagcomb module
    that holds it."""
    original = getattr(flagcomb, name)
    replacement = make(original)
    for key, module in list(sys.modules.items()):
        if (key.partition(".")[0] == "flagcomb"
                and getattr(module, name, None) is original):
            monkeypatch.setattr(module, name, replacement)


def _count_calls(monkeypatch, name):
    calls = []

    def make(original):
        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        return counted

    _patch_everywhere(monkeypatch, name, make)
    return calls


def _bijection_check_only(monkeypatch):
    monkeypatch.setattr(verify, "CHECKS", [
        c for c in verify.CHECKS if c[0] == "path_splitting_bijection"])


def test_bijection_enumerates_paths_and_partitions_once(monkeypatch, capsys):
    paths = _count_calls(monkeypatch, "enumerate_paths")
    parts = _count_calls(monkeypatch, "enumerate_embedded_partitions")
    assert main(["bijection", "8"]) == 0
    assert "NO" not in capsys.readouterr().out
    assert (len(paths), len(parts)) == (1, 1)


def test_verify_bijection_enumerates_paths_once_per_n(monkeypatch):
    paths = _count_calls(monkeypatch, "enumerate_paths")
    _bijection_check_only(monkeypatch)
    report, ok = verify.run_verification()
    assert ok, report
    assert [args[0] for args in paths] == list(range(2, 9))


def test_bijection_mismatch_is_a_consistency_failure(monkeypatch, capsys):
    # drop the zero path, the first one enumerated
    _patch_everywhere(monkeypatch, "enumerate_paths",
                      lambda real: lambda *a, **k: real(*a, **k)[1:])
    assert main(["bijection", "5"]) == 3
    captured = capsys.readouterr()
    assert "0   0       1            NO" in captured.out
    assert "bijection table mismatch" in captured.err
    _bijection_check_only(monkeypatch)
    report, ok = verify.run_verification()
    assert not ok
    assert "FAIL path_splitting_bijection" in report


def test_cli_realize_roundtrip(capsys):
    assert main(["realize", "2", "0,1,1,0"]) == 0
    text = capsys.readouterr().out
    c = parse_code(text)
    from flagcomb import path_from_flag_pair
    assert path_from_flag_pair(*c.flags) == DistancePath(3, (0, 1, 1, 0))


def test_cli_render(capsys):
    assert main(["render", "frame", "5"]) == 0
    assert capsys.readouterr().out.strip().startswith("o*o*")


def test_cli_partitions(capsys):
    assert main(["partitions", "6", "-u", "0", "--list"]) == 0
    out = capsys.readouterr().out
    assert "total 1" in out


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["no-such-command"]) == 1
    assert main(["paths", "99"]) == 1       # over the cap, no --force
    assert main(["realize", "2", "0,2,0,0"]) == 1
    assert main(["analyze", str(tmp_path / "missing.txt")]) == 2
    assert main(["analyze", _code_file(tmp_path, "garbage")]) == 2
    (tmp_path / "binary.txt").write_bytes(b"\xff\xfe\x00")
    assert main(["analyze", str(tmp_path / "binary.txt")]) == 2
    capsys.readouterr()


def test_python_m_cli_runs_main(tmp_path):
    src = Path(flagcomb.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "flagcomb.cli", "analyze",
         str(tmp_path / "missing.txt")],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("text", [
    '{"q": 2, "n": 3, "flags": 5}',                                # not a list
    "4 2 full\n\n1 0\n0 1\n",                                      # q not prime
    '{"q": 2, "n": 3, "type": "1,x", "flags": [[[1, 0, 0]]]}',     # bad dim
    '{"q": 2, "n": 3, "type": 5, "flags": [[[1, 0, 0]]]}',         # bad type
    "2 1 full\n\n1\n",                                             # n < 2
    "2 3 full\n\n1 0 0\n0 1\n0 0 1\n",                              # ragged rows
])
def test_cli_bad_code_file_exits_2(tmp_path, capsys, text):
    assert main(["analyze", _code_file(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_force_overrides_cap(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"max_n_combinatorics": 5}')
    monkeypatch.setenv(ENV_VAR, str(cfg))
    assert main(["paths", "6"]) == 1
    assert main(["paths", "6", "--force"]) == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err


@pytest.mark.parametrize("text", [
    "2305843009213693951 2 full\n",                 # q = 2^61 - 1, prime
    f"{2 ** 89 - 1} 2 full\n\n1 0\n0 1\n",          # q past the exact range
    "2 100000000 full\n",                           # huge n, no rows
    "2 100000000 full\n\n1 0\n0 1\n",               # huge n, short rows
    '{"q": 2, "n": 100000000, "flags": [[[1, 0], [0, 1]]]}',
])
def test_cli_header_bounded_before_allocation(tmp_path, capsys, text):
    """q and n are checked against the rows before any allocation or
    primality search that grows with them."""
    assert main(["analyze", _code_file(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("doc", [
    "[1]",
    '"max_n_combinatorics"',
    '{"max_n_combinatorix": 3}',
    '{"max_n_combinatorics": -5}',
    '{"max_n_combinatorics": "7"}',
    '{"max_n_combinatorics": 7.5}',
    '{"max_n_flag_exhaustive": true}',
    '{"max_n_combinatorics": null}',
    "{not json",
])
def test_cli_bad_config_exits_1(tmp_path, monkeypatch, capsys, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(doc)
    monkeypatch.setenv(ENV_VAR, str(cfg))
    with pytest.raises(ValueError):
        load_config()
    assert main(["paths", "5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
