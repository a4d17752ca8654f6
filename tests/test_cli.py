import argparse
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import flagcomb
from flagcomb import (DistancePath, cli, codefile, config,
                      enumerate_embedded_partitions, ferrers, flags,
                      max_distance, support_paths, underlying_distribution,
                      verify)
from flagcomb.cli import main
from flagcomb.codefile import parse_code, serialize_code, serialize_code_json
from flagcomb.config import ENV_VAR, load_config
from flagcomb.errors import FlagcombError, InvalidFlag, InvalidPath, ParseError
from flagcomb.flags import FlagCode, TypeVector, flag_from_matrix
from flagcomb.render import render


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
    assert c.flags[0].generator == ((1, 1),)


def test_two_flags_with_no_blank_line_between_them_exit_2(tmp_path):
    """Six rows in one block of F_2^3 are not read as one flag whose
    last three rows are ignored."""
    text = "2 3 full\n1 0 0\n0 1 0\n0 0 1\n0 0 1\n0 1 0\n1 0 0\n"
    with pytest.raises(InvalidFlag, match="6 rows in F_2\\^3"):
        parse_code(text)
    assert main(["analyze", _code_file(tmp_path, text)]) == 2


IDENTITY_3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("doc", [
    {"q": 2.9, "n": 3, "flags": [IDENTITY_3]},
    {"q": 2, "n": 3.9, "flags": [IDENTITY_3]},
    {"q": 2, "n": 3, "flags": [[[1.7, 0, 0], [0, 1, 0], [0, 0, 1]]]},
    {"q": 2, "n": 3, "flags": [[[True, 0, 0], [0, 1, 0], [0, 0, 1]]]},
    {"q": "3", "n": 3, "flags": [IDENTITY_3]},
    {"q": 2, "n": "3", "flags": [IDENTITY_3]},
    {"q": 2, "n": 3, "flags": [[["1", 0, 0], [0, 1, 0], [0, 0, 1]]]},
    {"q": 2, "n": 3, "type": [1.0, 2], "flags": [IDENTITY_3]},
    {"q": 2, "n": 3, "type": [True, 2], "flags": [IDENTITY_3]},
    {"q": 2, "n": 3, "type": ["1", 2], "flags": [IDENTITY_3]},
])
def test_json_code_file_takes_only_integers(doc, tmp_path):
    """q, n, type dims and entries must be JSON integers: a float, a bool
    or a numeric string is a parse error (exit 2), not coerced."""
    text = json.dumps(doc)
    with pytest.raises(ParseError, match="is not an integer"):
        parse_code(text)
    assert main(["analyze", _code_file(tmp_path, text)]) == 2


@pytest.mark.parametrize("type_", ["full", "1,2", [1, 2]])
def test_json_code_file_integers_and_type_strings_still_load(type_):
    c = parse_code(json.dumps({"q": 2, "n": 3, "type": type_,
                               "flags": [IDENTITY_3]}))
    assert (c.q, c.n, c.type.dims, len(c)) == (2, 3, (1, 2), 1)


@pytest.mark.parametrize("token,ok", [
    ("+1", True), ("1_0", False), ("\u0661", False), ("0x1", False)])
@pytest.mark.parametrize("where", ["row", "header"])
def test_text_code_file_takes_only_ascii_decimal_tokens(token, ok, where,
                                                        tmp_path):
    """A number is ASCII decimal with an optional sign: int() would also
    read "1_0" as 10 and the Arabic-Indic digit U+0661 as 1."""
    plain = "2 3 1,2\n\n1 0 0\n0 1 0\n"
    text = (plain.replace("\n1 0 0", f"\n{token} 0 0") if where == "row"
            else plain.replace("1,2", f"{token},2"))
    rc = main(["analyze", _code_file(tmp_path, text)])
    if ok:
        assert rc == 0
        assert parse_code(text).flags == parse_code(plain).flags
    else:
        assert rc == 2
        with pytest.raises(ParseError, match="line 3: bad row"
                           if where == "row" else "line 1|type"):
            parse_code(text)


def _token(v, rng):
    """v written as int() reads it: plain, zero-padded or signed."""
    if v < 0:
        return str(v)
    return rng.choice([str(v), f"{v:03d}", f"+{v}", f"+0{v}"])


@pytest.mark.parametrize("q", [2, 3])
def test_tokens_equal_mod_q_read_as_the_plain_file(q):
    """Every entry of a random full code rewritten as another token equal
    to it mod q (e + k*q, k in -2..3) and the tokens split by tabs or runs
    of spaces: the file gives the plain file's flags and generators.  Each
    block mixes rows of single digits, which the token table reads, with
    rows that hold another token, which int() reads.  "1_0" and the
    Arabic-Indic one still fail on their own line; in a comment either is
    legal."""
    rng = random.Random(3500 + q)
    gaps = [" ", "  ", "\t", " \t", "\t\t", "   "]
    for n in range(4, 13):
        plain = serialize_code(flags.random_full_flag_code(q, n, 3, rng))
        header, *blocks = plain.rstrip("\n").split("\n\n")
        lines = ["# flag_codes \u0661", header]
        for block in blocks:
            lines.append("")
            for idx, row in enumerate(block.split("\n")):
                entries = list(map(int, row.split()))
                if idx % 2:     # single digits only: the table
                    tokens = [str(rng.choice([e + k * q for k in range(4)
                                              if e + k * q <= 9]))
                              for e in entries]
                else:           # at least one other token: int()
                    tokens = [_token(e + rng.randrange(-2, 4) * q, rng)
                              for e in entries]
                    tokens[0] = f"0{entries[0] + 2 * q}"
                lines.append(rng.choice(gaps).join(tokens)
                             + rng.choice(["", " ", "\t"]))
        text = "\n".join(lines) + "\n"
        got, want = parse_code(text), parse_code(plain)
        assert got.flags == want.flags
        assert [f.generator for f in got] == [f.generator for f in want]
        for bad in ("1_0", "\u0661"):
            k = rng.choice([i for i, ln in enumerate(lines) if ln and i > 1])
            broken = lines[:k] + [lines[k].replace(lines[k].split()[0],
                                                   bad, 1)] + lines[k + 1:]
            with pytest.raises(ParseError, match=f"line {k + 1}: bad row"):
                parse_code("\n".join(broken) + "\n")


def _flag_state(fl):
    """Everything a flag holds: its generator, each subspace's rows and
    mask, and the rows the sweep reads."""
    return (fl.q, fl.n, fl.type.dims, fl.generator,
            [(s.rows, s.mask) for s in fl.subspaces], fl._packed)


def _assert_int_generator(fl):
    assert type(fl.generator) is tuple
    assert all(type(r) is tuple and all(type(e) is int for e in r)
               for r in fl.generator)


def _random_type(n, rng):
    if rng.random() < 0.5:
        return TypeVector.full(n)
    dims = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
    return TypeVector(n, tuple(dims))


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, 257])
def test_byte_rows_build_the_flags_of_int_rows(q):
    """A text of single-digit rows, digits at or past q among them, gives
    through parse_code the flags that flag_from_matrix builds from the same
    rows read by int(): the same generators, subspaces and packed rows."""
    rng = random.Random(3600 + q)
    seen_past_q = False
    for n in range(2, 11):
        for _ in range(4):
            tv = _random_type(n, rng)
            blocks = []
            while len(blocks) < rng.randint(1, 4):
                rows = [[rng.randrange(10) for _ in range(n)]
                        for _ in range(rng.randint(tv.dims[-1], n))]
                try:
                    flag_from_matrix(q, n, tv, rows)
                except FlagcombError:   # dependent rows: draw again
                    continue
                blocks.append(rows)
                seen_past_q |= any(e >= q for r in rows for e in r)
            token = "full" if tv.is_full else ",".join(map(str, tv.dims))
            text = "\n\n".join([f"{q} {n} {token}"] + [
                "\n".join(" ".join(map(str, r)) for r in rows)
                for rows in blocks]) + "\n"
            want = FlagCode(
                flag_from_matrix(q, n, tv, [list(map(int, ln.split()))
                                            for ln in block.split("\n")])
                for block in text.rstrip("\n").split("\n\n")[1:])
            got = parse_code(text)
            assert list(map(_flag_state, got)) == list(map(_flag_state, want))
            for fl in got:
                _assert_int_generator(fl)
    assert seen_past_q == (q <= 7)


@pytest.mark.parametrize("q", [11, 13, 131, 257])
def test_flag_from_matrix_reads_bytes_rows_as_lists(q):
    """bytes rows with entries up to 255, reduced mod q by a table below
    q = 256 and read as they are above it, give the flag (or the error)
    that the same rows give as lists."""
    rng = random.Random(3650 + q)
    built = 0
    for n in range(2, 13):
        for _ in range(6):
            tv = _random_type(n, rng)
            rows = [bytes(rng.randrange(256) for _ in range(n))
                    for _ in range(rng.randint(tv.dims[-1], n))]
            outcomes = []
            for form in (list, bytes):
                try:
                    fl = flag_from_matrix(q, n, tv, [form(r) for r in rows])
                except FlagcombError as exc:
                    outcomes.append((type(exc), str(exc)))
                else:
                    _assert_int_generator(fl)
                    outcomes.append(_flag_state(fl))
            assert outcomes[0] == outcomes[1]
            built += type(outcomes[0]) is tuple
    assert built >= 50


def _rows_reaching_flag_from_matrix(monkeypatch):
    """The rows of each codefile call of flag_from_matrix, as passed."""
    seen = []
    real = codefile.flag_from_matrix

    def spy(q, n, type_, rows):
        seen.append(list(rows))
        return real(q, n, type_, rows)
    monkeypatch.setattr(codefile, "flag_from_matrix", spy)
    return seen


def test_serialized_rows_reach_flag_from_matrix_as_bytes(monkeypatch):
    """serialize_code writes single digits with single spaces, the form
    that parse_code reads as one bytes per row."""
    seen = _rows_reaching_flag_from_matrix(monkeypatch)
    rng = random.Random(3660)
    for q in (2, 3, 5, 7):
        code = flags.random_full_flag_code(q, 9, 3, rng)
        seen.clear()
        assert parse_code(serialize_code(code)).flags == code.flags
        assert len(seen) == 3
        assert all(type(r) is bytes for rows in seen for r in rows)
        assert [[tuple(r) for r in rows] for rows in seen] == [
            list(fl.generator) for fl in code]


@pytest.mark.parametrize("row", [
    "10 1", "1 01", "0\t1 1", "1  0", "+1 0", "-1 0", "1 0 12", "7 -0"])
def test_other_rows_reach_flag_from_matrix_as_int_lists(row, monkeypatch):
    """A row that is not single digits with single spaces reaches
    flag_from_matrix as the list int() reads from it."""
    seen = _rows_reaching_flag_from_matrix(monkeypatch)
    entries = list(map(int, row.split()))
    code = parse_code(f"3 {len(entries)} 1\n\n{row}\n")
    assert len(seen) == 1 and len(seen[0]) == 1
    assert type(seen[0][0]) is list and seen[0][0] == entries
    assert code.flags[0].generator == (tuple(e % 3 for e in entries),)


def test_a_comment_line_ends_a_flag(tmp_path, capsys):
    """A full-line '#' comment reads as a blank line: inside a block it
    ends the flag, so the rows after it start the next one."""
    text = "2 3 full\n\n1 0 0\n# note\n0 1 0\n0 0 1\n"
    with pytest.raises(InvalidFlag,
                       match=r"^flag 1: only 1 rows for type \(1, 2\)$"):
        parse_code(text)
    assert main(["analyze", _code_file(tmp_path, text)]) == 2
    assert capsys.readouterr().err == (
        "error: flag 1: only 1 rows for type (1, 2)\n")


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def test_ascii_frame_golden():
    out = render("frame", "ascii", 5)
    assert out == "o*o*\n o*o\n  o*\n   o"


def test_ascii_path_marks_endpoints():
    out = render("path", "ascii", 7, deltas=(0, 1, 2, 1, 1, 2, 1, 0))
    lines = out.splitlines()
    assert lines[-1].startswith("x") and lines[-1].rstrip().endswith("x")
    assert out.count("o") == 6  # six positive-height vertices


def test_render_deterministic_and_svg_wellformed():
    import xml.etree.ElementTree as ET
    for target in ("support", "enriched", "frame"):
        a = render(target, "svg", 6)
        assert a == render(target, "svg", 6)
        ET.fromstring(a)
    svg = render("staircase", "svg", 8, partition=(5, 5, 1, 1, 1, 1))
    ET.fromstring(svg)


def test_ascii_staircase_silhouette():
    out = render("staircase", "ascii", 6, partition=(5, 4, 3, 1))
    assert all("|" in line for line in out.splitlines())


def test_render_rejects_bad_specs():
    from flagcomb.errors import EnumerationLimitExceeded, InvalidSpec
    with pytest.raises(InvalidSpec, match="need n >= 2"):
        render("support", "svg", 1)
    for n in (5.0, "5", None):
        with pytest.raises(InvalidSpec, match=f"n must be an int, got {n!r}"):
            render("support", "ascii", n)
    with pytest.raises(EnumerationLimitExceeded, match="the cap 14"):
        render("support", "svg", 15)
    with pytest.raises(InvalidSpec):
        render("nope", "ascii", 5)
    with pytest.raises(InvalidSpec):
        render("path", "ascii", 5)  # missing deltas
    with pytest.raises(InvalidSpec):
        render("path", "ascii", 5, deltas=(0, 2, 0, 0, 0, 0))


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

def test_config_defaults_and_env_override(tmp_path, monkeypatch):
    cfg = load_config()
    assert cfg.max_n_combinatorics == 14
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


def test_cli_analyze_general_type_json(tmp_path, capsys, type_135_text):
    """--json on a code that is not full prints the full report's keys
    that apply to it, not the text report."""
    rc = main(["analyze", "--json", _code_file(tmp_path, type_135_text)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == {
        "q": 2, "n": 6, "type": [1, 3, 5], "size": 3, "d_f": 2,
        "projected": {"1": [3, 1], "2": [2, 3], "3": [3, 1]}}


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


def _count_ferrers_calls(monkeypatch, name):
    """Count the calls of flagcomb.ferrers.<name>, private names included."""
    calls = []
    original = getattr(ferrers, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(ferrers, name, counted)
    return calls


def test_bijection_enumerates_paths_and_partitions_once(monkeypatch):
    paths = _count_calls(monkeypatch, "enumerate_paths")
    walks = _count_ferrers_calls(monkeypatch, "_walk")
    table = ferrers.bijection_table(8, max_n=8)
    assert all(n_paths == n_split for _, n_paths, n_split in table)
    assert (len(paths), len(walks)) == (1, 1)


def test_bijection_builds_one_distribution_per_splitting(monkeypatch):
    built = _count_ferrers_calls(monkeypatch, "UnderlyingDistribution")
    by_value = ferrers.splittings_by_value(10, max_n=10)
    assert sum(map(len, by_value.values())) == 2188
    assert len(built) == 2188   # Motzkin(10) splittings, of Catalan(10) nodes


def test_verify_bijection_enumerates_paths_once_per_n(monkeypatch):
    paths = _count_calls(monkeypatch, "enumerate_paths")
    _bijection_check_only(monkeypatch)
    report, ok = verify.run_verification()
    assert ok, report
    assert [args[0] for args in paths] == list(range(2, 9))


def test_bijection_mismatch_is_a_consistency_failure(monkeypatch):
    # drop the zero path, the first one enumerated
    _patch_everywhere(monkeypatch, "enumerate_paths",
                      lambda real: lambda *a, **k: real(*a, **k)[1:])
    _bijection_check_only(monkeypatch)
    report, ok = verify.run_verification()
    assert not ok
    assert "FAIL path_splitting_bijection" in report


def test_count_only_commands_run_no_enumerator(monkeypatch, capsys):
    paths = _count_calls(monkeypatch, "enumerate_paths")
    walks = _count_ferrers_calls(monkeypatch, "_walk")
    assert main(["paths", "9"]) == 0
    assert capsys.readouterr().out.endswith("total 835\n")    # Motzkin(9)
    assert main(["partitions", "9", "-u", "5"]) == 0
    assert capsys.readouterr().out.endswith("total 80\n")
    assert (paths, walks) == ([], [])


def test_bijection_runs_only_the_dps_up_to_60(monkeypatch, capsys):
    paths = _count_calls(monkeypatch, "enumerate_paths")
    walks = _count_ferrers_calls(monkeypatch, "_walk")
    for n in range(2, 15):
        assert main(["bijection", str(n)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "NO" not in captured.out
        last = f"{max_distance(n):<3} 1       1            yes"
        assert captured.out.splitlines()[-1] == last
    assert (paths, walks) == ([], [])
    assert main(["bijection", "61"]) == 1
    assert "n=61 exceeds the configured cap 60" in capsys.readouterr().err


def _off_by_one_at(monkeypatch, name, d):
    """Make the counting DP cli.<name> one too high at index d."""
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda n: [c + (i == d)
                                              for i, c in enumerate(real(n))])


def test_wrong_dp_term_is_a_consistency_failure(monkeypatch, capsys):
    _off_by_one_at(monkeypatch, "count_paths_by_distance", 3)
    assert main(["paths", "6", "--list"]) == 3
    assert "path list disagrees with the DP" in capsys.readouterr().err
    assert main(["bijection", "13"]) == 3
    captured = capsys.readouterr()
    assert "3   221     220          NO" in captured.out
    assert "bijection table mismatch" in captured.err
    assert main(["bijection", "5"]) == 3
    captured = capsys.readouterr()
    assert "3   5       4            NO" in captured.out
    assert "bijection table mismatch" in captured.err
    _off_by_one_at(monkeypatch, "count_partitions_by_value", 0)
    assert main(["partitions", "6", "-u", "0", "--list"]) == 3
    assert "partition list disagrees with the DP" in capsys.readouterr().err


def test_list_rows_follow_the_dp_table(capsys):
    assert main(["paths", "4", "-d", "2", "--list"]) == 0
    assert capsys.readouterr().out == (
        "distance paths on S(4) with d=2\nd  count\n2  3\ndeltas  d  area\n"
        "0,0,1,1,0  2  2\n0,1,0,1,0  2  2\n0,1,1,0,0  2  2\ntotal 3\n")


def test_cli_realize_roundtrip(capsys):
    assert main(["realize", "2", "0,1,1,0"]) == 0
    text = capsys.readouterr().out
    c = parse_code(text)
    from flagcomb import path_from_flag_pair
    assert path_from_flag_pair(*c.flags) == DistancePath(3, (0, 1, 1, 0))


def test_cli_render(capsys):
    assert main(["render", "frame", "5"]) == 0
    assert capsys.readouterr().out.strip().startswith("o*o*")


@pytest.mark.parametrize("fmt", ["ascii", "svg"])
@pytest.mark.parametrize("n", ["15", "100000"])
def test_cli_render_over_the_cap_exits_1(n, fmt, capsys):
    assert main(["render", "frame", n, "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: n={n} exceeds the cap 14\n"


def test_cli_render_cap_follows_the_config(tmp_path, monkeypatch, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"max_n_combinatorics": 30}))
    monkeypatch.setenv(ENV_VAR, str(path))
    assert main(["render", "frame", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 19 and len(lines[0]) == 19
    assert main(["render", "frame", "31"]) == 1


def test_cli_partitions(capsys):
    assert main(["partitions", "6", "-u", "0", "--list"]) == 0
    out = capsys.readouterr().out
    assert "total 1" in out


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["no-such-command"]) == 1
    assert main(["paths", "99"]) == 1       # over the cap, no --force
    assert main(["realize", "2", "0,2,0,0"]) == 1
    assert main(["partitions", "1"]) == 1   # FF(1) is no frame
    assert main(["partitions", "0"]) == 1
    assert capsys.readouterr().err.endswith("error: need n >= 2, got 0\n")
    assert main(["analyze", str(tmp_path / "missing.txt")]) == 2
    assert main(["analyze", _code_file(tmp_path, "garbage")]) == 2
    (tmp_path / "binary.txt").write_bytes(b"\xff\xfe\x00")
    assert main(["analyze", str(tmp_path / "binary.txt")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("deltas", ["", ","])
def test_cli_realize_with_no_deltas_exits_1(capsys, deltas):
    """An empty delta list reads as n = -1: an invalid path (exit 1), where
    it raised IndexError out of main."""
    with pytest.raises(InvalidPath):
        DistancePath(-1, ())
    assert main(["realize", "2", deltas]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def _partitions_reference(n, u):
    """The text of `partitions n [-u u] --list`, built from the public
    enumerator and underlying_distribution."""
    lines = [f"embedded partitions of FF({n})"
             + (f" with splitting value {u}" if u is not None else "")]
    parts = enumerate_embedded_partitions(n, u, max_n=n)
    for p in parts:
        counts = underlying_distribution(p).counts
        label = ",".join(map(str, p.parts)) if p.parts else "null"
        lines.append(f"({label})  u={sum(counts)}  "
                     f"U=({','.join(map(str, counts))})")
    lines.append(f"total {len(parts)}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", range(2, 9))
def test_partitions_list_matches_the_enumerator(n, capsys):
    for u in [None, *range(-1, max_distance(n) + 2)]:
        argv = ["partitions", str(n), "--list"]
        assert main(argv if u is None else argv + ["-u", str(u)]) == 0
        captured = capsys.readouterr()
        assert captured.out == _partitions_reference(n, u)
        assert captured.err == ""


def test_partitions_list_builds_no_distribution(monkeypatch, capsys):
    built = _count_ferrers_calls(monkeypatch, "UnderlyingDistribution")
    walks = _count_ferrers_calls(monkeypatch, "_walk")
    assert main(["partitions", "8", "--list"]) == 0
    assert capsys.readouterr().out.endswith("total 1430\n")    # Catalan(8)
    assert main(["partitions", "8", "-u", "4", "--list"]) == 0
    assert capsys.readouterr().out.endswith("total 38\n")
    # -u is the walk's prune bound, not only a filter on its output
    assert (built, walks) == ([], [(8, None), (8, 4)])


def test_a_library_walk_reads_the_config_once(monkeypatch):
    """With no max_n, iter_partitions reads the cap once and hands it to
    the walk, which does not read it again."""
    calls = []
    real = config.load_config
    monkeypatch.setattr(config, "load_config",
                        lambda: calls.append(1) or real())
    assert len(list(ferrers.iter_partitions(6))) == 132     # Catalan(6)
    assert len(calls) == 1
    calls.clear()
    assert enumerate_embedded_partitions(6, 3)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# One parser per process
# ---------------------------------------------------------------------------

def test_parser_is_built_once_per_process(monkeypatch, tmp_path, capsys):
    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: builds.append(1) or real())
    cli._parser.cache_clear()
    code = _code_file(tmp_path, "2 3 full\n\n1 0 0\n0 1 0\n0 0 1\n")
    for argv in (["analyze", code], ["analyze", "--json", code],
                 ["paths", "5"], ["paths", "4", "--list"], ["bijection", "5"],
                 ["realize", "2", "0,1,1,0"], ["render", "frame", "4"],
                 ["verify", "--n-max", "3", "--trials", "2"],
                 ["partitions", "5"], ["partitions", "5", "-u", "2", "--list"]):
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert builds == [1]
    assert cli.build_parser() is not cli.build_parser()


def test_reused_parser_answers_like_a_fresh_one(tmp_path, capsys):
    """A failed parse leaves nothing behind for the next call."""
    good = tmp_path / "good.txt"
    good.write_text("2 3 full\n\n1 0 0\n0 1 0\n0 0 1\n\n"
                    "0 0 1\n0 1 0\n1 0 0\n")
    bad = tmp_path / "bad.txt"
    bad.write_text("4 2 full\n\n1 0\n0 1\n")
    calls = [["paths", "x"], ["analyze", "--help"],
             ["analyze", str(tmp_path / "missing.txt")], ["analyze", str(bad)],
             ["analyze", str(good)], ["analyze", "--json", str(good)]]

    def run(argv):
        rc = main(argv)
        out, err = capsys.readouterr()
        return rc, out, err

    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    assert [rc for rc, _, _ in fresh] == [1, 0, 2, 2, 0, 0]
    cli._parser.cache_clear()
    assert [run(argv) for argv in calls + calls] == fresh + fresh


# ---------------------------------------------------------------------------
# One parse and one write per call
# ---------------------------------------------------------------------------

FULL_CODE = "2 3 full\n\n1 0 0\n0 1 0\n0 0 1\n\n0 0 1\n0 1 0\n1 0 0\n"

PARITY_ARGV = [
    [], ["-h"], ["--help"], ["nope"], ["nope", "5"],
    ["-x", "paths", "5"], ["--", "paths", "5"],
    ["analyze", "-h"], ["analyze"], ["analyze", "FILE", "extra"],
    ["analyze", "FILE"], ["analyze", "--json", "FILE"],
    ["analyze", "--js", "FILE"], ["analyze", "GENERAL"],
    ["paths", "5"], ["paths", "5", "--bogus"], ["paths", "x"],
    ["paths", "--", "5"], ["paths", "5", "--he"], ["paths", "4", "--list"],
    ["paths", "5", "-d", "3", "-h"], ["partitions", "6", "-u"],
    ["partitions", "6", "-u", "3"], ["partitions", "4", "--list"],
    ["bijection", "6"], ["bijection"], ["realize", "2", "--", "0", "1", "1",
                                        "0"],
    ["realize", "2", "0,1,1,0", "--json"], ["render", "nope", "4"],
    ["render", "frame", "4"], ["verify", "--n-max", "2", "--trials", "1"],
    ["verify", "--n-max", "x"],
]


@pytest.fixture
def fill(tmp_path, type_135_text):
    """argv with FILE and GENERAL replaced by a full and a type-(1,3,5)
    code file."""
    general = tmp_path / "general.txt"
    general.write_text(type_135_text)
    files = {"FILE": _code_file(tmp_path, FULL_CODE), "GENERAL": str(general)}
    return lambda argv: [files.get(a, a) for a in argv]


def test_one_parse_answers_like_the_top_level_parser(monkeypatch, capsys,
                                                      fill):
    """main gives the exit code, stdout and stderr that a parse by the top
    level parser alone gives (help, usage errors, options before the
    command, "--", abbreviations), with a fresh and with a reused parser."""
    calls = [fill(argv) for argv in PARITY_ARGV]

    def run(argv):
        rc = main(argv)
        out, err = capsys.readouterr()
        return rc, out, err

    cli._parser.cache_clear()
    with monkeypatch.context() as m:       # no command table: top level only
        m.setattr(cli._parser(), "commands", {})
        top_level = [run(argv) for argv in calls]
    assert [rc for rc, _, _ in top_level].count(0) == 19
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    assert fresh == top_level
    cli._parser.cache_clear()
    assert [run(argv) for argv in calls + calls] == top_level + top_level


def _count_parse_passes(monkeypatch):
    passes = []
    real = argparse.ArgumentParser.parse_known_args

    def counted(self, *a, **k):
        passes.append(self.prog)
        return real(self, *a, **k)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    return passes


def test_a_valid_call_parses_once(monkeypatch, capsys, fill):
    """A call whose argv starts with a command and leaves nothing over makes
    one parse_known_args pass, with that command's subparser."""
    passes = _count_parse_passes(monkeypatch)
    valid = 0
    for argv in map(fill, PARITY_ARGV):
        del passes[:]
        if main(argv) == 0 and argv and argv[0] in cli._parser().commands:
            assert passes == [f"flagcomb {argv[0]}"], argv
            valid += 1
    capsys.readouterr()
    assert valid == 17


class _CountedStdout(io.StringIO):
    """A stdout that keeps each write call's text."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, s):
        self.writes.append(s)
        return super().write(s)


@pytest.mark.parametrize("argv", [
    ["analyze", "FILE"], ["analyze", "GENERAL"], ["paths", "9"],
    ["paths", "9", "-d", "20"], ["partitions", "9", "-u", "3"],
    ["partitions", "9"], ["bijection", "9"]])
def test_a_table_command_writes_once(argv, monkeypatch, fill):
    out = _CountedStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(fill(argv)) == 0
    assert len(out.writes) == 1 and out.getvalue().endswith("\n")


@pytest.mark.parametrize("argv, module, name", [
    (["paths", "4", "--list"], support_paths, "iter_paths"),
    (["partitions", "5", "--list"], ferrers, "iter_partitions")])
def test_list_rows_are_written_as_they_are_reached(argv, module, name,
                                                   monkeypatch):
    """Each row is written before the next one is drawn from the walk, and
    the header before the first."""
    out = _CountedStdout()
    monkeypatch.setattr(sys, "stdout", out)
    seen = []
    real = getattr(module, name)

    def walk(*a, **k):
        for item in real(*a, **k):
            seen.append(len(out.writes))
            yield item
    monkeypatch.setattr(module, name, walk)
    assert main(argv) == 0
    assert out.getvalue().endswith(f"\ntotal {len(seen)}\n")
    assert seen[0] > 0
    assert all(a < b for a, b in zip(seen, seen[1:]))


@pytest.mark.parametrize("argv", [
    ["--n-max", "1"], ["--trials", "-4"], ["--q", ","], ["--q", "2,"],
    ["--q", "2,x"],
])
def test_verify_rejects_bad_arguments(argv, capsys):
    assert main(["verify", *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {argv[0]} must be ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("q", ["0", "-3", "1", "4"])
def test_verify_rejects_a_q_that_is_not_prime(q, capsys):
    """q is checked before any check draws from it, so q <= 0 never
    reaches randrange and q = 1 never reaches a rejection loop."""
    assert main(["verify", "--q", q]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: q = {q} is not prime\n"


def test_verify_reads_no_config(tmp_path, monkeypatch, capsys):
    """verify's tables are its own constants: no enumeration in it reads
    the config, so a low cap changes nothing."""
    calls = []
    real = config.load_config
    monkeypatch.setattr(config, "load_config",
                        lambda *a: calls.append(a) or real(*a))
    argv = ["verify", "--n-max", "4", "--trials", "20"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert calls == []
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"max_n_combinatorics": 5}')
    monkeypatch.setenv(ENV_VAR, str(cfg))
    assert main(argv) == 0
    assert capsys.readouterr() == plain
    assert calls == []


def test_bijection_reads_no_config(tmp_path, monkeypatch, capsys):
    """bijection's only cap is its own DP range: a low max_n_combinatorics
    changes neither its tables nor its exit codes."""
    calls = []
    real = config.load_config
    monkeypatch.setattr(config, "load_config",
                        lambda *a: calls.append(a) or real(*a))

    def run():
        return [(main(["bijection", n]), capsys.readouterr())
                for n in ("4", "9", "13", "61")]

    plain = run()
    assert [rc for rc, _ in plain] == [0, 0, 0, 1]
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"max_n_combinatorics": 3}')
    monkeypatch.setenv(ENV_VAR, str(cfg))
    assert run() == plain
    assert calls == []


def test_verify_reports_an_out_of_range_sweep_as_a_failed_check(
        monkeypatch, capsys):
    """A sweep giving delta_1 = 3 fails random_pair_paths_valid and every
    realization with a FAIL line each and exit 3; no InvalidPath escapes."""
    def bad(f, g):
        return (3, *flags.pair_distance_profile(f, g)[1:])
    monkeypatch.setattr(verify, "pair_distance_profile", bad)
    monkeypatch.setattr(support_paths, "pair_distance_profile", bad)
    assert main(["verify", "--n-max", "4", "--trials", "3"]) == 3
    out = capsys.readouterr().out
    assert "FAIL random_pair_paths_valid: 3 failure(s) in 3 cases" in out
    assert "FAIL realization_roundtrip: 30 failure(s) in 30 cases" in out
    assert "delta_1=3 outside [0, 1]" in out


def test_verify_reports_a_failed_realization_as_a_failed_check(
        monkeypatch, capsys):
    """With a zero profile every nonzero path fails to round-trip: one FAIL
    line and exit 3, with no RealizationNotFound escaping the suite."""
    monkeypatch.setattr(support_paths, "pair_distance_profile",
                        lambda f, g: (0,) * (f.n - 1))
    assert main(["verify", "--n-max", "4", "--trials", "3"]) == 3
    out, err = capsys.readouterr()
    assert "FAIL realization_roundtrip: 24 failure(s) in 30 cases" in out
    assert "round-trip failed for (0, 1, 0)" in out
    assert out.count("\nFAIL ") == 1
    assert "verification suite failed" in err


def test_python_m_cli_runs_main(tmp_path):
    src = Path(flagcomb.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "flagcomb.cli", "analyze",
         str(tmp_path / "missing.txt")],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("argv,lines_read", [
    (["paths", "12", "--list"], 1),     # far more than a pipe buffer holds
    (["render", "frame", "10"], 0),     # all of it still in stdout's buffer
])
def test_cli_closed_stdout_exits_0_quietly(unbuffered, argv, lines_read):
    """A reader that closes the pipe early, as `| head -1` does, ends the
    command with exit code 0 and nothing on stderr, not with the exit code
    of a bad code file; buffered or not, nothing fails at interpreter exit."""
    src = Path(flagcomb.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "flagcomb.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(src),
                 PYTHONUNBUFFERED=unbuffered))
    for _ in range(lines_read):
        assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")


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
    b"\xff\xfe",
])
def test_cli_bad_config_exits_1(tmp_path, monkeypatch, capsys, doc):
    """Any bad config, one that is not JSON or not UTF-8 included, exits 1
    with a message that names the config file."""
    cfg = tmp_path / "cfg.json"
    if isinstance(doc, bytes):
        cfg.write_bytes(doc)
    else:
        cfg.write_text(doc)
    monkeypatch.setenv(ENV_VAR, str(cfg))
    with pytest.raises(ValueError):
        load_config()
    assert main(["paths", "5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {cfg}: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [["paths", "5"], ["render", "frame", "5"]],
                         ids=["paths", "render"])
@pytest.mark.parametrize("name", ["missing.json", "a_directory"])
def test_cli_unreadable_config_exits_1(tmp_path, monkeypatch, capsys, argv,
                                       name):
    """A config path that names no file, or a directory, is a bad config
    (exit 1) named in the message, not an unreadable code file (exit 2)."""
    (tmp_path / "a_directory").mkdir()
    cfg = tmp_path / name
    monkeypatch.setenv(ENV_VAR, str(cfg))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: config {cfg}: ")
    assert captured.err.count("\n") == 1
