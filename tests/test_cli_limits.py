import pytest

import cli_limits
from toricwidth.fixtures import resolve_fixture
from toricwidth.polytope import HalfspacePolytope


def test_every_row_has_an_input_a_subcommand_and_a_reader():
    for row in cli_limits.ROWS:
        assert row.argv[0] in ("analyze", "width", "embed", "verify"), row
        build = cli_limits.POLYTOPES.get(row.input, lambda: resolve_fixture(row.input))
        assert isinstance(build(), HalfspacePolytope), row
        assert row.read is None or row.read in cli_limits.READ, row


def test_the_pyramid_row_passes_and_a_copy_with_a_wrong_stderr_is_named(monkeypatch, capsys):
    (row,) = [row for row in cli_limits.ROWS if row.input == "pyr40"]
    wrong = row._replace(stderr="error: vertex (32, 32, 1) lies on 41 facets\n")
    monkeypatch.setattr(cli_limits, "ROWS", [row, wrong])
    with pytest.raises(SystemExit) as stop:
        cli_limits.main()
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["analyze pyr40 under 10 CPU s"] * 2
    assert stop.value.code == f"failed: {lines[1]}"
