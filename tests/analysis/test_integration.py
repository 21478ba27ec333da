"""Integration: a deliberately broken deployment reports exactly the
expected codes — and the entry points (``check_paths``, the shell's
``lint``, ``Cluster.analyze``) agree on the same inputs."""

from repro.analysis import TopologyInfo, check_paths, render_text
from repro.cluster.cluster import Cluster
from repro.cluster.workload import DataSource, Desktop, Printer, Worker
from repro.shell.shell import FarGoShell

#: A script wrong in four distinct ways against the cluster built below.
BROKEN_SCRIPT = (
    'on completArived do\n'                      # FG103 typo
    ' log "a"\nend\n'
    'on timer(5) do\n'
    ' move "ghost" to "nowhere"\nend\n'          # FG105 + FG104
    'on timer() do\n'                            # FG109 missing interval
    ' log "b"\nend\n'
)

EXPECTED_SCRIPT_CODES = ["FG103", "FG104", "FG105", "FG109"]


def broken_cluster() -> Cluster:
    """Pull amplification and an unsatisfiable stamp, by construction."""
    cluster = Cluster(["a", "b", "c"])
    source = DataSource(size=200_000, _core=cluster["a"], _at="a")
    Worker(source, _core=cluster["a"], _at="a")
    printer = Printer("siteA", _core=cluster["a"], _at="a")
    Desktop(printer, _core=cluster["a"], _at="a")
    ids = cluster.complets_at("a")
    admin = cluster.admin("a")
    assert admin.retype(ids[1], ids[0], "pull")    # worker pulls bulky source
    assert admin.retype(ids[3], ids[2], "stamp")   # desktop stamps lone printer
    return cluster


class TestBrokenDeployment:
    def test_expected_codes_and_nothing_else(self):
        cluster = broken_cluster()
        out = cluster.analyze(BROKEN_SCRIPT)
        assert sorted(d.code for d in out) == sorted(
            ["FG201", "FG203", *EXPECTED_SCRIPT_CODES]
        )

    def test_clean_deployment_reports_nothing(self):
        cluster = Cluster(["a", "b"])
        source = DataSource(_core=cluster["a"], _at="a")
        Worker(source, _core=cluster["a"], _at="a")
        good = 'on shutdown firedby $core do\n move completsIn $core to "b"\nend\n'
        assert cluster.analyze(good) == []


class TestEntryPointParity:
    def test_shell_lint_matches_cluster_analyze(self):
        cluster = broken_cluster()
        shell = FarGoShell(cluster, home="a")
        assert shell.execute("lint") == render_text(cluster.analyze())

    def test_shell_lint_file_matches_cli_analysis(self, tmp_path):
        cluster = broken_cluster()
        script = tmp_path / "deploy.fgs"
        script.write_text(BROKEN_SCRIPT)

        topology = TopologyInfo.from_cluster(cluster)
        file_diagnostics = check_paths([str(script)], topology=topology)
        shell = FarGoShell(cluster, home="a")
        assert shell.execute(f"lint @{script}") == render_text(file_diagnostics)
        assert sorted(d.code for d in file_diagnostics) == EXPECTED_SCRIPT_CODES

    def test_script_codes_agree_between_cli_and_cluster_analyze(self, tmp_path):
        cluster = broken_cluster()
        script = tmp_path / "deploy.fgs"
        script.write_text(BROKEN_SCRIPT)

        file_diagnostics = check_paths(
            [str(script)], topology=TopologyInfo.from_cluster(cluster)
        )
        live = [
            d for d in cluster.analyze(BROKEN_SCRIPT) if d.code.startswith("FG1")
        ]
        assert [
            (d.code, d.line, d.column, d.message) for d in file_diagnostics
        ] == [(d.code, d.line, d.column, d.message) for d in live]
