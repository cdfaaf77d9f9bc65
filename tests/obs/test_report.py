"""Report layer: JSONL round trip, §4 claim check, renderers.

Runs small seeded benchmarks per protocol, exports the observability
stream, and checks that the derived tables reproduce the paper's
logging-cost claim and that the renderers emit the expected sections.
"""

import pytest

from repro.bench.harness import run_failover, run_steady_state
from repro.obs import Obs
from repro.obs.report import (
    ABORT_CATEGORIES,
    abort_attribution,
    check_log_write_claim,
    from_obs,
    load_jsonl,
    phase_latency_rows,
    recovery_timelines,
    render_html,
    render_terminal,
    verb_accounting_rows,
)
from repro.protocol.zoo import ZOO
from repro.workloads import MicroBenchmark, SmallBank

STEADY = dict(duration=6e-3, warmup=2e-3, coordinators_per_node=4, seed=11)


def _micro():
    return MicroBenchmark(num_keys=10_000, write_ratio=0.5)


def _run(protocol):
    obs = Obs(trace=True, flight=True)
    result = run_steady_state(_micro, protocol, obs=obs, **STEADY)
    return obs, result


class TestClaimCheck:
    @pytest.mark.parametrize("protocol", ZOO)
    def test_log_write_claim_holds(self, protocol):
        obs, result = _run(protocol)
        (claim,) = check_log_write_claim(from_obs(obs))
        # Engines carry their triple's name (baseline runs ford's).
        assert claim["protocol"] == ZOO[protocol].name
        assert claim["checked"] == result.commits
        assert claim["ok"], claim["detail"]
        assert claim["violations"] == 0

    def test_pandora_cost_is_constant_while_others_scale(self):
        # write_ratio=0.5 => committed txns mix 0 and 2 writes; mean
        # writes land strictly between, so a per-object cost shows up
        # as mean_log_writes > f+1 * P(write txn).
        by_protocol = {}
        for protocol in ("pandora", "ford", "tradlog"):
            obs, _result = _run(protocol)
            (claim,) = check_log_write_claim(from_obs(obs))
            by_protocol[protocol] = claim
        # Pandora pays f+1 == 2 per write txn; tradlog pays (f+1) x
        # (writes+1) == 6 per write txn; ford pays R x writes == 4.
        assert by_protocol["pandora"]["mean_log_writes"] < (
            by_protocol["ford"]["mean_log_writes"]
        )
        assert by_protocol["ford"]["mean_log_writes"] < (
            by_protocol["tradlog"]["mean_log_writes"]
        )


class TestRoundTrip:
    @pytest.fixture(scope="class")
    def exported(self, tmp_path_factory):
        obs, result = _run("pandora")
        path = tmp_path_factory.mktemp("trace") / "run.jsonl"
        obs.export_jsonl(str(path))
        return obs, result, path

    def test_jsonl_reload_preserves_flights_and_meta(self, exported):
        obs, _result, path = exported
        run = load_jsonl(str(path))
        assert len(run.flights) == len(obs.flight.attempts)
        assert run.meta["protocol"] == "pandora"
        assert run.meta["log_servers"] == obs.run_meta["log_servers"]
        original = obs.flight.attempts[0]
        reloaded = run.flights[0]
        assert reloaded.to_json() == original.to_json()

    def test_derivations_identical_live_and_reloaded(self, exported):
        obs, _result, path = exported
        live = from_obs(obs)
        reloaded = load_jsonl(str(path))
        assert phase_latency_rows(live) == phase_latency_rows(reloaded)
        assert verb_accounting_rows(live) == verb_accounting_rows(reloaded)
        assert check_log_write_claim(live) == check_log_write_claim(reloaded)


class TestAttribution:
    def test_abort_rows_use_known_categories(self):
        obs, result = _run("pandora")
        rows = abort_attribution(from_obs(obs))
        categories = set(ABORT_CATEGORIES.values()) | {"open", "other", "fault"}
        assert rows, "seeded run should produce at least one abort"
        total = 0
        for _protocol, category, _outcome, count in rows:
            assert category in categories
            total += count
        # Every non-committed attempt is attributed somewhere.
        assert total == len(obs.flight.attempts) - result.commits


class TestRecoveryTimeline:
    def test_failover_produces_ordered_recovery_steps(self):
        obs = Obs(trace=True, flight=True)
        run_failover(
            lambda: SmallBank(accounts=1_000),
            "pandora",
            crash_kind="compute",
            crash_at=10e-3,
            duration=40e-3,
            obs=obs,
            coordinators_per_node=4,
            seed=11,
        )
        timelines = recovery_timelines(from_obs(obs))
        assert timelines, "compute crash should yield a recovery timeline"
        _node, steps = timelines[0]
        names = [name for name, _start, _duration in steps]
        assert names[0] == "heartbeat-miss"
        assert {"link-revoke", "log-region-read", "truncate"} <= set(names)
        starts = [start for _name, start, _duration in steps]
        assert starts == sorted(starts)


class TestRenderers:
    @pytest.fixture(scope="class")
    def run_data(self):
        obs, _result = _run("pandora")
        return from_obs(obs)

    def test_terminal_report_has_all_sections(self, run_data):
        text = render_terminal([run_data])
        for marker in (
            "phase latency (exact percentiles)",
            "round-trip / verb accounting (committed txns)",
            "logging claim check (paper §4: f+1 per txn vs per object)",
            "abort attribution",
            "OK",
        ):
            assert marker in text, marker

    def test_html_report_is_self_contained(self, run_data):
        html = render_html([run_data])
        assert html.startswith("<!DOCTYPE html>")
        for marker in (
            "<style>",
            "Phase latency (exact percentiles)",
            "Logging claim check",
            "Abort attribution",
            'class="ok"',
        ):
            assert marker in html, marker
        # Self-contained: no external fetches.
        assert "http://" not in html and "https://" not in html


def test_html_and_terminal_list_the_same_sections():
    """Both renderers walk one section list — so the HTML report cannot
    lose a section the terminal report prints (it had lost "unattributed
    verbs"), nor the other way round."""
    obs, _result = _run("pandora")
    run = from_obs(obs)
    run.meta["unattributed"] = {"read_log": 3, "write_log": 1}
    run.events += [
        {"ph": "X", "cat": "recovery", "name": "link-revoke", "pid": 1,
         "ts": 1e-3, "dur": 2e-6},
        {"ph": "i", "cat": "recovery", "name": "redetect", "pid": 1, "ts": 2e-3},
    ]
    text = render_terminal([run]).splitlines()
    titles = [
        line
        for line, below in zip(text[1:], text[2:])
        if line and below == "=" * len(line)
    ]
    assert len(titles) == len(set(titles)) == 8
    assert "unattributed verbs (system traffic)" in titles
    html = render_html([run])
    for title in titles:
        assert f"<h2>{title[0].upper()}{title[1:]}</h2>" in html, title
    # Phase bars are the one HTML extra.
    assert html.count("<h2>") == len(titles) + 1
