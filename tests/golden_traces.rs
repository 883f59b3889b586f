//! Golden-trace regression tests.
//!
//! Smoke-sized versions of the Fig. 5 / Fig. 6 / Fig. 9a sweeps are run
//! end-to-end and their CSV/JSON reports diffed **byte-for-byte** against
//! checked-in files under `tests/golden/`. The files were captured from
//! the simulator before the topology abstraction landed, so these tests
//! prove that refactors of the network/collective/system layers do not
//! move the paper's numbers.
//!
//! To regenerate after an *intentional* simulation change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_traces
//! ```
//!
//! and review the diff like any other code change.

use std::path::PathBuf;

use ace_platform::net::TorusShape;
use ace_platform::sweep::{
    report, run_scenario, BaselineSpec, EngineFamily, EngineSpec, RunnerOptions, Scenario,
};

/// Smoke payload: big enough to exercise chunking/pipelining, small
/// enough for debug-mode test runs.
const PAYLOAD: u64 = 4 << 20;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Compares `actual` against the checked-in golden file, or rewrites the
/// file when `GOLDEN_REGEN=1`.
fn check_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("GOLDEN_REGEN").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run GOLDEN_REGEN=1 cargo test --test golden_traces",
            path.display()
        )
    });
    if expected != actual {
        // Point at the first diverging line — a full dump of two CSVs is
        // unreadable in test output.
        for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
            assert_eq!(
                e,
                a,
                "golden {name} diverges at line {} (first diff shown)",
                i + 1
            );
        }
        assert_eq!(
            expected.lines().count(),
            actual.lines().count(),
            "golden {name}: line counts differ"
        );
        panic!("golden {name}: content differs only in trailing whitespace");
    }
}

fn torus(l: usize, v: usize, h: usize) -> TorusShape {
    TorusShape::new(l, v, h).expect("valid shape")
}

/// Fig. 5 (smoke): achieved bandwidth vs. communication memory
/// bandwidth, all three engine families on the 16-NPU torus.
fn fig05_smoke() -> Scenario {
    let mut sc = Scenario::collective("fig05-smoke");
    sc.topologies = vec![torus(4, 2, 2).into()];
    sc.engines = vec![
        EngineFamily::Ideal,
        EngineFamily::Baseline,
        EngineFamily::Ace,
    ];
    sc.payload_bytes = vec![PAYLOAD];
    sc.mem_gbps = vec![64.0, 128.0, 450.0];
    sc.comm_sms = vec![80];
    sc.baseline = Some(BaselineSpec::Engine(EngineSpec::Ideal));
    sc
}

/// Fig. 6 (smoke): achieved bandwidth vs. SMs loaned to communication.
fn fig06_smoke() -> Scenario {
    let mut sc = Scenario::collective("fig06-smoke");
    sc.topologies = vec![torus(4, 2, 2).into()];
    sc.engines = vec![EngineFamily::Ideal, EngineFamily::Baseline];
    sc.payload_bytes = vec![PAYLOAD];
    sc.mem_gbps = vec![900.0];
    sc.comm_sms = vec![1, 2, 6];
    sc.baseline = Some(BaselineSpec::Engine(EngineSpec::Ideal));
    sc
}

/// Fig. 9a (smoke): the ACE SRAM × FSM design space, normalized against
/// the paper's chosen 4 MB / 16 FSM point.
fn fig09a_smoke() -> Scenario {
    let mut sc = Scenario::collective("fig09a-smoke");
    sc.topologies = vec![torus(4, 2, 2).into()];
    sc.engines = vec![EngineFamily::Ace];
    sc.payload_bytes = vec![PAYLOAD];
    sc.mem_gbps = vec![128.0];
    sc.comm_sms = vec![6];
    sc.sram_mb = vec![1, 4];
    sc.fsms = vec![4, 16];
    sc.baseline = Some(BaselineSpec::Engine(EngineSpec::Ace {
        dma_mem_gbps: 128.0,
        sram_mb: 4,
        fsms: 16,
    }));
    sc
}

#[test]
fn fig05_smoke_csv_matches_golden() {
    let out = run_scenario(
        &fig05_smoke(),
        RunnerOptions {
            threads: 1,
            ..Default::default()
        },
    )
    .expect("valid scenario");
    check_golden("fig05_smoke.csv", &report::to_csv(&out));
}

#[test]
fn fig06_smoke_csv_matches_golden() {
    let out = run_scenario(
        &fig06_smoke(),
        RunnerOptions {
            threads: 1,
            ..Default::default()
        },
    )
    .expect("valid scenario");
    check_golden("fig06_smoke.csv", &report::to_csv(&out));
}

#[test]
fn fig09a_smoke_csv_matches_golden() {
    let out = run_scenario(
        &fig09a_smoke(),
        RunnerOptions {
            threads: 1,
            ..Default::default()
        },
    )
    .expect("valid scenario");
    check_golden("fig09a_smoke.csv", &report::to_csv(&out));
}

#[test]
fn fig09a_smoke_json_matches_golden() {
    let out = run_scenario(
        &fig09a_smoke(),
        RunnerOptions {
            threads: 1,
            ..Default::default()
        },
    )
    .expect("valid scenario");
    check_golden("fig09a_smoke.json", &report::to_json(&out));
}

/// One small scenario per sweep mode, each run to a [`SweepOutcome`].
fn run_toml(toml: &str) -> ace_platform::sweep::SweepOutcome {
    let sc = Scenario::from_toml_str(toml).expect("valid scenario");
    run_scenario(
        &sc,
        RunnerOptions {
            threads: 1,
            ..Default::default()
        },
    )
    .expect("valid scenario")
}

/// Rows of every kind the report emitters format: one collective row per
/// engine family, a faulted row whose `failed_links` / `degradation_pct`
/// are non-zero and whose `speedup_vs_baseline` is set, a training row
/// and a serving row with its latency columns. Pins the CSV/JSON
/// formatting of every column, not only the collective ones.
fn all_modes_outcome() -> ace_platform::sweep::SweepOutcome {
    let mut out = run_toml(
        "name = \"all-modes\"\nmode = \"collective\"\n\
         topologies = [\"4x2x2\"]\nengines = [\"ideal\", \"baseline\", \"ace\"]\n\
         ops = [\"all-reduce\"]\npayloads = [\"1MB\"]\nmem_gbps = [128]\ncomm_sms = [6]\n\
         [baseline]\nengine = \"ideal\"\n",
    );
    for toml in [
        "name = \"faulted\"\nmode = \"collective\"\nfidelity = \"analytic\"\n\
         topologies = [\"4x4\"]\nengines = [\"ace\"]\nops = [\"all-reduce\"]\n\
         payloads = [\"2MB\"]\nfaults = [\"kill:1@seed:42\"]\ncontention = [\"uniform:8\"]\n\
         [baseline]\nengine = \"baseline\"\nmem_gbps = 128\ncomm_sms = 6\n",
        "name = \"training\"\nmode = \"training\"\nfidelity = \"analytic\"\n\
         topologies = [\"4x2x2\"]\nconfigs = [\"ACE\"]\nworkloads = [\"resnet50\"]\n\
         iterations = 1\n",
        "name = \"serving\"\nmode = \"serving\"\nfidelity = \"analytic\"\n\
         topologies = [\"4x4\"]\nconfigs = [\"ace\"]\nworkloads = [\"transformer\"]\n\
         arrival = \"poisson\"\narrival_rates = [1500.0]\nschedules = [\"1f1b\"]\n\
         microbatches = [4]\nstages = 4\nrequests = 12\nseed = 1\nprompt_tokens = 64\n\
         decode_tokens = 2\ntoken_budget = 256\n",
    ] {
        out.results.extend(run_toml(toml).results);
    }
    out
}

#[test]
fn all_modes_reports_match_golden() {
    let out = all_modes_outcome();
    check_golden("all_modes.csv", &report::to_csv(&out));
    check_golden(
        "all_modes_attribution.csv",
        &report::to_csv_with_attribution(&out),
    );
    check_golden(
        "all_modes_attribution.json",
        &report::to_json_with_attribution(&out),
    );
}
