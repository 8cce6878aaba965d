//! Property suite over the fuzz corpus: 25+ seeded scenarios must pass
//! every differential oracle — energy monotonicity across the V/f grid,
//! energy-accounting conservation across a snapshot split and snapshot
//! save/restore bit-exactness — with zero violations, reproducibly
//! (ci.sh runs this file at `PCSTALL_THREADS=1` and `=8`).

use scenarios::{fuzz, properties, PropertyConfig};

#[test]
fn corpus_passes_all_properties() {
    let cfg = PropertyConfig::default();
    let mut checked = 0;
    let mut violations = Vec::new();
    for index in 0..25 {
        let app = fuzz::generate(42, index);
        checked += 1;
        violations.extend(properties::check_all(&app, &cfg));
    }
    assert_eq!(checked, 25);
    assert!(
        violations.is_empty(),
        "{} of 25 seed-42 scenarios violated properties:\n{}",
        violations.len(),
        violations.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn violations_name_scenario_and_property() {
    // Manufacture a violation report and check its self-description; the
    // real oracles must never produce one on the pinned corpus (above).
    let v = properties::PropertyViolation::Monotonicity {
        scenario: "fuzz-2a-0".into(),
        lo_mhz: 1300,
        hi_mhz: 2200,
        lo_energy_j: 2.0,
        hi_energy_j: 1.0,
    };
    assert_eq!(v.scenario(), "fuzz-2a-0");
    assert_eq!(v.property(), "monotonicity");
    let msg = v.to_string();
    assert!(msg.contains("fuzz-2a-0") && msg.contains("1300") && msg.contains("2200"), "{msg}");
}

#[test]
fn traced_fuzz_scenarios_keep_their_verdicts() {
    // A scenario round-tripped through the trace codec is the same app,
    // so its property verdict must be identical.
    let cfg = PropertyConfig::default();
    for index in 0..4 {
        let app = fuzz::generate(42, index);
        let replayed = scenarios::trace::parse(&scenarios::trace::record(&app)).expect("parses");
        assert_eq!(app, replayed);
        let direct = properties::check_all(&app, &cfg).len();
        let traced = properties::check_all(&replayed, &cfg).len();
        assert_eq!(direct, traced, "fuzz:42:{index} verdict changed after trace round trip");
    }
}
