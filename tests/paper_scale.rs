//! Paper-scale invariants: the headline EXPERIMENTS.md numbers, checked
//! against a full-volume run at the default seed. Part of the tier-1
//! run: about a second in release and under ten in debug on a 2-vCPU
//! VM. Run it alone with:
//!
//! ```sh
//! cargo test --release --test paper_scale
//! ```

use analytics::{upset, TargetTuple, Trend};
use ddoscovery::{ObsId, StudyConfig, StudyRun};

#[test]
fn paper_scale_headline_numbers() {
    let run = StudyRun::execute(&StudyConfig::paper());

    // Table 1: the exact trend matrix of EXPERIMENTS.md — every
    // non-Akamai DP series up, Akamai down/steady, RA series never up.
    for id in [ObsId::Ucsd, ObsId::Orion, ObsId::NetscoutDp, ObsId::IxpDp] {
        assert_eq!(
            run.normalized_series(id).trend(),
            Trend::Increasing,
            "{} trend",
            id.name()
        );
    }
    assert_ne!(
        run.normalized_series(ObsId::AkamaiDp).trend(),
        Trend::Increasing,
        "Akamai (DP) must diverge from the DP family"
    );
    for id in [ObsId::Hopscotch, ObsId::AmpPot, ObsId::NetscoutRa] {
        assert_ne!(
            run.normalized_series(id).trend(),
            Trend::Increasing,
            "{} must not trend up",
            id.name()
        );
    }

    // Fig. 5: crossing in 2021Q2.
    let dp = run.weekly_series(ObsId::NetscoutDp);
    let ra = run.weekly_series(ObsId::NetscoutRa);
    let share = analytics::share_series(&dp, &ra).centered_ma(6);
    let w = analytics::durable_crossing(&share.values, 0.5).expect("50% crossing");
    let date = simcore::time::week_start_date(w as i64);
    assert_eq!(date.quarter_label(), "2021Q2", "crossing at {date}");

    // Fig. 7 / §7 structure.
    let sets: Vec<(String, Vec<TargetTuple>)> = ObsId::ACADEMIC
        .iter()
        .map(|&id| (id.name().to_string(), run.target_tuples(id).to_vec()))
        .collect();
    let u = upset(&sets);
    let idx = |name: &str| u.names.iter().position(|n| n == name).unwrap();
    let orion_in_ucsd = u.overlap_share(idx("ORION"), idx("UCSD"));
    assert!(
        (0.80..=0.92).contains(&orion_in_ucsd),
        "ORION in UCSD {orion_in_ucsd:.3} (paper: 0.87)"
    );
    let amppot_hops = u.overlap_share(idx("AmpPot"), idx("Hopscotch"));
    assert!(
        (0.40..=0.70).contains(&amppot_hops),
        "AmpPot shared {amppot_hops:.3} (paper: 0.57)"
    );
    let all_four = u.at_least(u.full_mask()) as f64 / u.total_distinct as f64;
    assert!(
        (0.0003..=0.01).contains(&all_four),
        "all-four share {all_four:.5} (paper: 0.0055)"
    );
}
