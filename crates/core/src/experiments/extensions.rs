//! Extension experiments beyond the paper's figures:
//!
//! * `lags` — lead/lag structure between observatory series (which
//!   vantage point sees trends first), quantifying the phase offsets
//!   the paper describes narratively (§6.2: Hopscotch peaked early in
//!   2020 while AmpPot peaked late).
//! * `vendor_reports` — closes the §3 loop: synthesize vendor-style
//!   year-over-year claims from each simulated vantage point and
//!   compare them against the surveyed corpus' claim distribution,
//!   including the §3 cherry-picking (quarter-vs-year) sensitivity.

use super::ExperimentResult;
use crate::pipeline::{ObsId, StudyRun};
use crate::render::text_table;
use analytics::{best_lag, intersect_sorted, TargetTuple};
use attackgen::{AttackClass, AttackRef, ObservationColumns};
use flowmon::MitigationParams;
use netmodel::AmpVector;
use reports::{period_sensitivity, synthesize, table1_industry_counts, TrendClaim};
use simcore::SimRng;
use std::collections::BTreeMap;
use telescope::Telescope;

/// Lead/lag matrix over the ten main series.
pub fn lags(run: &StudyRun) -> ExperimentResult {
    let series = run.all_ten_normalized();
    let smoothed: Vec<analytics::WeeklySeries> = series.iter().map(|s| s.ewma(12)).collect();
    let max_lag = 16;
    let mut rows = Vec::new();
    let mut csv = String::from("leader,follower,lag_weeks,rho,p_value\n");
    for i in 0..smoothed.len() {
        for j in (i + 1)..smoothed.len() {
            let Some(best) = best_lag(&smoothed[i], &smoothed[j], max_lag) else {
                continue;
            };
            // Only report informative pairs: positively correlated,
            // significant and meaningfully lagged. The best lag maximizes
            // rho, so a best rho <= 0 means every lag is anti-correlated
            // and neither series leads.
            if best.correlation.rho <= 0.0 || !best.correlation.significant() {
                continue;
            }
            let (leader, follower, lag) = if best.lag >= 0 {
                (&series[i].name, &series[j].name, best.lag)
            } else {
                (&series[j].name, &series[i].name, -best.lag)
            };
            csv.push_str(&format!(
                "{},{},{},{:.4},{:.6}\n",
                leader, follower, lag, best.correlation.rho, best.correlation.p_value
            ));
            if lag >= 2 {
                rows.push(vec![
                    leader.clone(),
                    follower.clone(),
                    format!("{lag} wk"),
                    format!("{:+.2}", best.correlation.rho),
                ]);
            }
        }
    }
    // Strongest printed rho first, compared as numbers (as text, "-"
    // sorts above "+"); the sort is stable, so printed ties keep pair
    // order.
    let printed = |row: &Vec<String>| row[3].parse::<f64>().expect("rho prints as a number");
    rows.sort_by(|a, b| printed(b).total_cmp(&printed(a)));
    let mut body = String::from(
        "Pairs where one observatory leads another by >= 2 weeks (EWMA, best lag in +-16 wk):\n",
    );
    if rows.is_empty() {
        body.push_str("  none — all significant pairs are in phase\n");
    } else {
        body.push_str(&text_table(&["Leader", "Follower", "Lag", "rho"], &rows));
    }
    ExperimentResult {
        id: "lags",
        title: "Extension: lead/lag structure between observatories".into(),
        body,
        csv: vec![("lags.csv".into(), csv)],
    }
}

/// Synthetic vendor reports from each vantage point vs the surveyed
/// corpus.
pub fn vendor_reports(run: &StudyRun) -> ExperimentResult {
    // Vantage points that observe both classes.
    let vantages: [(&str, ObsId, ObsId); 3] = [
        ("Netscout-like", ObsId::NetscoutDp, ObsId::NetscoutRa),
        ("Akamai-like", ObsId::AkamaiDp, ObsId::AkamaiRa),
        ("IXP-like", ObsId::IxpDp, ObsId::IxpRa),
    ];
    let fmt_claim = |c: TrendClaim| -> String {
        match c {
            TrendClaim::Increase(Some(v)) => format!("increase ({:+.0}%)", 100.0 * v),
            TrendClaim::Increase(None) => "increase".into(),
            TrendClaim::Decrease(Some(v)) => format!("decrease ({:+.0}%)", 100.0 * v),
            TrendClaim::Decrease(None) => "decrease".into(),
            TrendClaim::Mixed => "mixed".into(),
            TrendClaim::NotReported => "n/a".into(),
        }
    };
    let mut rows = Vec::new();
    let mut csv = String::from("vantage,dp_yoy,ra_yoy,dp_claim,ra_claim\n");
    let mut dp_inc = 0usize;
    let mut ra_dec = 0usize;
    for (name, dp_id, ra_id) in vantages {
        let dp = run.weekly_series(dp_id);
        let ra = run.weekly_series(ra_id);
        let report = synthesize(name, &dp, &ra);
        dp_inc += report.dp_claim.is_increase() as usize;
        ra_dec += report.ra_claim.is_decrease() as usize;
        csv.push_str(&format!(
            "{},{},{},{:?},{:?}\n",
            name,
            report.dp_yoy.map(|v| format!("{v:.4}")).unwrap_or_default(),
            report.ra_yoy.map(|v| format!("{v:.4}")).unwrap_or_default(),
            report.dp_claim,
            report.ra_claim
        ));
        rows.push(vec![
            name.to_string(),
            fmt_claim(report.dp_claim),
            fmt_claim(report.ra_claim),
        ]);
    }
    let mut body = String::from("Synthetic 2022-vs-2021 vendor claims from simulated vantages:\n");
    body.push_str(&text_table(&["Vantage", "DP claim", "RA claim"], &rows));
    let ((c_dp_inc, c_dp_dec), (c_ra_inc, c_ra_dec)) = table1_industry_counts();
    body.push_str(&format!(
        "\nSimulated vantages: DP increase {dp_inc}/3, RA decrease {ra_dec}/3\n\
         Surveyed corpus (§3): DP ▲({c_dp_inc}) ▼({c_dp_dec}), RA ▲({c_ra_inc}) ▼({c_ra_dec})\n"
    ));
    // Cherry-picking sensitivity (§3 "Comparing short periods may be
    // misleading"): quarterly spread for the Netscout-like RA series.
    let ra = run.weekly_series(ObsId::NetscoutRa);
    let quarters = period_sensitivity(&ra, 2022);
    let qvals: Vec<String> = quarters
        .iter()
        .enumerate()
        .map(|(i, q)| match q {
            Some(v) => format!("Q{}: {:+.0}%", i + 1, 100.0 * v),
            None => format!("Q{}: n/a", i + 1),
        })
        .collect();
    body.push_str(&format!(
        "\nCherry-picking check — Netscout-like RA, 2022 quarters vs 2021: {}\n\
         (a vendor quoting its best quarter would tell a different story than the annual number)\n",
        qvals.join(", ")
    ));
    ExperimentResult {
        id: "vendor_reports",
        title: "Extension: synthetic vendor reports vs the surveyed corpus".into(),
        body,
        csv: vec![("vendor_reports.csv".into(), csv)],
    }
}

/// §7.3 per-protocol honeypot composition: which amplification vectors
/// each platform's targets arrive over, and the per-vector target
/// overlap ("AmpPot observed more targets attacked via CHARGEN while
/// Hopscotch saw more targets attacked via CLDAP ... for QOTD, RPC and
/// NTP both had largely overlapping target sets").
pub fn protocols(run: &StudyRun) -> ExperimentResult {
    // Join observations back to ground-truth vectors through the
    // attack-row index; per vector, the sorted distinct targets.
    let per_vector_targets = |id: ObsId| -> BTreeMap<AmpVector, Vec<TargetTuple>> {
        let mut out: BTreeMap<AmpVector, Vec<TargetTuple>> = BTreeMap::new();
        for o in run.observations(id).iter() {
            let row = run.attack_row(o.attack_id);
            if let Some(v) = row.and_then(|r| run.attacks.vector[r].amp_vector()) {
                out.entry(v).or_default().extend(o.target_tuples());
            }
        }
        for tuples in out.values_mut() {
            tuples.sort_unstable();
            tuples.dedup();
        }
        out
    };
    let hop = per_vector_targets(ObsId::Hopscotch);
    let amp = per_vector_targets(ObsId::AmpPot);
    let mut rows = Vec::new();
    let mut csv = String::from("vector,amppot_targets,hopscotch_targets,shared,shared_of_smaller\n");
    for v in AmpVector::ALL {
        let sa = amp.get(&v).map_or(&[][..], Vec::as_slice);
        let sh = hop.get(&v).map_or(&[][..], Vec::as_slice);
        let (a, h) = (sa.len(), sh.len());
        let shared = intersect_sorted(sa, sh).len();
        let denom = a.min(h);
        let share = if denom > 0 {
            shared as f64 / denom as f64
        } else {
            0.0
        };
        csv.push_str(&format!("{},{},{},{},{:.4}\n", v.label(), a, h, shared, share));
        rows.push(vec![
            v.label().to_string(),
            format!("{a}"),
            format!("{h}"),
            format!("{shared}"),
            if denom > 0 { format!("{:.0}%", 100.0 * share) } else { "-".into() },
        ]);
    }
    let mut body = String::from(
        "Per-vector (date, IP) targets at the two honeypots (§7.3):\n",
    );
    body.push_str(&text_table(
        &["Vector", "AmpPot", "Hopscotch", "Shared", "Shared/smaller"],
        &rows,
    ));
    body.push_str(
        "\nExpected pattern: CHARGEN/WS-Discovery/SNMP AmpPot-only, CLDAP/Memcached\n\
         Hopscotch-only, large shared sets on the common vectors (DNS, NTP, QOTD, RPC).\n",
    );
    ExperimentResult {
        id: "protocols",
        title: "Extension (§7.3): per-protocol honeypot target composition".into(),
        body,
        csv: vec![("protocols.csv".into(), csv)],
    }
}

/// §5 interference ablation: how much telescope visibility does fast
/// industry mitigation remove? Re-observes the spoofed direct-path
/// stream with mitigation-truncated durations and compares detection
/// counts.
///
/// One pass over the spoofed direct-path rows: `observe_into` is pure
/// in (row, root) and mitigation only rewrites `duration_secs`, so each
/// telescope's baseline verdict is computed once per row and reused by
/// every scenario that leaves the duration unchanged.
pub fn interference(run: &StudyRun) -> ExperimentResult {
    let root = SimRng::new(run.config.seed).fork_named("observatories");
    // Today's landscape vs a counterfactual where every alerting
    // provider's customer also filters within the first minute.
    let scenarios: [(&str, MitigationParams); 2] = [
        ("today (DPS < 1 min)", MitigationParams::default()),
        (
            "universal fast mitigation",
            MitigationParams {
                dps_delay_secs: 45,
                alerting_delay_secs: 45,
                suppression_probability: 0.9,
            },
        ),
    ];
    let telescopes = [
        ("UCSD", Telescope::ucsd(&run.plan)),
        ("ORION", Telescope::orion(&run.plan)),
    ];
    // Only the verdict counts: the scratch sink is emptied after every
    // call, so it never holds more than one row and, once grown, never
    // allocates again.
    let mut sink = ObservationColumns::new();
    let mut seen = |tele: &Telescope, a: AttackRef<'_>| {
        let hit = tele.observe_into(a, &root, &mut sink);
        sink.clear();
        hit
    };
    let mut baseline = [0usize; 2];
    let mut mitigated = [[0usize; 2]; 2];
    for a in run
        .attacks
        .iter()
        .filter(|a| a.class == AttackClass::DirectPathSpoofed)
    {
        let durations = scenarios
            .each_ref()
            .map(|(_, p)| p.effective_duration_secs(a, &run.plan, &root));
        for (t, (_, tele)) in telescopes.iter().enumerate() {
            let verdict = seen(tele, a);
            baseline[t] += verdict as usize;
            for (s, &duration_secs) in durations.iter().enumerate() {
                let v = if duration_secs == a.duration_secs {
                    verdict
                } else {
                    seen(tele, AttackRef { duration_secs, ..a })
                };
                mitigated[s][t] += v as usize;
            }
        }
    }
    let mut rows = Vec::new();
    let mut csv = String::from("scenario,telescope,baseline,with_mitigation,lost_share\n");
    for (s, (scenario, _)) in scenarios.iter().enumerate() {
        for (t, (name, _)) in telescopes.iter().enumerate() {
            let (baseline, mitigated) = (baseline[t], mitigated[s][t]);
            let lost = 1.0 - mitigated as f64 / baseline.max(1) as f64;
            csv.push_str(&format!(
                "{scenario},{name},{baseline},{mitigated},{lost:.4}\n"
            ));
            rows.push(vec![
                scenario.to_string(),
                name.to_string(),
                format!("{baseline}"),
                format!("{mitigated}"),
                format!("{:.1}%", 100.0 * lost),
            ]);
        }
    }
    let mut body = String::from(
        "Telescope RSDoS detections with and without industry mitigation truncating\n\
         attack traffic (the §5 interference concern):\n",
    );
    body.push_str(&text_table(
        &["Scenario", "Telescope", "Baseline", "Mitigated", "Visibility lost"],
        &rows,
    ));
    body.push_str(
        "\nProtected targets mitigated inside the first minute stop backscattering\n\
         before Corsaro's 60 s flow minimum — they vanish from telescope view. Today\n\
         only DPS-protected prefixes react that fast (small loss); if every provider\n\
         did, a large share of the telescope's RSDoS picture would silently disappear —\n\
         exactly the §5 worry that better mitigation degrades independent measurement.\n",
    );
    ExperimentResult {
        id: "interference",
        title: "Extension (§5): mitigation interference with telescope visibility".into(),
        body,
        csv: vec![("interference.csv".into(), csv)],
    }
}

/// §2.3 RTBH mechanics: the blackhole announcements behind the IXP's
/// counts, with their self-inflicted costs — reaction latency, late
/// withdrawal (overshoot) and collateral (whole prefixes dropped to
/// protect single addresses).
pub fn rtbh(run: &StudyRun) -> ExperimentResult {
    use flowmon::{blackhole_events, rtbh_stats, RtbhParams};
    // The blackholed population: attacks the IXP actually observed, in
    // population order.
    let ixp = run
        .observations(ObsId::IxpDp)
        .iter()
        .chain(run.observations(ObsId::IxpRa).iter());
    let mut rows: Vec<usize> = ixp.filter_map(|o| run.attack_row(o.attack_id)).collect();
    rows.sort_unstable();
    rows.dedup();
    let root = SimRng::new(run.config.seed).fork_named("observatories");
    let blackholed = rows.iter().map(|&row| run.attacks.get(row));
    let events = blackhole_events(blackholed, &RtbhParams::default(), &root);
    let accepted = events
        .iter()
        .filter(|e| flowmon::accepted_by_ixp(e, &run.plan))
        .count();
    let mut body;
    let csv;
    let attack = |id| run.attack_row(id).map(|row| run.attacks.get(row));
    match rtbh_stats(&events, attack) {
        Some(s) => {
            body = format!(
                "Blackhole events derived from the {} IXP-observed attacks: {}\n\
                 accepted by the IXP (within customer allocations): {}\n\
                 mean blackhole duration: {:.0} s\n\
                 overshoot (blackholed time after the attack ended): {:.1}%\n\
                 mean addresses dropped per event: {:.0} (vs {:.1} actually attacked)\n",
                rows.len(),
                s.events,
                accepted,
                s.blackholed_secs as f64 / s.events as f64,
                100.0 * s.overshoot_share,
                s.mean_addresses_dropped,
                s.mean_addresses_attacked,
            );
            body.push_str(
                "\nReading: most blackholed time is self-inflicted post-attack unavailability,\n\
                 and each announcement drops orders of magnitude more addresses than were\n\
                 attacked — the collateral-damage concern of refs [77]/[113] (§2.3).\n",
            );
            csv = format!(
                "metric,value\nevents,{}\naccepted,{}\nblackholed_secs,{}\nattack_overlap_secs,{}\novershoot_share,{:.6}\nmean_addresses_dropped,{:.2}\nmean_addresses_attacked,{:.2}\n",
                s.events,
                accepted,
                s.blackholed_secs,
                s.attack_overlap_secs,
                s.overshoot_share,
                s.mean_addresses_dropped,
                s.mean_addresses_attacked,
            );
        }
        None => {
            body = "no blackhole events (no IXP-observed attacks in this run)\n".into();
            csv = "metric,value\nevents,0\n".into();
        }
    }
    ExperimentResult {
        id: "rtbh",
        title: "Extension (§2.3): RTBH blackholing mechanics and collateral".into(),
        body,
        csv: vec![("rtbh.csv".into(), csv)],
    }
}

/// §6.1 seasonality: H1-vs-H2 asymmetry of every series (the paper's
/// "relative attack counts reached a peak during the first half of the
/// year followed by a valley" for the two-way-traffic observatories).
pub fn seasonality(run: &StudyRun) -> ExperimentResult {
    let mut rows = Vec::new();
    let mut csv = String::from("observatory,h1_mean,h2_mean,h1_over_h2,peak_month\n");
    for id in ObsId::MAIN_TEN {
        let s = run.normalized_series(id);
        let Some(sum) = analytics::seasonal_summary(&s) else {
            continue;
        };
        csv.push_str(&format!(
            "{},{:.4},{:.4},{:.4},{}\n",
            id.name(),
            sum.h1_mean,
            sum.h2_mean,
            sum.h1_over_h2,
            sum.peak_month
        ));
        rows.push(vec![
            id.name().to_string(),
            format!("{:.2}", sum.h1_mean),
            format!("{:.2}", sum.h2_mean),
            format!("{:.2}", sum.h1_over_h2),
            format!("{}", sum.peak_month),
        ]);
    }
    let mut body = String::from("Half-year asymmetry of the normalized series (§6.1):\n");
    body.push_str(&text_table(
        &["Observatory", "H1 mean", "H2 mean", "H1/H2", "Peak month"],
        &rows,
    ));
    body.push_str(
        "\nH1/H2 > 1 reproduces the paper's first-half-of-year peaks at the\n\
         two-way-traffic observatories (IXP, Netscout).\n",
    );
    ExperimentResult {
        id: "seasonality",
        title: "Extension (§6.1): first-half-of-year seasonality".into(),
        body,
        csv: vec![("seasonality.csv".into(), csv)],
    }
}

/// §3 L7 growth: several vendors (Cloudflare, F5, Imperva, NBIP,
/// Netscout, NexusGuard, Radware) "reported substantial increases in
/// application-layer (L7) attacks". Measures the HTTP-flood share of
/// Netscout's direct-path alerts over the study.
pub fn l7_growth(run: &StudyRun) -> ExperimentResult {
    use attackgen::attack::AttackVector;
    let is_l7 = |id| {
        run.attack_row(id)
            .is_some_and(|row| run.attacks.vector[row] == AttackVector::HttpFlood)
    };
    let mut l7 = vec![0.0; simcore::STUDY_WEEKS];
    let mut other = vec![0.0; simcore::STUDY_WEEKS];
    for o in run.observations(ObsId::NetscoutDp).iter() {
        let w = o.start.week_index();
        if !(0..simcore::STUDY_WEEKS as i64).contains(&w) {
            continue;
        }
        if is_l7(o.attack_id) {
            l7[w as usize] += 1.0;
        } else {
            other[w as usize] += 1.0;
        }
    }
    let l7_series = analytics::WeeklySeries::new("L7", l7);
    let other_series = analytics::WeeklySeries::new("other DP", other);
    let share = analytics::share_series(&l7_series, &other_series).ewma(12);
    let mut body = format!(
        "L7 (HTTP-flood) share of Netscout direct-path alerts (smoothed):\n  {}\n",
        crate::render::sparkline(&share.values, 47)
    );
    for year in [2019, 2021, 2022] {
        let lo = simcore::Date::new(year, 1, 1).to_sim_time().week_index().max(0) as usize;
        let hi = (simcore::Date::new(year + 1, 1, 1).to_sim_time().week_index() as usize)
            .min(l7_series.values.len());
        let a: f64 = l7_series.values[lo..hi].iter().sum();
        let b: f64 = other_series.values[lo..hi].iter().sum();
        if a + b > 0.0 {
            body.push_str(&format!("  {year}: L7 {:.1}% of DP alerts\n", 100.0 * a / (a + b)));
        }
    }
    body.push_str(
        "\nThe rising share reproduces the §3 vendor consensus on growing\n\
         application-layer attacks (and §2.1's note that L7 floods are never\n\
         spoofed — they are invisible to telescopes and honeypots alike).\n",
    );
    let csv = crate::render::series_csv(&[l7_series, other_series, share]);
    ExperimentResult {
        id: "l7",
        title: "Extension (§3): application-layer attack growth".into(),
        body,
        csv: vec![("l7_growth.csv".into(), csv)],
    }
}

/// Ground-truth population summary in the §3 metrics taxonomy (count,
/// size, duration, vectors, methods): what an omniscient industry
/// report would have published about the simulated 4.5 years.
pub fn population(run: &StudyRun) -> ExperimentResult {
    /// One (year, class) cell of the table.
    #[derive(Default)]
    struct Cell {
        durations: Vec<u32>,
        pps: Vec<f64>,
        carpet: usize,
    }
    // One pass over the attack columns buckets each row by year (year
    // k covers [bounds[k], bounds[k + 1]) from 2019) and by class
    // (direct path, then reflection: every class is one of the two).
    let bounds: [i64; 6] =
        std::array::from_fn(|k| simcore::Date::new(2019 + k as i32, 1, 1).to_sim_time().0);
    let mut cells: [[Cell; 2]; 5] = Default::default();
    let attacks = &run.attacks;
    let mut short = 0usize;
    for r in 0..attacks.len() {
        let duration = attacks.duration_secs[r];
        // "Most attacks under 10 min" (§3), over the whole population.
        short += (duration < 600) as usize;
        let start = attacks.start_secs[r] as i64;
        let year = bounds.partition_point(|&b| b <= start);
        if year == 0 || year == bounds.len() {
            continue;
        }
        let cell = &mut cells[year - 1][attacks.class[r].is_reflection() as usize];
        cell.durations.push(duration);
        cell.pps.push(attacks.pps[r]);
        cell.carpet += (attacks.targets(r).len() > 1) as usize;
    }
    let at = |len: usize, p: f64| ((len - 1) as f64 * p).round() as usize;
    let mut body = String::new();
    let mut csv = String::from(
        "year,class,count,duration_p50_s,duration_p90_s,pps_p50,pps_p99,carpet_share\n",
    );
    let mut rows = Vec::new();
    for (year, year_cells) in (2019..).zip(&mut cells) {
        for (label, cell) in ["DP", "RA"].into_iter().zip(year_cells) {
            let count = cell.durations.len();
            if count == 0 {
                continue;
            }
            cell.durations.sort_unstable();
            cell.pps.sort_unstable_by(f64::total_cmp);
            let d50 = cell.durations[at(count, 0.5)] as f64;
            let d90 = cell.durations[at(count, 0.9)] as f64;
            let (p50, p99) = (cell.pps[at(count, 0.5)], cell.pps[at(count, 0.99)]);
            let carpet_share = cell.carpet as f64 / count as f64;
            csv.push_str(&format!(
                "{year},{label},{count},{d50:.0},{d90:.0},{p50:.0},{p99:.0},{carpet_share:.4}\n"
            ));
            rows.push(vec![
                format!("{year}"),
                label.to_string(),
                format!("{count}"),
                format!("{d50:.0}s / {d90:.0}s"),
                format!("{p50:.0} / {p99:.0}"),
                format!("{:.1}%", 100.0 * carpet_share),
            ]);
        }
    }
    body.push_str(&text_table(
        &["Year", "Class", "Count", "Duration p50/p90", "pps p50/p99", "Carpet"],
        &rows,
    ));
    body.push_str(&format!(
        "\nAttacks under 10 minutes: {:.1}% (the §3 \"most attacks under 10 min\" claim)\n",
        100.0 * short as f64 / run.attacks.len().max(1) as f64
    ));
    ExperimentResult {
        id: "population",
        title: "Extension (§3 metrics): ground-truth attack population summary".into(),
        body,
        csv: vec![("population.csv".into(), csv)],
    }
}
