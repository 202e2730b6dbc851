//! Target-analysis experiments (§7): Fig. 7 (UpSet), Fig. 8
//! (highly-visible targets over time), Fig. 9/13 (industry confirmation
//! joins), Fig. 10 (overlap time series), and the §7 scalar statistics.
//! They (and Table 4) read [`StudyRun::academic_membership`] with
//! linear passes or merge sorted tuple projections.

use super::ExperimentResult;
use crate::pipeline::{ObsId, StudyRun};
use crate::render::{series_csv, sparkline, text_table};
use analytics::{
    ip_overlap_share, mask_label, new_vs_recurring, weekly_overlap, ConfirmationShares,
    TargetTuple, UpsetAnalysis, WeeklySeries,
};

/// Position of an academic observatory in [`ObsId::ACADEMIC`], i.e. its
/// bit in the membership masks.
fn idx(id: ObsId) -> usize {
    ObsId::ACADEMIC
        .iter()
        .position(|&a| a == id)
        .expect("academic observatory")
}

/// The UpSet decomposition of the run's academic membership column.
fn academic_upset(run: &StudyRun) -> UpsetAnalysis {
    let names = ObsId::ACADEMIC.map(|id| id.name().to_string());
    UpsetAnalysis::of(names.into(), run.academic_membership())
}

/// The (day, ip) tuples seen by every academic observatory, ascending.
pub(super) fn all_four_tuples(run: &StudyRun) -> impl Iterator<Item = TargetTuple> + '_ {
    let full = (1u16 << ObsId::ACADEMIC.len()) - 1;
    run.academic_membership()
        .iter()
        .filter(move |&&(_, mask)| mask == full)
        .map(|&(t, _)| t)
}

/// Fig. 7: UpSet decomposition of (date, IP) targets across the four
/// academic observatories.
pub fn fig7(run: &StudyRun) -> ExperimentResult {
    let u = academic_upset(run);
    let mut body = format!(
        "Distinct targets: {} tuples over {} IP addresses\n\nSet sizes (non-exclusive):\n",
        u.total_distinct, u.distinct_ips
    );
    for (i, name) in u.names.iter().enumerate() {
        body.push_str(&format!(
            "  {:10} {:8} ({:.1}% of all targets)\n",
            name,
            u.set_sizes[i],
            100.0 * u.set_sizes[i] as f64 / u.total_distinct.max(1) as f64
        ));
    }
    body.push_str("\nExclusive intersections (UpSet bars):\n");
    let mut masks: Vec<(u16, usize)> = u.exclusive.iter().map(|(&m, &c)| (m, c)).collect();
    masks.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    let mut csv = String::from("combination,mask,count,share\n");
    for (mask, count) in masks {
        let label = mask_label(&u.names, mask);
        body.push_str(&format!(
            "  {:30} {:8} ({:.2}%)\n",
            label,
            count,
            100.0 * u.share(mask)
        ));
        csv.push_str(&format!(
            "{},{:04b},{},{:.6}\n",
            label,
            mask,
            count,
            u.share(mask)
        ));
    }
    body.push_str(&format!(
        "\nSeen by all four observatories: {:.2}% | ORION targets also in UCSD: {:.1}% | AmpPot targets shared with Hopscotch: {:.1}%\n",
        100.0 * u.at_least(u.full_mask()) as f64 / u.total_distinct.max(1) as f64,
        100.0 * u.overlap_share(idx(ObsId::Orion), idx(ObsId::Ucsd)),
        100.0 * u.overlap_share(idx(ObsId::AmpPot), idx(ObsId::Hopscotch)),
    ));
    ExperimentResult {
        id: "fig7",
        title: "Figure 7: UpSet of academic target sets".into(),
        body,
        csv: vec![("fig7_upset.csv".into(), csv)],
    }
}

/// Fig. 8: weekly highly-visible targets split into new vs recurring
/// IPs, plus the cumulative-new-target CDF.
pub fn fig8(run: &StudyRun) -> ExperimentResult {
    let tuples: Vec<TargetTuple> = all_four_tuples(run).collect();
    let nr = new_vs_recurring(&tuples);
    let new_s = WeeklySeries::new("new targets", nr.new_targets.clone());
    let rec_s = WeeklySeries::new("recurring targets", nr.recurring_targets.clone());
    let cdf_s = WeeklySeries::new("CDF", nr.cdf.clone());
    let body = format!(
        "Highly-visible targets (seen at all four academic observatories): {} tuples\n\nnew:       {}\nrecurring: {}\nCDF:       {}\n",
        tuples.len(),
        sparkline(&nr.new_targets, 47),
        sparkline(&nr.recurring_targets, 47),
        sparkline(&nr.cdf, 47),
    );
    ExperimentResult {
        id: "fig8",
        title: "Figure 8: highly-visible targets over time".into(),
        body,
        csv: vec![(
            "fig8_highly_visible.csv".into(),
            series_csv(&[new_s, rec_s, cdf_s]),
        )],
    }
}

fn confirmation_body(
    run: &StudyRun,
    industry: &[TargetTuple],
    industry_name: &str,
) -> (String, String) {
    let c = ConfirmationShares::of(run.academic_membership(), ObsId::ACADEMIC.len(), industry);
    let mut rows = Vec::new();
    let mut csv = String::from("subset,size,confirmed_share\n");
    let names = ObsId::ACADEMIC.map(ObsId::name);
    let mut sorted = c.rows.clone();
    sorted.sort_by_key(|&(mask, _, _)| (mask.count_ones(), mask));
    for (mask, size, share) in sorted {
        let label = mask_label(&names, mask);
        csv.push_str(&format!("{label},{size},{share:.6}\n"));
        rows.push(vec![
            label,
            format!("{size}"),
            format!("{:.2}%", 100.0 * share),
        ]);
    }
    let mut body = format!("Share of academic targets confirmed by {industry_name}:\n");
    body.push_str(&text_table(&["Subset (exclusive)", "Targets", "Confirmed"], &rows));
    body.push_str(&format!(
        "\nReverse view — {industry_name} targets seen by academia:\n"
    ));
    for (name, seen) in names.iter().zip(&c.industry_seen_by) {
        body.push_str(&format!("  {:10} {:.1}%\n", name, 100.0 * seen));
    }
    body.push_str(&format!(
        "  union      {:.1}%\n",
        100.0 * c.industry_seen_by_union
    ));
    (body, csv)
}

/// Fig. 9: Netscout baseline confirmation of academic target subsets.
pub fn fig9(run: &StudyRun) -> ExperimentResult {
    let baseline = run.netscout_baseline_tuples();
    let (body, csv) = confirmation_body(run, baseline, "Netscout (baseline sample)");
    ExperimentResult {
        id: "fig9",
        title: "Figure 9: Netscout confirmation of academic targets".into(),
        body,
        csv: vec![("fig9_netscout_confirmation.csv".into(), csv)],
    }
}

/// Fig. 13 (Appendix G): the same join against the Akamai target set.
pub fn fig13(run: &StudyRun) -> ExperimentResult {
    let (body, csv) = confirmation_body(run, run.akamai_tuples(), "Akamai");
    ExperimentResult {
        id: "fig13",
        title: "Figure 13 (App. G): Akamai confirmation of academic targets".into(),
        body,
        csv: vec![("fig13_akamai_confirmation.csv".into(), csv)],
    }
}

/// Fig. 10: weekly target overlap within observatory types.
pub fn fig10(run: &StudyRun) -> ExperimentResult {
    let tuples = |id| run.target_tuples(id);
    let tel = weekly_overlap(tuples(ObsId::Ucsd), tuples(ObsId::Orion));
    let hp = weekly_overlap(tuples(ObsId::Hopscotch), tuples(ObsId::AmpPot));
    let body = format!(
        "(a) Telescopes — weekly targets\n  UCSD:    {}\n  ORION:   {}\n  shared:  {}\n\n(b) Honeypots — weekly targets\n  Hopscotch: {}\n  AmpPot:    {}\n  shared:    {}\n",
        sparkline(&tel.a, 47),
        sparkline(&tel.b, 47),
        sparkline(&tel.shared, 47),
        sparkline(&hp.a, 47),
        sparkline(&hp.b, 47),
        sparkline(&hp.shared, 47),
    );
    let tel_csv = series_csv(&[
        WeeklySeries::new("UCSD", tel.a),
        WeeklySeries::new("ORION", tel.b),
        WeeklySeries::new("shared", tel.shared),
    ]);
    let hp_csv = series_csv(&[
        WeeklySeries::new("Hopscotch", hp.a),
        WeeklySeries::new("AmpPot", hp.b),
        WeeklySeries::new("shared", hp.shared),
    ]);
    ExperimentResult {
        id: "fig10",
        title: "Figure 10: weekly target overlap (telescopes / honeypots)".into(),
        body,
        csv: vec![
            ("fig10a_telescopes.csv".into(), tel_csv),
            ("fig10b_honeypots.csv".into(), hp_csv),
        ],
    }
}

/// §7 scalar statistics: distinct targets / IPs, multi-type share,
/// all-four share, and the Jonker-style AmpPot↔UCSD IP overlap.
pub fn stats7(run: &StudyRun) -> ExperimentResult {
    let u = academic_upset(run);
    // Multi-type targets: tuples seen by at least one telescope AND at
    // least one honeypot (the two attack classes).
    let tel_mask: u16 = (1 << idx(ObsId::Orion)) | (1 << idx(ObsId::Ucsd));
    let hp_mask: u16 = (1 << idx(ObsId::Hopscotch)) | (1 << idx(ObsId::AmpPot));
    let multi_type = run
        .academic_membership()
        .iter()
        .filter(|&&(_, m)| m & tel_mask != 0 && m & hp_mask != 0)
        .count();
    let all_four = u.at_least(u.full_mask());
    let jonker = ip_overlap_share(
        run.target_tuples(ObsId::AmpPot),
        run.target_tuples(ObsId::Ucsd),
    );

    let total = u.total_distinct.max(1);
    let body = format!(
        "Distinct (date, IP) targets: {}\nDistinct IP addresses: {}\nMulti-type targets (telescope AND honeypot): {} ({:.2}%)\nSeen at all four observatories: {} ({:.2}%)\nAmpPot/UCSD distinct-IP overlap (Jonker-style, §7.1): {:.2}%\n",
        u.total_distinct,
        u.distinct_ips,
        multi_type,
        100.0 * multi_type as f64 / total as f64,
        all_four,
        100.0 * all_four as f64 / total as f64,
        100.0 * jonker,
    );
    let csv = format!(
        "metric,value\ndistinct_tuples,{}\ndistinct_ips,{}\nmulti_type,{}\nmulti_type_share,{:.6}\nall_four,{}\nall_four_share,{:.6}\njonker_ip_overlap,{:.6}\n",
        u.total_distinct,
        u.distinct_ips,
        multi_type,
        multi_type as f64 / total as f64,
        all_four,
        all_four as f64 / total as f64,
        jonker,
    );
    ExperimentResult {
        id: "stats7",
        title: "Section 7 scalar statistics".into(),
        body,
        csv: vec![("stats7.csv".into(), csv)],
    }
}
