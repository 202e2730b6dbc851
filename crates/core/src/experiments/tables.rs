//! Table experiments: Table 1 (trend matrix), Table 2 (observatory
//! parameters), Table 3 (report corpus), Table 4 (top targeted ASes).

use super::ExperimentResult;
use crate::pipeline::{ObsId, StudyRun};
use crate::render::text_table;
use flowmon::{IxpConfig, NetscoutConfig};
use honeypot::HoneypotConfig;
use netmodel::Asn;
use reports::table1_industry_counts;
use telescope::RsdosConfig;

/// Table 1: trend symbols per observatory per attack type, plus the
/// industry-report claim counts.
pub fn table1(run: &StudyRun) -> ExperimentResult {
    let dp_ids = [
        ObsId::Ucsd,
        ObsId::Orion,
        ObsId::NetscoutDp,
        ObsId::AkamaiDp,
        ObsId::IxpDp,
    ];
    let ra_ids = [
        ObsId::NetscoutRa,
        ObsId::AkamaiRa,
        ObsId::IxpRa,
        ObsId::Hopscotch,
        ObsId::AmpPot,
        ObsId::NewKid,
    ];
    let trend_row = |ids: &[ObsId]| -> Vec<String> {
        ids.iter()
            .map(|&id| {
                format!(
                    "{} {}",
                    id.name(),
                    run.normalized_series(id).trend().symbol()
                )
            })
            .collect()
    };
    let ((dp_inc, dp_dec), (ra_inc, ra_dec)) = table1_industry_counts();
    let mut body = String::from("Trends 2019-2023 (▲ > +5 % / 4 y, ▼ < -5 %, ◆ steady)\n\n");
    body.push_str("Direct-path observatories:\n  ");
    body.push_str(&trend_row(&dp_ids).join("  "));
    body.push_str(&format!(
        "\n  Industry reports (~2022): ▲({dp_inc}) ▼({dp_dec})\n"
    ));
    body.push_str("Reflection-amplification observatories:\n  ");
    body.push_str(&trend_row(&ra_ids).join("  "));
    body.push_str(&format!(
        "\n  Industry reports (~2022): ▲({ra_inc}) ▼({ra_dec})\n"
    ));
    // Block-bootstrap 95 % intervals on the 4-year change (the paper's
    // regressions come without uncertainty; serial dependence is
    // respected via moving blocks).
    let mut boot_rng = simcore::SimRng::new(run.config.seed).fork_named("table1-bootstrap");
    let mut significant = 0usize;
    let csv_rows: Vec<Vec<String>> = ObsId::MAIN_TEN
        .iter()
        .map(|&id| {
            let s = run.normalized_series(id);
            let reg = s.linear_regression();
            let iv = analytics::trend_interval(&s, 8, 400, &mut boot_rng);
            if iv.map(|i| i.sign_significant()).unwrap_or(false) {
                significant += 1;
            }
            vec![
                id.name().to_string(),
                if id.is_direct_path() { "DP" } else { "RA" }.into(),
                s.trend().symbol().to_string(),
                reg.map(|r| format!("{:.5}", r.slope)).unwrap_or_default(),
                iv.map(|i| format!("{:.4}", i.change_4y)).unwrap_or_default(),
                iv.map(|i| format!("{:.4}", i.lo)).unwrap_or_default(),
                iv.map(|i| format!("{:.4}", i.hi)).unwrap_or_default(),
            ]
        })
        .collect();
    body.push_str(&format!(
        "\nBootstrap check: {significant}/10 trend signs are unambiguous at the 95% level\n(moving-block bootstrap, 400 replicates; intervals in the CSV).\n"
    ));
    let mut csv = String::from(
        "observatory,attack_type,trend,slope_per_week,change_4y,ci_lo,ci_hi\n",
    );
    for row in &csv_rows {
        csv.push_str(&row.join(","));
        csv.push('\n');
    }
    ExperimentResult {
        id: "table1",
        title: "Table 1: trend comparison across observatories and industry reports".into(),
        body,
        csv: vec![("table1_trends.csv".into(), csv)],
    }
}

/// Table 2: the observatory parameter table, emitted from the live
/// detector configurations (so the table can never drift from the
/// code).
pub fn table2(run: &StudyRun) -> ExperimentResult {
    let rsdos = RsdosConfig::default();
    let amppot = HoneypotConfig::amppot(&run.plan);
    let hopscotch = HoneypotConfig::hopscotch(&run.plan);
    let newkid = HoneypotConfig::newkid(&run.plan);
    let ixp = IxpConfig::default();
    let netscout = NetscoutConfig::default();

    let rows = vec![
        vec![
            "UCSD NT".into(),
            "telescope".into(),
            "RSDoS".into(),
            format!("{} IPs", run.plan.ucsd.address_count()),
            "protocol, src IP".into(),
            format!("{}s", rsdos.interval_secs),
            format!(
                ">={} pkts, >={}s, >={}/{}s window",
                rsdos.min_packets, rsdos.min_duration_secs, rsdos.rate_threshold, rsdos.rate_window_secs
            ),
        ],
        vec![
            "ORION NT".into(),
            "telescope".into(),
            "RSDoS".into(),
            format!("{} IPs", run.plan.orion.address_count()),
            "protocol, src IP".into(),
            format!("{}s", rsdos.interval_secs),
            format!(
                ">={} pkts, >={}s, >={}/{}s window",
                rsdos.min_packets, rsdos.min_duration_secs, rsdos.rate_threshold, rsdos.rate_window_secs
            ),
        ],
        vec![
            "Netscout Atlas".into(),
            "flow".into(),
            "DP+RA".into(),
            format!("{} customer ASes", run.plan.netscout_customers.len()),
            "per-victim alerts".into(),
            "-".into(),
            format!(">= medium severity ({} pps/target)", netscout.medium_pps),
        ],
        vec![
            "Akamai Prolexic".into(),
            "flow".into(),
            "DP+RA".into(),
            format!("{} protected prefixes", run.plan.akamai_prefix_list.len()),
            "rerouted prefixes".into(),
            "-".into(),
            "attacks on protected space".into(),
        ],
        vec![
            "IXP BH (RA)".into(),
            "flow".into(),
            "RA".into(),
            format!("{} member ASes", run.plan.ixp_members.len()),
            "UDP, ampl. src port".into(),
            "-".into(),
            format!(">={} IPs, >{} Gbps", ixp.min_src_ips, ixp.ra_min_bps / 1e9),
        ],
        vec![
            "IXP BH (DP)".into(),
            "flow".into(),
            "DP".into(),
            format!("{} member ASes", run.plan.ixp_members.len()),
            "TCP".into(),
            "-".into(),
            format!(">={} IPs, >{} Mbps", ixp.min_src_ips, ixp.dp_min_bps / 1e6),
        ],
        vec![
            amppot.name.clone(),
            "honeypot".into(),
            "RA".into(),
            format!("{} of {} IPs", amppot.sensor_count(), amppot.allocated_total),
            "src IP, src port, dst IP, dst port".into(),
            format!("{} min", amppot.timeout_secs / 60),
            format!(">={} pkts", amppot.min_packets),
        ],
        vec![
            hopscotch.name.clone(),
            "honeypot".into(),
            "RA".into(),
            format!("{} IPs", hopscotch.sensor_count()),
            "src IP, dst IP, dst port".into(),
            format!("{} min", hopscotch.timeout_secs / 60),
            format!(">={} pkts", hopscotch.min_packets),
        ],
        vec![
            newkid.name.clone(),
            "honeypot".into(),
            "RA".into(),
            format!("{} IP", newkid.sensor_count()),
            "src prefix, dst IP, [dst port]".into(),
            format!("{} min", newkid.timeout_secs / 60),
            format!(
                ">={} pkts, [>={} ports]",
                newkid.min_packets,
                newkid.multi_port_min.unwrap_or(0)
            ),
        ],
    ];
    let body = text_table(
        &["Platform", "Type", "Attack", "Coverage", "Flow identifier", "Timeout", "Threshold"],
        &rows,
    );
    let mut csv = String::from("platform,type,attack,coverage,flow_identifier,timeout,threshold\n");
    for row in &rows {
        csv.push_str(
            &row.iter()
                .map(|c| c.replace(',', ";"))
                .collect::<Vec<_>>()
                .join(","),
        );
        csv.push('\n');
    }
    ExperimentResult {
        id: "table2",
        title: "Table 2: observatory configurations (from live detector configs)".into(),
        body,
        csv: vec![("table2_observatories.csv".into(), csv)],
    }
}

/// Table 3: the industry report corpus.
pub fn table3(_run: &StudyRun) -> ExperimentResult {
    let corpus = reports::corpus();
    let rows: Vec<Vec<String>> = corpus
        .iter()
        .map(|r| {
            vec![
                r.vendor.name().to_string(),
                format!("{:?}", r.format),
                format!("{} mo", r.period_months),
                if r.ddos_only { "DDoS-only" } else { "broad" }.into(),
                format!("{:?}", r.overall),
                format!("{:?}", r.direct_path),
                format!("{:?}", r.reflection_amplification),
                format!("{:?}", r.application_layer),
            ]
        })
        .collect();
    let body = text_table(
        &["Vendor", "Format", "Period", "Scope", "Overall", "DP", "RA", "L7"],
        &rows,
    );
    let mut csv = String::from("vendor,format,period_months,ddos_only,overall,dp,ra,l7\n");
    for r in &corpus {
        csv.push_str(&format!(
            "{},{:?},{},{},{:?},{:?},{:?},{:?}\n",
            r.vendor.name(),
            r.format,
            r.period_months,
            r.ddos_only,
            r.overall,
            r.direct_path,
            r.reflection_amplification,
            r.application_layer
        ));
    }
    ExperimentResult {
        id: "table3",
        title: format!("Table 3: {} surveyed industry reports", corpus.len()),
        body,
        csv: vec![
            ("table3_reports.csv".into(), csv),
            // The community-extendable knowledge-base artifact (ref [13]).
            ("knowledge_base.md".into(), reports::knowledge_base_markdown()),
            // The Appendix-C related-work taxonomy (the paper's second
            // published artifact).
            ("related_work_taxonomy.txt".into(), reports::render_mindmap()),
        ],
    }
}

/// Table 4: top-10 ASes by number of highly-visible targets (tuples
/// seen by all four academic observatories).
pub fn table4(run: &StudyRun) -> ExperimentResult {
    // Attribute the all-four tuples to ASes: sort, then count runs.
    let mut asns: Vec<Asn> = super::targets::all_four_tuples(run)
        .filter_map(|(_, ip)| run.plan.asn_of(ip))
        .collect();
    let total = asns.len();
    asns.sort_unstable();
    let mut ranked: Vec<(Asn, usize)> = asns
        .chunk_by(|a, b| a == b)
        .map(|r| (r[0], r.len()))
        .collect();
    ranked.sort_by_key(|&(asn, n)| (std::cmp::Reverse(n), asn));
    let rows: Vec<Vec<String>> = ranked
        .iter()
        .take(10)
        .enumerate()
        .map(|(i, &(asn, n))| {
            let rec = run.plan.registry.get(asn);
            vec![
                format!("{}", i + 1),
                rec.map(|r| r.name.clone()).unwrap_or_else(|| "?".into()),
                asn.to_string(),
                format!("{n}"),
                format!("{:.2}%", 100.0 * n as f64 / total.max(1) as f64),
            ]
        })
        .collect();
    let mut body = text_table(&["Rank", "Provider", "ASN", "Tuples", "Share"], &rows);
    // §7.1 concentration: how unevenly the highly-visible targets
    // distribute over ASes (hosters dominate).
    let counts: Vec<u64> = ranked.iter().map(|&(_, n)| n as u64).collect();
    if let Some(c) = analytics::concentration(&counts) {
        let hosters = ranked
            .iter()
            .take(10)
            .filter(|&&(asn, _)| {
                run.plan.registry.get(asn).map(|r| r.kind) == Some(netmodel::AsKind::Hoster)
            })
            .count();
        body.push_str(&format!(
            "\nConcentration across {} targeted ASes: Gini {:.2}, top-1 {:.1}%, top-10 {:.1}%; {} of the top 10 are hosters\n",
            c.n,
            c.gini,
            100.0 * c.top1_share,
            100.0 * c.top10_share,
            hosters
        ));
    }
    let mut csv = String::from("rank,provider,asn,tuples,share\n");
    for row in &rows {
        csv.push_str(&row.join(","));
        csv.push('\n');
    }
    ExperimentResult {
        id: "table4",
        title: format!("Table 4: top ASes among {total} highly-visible targets"),
        body,
        csv: vec![("table4_top_ases.csv".into(), csv)],
    }
}
