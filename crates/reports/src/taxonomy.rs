//! The academic related-work taxonomy (Appendix B/C).
//!
//! The paper's second published artifact is a "mindmap" taxonomy of
//! recent DDoS literature, organized by research theme and by the data
//! sets each study uses. This module encodes that taxonomy as typed
//! data (themes → studies → data-set kinds, following §8 and Fig. 11)
//! with a text renderer, so the artifact regenerates from code like the
//! report knowledge base does.

use serde::{Deserialize, Serialize};

/// Top-level research themes of the §8 / Fig. 11 taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Theme {
    AttackCharacterization,
    AbusableProtocols,
    DetectionMethods,
    AttackerInfrastructure,
    Mitigation,
    LawEnforcement,
    CrossDatasetSynthesis,
}

impl Theme {
    pub const ALL: [Theme; 7] = [
        Theme::AttackCharacterization,
        Theme::AbusableProtocols,
        Theme::DetectionMethods,
        Theme::AttackerInfrastructure,
        Theme::Mitigation,
        Theme::LawEnforcement,
        Theme::CrossDatasetSynthesis,
    ];

    pub const fn label(self) -> &'static str {
        match self {
            Theme::AttackCharacterization => "Attack characterization",
            Theme::AbusableProtocols => "Abusable protocols & new vectors",
            Theme::DetectionMethods => "Detection methods",
            Theme::AttackerInfrastructure => "Attacker infrastructure & TTPs",
            Theme::Mitigation => "Mitigation & resilience",
            Theme::LawEnforcement => "Law-enforcement interventions",
            Theme::CrossDatasetSynthesis => "Cross-dataset synthesis",
        }
    }
}

/// Data-set kinds a study draws on (the taxonomy's second axis — the
/// same observatory families this workspace simulates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DataKind {
    Telescope,
    Honeypot,
    FlowData,
    ActiveScans,
    BgpControlPlane,
    BooterGroundTruth,
}

impl DataKind {
    pub const fn label(self) -> &'static str {
        match self {
            DataKind::Telescope => "telescope",
            DataKind::Honeypot => "honeypot",
            DataKind::FlowData => "flow data",
            DataKind::ActiveScans => "active scans",
            DataKind::BgpControlPlane => "BGP control plane",
            DataKind::BooterGroundTruth => "booter ground truth",
        }
    }
}

/// One study in the taxonomy.
#[derive(Debug, Clone, Serialize)]
pub struct Study {
    /// Short citation key, e.g. "Jonker17".
    pub key: &'static str,
    pub title: &'static str,
    pub year: u16,
    pub theme: Theme,
    pub data: &'static [DataKind],
    /// Paper reference number(s) in the DDoScovery bibliography.
    pub refs: &'static [u16],
}

/// The encoded taxonomy: the studies §8 discusses explicitly, placed in
/// the Fig. 11 themes. (The paper notes its own figure "is not
/// exhaustive"; neither is this — it covers every work named in §8.)
pub fn taxonomy() -> Vec<Study> {
    use DataKind::*;
    use Theme::*;
    vec![
        Study { key: "Moore06", title: "Inferring Internet Denial-of-Service Activity", year: 2006, theme: AttackCharacterization, data: &[Telescope], refs: &[107] },
        Study { key: "Jonker17", title: "Millions of Targets under Attack", year: 2017, theme: CrossDatasetSynthesis, data: &[Telescope, Honeypot, ActiveScans], refs: &[76] },
        Study { key: "Jonker18", title: "A First Joint Look at DoS Attacks and BGP Blackholing", year: 2018, theme: CrossDatasetSynthesis, data: &[Telescope, BgpControlPlane], refs: &[77] },
        Study { key: "Blenn17", title: "Quantifying the Spectrum of DoS Attacks through Backscatter", year: 2017, theme: AttackCharacterization, data: &[Telescope], refs: &[16] },
        Study { key: "Thomas17", title: "1000 Days of UDP Amplification DDoS Attacks", year: 2017, theme: AttackCharacterization, data: &[Honeypot], refs: &[167] },
        Study { key: "Kraemer15", title: "AmpPot: Monitoring and Defending Amplification DDoS", year: 2015, theme: DetectionMethods, data: &[Honeypot], refs: &[84] },
        Study { key: "Heinrich21", title: "New Kids on the DRDoS Block", year: 2021, theme: AttackCharacterization, data: &[Honeypot], refs: &[68] },
        Study { key: "Kopp21", title: "DDoS Never Dies? An IXP Perspective", year: 2021, theme: AttackCharacterization, data: &[FlowData], refs: &[82] },
        Study { key: "Kopp19", title: "DDoS Hide & Seek: Booter Takedown Effectiveness", year: 2019, theme: LawEnforcement, data: &[FlowData, BooterGroundTruth], refs: &[83] },
        Study { key: "Collier19", title: "Booting the Booters", year: 2019, theme: LawEnforcement, data: &[BooterGroundTruth], refs: &[31] },
        Study { key: "Krupp16", title: "Identifying Scan and Attack Infrastructures", year: 2016, theme: AttackerInfrastructure, data: &[Honeypot, ActiveScans], refs: &[86] },
        Study { key: "Krupp17", title: "Linking Amplification DDoS Attacks to Booter Services", year: 2017, theme: AttackerInfrastructure, data: &[Honeypot, BooterGroundTruth], refs: &[87] },
        Study { key: "Griffioen21", title: "Scan, Test, Execute: Adversarial Tactics in Amplification DDoS", year: 2021, theme: AttackerInfrastructure, data: &[Honeypot], refs: &[66] },
        Study { key: "Rossow14", title: "Amplification Hell", year: 2014, theme: AbusableProtocols, data: &[ActiveScans], refs: &[155] },
        Study { key: "Kuehrer14", title: "Exit from Hell? Reducing the Impact of Amplification DDoS", year: 2014, theme: Mitigation, data: &[ActiveScans], refs: &[90] },
        Study { key: "Bock21", title: "Weaponizing Middleboxes for TCP Reflected Amplification", year: 2021, theme: AbusableProtocols, data: &[ActiveScans], refs: &[17] },
        Study { key: "Nawrocki21a", title: "The Far Side of DNS Amplification", year: 2021, theme: AttackCharacterization, data: &[FlowData, Honeypot], refs: &[115] },
        Study { key: "Nawrocki21b", title: "Transparent Forwarders: Open DNS Infrastructure", year: 2021, theme: AbusableProtocols, data: &[ActiveScans], refs: &[116] },
        Study { key: "Nawrocki23", title: "SoK: Honeypot-based Detection of Amplification DDoS", year: 2023, theme: CrossDatasetSynthesis, data: &[Honeypot, FlowData], refs: &[117] },
        Study { key: "Nawrocki19", title: "Down the Black Hole: BGP Blackholing at IXPs", year: 2019, theme: Mitigation, data: &[BgpControlPlane, FlowData], refs: &[113] },
        Study { key: "Giotsas17", title: "Inferring BGP Blackholing Activity", year: 2017, theme: Mitigation, data: &[BgpControlPlane], refs: &[63] },
        Study { key: "Wichtlhuber22", title: "IXP Scrubber: ML-Driven DDoS Detection at Scale", year: 2022, theme: DetectionMethods, data: &[FlowData], refs: &[177] },
        Study { key: "Wagner21", title: "United We Stand: Collaborative DDoS Mitigation at Scale", year: 2021, theme: Mitigation, data: &[FlowData], refs: &[176] },
        Study { key: "Jonker16", title: "Measuring the Adoption of DDoS Protection Services", year: 2016, theme: Mitigation, data: &[ActiveScans], refs: &[78] },
        Study { key: "Moura16", title: "Anycast vs. DDoS: the Root DNS Event", year: 2016, theme: Mitigation, data: &[FlowData], refs: &[109] },
        Study { key: "Rizvi22", title: "Anycast Agility: Network Playbooks to Fight DDoS", year: 2022, theme: Mitigation, data: &[FlowData], refs: &[154] },
        Study { key: "Luckie19", title: "Network Hygiene, Incentives, and Regulation (Spoofer)", year: 2019, theme: Mitigation, data: &[ActiveScans], refs: &[96] },
        Study { key: "Krupp21", title: "BGPeek-a-Boo: Active BGP-based Traceback", year: 2021, theme: AttackerInfrastructure, data: &[BgpControlPlane, Honeypot], refs: &[88] },
        Study { key: "Moneva23", title: "Online Ad Campaigns against DDoS: a Quasi-Experiment", year: 2023, theme: LawEnforcement, data: &[BooterGroundTruth], refs: &[106] },
        Study { key: "Hiesgen22", title: "Spoki: A Reactive Network Telescope", year: 2022, theme: AttackerInfrastructure, data: &[Telescope], refs: &[69] },
        Study { key: "Samra23", title: "DDoS2Vec: Flow-level Characterisation of Volumetric DDoS", year: 2023, theme: DetectionMethods, data: &[FlowData], refs: &[157] },
        Study { key: "Nawrocki21c", title: "QUICsand: QUIC Reconnaissance and DoS Flooding", year: 2021, theme: AbusableProtocols, data: &[Telescope], refs: &[114] },
        Study { key: "Hiesgen24", title: "The Age of DDoScovery (this paper)", year: 2024, theme: CrossDatasetSynthesis, data: &[Telescope, Honeypot, FlowData], refs: &[] },
    ]
}

/// Render the taxonomy as an indented text mindmap (the Fig.-11 shape).
pub fn render_mindmap() -> String {
    let studies = taxonomy();
    let mut out = String::from("DDoS literature taxonomy (paper §8 / Appendix C)\n");
    for theme in Theme::ALL {
        let in_theme: Vec<&Study> = studies.iter().filter(|s| s.theme == theme).collect();
        if in_theme.is_empty() {
            continue;
        }
        out.push_str(&format!("├─ {} ({})\n", theme.label(), in_theme.len()));
        for s in in_theme {
            let data: Vec<&str> = s.data.iter().map(|d| d.label()).collect();
            out.push_str(&format!(
                "│   ├─ [{}] {} ({}) — {}\n",
                s.key,
                s.title,
                s.year,
                data.join(" + ")
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_unique() {
        let studies = taxonomy();
        let mut keys: Vec<&str> = studies.iter().map(|s| s.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), studies.len());
    }

    #[test]
    fn every_theme_populated() {
        let studies = taxonomy();
        for theme in Theme::ALL {
            assert!(
                studies.iter().any(|s| s.theme == theme),
                "{} empty",
                theme.label()
            );
        }
    }

    #[test]
    fn every_study_names_data() {
        for s in taxonomy() {
            assert!(!s.data.is_empty(), "{} has no data kinds", s.key);
            assert!((2004..=2024).contains(&s.year), "{} year {}", s.key, s.year);
        }
    }

    #[test]
    fn cross_dataset_synthesis_is_rare() {
        // The paper's motivating observation (§8 "Open challenge"): few
        // studies cross data-set boundaries.
        let studies = taxonomy();
        let synth = studies
            .iter()
            .filter(|s| s.theme == Theme::CrossDatasetSynthesis)
            .count();
        assert!(synth * 4 < studies.len(), "{synth} of {}", studies.len());
        // And every synthesis study uses at least two data kinds.
        for s in studies.iter().filter(|s| s.theme == Theme::CrossDatasetSynthesis) {
            assert!(s.data.len() >= 2, "{} uses a single data kind", s.key);
        }
    }

    #[test]
    fn mindmap_renders_every_study() {
        let md = render_mindmap();
        for s in taxonomy() {
            assert!(md.contains(s.key), "{} missing from mindmap", s.key);
        }
        for theme in Theme::ALL {
            assert!(md.contains(theme.label()));
        }
    }
}
