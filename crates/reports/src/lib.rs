//! `reports` — the industry-report knowledge base and synthesis layer.
//!
//! [`corpus`] encodes the paper's 24-report survey (§3, Table 3) as
//! structured claims; [`synthesize`] regenerates vendor-report-style
//! year-over-year summaries from simulated observatory series, closing
//! the loop for the Table-1 comparison.

pub mod corpus;
pub mod render;
pub mod synthesize;
pub mod taxonomy;

pub use corpus::{corpus, IndustryReport, Metric, ReportFormat, TrendClaim, Vendor};
pub use render::knowledge_base_markdown;
pub use taxonomy::{render_mindmap, taxonomy, DataKind, Study, Theme};
pub use synthesize::{period_sensitivity, synthesize, yearly_total, yoy_change, SynthReport};

/// Table-1 industry column: (increases, decreases) per attack class
/// across the surveyed reports.
pub fn table1_industry_counts() -> ((usize, usize), (usize, usize)) {
    let c = corpus();
    let dp = (
        c.iter().filter(|r| r.direct_path.is_increase()).count(),
        c.iter().filter(|r| r.direct_path.is_decrease()).count(),
    );
    let ra = (
        c.iter()
            .filter(|r| r.reflection_amplification.is_increase())
            .count(),
        c.iter()
            .filter(|r| r.reflection_amplification.is_decrease())
            .count(),
    );
    (dp, ra)
}

#[cfg(test)]
mod tests {
    #[test]
    fn table1_counts_match_paper() {
        let ((dp_inc, dp_dec), (ra_inc, ra_dec)) = super::table1_industry_counts();
        assert_eq!((dp_inc, dp_dec), (5, 0));
        assert_eq!((ra_inc, ra_dec), (2, 3));
    }
}
