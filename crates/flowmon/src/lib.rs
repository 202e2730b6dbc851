//! `flowmon` — on-path flow-monitoring observatories: IXP blackholing,
//! Netscout Atlas, and Akamai Prolexic.
//!
//! These are the industry vantage points of the paper (§2.2 ♞, §5).
//! Each model is a coverage filter (who can see the attack at all)
//! composed with the platform's detection thresholds (Table 2 for the
//! IXP; severity floors for the mitigation providers).

pub mod akamai;
pub mod ixp;
pub mod mitigation;
pub mod netscout;
pub mod rtbh;

pub use akamai::{Akamai, AkamaiConfig};
pub use mitigation::MitigationParams;
pub use ixp::{classify_blackholed_traffic, IxpBlackholing, IxpConfig, IxpDetection};
pub use rtbh::{accepted_by_ixp, blackhole_events, rtbh_stats, BlackholeEvent, RtbhParams, RtbhStats};
pub use netscout::{split_by_class_columns, AlertColumns, Netscout, NetscoutConfig, Severity};
