//! `telescope` — network-telescope observatories (UCSD-NT, ORION) with
//! the Corsaro RSDoS detector.
//!
//! Two fidelities over the same Appendix-J parameters:
//! [`corsaro::RsdosDetector`] consumes packet streams (used for
//! validation), [`event::Telescope`] computes per-attack verdicts
//! analytically (used for the 4.5-year macro study).

pub mod corsaro;
pub mod event;

pub use corsaro::{min_detectable_rate_mbps, FlowKey, RsdosAttack, RsdosConfig, RsdosDetector};
pub use event::Telescope;
