//! `ddoscovery` — orchestration layer of the reproduction: study
//! configuration, the end-to-end pipeline, and the experiment registry
//! that regenerates every table and figure of the paper.

pub mod diskstore;
pub mod error;
pub mod experiments;
pub mod faults;
pub mod pipeline;
pub mod render;
pub mod scenario;
pub mod service;
pub mod stagecache;
pub mod sweep;

pub use diskstore::DiskStore;
pub use error::{Error, Result};
pub use experiments::{all_ids, run_all, run_experiment, ExperimentResult};
pub use faults::{ChaosPlan, ChurnSpec, FaultPlan, OutageSpec};
pub use pipeline::{ObsId, StudyRun};
pub use scenario::StudyConfig;
pub use service::StudyService;
pub use stagecache::{StageCache, StageFingerprints};
pub use sweep::{SweepOutcome, SweepReport, SweepSkip};
