//! `attackgen` — the ground-truth DDoS attack generator.
//!
//! Produces the attack population the paper's observatories each see a
//! slice of: attack records ([`attack`]), macro trend dynamics
//! ([`timeline`]), per-attack property distributions ([`shape`]),
//! correlated campaign bursts ([`campaigns`]), the generator proper
//! ([`generator`]) and packet-level synthesis for detector validation
//! ([`packets`]).

pub mod attack;
pub mod booters;
pub mod campaigns;
pub mod columns;
pub mod generator;
pub mod packets;
pub mod sav;
pub mod shape;
pub mod timeline;
pub mod wire;

pub use attack::{Attack, AttackClass, AttackId, AttackVector, ReflectorUse};
pub use booters::{Booter, BooterMarket, BooterMarketParams};
pub use campaigns::{Campaign, CampaignScope};
pub use columns::{AttackColumns, AttackRef, ObservationColumns, ObservedRef};
pub use generator::{AttackGenerator, GenConfig};
pub use packets::PacketEvent;
pub use sav::{SavModel, SavParams, SpooferEstimate, SpooferPanel};
pub use shape::ShapeParams;
pub use timeline::TimelineParams;
