//! The attack event model: ids, classes and vectors.
//!
//! One [`AttackRef`](crate::columns::AttackRef) row is the ground-truth
//! record of a single DDoS event in the simulation — what an omniscient
//! observer would log. The generator writes each row once into
//! [`AttackColumns`](crate::columns::AttackColumns), and every reader
//! borrows it back as a view. Each observatory then sees (or misses) a
//! distorted slice of it, which is exactly the phenomenon the paper
//! studies (§4: "different detection approaches, and even the same
//! approach using different parameters and vantage points, will yield
//! different inferences").

use netmodel::{AmpVector, Transport};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Unique attack identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AttackId(pub u64);

/// The two attack classes the paper compares (§2.1), with direct-path
/// split by spoofing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttackClass {
    /// Direct path with randomly spoofed sources (RSDoS). Produces
    /// backscatter that network telescopes observe.
    DirectPathSpoofed,
    /// Direct path without spoofing (state exhaustion, L7 floods).
    /// Invisible to telescopes and honeypots.
    DirectPathNonSpoofed,
    /// Reflection-amplification via open reflectors. Honeypots observe
    /// these when selected as reflectors.
    ReflectionAmplification,
}

impl AttackClass {
    /// Direct-path (of either spoofing flavor)?
    pub const fn is_direct_path(self) -> bool {
        matches!(
            self,
            AttackClass::DirectPathSpoofed | AttackClass::DirectPathNonSpoofed
        )
    }

    pub const fn is_reflection(self) -> bool {
        matches!(self, AttackClass::ReflectionAmplification)
    }

    pub const fn label(self) -> &'static str {
        match self {
            AttackClass::DirectPathSpoofed => "dp-spoofed",
            AttackClass::DirectPathNonSpoofed => "dp-nonspoofed",
            AttackClass::ReflectionAmplification => "reflection-amplification",
        }
    }
}

/// Concrete attack vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttackVector {
    /// TCP SYN flood (direct path; spoofed or not).
    SynFlood,
    /// Generic UDP flood (direct path).
    UdpFlood,
    /// ICMP flood (direct path).
    IcmpFlood,
    /// Application-layer flood over established connections
    /// (direct path, never spoofed — several vendors reported L7 growth,
    /// §3).
    HttpFlood,
    /// Reflection-amplification via the given protocol.
    Amplification(AmpVector),
}

impl AttackVector {
    /// Transport protocol of the traffic arriving at the victim.
    pub const fn transport(self) -> Transport {
        match self {
            AttackVector::SynFlood | AttackVector::HttpFlood => Transport::Tcp,
            AttackVector::UdpFlood => Transport::Udp,
            AttackVector::IcmpFlood => Transport::Icmp,
            AttackVector::Amplification(_) => Transport::Udp,
        }
    }

    pub const fn amp_vector(self) -> Option<AmpVector> {
        match self {
            AttackVector::Amplification(v) => Some(v),
            _ => None,
        }
    }

    /// Label for CSV/report output. Always borrowed: the four
    /// direct-path names are literals and the eleven `amp-*` names are
    /// pre-joined statics, so per-record rendering loops no longer
    /// allocate a fresh `String` per call.
    pub const fn label(self) -> Cow<'static, str> {
        Cow::Borrowed(match self {
            AttackVector::SynFlood => "syn-flood",
            AttackVector::UdpFlood => "udp-flood",
            AttackVector::IcmpFlood => "icmp-flood",
            AttackVector::HttpFlood => "http-flood",
            AttackVector::Amplification(v) => match v {
                AmpVector::Dns => "amp-dns",
                AmpVector::Ntp => "amp-ntp",
                AmpVector::Cldap => "amp-cldap",
                AmpVector::Ssdp => "amp-ssdp",
                AmpVector::CharGen => "amp-chargen",
                AmpVector::Qotd => "amp-qotd",
                AmpVector::Rpc => "amp-rpc",
                AmpVector::Memcached => "amp-memcached",
                AmpVector::Snmp => "amp-snmp",
                AmpVector::NetBios => "amp-netbios",
                AmpVector::WsDiscovery => "amp-wsdiscovery",
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::AmpVector;

    #[test]
    fn class_predicates() {
        assert!(AttackClass::DirectPathSpoofed.is_direct_path());
        assert!(AttackClass::DirectPathNonSpoofed.is_direct_path());
        assert!(!AttackClass::ReflectionAmplification.is_direct_path());
        assert!(AttackClass::ReflectionAmplification.is_reflection());
        assert!(!AttackClass::DirectPathSpoofed.is_reflection());
    }

    #[test]
    fn vector_transport_mapping() {
        assert_eq!(AttackVector::SynFlood.transport(), Transport::Tcp);
        assert_eq!(AttackVector::UdpFlood.transport(), Transport::Udp);
        assert_eq!(AttackVector::IcmpFlood.transport(), Transport::Icmp);
        assert_eq!(
            AttackVector::Amplification(AmpVector::Dns).transport(),
            Transport::Udp
        );
    }

    #[test]
    fn amp_vector_extraction() {
        assert_eq!(
            AttackVector::Amplification(AmpVector::Cldap).amp_vector(),
            Some(AmpVector::Cldap)
        );
        assert_eq!(AttackVector::SynFlood.amp_vector(), None);
    }

    #[test]
    fn labels() {
        assert_eq!(AttackClass::DirectPathSpoofed.label(), "dp-spoofed");
        assert_eq!(AttackVector::SynFlood.label(), "syn-flood");
        assert_eq!(
            AttackVector::Amplification(AmpVector::Ssdp).label(),
            "amp-ssdp"
        );
        // The static amp labels must stay consistent with the AmpVector
        // labels they were pre-joined from, and never allocate.
        for v in AmpVector::ALL {
            let label = AttackVector::Amplification(v).label();
            assert_eq!(label, format!("amp-{}", v.label()));
            assert!(matches!(label, Cow::Borrowed(_)));
        }
    }
}
