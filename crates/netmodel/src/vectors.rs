//! Reflection-amplification protocol vectors.
//!
//! The paper's observatories disagree partly because platforms support
//! different protocol vectors (§7.3: "AmpPot observed more targets
//! attacked via CHARGEN while Hopscotch saw more targets attacked via
//! CLDAP"). We model the common UDP vectors — service port, response
//! size and reflector-pool share — after Rossow's "Amplification Hell"
//! (NDSS 2014) and the later industry disclosures cited by the paper.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A UDP reflection-amplification vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AmpVector {
    Dns,
    Ntp,
    Cldap,
    Ssdp,
    CharGen,
    Qotd,
    Rpc,
    Memcached,
    Snmp,
    NetBios,
    WsDiscovery,
}

impl AmpVector {
    /// All modeled vectors.
    pub const ALL: [AmpVector; 11] = [
        AmpVector::Dns,
        AmpVector::Ntp,
        AmpVector::Cldap,
        AmpVector::Ssdp,
        AmpVector::CharGen,
        AmpVector::Qotd,
        AmpVector::Rpc,
        AmpVector::Memcached,
        AmpVector::Snmp,
        AmpVector::NetBios,
        AmpVector::WsDiscovery,
    ];

    /// Well-known UDP source port of reflected responses. The IXP
    /// blackholing classifier keys on this (Table 2: "UDP, ampl. src
    /// port").
    pub const fn src_port(self) -> u16 {
        match self {
            AmpVector::Dns => 53,
            AmpVector::Ntp => 123,
            AmpVector::Cldap => 389,
            AmpVector::Ssdp => 1900,
            AmpVector::CharGen => 19,
            AmpVector::Qotd => 17,
            AmpVector::Rpc => 111,
            AmpVector::Memcached => 11211,
            AmpVector::Snmp => 161,
            AmpVector::NetBios => 137,
            AmpVector::WsDiscovery => 3702,
        }
    }

    /// Typical reflected response size in bytes (used to convert packet
    /// rates to bit rates).
    pub const fn response_bytes(self) -> u32 {
        match self {
            AmpVector::Dns => 3000,
            AmpVector::Ntp => 440,
            AmpVector::Cldap => 1500,
            AmpVector::Ssdp => 320,
            AmpVector::CharGen => 1024,
            AmpVector::Qotd => 500,
            AmpVector::Rpc => 400,
            AmpVector::Memcached => 1400,
            AmpVector::Snmp => 500,
            AmpVector::NetBios => 300,
            AmpVector::WsDiscovery => 800,
        }
    }

    /// Approximate relative size of the open-reflector population for
    /// this vector (arbitrary units; DNS open resolvers dominate).
    /// Scaled by the plan builder into absolute pool sizes.
    pub const fn reflector_pool_share(self) -> f64 {
        match self {
            AmpVector::Dns => 0.50,
            AmpVector::Ntp => 0.12,
            AmpVector::Cldap => 0.04,
            AmpVector::Ssdp => 0.14,
            AmpVector::CharGen => 0.02,
            AmpVector::Qotd => 0.01,
            AmpVector::Rpc => 0.05,
            AmpVector::Memcached => 0.005,
            AmpVector::Snmp => 0.06,
            AmpVector::NetBios => 0.04,
            AmpVector::WsDiscovery => 0.015,
        }
    }

    /// Short lowercase label used in CSV output.
    pub const fn label(self) -> &'static str {
        match self {
            AmpVector::Dns => "dns",
            AmpVector::Ntp => "ntp",
            AmpVector::Cldap => "cldap",
            AmpVector::Ssdp => "ssdp",
            AmpVector::CharGen => "chargen",
            AmpVector::Qotd => "qotd",
            AmpVector::Rpc => "rpc",
            AmpVector::Memcached => "memcached",
            AmpVector::Snmp => "snmp",
            AmpVector::NetBios => "netbios",
            AmpVector::WsDiscovery => "wsdiscovery",
        }
    }
}

impl fmt::Display for AmpVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Transport protocol of attack traffic as seen on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Transport {
    Tcp,
    Udp,
    Icmp,
}

impl Transport {
    /// IANA protocol number (used as part of the Corsaro flow key,
    /// Appendix J: "the protocol selects a hashmap").
    pub const fn protocol_number(self) -> u8 {
        match self {
            Transport::Icmp => 1,
            Transport::Tcp => 6,
            Transport::Udp => 17,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_vectors_have_unique_ports() {
        let mut ports: Vec<u16> = AmpVector::ALL.iter().map(|v| v.src_port()).collect();
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), AmpVector::ALL.len());
    }

    #[test]
    fn pool_shares_sum_to_about_one() {
        let total: f64 = AmpVector::ALL.iter().map(|v| v.reflector_pool_share()).sum();
        assert!((total - 1.0).abs() < 0.05, "total {total}");
    }

    #[test]
    fn protocol_numbers() {
        assert_eq!(Transport::Tcp.protocol_number(), 6);
        assert_eq!(Transport::Udp.protocol_number(), 17);
        assert_eq!(Transport::Icmp.protocol_number(), 1);
    }

    #[test]
    fn labels_unique_and_lowercase() {
        let mut labels: Vec<&str> = AmpVector::ALL.iter().map(|v| v.label()).collect();
        assert!(labels.iter().all(|l| l.chars().all(|c| c.is_ascii_lowercase())));
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), AmpVector::ALL.len());
    }

    #[test]
    fn well_known_ports() {
        assert_eq!(AmpVector::Dns.src_port(), 53);
        assert_eq!(AmpVector::Ntp.src_port(), 123);
        assert_eq!(AmpVector::Memcached.src_port(), 11211);
    }
}
