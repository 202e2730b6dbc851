//! IPv4 addresses and CIDR prefixes.
//!
//! A thin, copyable representation (`u32` under the hood) tuned for the
//! simulation: billions of address comparisons and prefix matches happen
//! during a study run, so everything here is branch-light and allocation
//! free.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// An IPv4 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Ipv4(pub u32);

impl Ipv4 {
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    pub const fn octets(self) -> [u8; 4] {
        [
            (self.0 >> 24) as u8,
            (self.0 >> 16) as u8,
            (self.0 >> 8) as u8,
            self.0 as u8,
        ]
    }

    /// Saturating add — used when walking address blocks.
    pub const fn saturating_add(self, n: u32) -> Self {
        Ipv4(self.0.saturating_add(n))
    }
}

impl fmt::Display for Ipv4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

/// Error for address / prefix parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

impl FromStr for Ipv4 {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split('.');
        let mut octets = [0u8; 4];
        for o in &mut octets {
            let p = parts
                .next()
                .ok_or_else(|| ParseError(format!("too few octets in {s:?}")))?;
            *o = p
                .parse::<u8>()
                .map_err(|_| ParseError(format!("bad octet {p:?} in {s:?}")))?;
        }
        if parts.next().is_some() {
            return Err(ParseError(format!("too many octets in {s:?}")));
        }
        Ok(Ipv4::new(octets[0], octets[1], octets[2], octets[3]))
    }
}

/// A CIDR prefix. Invariant: host bits of `base` are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Prefix {
    base: u32,
    len: u8,
}

#[allow(clippy::len_without_is_empty)] // len() is the prefix bit-length, not a container size
impl Prefix {
    /// Build a prefix, zeroing any host bits in `addr`.
    pub const fn new(addr: Ipv4, len: u8) -> Self {
        assert!(len <= 32);
        let base = addr.0 & Self::mask_for(len);
        Prefix { base, len }
    }

    /// The network mask for a prefix length.
    pub const fn mask_for(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    pub const fn base(self) -> Ipv4 {
        Ipv4(self.base)
    }

    pub const fn len(self) -> u8 {
        self.len
    }

    /// Number of addresses covered (as u64 so /0 fits).
    pub const fn size(self) -> u64 {
        1u64 << (32 - self.len)
    }

    /// Last address inside the prefix.
    pub const fn last(self) -> Ipv4 {
        Ipv4(self.base | !Self::mask_for(self.len))
    }

    /// Does this prefix contain the address?
    #[inline]
    pub const fn contains(self, ip: Ipv4) -> bool {
        ip.0 & Self::mask_for(self.len) == self.base
    }

    /// Does this prefix fully cover `other`?
    pub const fn covers(self, other: Prefix) -> bool {
        self.len <= other.len && self.contains(Ipv4(other.base))
    }

    /// Do the two prefixes share any address?
    pub const fn overlaps(self, other: Prefix) -> bool {
        self.covers(other) || other.covers(self)
    }

    /// The `i`-th address inside the prefix. Panics if out of range.
    pub fn nth(self, i: u64) -> Ipv4 {
        assert!(i < self.size(), "index {i} out of /{} prefix", self.len);
        Ipv4(self.base + i as u32)
    }

    /// Split into the two child prefixes of length `len + 1`.
    /// Returns `None` for a /32.
    pub const fn split(self) -> Option<(Prefix, Prefix)> {
        if self.len >= 32 {
            return None;
        }
        let child_len = self.len + 1;
        let left = Prefix {
            base: self.base,
            len: child_len,
        };
        let right = Prefix {
            base: self.base | (1u32 << (32 - child_len)),
            len: child_len,
        };
        Some((left, right))
    }

    /// The parent prefix one bit shorter. Returns `None` for /0.
    pub const fn parent(self) -> Option<Prefix> {
        if self.len == 0 {
            return None;
        }
        let len = self.len - 1;
        Some(Prefix {
            base: self.base & Self::mask_for(len),
            len,
        })
    }

    /// Iterate over all sub-prefixes of the given (longer) length.
    pub fn subnets(self, len: u8) -> impl Iterator<Item = Prefix> {
        assert!(len >= self.len && len <= 32);
        let count = 1u64 << (len - self.len);
        let step = 1u64 << (32 - len);
        let base = self.base;
        (0..count).map(move |i| Prefix {
            base: base + (i * step) as u32,
            len,
        })
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.base(), self.len)
    }
}

impl FromStr for Prefix {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| ParseError(format!("missing '/' in {s:?}")))?;
        let addr: Ipv4 = addr.parse()?;
        let len: u8 = len
            .parse()
            .map_err(|_| ParseError(format!("bad prefix length in {s:?}")))?;
        if len > 32 {
            return Err(ParseError(format!("prefix length {len} > 32")));
        }
        Ok(Prefix::new(addr, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_roundtrip() {
        let ip: Ipv4 = "192.168.1.77".parse().unwrap();
        assert_eq!(ip.to_string(), "192.168.1.77");
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        assert_eq!(p.to_string(), "10.0.0.0/8");
    }

    #[test]
    fn parse_errors() {
        assert!("1.2.3".parse::<Ipv4>().is_err());
        assert!("1.2.3.4.5".parse::<Ipv4>().is_err());
        assert!("1.2.3.999".parse::<Ipv4>().is_err());
        assert!("10.0.0.0".parse::<Prefix>().is_err());
        assert!("10.0.0.0/33".parse::<Prefix>().is_err());
        assert!("10.0.0.0/x".parse::<Prefix>().is_err());
    }

    #[test]
    fn new_zeroes_host_bits() {
        let p = Prefix::new(Ipv4::new(10, 1, 2, 3), 16);
        assert_eq!(p.base(), Ipv4::new(10, 1, 0, 0));
        assert_eq!(p.to_string(), "10.1.0.0/16");
    }

    #[test]
    fn size_and_last() {
        let p: Prefix = "10.0.0.0/24".parse().unwrap();
        assert_eq!(p.size(), 256);
        assert_eq!(p.last(), Ipv4::new(10, 0, 0, 255));
        let slash0: Prefix = "0.0.0.0/0".parse().unwrap();
        assert_eq!(slash0.size(), 1u64 << 32);
        let host: Prefix = "1.2.3.4/32".parse().unwrap();
        assert_eq!(host.size(), 1);
        assert_eq!(host.last(), Ipv4::new(1, 2, 3, 4));
    }

    #[test]
    fn contains_boundaries() {
        let p: Prefix = "10.1.0.0/16".parse().unwrap();
        assert!(p.contains(Ipv4::new(10, 1, 0, 0)));
        assert!(p.contains(Ipv4::new(10, 1, 255, 255)));
        assert!(!p.contains(Ipv4::new(10, 2, 0, 0)));
        assert!(!p.contains(Ipv4::new(10, 0, 255, 255)));
    }

    #[test]
    fn covers_and_overlaps() {
        let big: Prefix = "10.0.0.0/8".parse().unwrap();
        let small: Prefix = "10.5.0.0/16".parse().unwrap();
        let other: Prefix = "11.0.0.0/8".parse().unwrap();
        assert!(big.covers(small));
        assert!(!small.covers(big));
        assert!(big.overlaps(small));
        assert!(small.overlaps(big));
        assert!(!big.overlaps(other));
        assert!(big.covers(big));
    }

    #[test]
    fn nth_addresses() {
        let p: Prefix = "10.0.0.0/30".parse().unwrap();
        assert_eq!(p.nth(0), Ipv4::new(10, 0, 0, 0));
        assert_eq!(p.nth(3), Ipv4::new(10, 0, 0, 3));
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn nth_out_of_range() {
        let p: Prefix = "10.0.0.0/30".parse().unwrap();
        p.nth(4);
    }

    #[test]
    fn split_and_parent() {
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        let (l, r) = p.split().unwrap();
        assert_eq!(l.to_string(), "10.0.0.0/9");
        assert_eq!(r.to_string(), "10.128.0.0/9");
        assert_eq!(l.parent().unwrap(), p);
        assert_eq!(r.parent().unwrap(), p);
        let host: Prefix = "1.2.3.4/32".parse().unwrap();
        assert!(host.split().is_none());
        let root: Prefix = "0.0.0.0/0".parse().unwrap();
        assert!(root.parent().is_none());
    }

    #[test]
    fn subnets_enumeration() {
        let p: Prefix = "10.0.0.0/22".parse().unwrap();
        let subs: Vec<Prefix> = p.subnets(24).collect();
        assert_eq!(subs.len(), 4);
        assert_eq!(subs[0].to_string(), "10.0.0.0/24");
        assert_eq!(subs[3].to_string(), "10.0.3.0/24");
        assert!(subs.iter().all(|s| p.covers(*s)));
    }

    #[test]
    fn mask_edge_cases() {
        assert_eq!(Prefix::mask_for(0), 0);
        assert_eq!(Prefix::mask_for(32), u32::MAX);
        assert_eq!(Prefix::mask_for(8), 0xFF00_0000);
    }

    #[test]
    fn ordering_is_by_base_then_len() {
        let a: Prefix = "10.0.0.0/8".parse().unwrap();
        let b: Prefix = "10.0.0.0/9".parse().unwrap();
        let c: Prefix = "11.0.0.0/8".parse().unwrap();
        assert!(a < b);
        assert!(b < c);
    }
}
