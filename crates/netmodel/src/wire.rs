//! Compact hand-rolled binary encoding for stage outputs (DESIGN.md
//! §11).
//!
//! The persistent stage store serializes whole stage outputs —
//! [`InternetPlan`] here, the columnar attack/observation streams in
//! `attackgen`, the Netscout alerts in `flowmon` and the honeypot
//! detections in `honeypot` — to disk cells. JSON is 10–20× larger and
//! dominated by float formatting; the wire format instead writes
//! fixed-width little-endian scalars with `u64` length prefixes for
//! sequences, and decoding never allocates more than the final
//! structures.
//!
//! Every column of those cells is a **lane**: a `u64` row count, then
//! one little-endian value per row, 1, 4 or 8 bytes wide. This module
//! owns that format, with one encode/decode pair per width —
//! [`put_u8s`]/[`get_u8s`] (one-byte tags, fallible on decode),
//! [`put_u32s`]/[`get_u32s`] and [`put_u64s`]/[`get_u64s`]. Each pair
//! takes the map between an element and its raw value (`class_tag`,
//! `Ipv4`, `f64::to_bits`, `|v| v as i64`, …). Encoding writes each
//! row's value in turn; decoding bounds-checks the whole lane once.
//!
//! A codec encodes into a [`Writer`], which sends its bytes to one of
//! three sinks: memory ([`to_bytes`]), a counter ([`wire_len`]), or a
//! closure that receives them in chunks of at most [`CHUNK`] bytes
//! ([`Writer::stream`]), which is how the stage store writes a cell
//! without holding its payload. A lane is always `8 + width·n` bytes,
//! so counting skips its rows: the length of a whole attack cell costs
//! a few arithmetic steps. A nested payload ([`Writer::nested`]) is
//! counted first, to write its length prefix, then encoded.
//!
//! **Determinism contract:** encoding is a pure function of the value.
//! The two `HashSet<Asn>` coverage scopes are serialized *sorted* so
//! the same plan always produces the same bytes (the store's checksum
//! and any byte-level comparison rely on this); product code only
//! membership-tests those sets, so the rebuilt iteration order is
//! irrelevant.
//!
//! Decoding is fail-safe, never panicking on truncated or corrupt
//! input: every read is bounds-checked and returns `Err(String)`. The
//! disk store additionally guards payloads with an FNV-1a checksum, so
//! decode errors indicate a version/logic mismatch rather than media
//! corruption — both are rejected upstream the same way.

use crate::asdb::{AsKind, AsRecord, AsRegistry, Asn};
use crate::ip::{Ipv4, Prefix};
use crate::plan::{Allocation, HoneypotPlan, InternetPlan, Rir, TelescopePlan};
use crate::trie::PrefixTable;
use crate::vectors::AmpVector;
use std::collections::{BTreeMap, HashSet};
use std::io;

/// Bytes a counting or streaming [`Writer`] buffers before it hands
/// them on: 64 KiB, a whole number of rows of every lane width.
pub const CHUNK: usize = 64 * 1024;

/// Where a [`Writer`]'s bytes go.
enum Sink<'s> {
    /// Kept, for [`Writer::into_bytes`].
    Memory,
    /// Counted and dropped.
    Count,
    /// Handed to the closure, in order, at most [`CHUNK`] bytes a call.
    Stream(&'s mut dyn FnMut(&[u8]) -> io::Result<()>),
}

/// Byte sink for the wire format: fixed-width little-endian scalars,
/// `u64` length prefixes. Encoding is infallible; a streaming sink's
/// first error is kept, later bytes are only counted, and
/// [`Writer::finish`] returns it.
pub struct Writer<'s> {
    buf: Vec<u8>,
    sink: Sink<'s>,
    /// Bytes already handed on (or counted).
    flushed: u64,
    /// The first error the stream sink returned.
    error: Option<io::Error>,
}

impl Default for Writer<'_> {
    fn default() -> Self {
        Writer::new()
    }
}

impl<'s> Writer<'s> {
    /// A writer that keeps its bytes in memory.
    pub fn new() -> Writer<'s> {
        Writer::with_capacity(0)
    }

    fn with_capacity(bytes: usize) -> Writer<'s> {
        Writer { buf: Vec::with_capacity(bytes), sink: Sink::Memory, flushed: 0, error: None }
    }

    /// A writer that only counts its bytes.
    fn counting() -> Writer<'s> {
        Writer { sink: Sink::Count, ..Writer::with_capacity(CHUNK) }
    }

    /// A writer that hands its bytes to `sink`, in order, in chunks of
    /// at most [`CHUNK`] bytes. Call [`Writer::finish`] to send the
    /// last chunk.
    pub fn stream(sink: &'s mut dyn FnMut(&[u8]) -> io::Result<()>) -> Writer<'s> {
        Writer { sink: Sink::Stream(sink), ..Writer::with_capacity(CHUNK) }
    }

    /// The bytes of a memory writer.
    pub fn into_bytes(self) -> Vec<u8> {
        debug_assert!(matches!(self.sink, Sink::Memory), "into_bytes needs a memory writer");
        self.buf
    }

    /// Bytes written so far.
    fn len(&self) -> u64 {
        self.flushed + self.buf.len() as u64
    }

    /// Hand the buffered bytes on; returns the total written, or the
    /// first error of a stream sink.
    pub fn finish(mut self) -> io::Result<u64> {
        self.flush();
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.flushed),
        }
    }

    fn flush(&mut self) {
        if let (Sink::Stream(sink), None) = (&mut self.sink, &self.error) {
            if let Err(e) = sink(&self.buf) {
                self.error = Some(e);
            }
        }
        self.flushed += self.buf.len() as u64;
        self.buf.clear();
    }

    /// Make room for `n` more bytes: a counting or stream writer first
    /// hands on what its chunk cannot take.
    #[inline]
    fn reserve(&mut self, n: usize) {
        if !matches!(self.sink, Sink::Memory) && self.buf.len() + n > CHUNK {
            self.flush();
        }
        self.buf.reserve(n);
    }

    #[inline]
    fn put<const N: usize>(&mut self, bytes: [u8; N]) -> &mut Writer<'s> {
        self.reserve(N);
        self.buf.extend_from_slice(&bytes);
        self
    }

    #[inline]
    pub fn u8(&mut self, v: u8) -> &mut Writer<'s> {
        self.put([v])
    }

    #[inline]
    pub fn u32(&mut self, v: u32) -> &mut Writer<'s> {
        self.put(v.to_le_bytes())
    }

    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Writer<'s> {
        self.put(v.to_le_bytes())
    }

    /// Bit-exact float transport (`to_bits`), so a decoded value is
    /// byte-identical to the encoded one even for non-canonical NaNs.
    pub fn f64(&mut self, v: f64) -> &mut Writer<'s> {
        self.u64(v.to_bits())
    }

    /// Length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Writer<'s> {
        self.u64(v.len() as u64);
        for piece in v.chunks(CHUNK) {
            self.reserve(piece.len());
            self.buf.extend_from_slice(piece);
        }
        self
    }

    pub fn str(&mut self, v: &str) -> &mut Writer<'s> {
        self.bytes(v.as_bytes())
    }

    /// A nested payload, length-prefixed like [`Writer::bytes`] (the
    /// mirror of [`Reader::bytes`]): `encode` runs once to count the
    /// prefix, then once into this writer.
    pub fn nested(&mut self, encode: impl Fn(&mut Writer<'_>)) -> &mut Writer<'s> {
        self.u64(wire_len(&encode));
        encode(self);
        self
    }

    /// One lane: the row count, then `raw(v)` for each row. A counting
    /// writer adds the lane's size without visiting its rows.
    #[inline]
    fn lane<T: Copy, const N: usize>(&mut self, lane: &[T], raw: impl Fn(T) -> [u8; N]) {
        self.u64(lane.len() as u64);
        if matches!(self.sink, Sink::Count) {
            self.flushed += (N * lane.len()) as u64;
            return;
        }
        for rows in lane.chunks(CHUNK / N) {
            self.reserve(N * rows.len());
            for &v in rows {
                self.buf.extend_from_slice(&raw(v));
            }
        }
    }
}

/// The bytes `encode` writes, in one buffer of exactly their size.
pub fn to_bytes(encode: impl Fn(&mut Writer<'_>)) -> Vec<u8> {
    let mut w = Writer::with_capacity(wire_len(&encode) as usize);
    encode(&mut w);
    w.into_bytes()
}

/// How many bytes `encode` writes, counted without keeping them.
pub fn wire_len(encode: impl FnOnce(&mut Writer<'_>)) -> u64 {
    let mut w = Writer::counting();
    encode(&mut w);
    w.len()
}

/// Bounds-checked cursor over an encoded payload. Every read returns
/// `Err` on truncation instead of panicking.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Wire decode errors are plain strings: the store logs and rejects,
/// nothing programmatic branches on the variant.
pub type WireResult<T> = std::result::Result<T, String>;

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| {
                format!("truncated: need {n} bytes at offset {}, have {}", self.pos, self.buf.len())
            })?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    pub fn u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> WireResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64(&mut self) -> WireResult<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    pub fn f64(&mut self) -> WireResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A length prefix that is also plausibly a sequence count: bounded
    /// by the bytes remaining, so corrupt counts fail fast instead of
    /// attempting absurd allocations.
    pub fn count(&mut self, min_item_bytes: usize) -> WireResult<usize> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        let fits = min_item_bytes == 0
            || n.checked_mul(min_item_bytes as u64).is_some_and(|need| need <= remaining);
        if !fits {
            return Err(format!("implausible count {n} with {remaining} bytes remaining"));
        }
        Ok(n as usize)
    }

    /// A borrowed length-prefixed byte string, the mirror of
    /// [`Writer::bytes`] (nested payloads, strings).
    pub fn bytes(&mut self) -> WireResult<&'a [u8]> {
        let n = self.count(1)?;
        self.take(n)
    }

    pub fn str(&mut self) -> WireResult<String> {
        String::from_utf8(self.bytes()?.to_vec()).map_err(|_| "invalid UTF-8 string".to_string())
    }

    /// Everything consumed?
    pub fn finish(&self) -> WireResult<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes after decode", self.buf.len() - self.pos))
        }
    }
}

// ---------------------------------------------------------------------
// Shared primitive codecs.
// ---------------------------------------------------------------------

pub fn put_prefix(w: &mut Writer<'_>, p: Prefix) {
    w.u32(p.base().0).u8(p.len());
}

pub fn get_prefix(r: &mut Reader<'_>) -> WireResult<Prefix> {
    let base = r.u32()?;
    let len = r.u8()?;
    if len > 32 {
        return Err(format!("prefix length {len} > 32"));
    }
    Ok(Prefix::new(Ipv4(base), len))
}

pub fn put_prefixes(w: &mut Writer<'_>, ps: &[Prefix]) {
    w.u64(ps.len() as u64);
    for p in ps {
        put_prefix(w, *p);
    }
}

pub fn get_prefixes(r: &mut Reader<'_>) -> WireResult<Vec<Prefix>> {
    let n = r.count(5)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_prefix(r)?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Lane codecs, one pair per width (see the module doc). They are the
// hot path of the columnar stage cells: a full attack population is
// hundreds of thousands of values per lane.
// ---------------------------------------------------------------------

/// A lane of one-byte values, `raw(v)` per row.
pub fn put_u8s<T: Copy>(w: &mut Writer<'_>, lane: &[T], raw: impl Fn(T) -> u8) {
    w.lane(lane, |v| [raw(v)]);
}

/// Decode a [`put_u8s`] lane; `Err` if `from_raw` refuses any row.
pub fn get_u8s<T>(
    r: &mut Reader<'_>,
    from_raw: impl Fn(u8) -> WireResult<T>,
) -> WireResult<Vec<T>> {
    let n = r.count(1)?;
    r.take(n)?.iter().map(|&b| from_raw(b)).collect()
}

/// A lane of four-byte values, `raw(v)` per row.
pub fn put_u32s<T: Copy>(w: &mut Writer<'_>, lane: &[T], raw: impl Fn(T) -> u32) {
    w.lane(lane, |v| raw(v).to_le_bytes());
}

/// Decode a [`put_u32s`] lane, `from_raw` per row.
pub fn get_u32s<T>(r: &mut Reader<'_>, from_raw: impl Fn(u32) -> T) -> WireResult<Vec<T>> {
    let n = r.count(4)?;
    let bytes = r.take(n * 4)?;
    Ok(bytes
        .chunks_exact(4)
        .map(|c| from_raw(u32::from_le_bytes(c.try_into().expect("4-byte chunk"))))
        .collect())
}

/// A lane of eight-byte values, `raw(v)` per row; `f64` lanes pass
/// `f64::to_bits`, so floats travel bit-exact.
pub fn put_u64s<T: Copy>(w: &mut Writer<'_>, lane: &[T], raw: impl Fn(T) -> u64) {
    w.lane(lane, |v| raw(v).to_le_bytes());
}

/// Decode a [`put_u64s`] lane, `from_raw` per row.
pub fn get_u64s<T>(r: &mut Reader<'_>, from_raw: impl Fn(u64) -> T) -> WireResult<Vec<T>> {
    let n = r.count(8)?;
    let bytes = r.take(n * 8)?;
    Ok(bytes
        .chunks_exact(8)
        .map(|c| from_raw(u64::from_le_bytes(c.try_into().expect("8-byte chunk"))))
        .collect())
}

/// Stable index of an amplification vector, by [`AmpVector::ALL`]
/// position. Appending vectors keeps old cells decodable; reordering
/// requires a cell-format version bump.
pub fn amp_tag(v: AmpVector) -> u8 {
    AmpVector::ALL
        .iter()
        .position(|&x| x == v)
        .expect("AmpVector::ALL lists every variant") as u8
}

pub fn amp_from_tag(tag: u8) -> WireResult<AmpVector> {
    AmpVector::ALL
        .get(tag as usize)
        .copied()
        .ok_or_else(|| format!("unknown AmpVector tag {tag}"))
}

fn rir_tag(r: Rir) -> u8 {
    match r {
        Rir::Arin => 0,
        Rir::RipeNcc => 1,
        Rir::Apnic => 2,
        Rir::Lacnic => 3,
        Rir::Afrinic => 4,
    }
}

fn rir_from_tag(tag: u8) -> WireResult<Rir> {
    Ok(match tag {
        0 => Rir::Arin,
        1 => Rir::RipeNcc,
        2 => Rir::Apnic,
        3 => Rir::Lacnic,
        4 => Rir::Afrinic,
        _ => return Err(format!("unknown Rir tag {tag}")),
    })
}

fn kind_tag(k: AsKind) -> u8 {
    match k {
        AsKind::Hoster => 0,
        AsKind::Isp => 1,
        AsKind::Business => 2,
        AsKind::Cdn => 3,
        AsKind::Research => 4,
    }
}

fn kind_from_tag(tag: u8) -> WireResult<AsKind> {
    Ok(match tag {
        0 => AsKind::Hoster,
        1 => AsKind::Isp,
        2 => AsKind::Business,
        3 => AsKind::Cdn,
        4 => AsKind::Research,
        _ => return Err(format!("unknown AsKind tag {tag}")),
    })
}

// ---------------------------------------------------------------------
// InternetPlan codec.
// ---------------------------------------------------------------------

fn put_table<T>(
    w: &mut Writer<'_>,
    table: &PrefixTable<T>,
    put: impl Fn(&mut Writer<'_>, &T),
) {
    let entries: Vec<(Prefix, &T)> = table.iter().collect();
    w.u64(entries.len() as u64);
    for (p, v) in entries {
        put_prefix(w, p);
        put(w, v);
    }
}

fn get_table<T>(
    r: &mut Reader<'_>,
    min_item_bytes: usize,
    get: impl Fn(&mut Reader<'_>) -> WireResult<T>,
) -> WireResult<PrefixTable<T>> {
    let n = r.count(5 + min_item_bytes)?;
    let mut table = PrefixTable::new();
    for _ in 0..n {
        let p = get_prefix(r)?;
        let v = get(r)?;
        table.insert(p, v);
    }
    Ok(table)
}

fn put_telescope(w: &mut Writer<'_>, t: &TelescopePlan) {
    w.str(&t.name).u32(t.asn.0);
    put_prefixes(w, &t.prefixes);
}

fn get_telescope(r: &mut Reader<'_>) -> WireResult<TelescopePlan> {
    Ok(TelescopePlan {
        name: r.str()?,
        asn: Asn(r.u32()?),
        prefixes: get_prefixes(r)?,
    })
}

/// A `HashSet<Asn>` as a *sorted* ASN list: deterministic bytes for
/// identical sets regardless of hash iteration order.
fn put_asn_set(w: &mut Writer<'_>, set: &HashSet<Asn>) {
    let mut asns: Vec<Asn> = set.iter().copied().collect();
    asns.sort_unstable();
    put_u32s(w, &asns, |a| a.0);
}

fn get_asn_set(r: &mut Reader<'_>) -> WireResult<HashSet<Asn>> {
    Ok(get_u32s(r, Asn)?.into_iter().collect())
}

impl InternetPlan {
    /// Encode to the wire format. Deterministic: the same plan always
    /// produces the same bytes.
    pub fn write_wire(&self, w: &mut Writer<'_>) {
        // Registry in insertion order; `add` rebuilds the ASN index.
        w.u64(self.registry.len() as u64);
        for rec in self.registry.iter() {
            w.u32(rec.asn.0);
            w.str(&rec.name);
            w.u8(kind_tag(rec.kind));
            put_prefixes(w, &rec.prefixes);
            w.f64(rec.target_weight);
        }

        put_table(w, &self.routed, |w, asn| {
            w.u32(asn.0);
        });
        put_table(w, &self.allocations, |w, a| {
            w.u8(rir_tag(a.rir)).u32(a.asn.0);
            put_prefix(w, a.block);
        });

        put_telescope(w, &self.ucsd);
        put_telescope(w, &self.orion);

        put_u32s(w, &self.honeypots.amppot_allocated, |ip| ip.0);
        w.u64(self.honeypots.amppot_responsive as u64);
        put_u32s(w, &self.honeypots.hopscotch, |ip| ip.0);
        put_u32s(w, &self.honeypots.newkid, |ip| ip.0);

        put_table(w, &self.akamai_protected, |_, ()| {});
        put_prefixes(w, &self.akamai_prefix_list);
        put_table(w, &self.akamai_announced, |_, ()| {});
        put_prefixes(w, &self.akamai_announced_list);

        put_asn_set(w, &self.netscout_customers);
        put_asn_set(w, &self.ixp_members);

        w.u64(self.reflector_pools.len() as u64);
        for (v, n) in &self.reflector_pools {
            w.u8(amp_tag(*v)).u64(*n);
        }
    }

    /// The encoded plan in one buffer.
    pub fn to_wire_bytes(&self) -> Vec<u8> {
        to_bytes(|w| self.write_wire(w))
    }

    /// Decode a wire payload. Fails (never panics) on truncated or
    /// structurally invalid input.
    pub fn from_wire_bytes(bytes: &[u8]) -> WireResult<InternetPlan> {
        let mut r = Reader::new(bytes);

        let n_records = r.count(18)?;
        let mut registry = AsRegistry::new();
        for _ in 0..n_records {
            let asn = Asn(r.u32()?);
            if registry.get(asn).is_some() {
                return Err(format!("duplicate {asn} in encoded registry"));
            }
            registry.add(AsRecord {
                asn,
                name: r.str()?,
                kind: kind_from_tag(r.u8()?)?,
                prefixes: get_prefixes(&mut r)?,
                target_weight: r.f64()?,
            });
        }

        let routed = get_table(&mut r, 4, |r| Ok(Asn(r.u32()?)))?;
        let allocations = get_table(&mut r, 10, |r| {
            Ok(Allocation {
                rir: rir_from_tag(r.u8()?)?,
                asn: Asn(r.u32()?),
                block: get_prefix(r)?,
            })
        })?;

        let ucsd = get_telescope(&mut r)?;
        let orion = get_telescope(&mut r)?;

        let honeypots = HoneypotPlan {
            amppot_allocated: get_u32s(&mut r, Ipv4)?,
            amppot_responsive: r.u64()? as usize,
            hopscotch: get_u32s(&mut r, Ipv4)?,
            newkid: get_u32s(&mut r, Ipv4)?,
        };

        let akamai_protected = get_table(&mut r, 0, |_| Ok(()))?;
        let akamai_prefix_list = get_prefixes(&mut r)?;
        let akamai_announced = get_table(&mut r, 0, |_| Ok(()))?;
        let akamai_announced_list = get_prefixes(&mut r)?;

        let netscout_customers = get_asn_set(&mut r)?;
        let ixp_members = get_asn_set(&mut r)?;

        let n_pools = r.count(9)?;
        let mut reflector_pools = BTreeMap::new();
        for _ in 0..n_pools {
            let v = amp_from_tag(r.u8()?)?;
            reflector_pools.insert(v, r.u64()?);
        }

        r.finish()?;
        Ok(InternetPlan {
            registry,
            routed,
            allocations,
            ucsd,
            orion,
            honeypots,
            akamai_protected,
            akamai_prefix_list,
            akamai_announced,
            akamai_announced_list,
            netscout_customers,
            ixp_members,
            reflector_pools,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::NetScale;
    use simcore::SimRng;

    fn plan() -> InternetPlan {
        let mut rng = SimRng::new(0xC0DE);
        InternetPlan::build(&NetScale::tiny(), &mut rng)
    }

    #[test]
    fn scalar_round_trips() {
        let mut w = Writer::new();
        w.u8(7).u32(0xDEAD_BEEF).u64(u64::MAX).f64(-0.125).str("darknet");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert_eq!(r.str().unwrap(), "darknet");
        r.finish().unwrap();
    }

    #[test]
    fn reader_rejects_truncation_and_trailing_bytes() {
        let mut w = Writer::new();
        w.u64(5);
        let bytes = w.into_bytes();
        assert!(Reader::new(&bytes[..3]).u64().is_err());
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u32().unwrap(), 5);
        assert!(r.finish().is_err(), "4 unread bytes must fail finish");
    }

    #[test]
    fn bulk_columns_round_trip_and_match_scalar_layout() {
        let tags = AmpVector::ALL;
        let ips = [Ipv4(0), Ipv4(0x0A0B_0C0D), Ipv4(u32::MAX)];
        let u32col = [0u32, 1, u32::MAX, 0xDEAD_BEEF];
        let u64col = [0u64, u64::MAX, 42];
        let i64col = [i64::MIN, -1, 0, i64::MAX];
        let f64col = [0.0f64, -0.0, f64::NAN, f64::INFINITY, -0.125];

        let mut bulk = Writer::new();
        put_u8s(&mut bulk, &tags, amp_tag);
        put_u32s(&mut bulk, &ips, |ip| ip.0);
        put_u32s(&mut bulk, &u32col, |v| v);
        put_u64s(&mut bulk, &u64col, |v| v);
        put_u64s(&mut bulk, &i64col, |v| v as u64);
        put_u64s(&mut bulk, &f64col, f64::to_bits);
        let bytes = bulk.into_bytes();

        // Same bytes as writing each scalar by hand.
        let mut scalar = Writer::new();
        scalar.u64(tags.len() as u64);
        for v in tags {
            scalar.u8(amp_tag(v));
        }
        scalar.u64(3);
        for v in ips {
            scalar.u32(v.0);
        }
        scalar.u64(4);
        for v in u32col {
            scalar.u32(v);
        }
        scalar.u64(3);
        for v in u64col {
            scalar.u64(v);
        }
        scalar.u64(4);
        for v in i64col {
            scalar.u64(v as u64);
        }
        scalar.u64(5);
        for v in f64col {
            scalar.f64(v);
        }
        assert_eq!(scalar.into_bytes(), bytes);

        let decode = |bytes: &[u8]| -> WireResult<_> {
            let mut r = Reader::new(bytes);
            let lanes = (
                get_u8s(&mut r, amp_from_tag)?,
                get_u32s(&mut r, Ipv4)?,
                get_u32s(&mut r, |v| v)?,
                get_u64s(&mut r, |v| v)?,
                get_u64s(&mut r, |v| v as i64)?,
                get_u64s(&mut r, f64::from_bits)?,
            );
            r.finish()?;
            Ok(lanes)
        };
        let (tags_back, ips_back, u32s, u64s, i64s, floats) = decode(&bytes).unwrap();
        assert_eq!(tags_back, tags);
        assert_eq!(ips_back, ips);
        assert_eq!(u32s, u32col);
        assert_eq!(u64s, u64col);
        assert_eq!(i64s, i64col);
        assert_eq!(floats.len(), f64col.len());
        for (a, b) in floats.iter().zip(f64col.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "bit-exact float transport");
        }

        // Truncated columns fail, never panic.
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }

        // One refused tag fails its whole lane.
        let mut w = Writer::new();
        w.u64(2).u8(amp_tag(tags[0])).u8(tags.len() as u8);
        assert!(get_u8s(&mut Reader::new(&w.into_bytes()), amp_from_tag).is_err());
    }

    /// A stream writer hands on exactly the bytes a memory writer
    /// keeps, in chunks of at most [`CHUNK`] bytes, and a counting
    /// writer counts them: lanes several chunks long, scalars across
    /// chunk boundaries, a nested payload and a long byte string.
    #[test]
    fn stream_and_count_match_memory() {
        let rows: Vec<u32> = (0..CHUNK as u32).collect();
        let encode = |w: &mut Writer<'_>| {
            w.u8(1);
            put_u32s(w, &rows, |v| v);
            w.u8(2).u64(3);
            put_u64s(w, &rows, u64::from);
            w.nested(|w| {
                put_u8s(w, &rows, |v| v as u8);
                w.str("tail");
            });
            w.bytes(&[7u8; CHUNK + 3]);
        };
        let bytes = to_bytes(encode);
        assert_eq!(wire_len(encode), bytes.len() as u64);

        let (mut streamed, mut calls) = (Vec::new(), 0);
        let mut sink = |chunk: &[u8]| {
            assert!(chunk.len() <= CHUNK, "a {}-byte chunk", chunk.len());
            calls += 1;
            streamed.extend_from_slice(chunk);
            Ok(())
        };
        let mut w = Writer::stream(&mut sink);
        encode(&mut w);
        assert_eq!(w.finish().unwrap(), bytes.len() as u64);
        assert!(streamed == bytes, "streamed bytes differ from the memory writer's");
        assert!(calls as u64 >= bytes.len() as u64 / CHUNK as u64);

        // The nested payload is length-prefixed like `Writer::bytes`.
        let mut r = Reader::new(&bytes);
        r.u8().unwrap();
        assert_eq!(get_u32s(&mut r, |v| v).unwrap(), rows);
        assert_eq!((r.u8().unwrap(), r.u64().unwrap()), (2, 3));
        assert_eq!(get_u64s(&mut r, |v| v as u32).unwrap(), rows);
        let mut inner = Reader::new(r.bytes().unwrap());
        assert_eq!(get_u8s(&mut inner, Ok).unwrap().len(), rows.len());
        assert_eq!(inner.str().unwrap(), "tail");
        inner.finish().unwrap();
        assert_eq!(r.bytes().unwrap(), [7u8; CHUNK + 3]);
        r.finish().unwrap();
    }

    /// A stream sink's first error comes back from `finish`, and no
    /// later chunk reaches the sink.
    #[test]
    fn stream_errors_surface_at_finish() {
        let mut calls = 0;
        let mut sink = |_: &[u8]| {
            calls += 1;
            Err(io::Error::other("disk full"))
        };
        let mut w = Writer::stream(&mut sink);
        put_u64s(&mut w, &[0u64; CHUNK], |v| v);
        assert_eq!(w.finish().unwrap_err().to_string(), "disk full");
        assert_eq!(calls, 1);
    }

    #[test]
    fn implausible_counts_fail_fast() {
        let mut w = Writer::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        assert!(Reader::new(&bytes).count(4).is_err());
        // And via a typed decoder: a huge prefix count cannot allocate.
        assert!(get_prefixes(&mut Reader::new(&bytes)).is_err());
    }

    #[test]
    fn plan_round_trips_byte_identically() {
        let p = plan();
        let bytes = p.to_wire_bytes();
        let q = InternetPlan::from_wire_bytes(&bytes).expect("decode");

        // Structural equality of every component the pipeline reads.
        assert_eq!(q.registry.len(), p.registry.len());
        for (a, b) in p.registry.iter().zip(q.registry.iter()) {
            assert_eq!(a.asn, b.asn);
            assert_eq!(a.name, b.name);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.prefixes, b.prefixes);
            assert_eq!(a.target_weight.to_bits(), b.target_weight.to_bits());
        }
        let pairs = |t: &PrefixTable<Asn>| -> Vec<(Prefix, Asn)> {
            t.iter().map(|(p, a)| (p, *a)).collect()
        };
        assert_eq!(pairs(&p.routed), pairs(&q.routed));
        assert_eq!(
            p.allocations.iter().map(|(x, a)| (x, *a)).collect::<Vec<_>>(),
            q.allocations.iter().map(|(x, a)| (x, *a)).collect::<Vec<_>>()
        );
        assert_eq!(p.ucsd.prefixes, q.ucsd.prefixes);
        assert_eq!(p.orion.name, q.orion.name);
        assert_eq!(p.honeypots.amppot_allocated, q.honeypots.amppot_allocated);
        assert_eq!(p.honeypots.amppot_responsive, q.honeypots.amppot_responsive);
        assert_eq!(p.honeypots.hopscotch, q.honeypots.hopscotch);
        assert_eq!(p.honeypots.newkid, q.honeypots.newkid);
        assert_eq!(p.akamai_prefix_list, q.akamai_prefix_list);
        assert_eq!(p.akamai_announced_list, q.akamai_announced_list);
        assert_eq!(p.netscout_customers, q.netscout_customers);
        assert_eq!(p.ixp_members, q.ixp_members);
        assert_eq!(p.reflector_pools, q.reflector_pools);

        // THE store invariant: re-encoding the decoded plan reproduces
        // the exact bytes (deterministic encoding, sorted sets).
        assert_eq!(q.to_wire_bytes(), bytes);
    }

    #[test]
    fn plan_decode_never_panics_on_corruption() {
        let p = plan();
        let bytes = p.to_wire_bytes();
        // Truncations at a spread of boundaries.
        for cut in [0, 1, 7, 8, bytes.len() / 2, bytes.len() - 1] {
            let _ = InternetPlan::from_wire_bytes(&bytes[..cut]);
        }
        // Single-byte flips across the payload (sampled).
        for i in (0..bytes.len()).step_by(97) {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            let _ = InternetPlan::from_wire_bytes(&bad);
        }
    }

    #[test]
    fn enum_tags_are_exhaustive_and_stable() {
        for (i, v) in AmpVector::ALL.iter().enumerate() {
            assert_eq!(amp_tag(*v) as usize, i);
            assert_eq!(amp_from_tag(i as u8).unwrap(), *v);
        }
        assert!(amp_from_tag(AmpVector::ALL.len() as u8).is_err());
        for r in [Rir::Arin, Rir::RipeNcc, Rir::Apnic, Rir::Lacnic, Rir::Afrinic] {
            assert_eq!(rir_from_tag(rir_tag(r)).unwrap(), r);
        }
        for k in [AsKind::Hoster, AsKind::Isp, AsKind::Business, AsKind::Cdn, AsKind::Research] {
            assert_eq!(kind_from_tag(kind_tag(k)).unwrap(), k);
        }
    }
}
