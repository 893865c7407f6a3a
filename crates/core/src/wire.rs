//! Efficient metadata storage (paper §4.3, Tables 1 and 2).
//!
//! The wire format stores only *differences from expectations*:
//!
//! * Header: segment count, stream geometry — stored as-is.
//! * Bitstream offsets: the `i`-th split point is expected at `i * ceil(B/M)`;
//!   the signed differences form one data series.
//! * Max Symbol Group IDs (anchors): expected at `i * ceil(G/M)` where `G`
//!   is the total group count; signed differences form a second series.
//! * Per split: the `W` intermediate states raw ("stored as-is since they
//!   are difficult to be encoded further"), then the per-lane differences
//!   `anchor - group(lane)` — guaranteed non-negative ("we drop the sign
//!   bits"), as one unsigned series per split.
//!
//! Every series is `width-field, then fixed-width values`: the width field
//! stores `max_bits - 1` (zeros still take one bit, paper footnote 1) in
//! 4 bits for the unsigned 16-bit-max series and 5 bits for the signed
//! 32-bit-max series; signed values carry an extra sign bit each.
//!
//! The format (version 2) ends in a little-endian CRC-32 footer over all
//! preceding bytes; the parser verifies it before interpreting anything
//! else, so corrupt frames are rejected as [`RecoilError::Wire`] instead of
//! reconstructing garbage split points. Any other version, including the
//! footer-less version 1, is rejected.

use crate::crc::crc32;
use crate::error::RecoilError;
use crate::metadata::{LaneInit, RecoilMetadata, SplitPoint};
use recoil_bitio::{BitReader, BitWriter};

const MAGIC: u64 = 0x5243_4C31; // "RCL1"
/// Format version 2: CRC-32 footer after the bit-packed body.
const VERSION: u64 = 2;

/// Bits needed for unsigned `v`, counting zero as one bit.
fn bits_for(v: u64) -> u32 {
    (64 - v.leading_zeros()).max(1)
}

/// Writes an unsigned series: `width-1` in `len_bits`, then values.
fn write_unsigned_series(w: &mut BitWriter, vals: &[u64], len_bits: u32) {
    let width = vals.iter().map(|&v| bits_for(v)).max().unwrap_or(1);
    debug_assert!(
        width <= (1 << len_bits),
        "series width {width} overflows field"
    );
    w.write((width - 1) as u64, len_bits);
    for &v in vals {
        w.write(v, width);
    }
}

fn read_unsigned_series(
    r: &mut BitReader<'_>,
    count: usize,
    len_bits: u32,
) -> Result<Vec<u64>, RecoilError> {
    let width_field = r
        .read(len_bits)
        .ok_or_else(|| RecoilError::wire("truncated series header"))?;
    // xtask: allow(wire-cast): a `len_bits`-wide read (at most 5 bits) always fits u32.
    let width = width_field as u32 + 1;
    (0..count)
        .map(|_| {
            r.read(width)
                .ok_or_else(|| RecoilError::wire("truncated series"))
        })
        .collect()
}

/// Writes a signed series: `width-1` in `len_bits`, then `magnitude, sign`.
fn write_signed_series(w: &mut BitWriter, vals: &[i64], len_bits: u32) {
    let width = vals
        .iter()
        .map(|&v| bits_for(v.unsigned_abs()))
        .max()
        .unwrap_or(1);
    debug_assert!(width <= (1 << len_bits));
    w.write((width - 1) as u64, len_bits);
    for &v in vals {
        w.write(v.unsigned_abs(), width);
        w.write((v < 0) as u64, 1);
    }
}

fn read_signed_series(
    r: &mut BitReader<'_>,
    count: usize,
    len_bits: u32,
) -> Result<Vec<i64>, RecoilError> {
    let width_field = r
        .read(len_bits)
        .ok_or_else(|| RecoilError::wire("truncated series header"))?;
    // xtask: allow(wire-cast): a `len_bits`-wide read (at most 5 bits) always fits u32.
    let width = width_field as u32 + 1;
    (0..count)
        .map(|_| {
            let mag = r
                .read(width)
                .ok_or_else(|| RecoilError::wire("truncated series"))?;
            let neg = r
                .read(1)
                .ok_or_else(|| RecoilError::wire("truncated series"))?;
            Ok(if neg == 1 { -(mag as i64) } else { mag as i64 })
        })
        .collect()
}

/// Serializes metadata to its compact byte form, with the CRC-32 integrity
/// footer.
pub fn metadata_to_bytes(meta: &RecoilMetadata) -> Vec<u8> {
    debug_assert!(meta.validate().is_ok());
    let mut w = BitWriter::new();
    w.write(MAGIC, 32);
    w.write(VERSION, 8);
    w.write(meta.ways as u64, 16);
    w.write(meta.quant_bits as u64, 8);
    w.write(meta.num_symbols, 64);
    w.write(meta.num_words, 64);
    w.write(meta.splits.len() as u64, 32);

    let k = meta.splits.len() as u64;
    if k > 0 {
        let ways = meta.ways as u64;
        let segments = k + 1;
        let expect_off = meta.num_words.div_ceil(segments);
        let groups = meta.num_symbols.div_ceil(ways);
        let expect_grp = groups.div_ceil(segments);

        // Series 1: bitstream-offset differences across all splits.
        let off_diffs: Vec<i64> = meta
            .splits
            .iter()
            .enumerate()
            .map(|(i, s)| s.offset as i64 - ((i as u64 + 1) * expect_off) as i64)
            .collect();
        write_signed_series(&mut w, &off_diffs, 5);

        // Series 2: anchor (max group ID) differences across all splits.
        let anchors: Vec<u64> = meta.splits.iter().map(|s| s.split_pos() / ways).collect();
        let anchor_diffs: Vec<i64> = anchors
            .iter()
            .enumerate()
            .map(|(i, &a)| a as i64 - ((i as u64 + 1) * expect_grp) as i64)
            .collect();
        write_signed_series(&mut w, &anchor_diffs, 5);

        // Per split: raw states, then the per-lane group differences.
        for (s, &anchor) in meta.splits.iter().zip(&anchors) {
            for li in &s.lanes {
                w.write(li.state as u64, 16);
            }
            let diffs: Vec<u64> = s.lanes.iter().map(|li| anchor - li.pos / ways).collect();
            write_unsigned_series(&mut w, &diffs, 4);
        }
    }
    let mut bytes = w.into_bytes();
    let footer = crc32(&bytes);
    bytes.extend_from_slice(&footer.to_le_bytes());
    bytes
}

/// Parses metadata back from its byte form.
pub fn metadata_from_bytes(bytes: &[u8]) -> Result<RecoilMetadata, RecoilError> {
    let bad = |msg: &str| RecoilError::wire(msg);
    let mut peek = BitReader::new(bytes);
    if peek.read(32) != Some(MAGIC) {
        return Err(bad("bad magic"));
    }
    match peek.read(8) {
        Some(VERSION) => {}
        Some(_) => return Err(bad("unsupported version")),
        None => return Err(bad("truncated header")),
    }
    // Verify the integrity footer before interpreting anything: a corrupt
    // frame must never reconstruct garbage split points.
    let (body, footer) = bytes.split_at(bytes.len() - 4);
    let footer: [u8; 4] = footer.try_into().map_err(|_| bad("truncated footer"))?;
    if crc32(body) != u32::from_le_bytes(footer) {
        return Err(bad("metadata checksum mismatch"));
    }
    let mut r = BitReader::new(body);
    r.read(32).ok_or_else(|| bad("truncated header"))?;
    r.read(8).ok_or_else(|| bad("truncated header"))?;
    // xtask: allow(wire-cast): a 16-bit read always fits u32.
    let ways = r.read(16).ok_or_else(|| bad("truncated header"))? as u32;
    // xtask: allow(wire-cast): an 8-bit read always fits u32.
    let quant_bits = r.read(8).ok_or_else(|| bad("truncated header"))? as u32;
    let num_symbols = r.read(64).ok_or_else(|| bad("truncated header"))?;
    let num_words = r.read(64).ok_or_else(|| bad("truncated header"))?;
    let k = usize::try_from(r.read(32).ok_or_else(|| bad("truncated header"))?)
        .map_err(|_| bad("split count exceeds the address space"))?;
    if ways == 0 {
        return Err(bad("zero ways"));
    }
    if k as u64 > num_symbols {
        return Err(bad("more splits than symbols"));
    }
    // Every split stores at least 16 bits of raw per-lane state, so a body
    // of `body.len()` bytes cannot hold more than `body.len() / 2` splits.
    // A hostile header claiming billions of splits is rejected here instead
    // of sizing an allocation from an attacker-chosen count.
    if k > body.len() / 2 {
        return Err(bad("split count exceeds the input size"));
    }

    // xtask: allow(wire-capacity): `k` is bounded by the physical input length above.
    let mut splits = Vec::with_capacity(k);
    if k > 0 {
        let waysu = u64::from(ways);
        let ways_n =
            usize::try_from(ways).map_err(|_| bad("lane count exceeds the address space"))?;
        let segments = k as u64 + 1;
        let expect_off = num_words.div_ceil(segments);
        let groups = num_symbols.div_ceil(waysu);
        let expect_grp = groups.div_ceil(segments);

        let off_diffs = read_signed_series(&mut r, k, 5)?;
        let anchor_diffs = read_signed_series(&mut r, k, 5)?;
        for (i, (&off_diff, &anchor_diff)) in off_diffs.iter().zip(&anchor_diffs).enumerate() {
            let offset = ((i as u64 + 1) * expect_off) as i64 + off_diff;
            let anchor = ((i as u64 + 1) * expect_grp) as i64 + anchor_diff;
            if offset < 0 || anchor < 0 {
                return Err(bad("negative reconstructed offset or anchor"));
            }
            let (offset, anchor) = (offset as u64, anchor as u64);
            // xtask: allow(wire-capacity): `ways` was read as 16 bits, so this caps at 128 KiB.
            let mut states = Vec::with_capacity(ways_n);
            for _ in 0..ways {
                // xtask: allow(wire-cast): a 16-bit read always fits u16.
                states.push(r.read(16).ok_or_else(|| bad("truncated states"))? as u16);
            }
            let diffs = read_unsigned_series(&mut r, ways_n, 4)?;
            let lanes: Vec<LaneInit> = diffs
                .iter()
                .zip(&states)
                .enumerate()
                .map(|(lane, (&diff, &state))| {
                    let group = anchor
                        .checked_sub(diff)
                        .ok_or_else(|| bad("group difference exceeds anchor"))?;
                    Ok(LaneInit {
                        state,
                        pos: group * waysu + lane as u64,
                    })
                })
                .collect::<Result<_, RecoilError>>()?;
            splits.push(SplitPoint { offset, lanes });
        }
    }

    let meta = RecoilMetadata {
        ways,
        quant_bits,
        num_symbols,
        num_words,
        splits,
    };
    meta.validate()
        .map_err(|e| RecoilError::wire(format!("parsed metadata is inconsistent: {e}")))?;
    Ok(meta)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta_with(splits: Vec<SplitPoint>, ways: u32, n: u64, b: u64) -> RecoilMetadata {
        RecoilMetadata {
            ways,
            quant_bits: 11,
            num_symbols: n,
            num_words: b,
            splits,
        }
    }

    /// Figure 6 / Table 2 in 0-based coordinates (W = 4): positions
    /// 8, 13, 10, 15 → groups 2, 3, 2, 3, anchor 3, differences 1,0,1,0.
    fn figure6_meta() -> RecoilMetadata {
        let split = SplitPoint {
            offset: 6,
            lanes: vec![
                LaneInit {
                    state: 0x0A01,
                    pos: 8,
                },
                LaneInit {
                    state: 0x0B02,
                    pos: 13,
                },
                LaneInit {
                    state: 0x0C03,
                    pos: 10,
                },
                LaneInit {
                    state: 0x0D04,
                    pos: 15,
                },
            ],
        };
        meta_with(vec![split], 4, 20, 9)
    }

    #[test]
    fn round_trip_figure6() {
        let meta = figure6_meta();
        let bytes = metadata_to_bytes(&meta);
        let back = metadata_from_bytes(&bytes).unwrap();
        assert_eq!(back, meta);
    }

    #[test]
    fn paper_worked_example_group_difference_series() {
        // Table 2's "Differences" row is -1, 0, -1, 0 stored sign-dropped in
        // 1-bit values after a 4-bit zero width field: 0000 | 1 0 1 0.
        let mut w = BitWriter::new();
        write_unsigned_series(&mut w, &[1, 0, 1, 0], 4);
        assert_eq!(w.bit_len(), 4 + 4);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(4), Some(0)); // width - 1 = 0 → 1-bit values
        assert_eq!(r.read(1), Some(1));
        assert_eq!(r.read(1), Some(0));
        assert_eq!(r.read(1), Some(1));
        assert_eq!(r.read(1), Some(0));
    }

    #[test]
    fn empty_split_list_round_trips() {
        let meta = meta_with(vec![], 32, 1000, 400);
        let bytes = metadata_to_bytes(&meta);
        assert_eq!(
            bytes.len(),
            32,
            "header-only metadata is the 224-bit header plus the CRC footer"
        );
        assert_eq!(metadata_from_bytes(&bytes).unwrap(), meta);
    }

    #[test]
    fn multi_split_round_trip() {
        // Two well-separated splits over a 4-way stream.
        let s1 = SplitPoint {
            offset: 40,
            lanes: (0..4)
                .map(|l| LaneInit {
                    state: 100 + l as u16,
                    pos: 96 + l as u64,
                })
                .collect(),
        };
        let s2 = SplitPoint {
            offset: 81,
            lanes: (0..4)
                .map(|l| LaneInit {
                    state: 200 + l as u16,
                    pos: 196 + l as u64,
                })
                .collect(),
        };
        let meta = meta_with(vec![s1, s2], 4, 300, 130);
        let bytes = metadata_to_bytes(&meta);
        assert_eq!(metadata_from_bytes(&bytes).unwrap(), meta);
    }

    #[test]
    fn per_split_cost_matches_paper_estimate() {
        // §5.2: Recoil Large ≈ 76 bytes per split at W = 32 — the 64 raw
        // state bytes dominate; diffs/offsets add a dozen more bits each.
        let ways = 32u32;
        let splits: Vec<SplitPoint> = (0..100u64)
            .map(|i| SplitPoint {
                offset: (i + 1) * 1000 + (i % 7),
                lanes: (0..32)
                    .map(|l| LaneInit {
                        state: (l * 17) as u16,
                        pos: (i + 1) * 3200 + 32 * (l as u64 % 3) + l as u64,
                    })
                    .collect(),
            })
            .collect();
        let meta = meta_with(splits, ways, 400_000, 120_000);
        let bytes = metadata_to_bytes(&meta);
        let per_split = (bytes.len() as f64 - 32.0) / 100.0;
        assert!(
            (64.0..90.0).contains(&per_split),
            "per-split metadata cost {per_split} bytes out of expected range"
        );
    }

    #[test]
    fn truncated_bytes_error_cleanly() {
        let meta = figure6_meta();
        let bytes = metadata_to_bytes(&meta);
        for cut in 0..bytes.len() {
            assert!(
                metadata_from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let meta = figure6_meta();
        let mut bytes = metadata_to_bytes(&meta);
        bytes[0] ^= 0xFF;
        assert!(metadata_from_bytes(&bytes).is_err());
    }

    #[test]
    fn version1_bytes_are_rejected() {
        let meta = figure6_meta();
        let v2 = metadata_to_bytes(&meta);
        assert_eq!(metadata_from_bytes(&v2).unwrap(), meta);
        // Version 1 had no CRC footer, so accepting its tag would let a
        // frame skip the integrity check. The v1 layout, and a v2 frame
        // retagged as v1 (with and without a matching footer), all fail.
        // The version field is byte 4, right after the 32-bit magic.
        let mut v1 = v2[..v2.len() - 4].to_vec();
        v1[4] = 1;
        let mut retagged = v2.clone();
        retagged[4] = 1;
        let mut patched = retagged.clone();
        let at = patched.len() - 4;
        let footer = crc32(&patched[..at]);
        patched[at..].copy_from_slice(&footer.to_le_bytes());
        for bytes in [v1, retagged, patched] {
            match metadata_from_bytes(&bytes) {
                Err(RecoilError::Wire { detail }) => {
                    assert!(detail.contains("unsupported version"), "{detail}")
                }
                other => panic!("v1 frame not rejected: {other:?}"),
            }
        }
    }

    #[test]
    fn corrupt_body_is_caught_by_checksum() {
        let meta = figure6_meta();
        let bytes = metadata_to_bytes(&meta);
        // Flip one bit in every body byte after the version field: the CRC
        // footer must reject each one before structural interpretation.
        for at in 5..bytes.len() - 4 {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 0x10;
            let err = metadata_from_bytes(&corrupt).expect_err("corruption undetected");
            assert!(err.to_string().contains("checksum"), "byte {at}: {err}");
        }
    }

    #[test]
    fn hostile_split_count_rejected_before_allocation() {
        // A header claiming u32::MAX splits (with num_symbols large enough
        // to pass the splits-vs-symbols check) must fail on the physical
        // input-size bound, not size a multi-gigabyte Vec from the claim.
        let mut w = BitWriter::new();
        w.write(MAGIC, 32);
        w.write(VERSION, 8);
        w.write(4, 16); // ways
        w.write(11, 8); // quant_bits
        w.write(u64::MAX / 2, 64); // num_symbols
        w.write(1_000_000, 64); // num_words
        w.write(u64::from(u32::MAX), 32); // split count
        let mut bytes = w.into_bytes();
        let footer = crc32(&bytes);
        bytes.extend_from_slice(&footer.to_le_bytes());
        let err = metadata_from_bytes(&bytes).expect_err("hostile split count accepted");
        assert!(err.to_string().contains("split count"), "{err}");
    }

    #[test]
    fn bits_for_zero_is_one() {
        assert_eq!(bits_for(0), 1);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(u16::MAX as u64), 16);
    }
}
