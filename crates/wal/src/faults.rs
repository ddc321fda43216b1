//! Pure byte-level corruption helpers the test suites and chaos harness
//! apply to a snapshotted log before handing it to recovery: bit flips,
//! truncation at arbitrary offsets, and cuts at record boundaries.

use crate::log::MAGIC;

/// Flip one bit (`bit` counts from the file's first byte, LSB first).
pub fn flip_bit(bytes: &[u8], bit: usize) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[bit / 8] ^= 1 << (bit % 8);
    out
}

/// Keep only the first `len` bytes (a truncation crash).
pub fn truncate_to(bytes: &[u8], len: usize) -> Vec<u8> {
    bytes[..len.min(bytes.len())].to_vec()
}

/// Byte offsets where each frame starts, walking length prefixes without
/// validating CRCs or payloads. Stops at the first frame that does not
/// fit. The final entry is the offset just past the last whole frame, so
/// adjacent pairs delimit frames and the list has `record_count + 1`
/// entries for an intact log.
pub fn record_offsets(bytes: &[u8]) -> Vec<usize> {
    let mut offsets = Vec::new();
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return offsets;
    }
    let mut offset = MAGIC.len();
    offsets.push(offset);
    while bytes.len() - offset >= 8 {
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4")) as usize;
        if bytes.len() - offset - 8 < len {
            break;
        }
        offset += 8 + len;
        offsets.push(offset);
    }
    offsets
}

/// Number of whole frames in the file.
pub fn record_count(bytes: &[u8]) -> usize {
    record_offsets(bytes).len().saturating_sub(1)
}

/// The log cut after its first `n` records (a crash at a record
/// boundary). `n` past the end returns the whole log.
pub fn cut_at_record(bytes: &[u8], n: usize) -> Vec<u8> {
    let offsets = record_offsets(bytes);
    if offsets.is_empty() {
        return bytes.to_vec();
    }
    let end = *offsets.get(n).unwrap_or(offsets.last().expect("non-empty"));
    bytes[..end].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::frame;
    use crate::record::{Record, INIT_ACTION};

    fn sample_log() -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        for r in [
            Record::Write { action: INIT_ACTION, key: vec![1, 2, 3], version: vec![0] },
            Record::Write { action: INIT_ACTION, key: vec![4], version: vec![0] },
            Record::Commit { action: 0, epoch: 1, writes: vec![(vec![1, 2, 3], vec![9])] },
        ] {
            bytes.extend_from_slice(&frame(&r));
        }
        bytes
    }

    #[test]
    fn offsets_and_count() {
        let log = sample_log();
        let offsets = record_offsets(&log);
        assert_eq!(offsets.len(), 4);
        assert_eq!(offsets[0], MAGIC.len());
        assert_eq!(*offsets.last().unwrap(), log.len());
        assert_eq!(record_count(&log), 3);
    }

    #[test]
    fn cuts_are_prefixes_at_boundaries() {
        let log = sample_log();
        assert_eq!(cut_at_record(&log, 0).len(), MAGIC.len());
        assert_eq!(cut_at_record(&log, 3), log);
        assert_eq!(cut_at_record(&log, 99), log);
        let two = cut_at_record(&log, 2);
        assert!(log.starts_with(&two));
        assert_eq!(record_count(&two), 2);
    }

    #[test]
    fn flip_and_truncate() {
        let log = sample_log();
        let flipped = flip_bit(&log, 8 * MAGIC.len());
        assert_eq!(flipped.len(), log.len());
        assert_ne!(flipped[MAGIC.len()], log[MAGIC.len()]);
        assert_eq!(truncate_to(&log, 5), &log[..5]);
        assert_eq!(truncate_to(&log, 10_000), log);
    }

    #[test]
    fn torn_log_offsets_stop_at_tear() {
        let log = sample_log();
        let torn = truncate_to(&log, log.len() - 3);
        let offsets = record_offsets(&torn);
        assert_eq!(offsets.len(), 3, "third frame incomplete");
        assert_eq!(record_count(&torn), 2);
    }
}
