//! # rnt-wal
//!
//! The durable write-ahead log behind the resilient nested-transaction
//! engine: an append-only, CRC-checksummed, length-prefixed record log
//! plus the machinery to replay it after a crash.
//!
//! The paper's resilience model says a top-level action's effects are
//! permanent exactly when its commit event happens (`perm(T)`, Lemma 7);
//! everything below the top level is conditional and may be discarded.
//! The log records exactly that event and nothing else: **redo at
//! commit**. A top-level commit appends one [`Record::Commit`] frame
//! holding its action id, its commit epoch and the encoded `(key,
//! version)` of every key whose committed value it changes: one commit,
//! one frame. Begins, subtransaction commits and aborts leave no bytes — an aborted or
//! in-flight tree is absent from the log, and that absence is how a crash
//! aborts it. The only other records are the seeds ([`Record::Write`]
//! under [`INIT_ACTION`]) and the [`Record::Checkpoint`] a rewritten log
//! starts with.
//!
//! Layout of a log file:
//!
//! ```text
//! [8-byte magic "RNTWAL06"]
//! [frame]*            frame = [len: u32 LE][crc32(payload): u32 LE][payload]
//! ```
//!
//! Inside a payload every integer is as short as its value: counts, byte
//! lengths, action ids and epochs are canonical LEB128 varints, and the
//! engine's integer keys and values ([`WalCodec`]) are little-endian with
//! their high zero bytes dropped. A flat commit of four small `u64`
//! writes frames in about 30 bytes. Decoding accepts only the shortest
//! form of each integer, so a record has one encoding and equal encoded
//! keys are equal keys.
//!
//! Every commit frame is self-contained, so replay needs no record but
//! the seeds or checkpoint before it. Because one frame carries a whole
//! write set, a commit is atomic-in-log-or-absent: a crash tears the
//! entire frame (dropped by [`scan`]'s tail rule) or none of it, and no
//! prefix of a write set can ever be replayed as committed. Format `02`
//! added the MVCC commit epoch, `03` the batch frame, `04` the write set
//! in the commit frame, `05` the value-length integers and `06` the
//! single-commit frame (no commit count); older logs are refused by the
//! magic check.
//!
//! Reading is two-mode:
//!
//! * [`decode_strict`] — every byte must parse; any anomaly is a typed
//!   [`WalError`] (format tests, fixtures);
//! * [`scan`] — crash-recovery semantics: a *torn tail* (truncated length
//!   prefix, incomplete payload, or a bad CRC on the final frame) ends the
//!   log cleanly at the last good record, while corruption *before* the
//!   tail is a hard error.
//!
//! I/O goes through the [`Vfs`] trait so the chaos harness can drive
//! crash points deterministically: [`StdVfs`] is the real-file impl,
//! [`MemVfs`] the in-memory fault-injecting one (armed torn appends,
//! armed append/fsync *errors*, byte-level snapshots for prefix-cut
//! crash simulation).
//!
//! Writing is two-sided: [`Wal`] appends (one write-through
//! `Vfs::append` per record, `&mut self`, so the engine keeps it under a
//! mutex) and [`WalForce`] forces (shared, lock-free), so a slow fsync
//! never stands between a seed and its record.

#![warn(missing_docs)]

mod codec;
mod error;
mod log;
mod record;
mod vfs;

pub mod faults;

pub use codec::{encode_to_vec, WalCodec};
pub use error::WalError;
pub use log::{decode_strict, frame, frame_into, scan, Tail, Wal, WalForce, MAGIC};
pub use record::{Record, INIT_ACTION};
pub use vfs::{MemVfs, StdVfs, Vfs};

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the frame checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data = b"resilient nested transactions".to_vec();
        let clean = crc32(&data);
        for bit in 0..data.len() * 8 {
            let mut flipped = data.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&flipped), clean, "bit {bit} undetected");
        }
    }
}
