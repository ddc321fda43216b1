//! Framing, the two readers (strict and crash-tolerant), and the
//! append/checkpoint writer.

use crate::crc32;
use crate::error::WalError;
use crate::record::{Record, TAG_CHECKPOINT};
use crate::vfs::Vfs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The 8-byte file header every log starts with. `06` logs hold exactly
/// one commit per `Commit` frame. `05` wrote every integer of a payload
/// at its value's length (varint framing fields). `04` made the log redo
/// at commit: one `Commit` frame per top-level commit or batch, carrying
/// the write set, and no action-tree transitions. `03` added the
/// group-commit frame; `02` the commit epoch. Older logs are not
/// readable.
pub const MAGIC: &[u8; 8] = b"RNTWAL06";

/// Wrap a record payload in a `[len][crc][payload]` frame.
pub fn frame(record: &Record) -> Vec<u8> {
    let mut out = Vec::new();
    frame_into(record, &mut out);
    out
}

/// Append `record`'s frame to `out`: the payload is encoded in place
/// behind an 8-byte header that is filled in once its length and CRC are
/// known, so a caller that reuses `out` frames without allocating.
pub fn frame_into(record: &Record, out: &mut Vec<u8>) {
    let header = out.len();
    out.extend_from_slice(&[0; 8]);
    record.encode_into(out);
    let (len, crc) = {
        let payload = &out[header + 8..];
        (payload.len() as u32, crc32(payload))
    };
    out[header..header + 4].copy_from_slice(&len.to_le_bytes());
    out[header + 4..header + 8].copy_from_slice(&crc.to_le_bytes());
}

/// How a [`scan`] ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tail {
    /// The last frame ended exactly at end-of-file.
    Clean,
    /// The file ends in a torn record — the crash artifact recovery
    /// discards. Carries the typed error describing the tear.
    Torn(WalError),
}

/// Parse one frame starting at `offset`. Returns the record and the next
/// offset. `bytes` starts at byte `base` of the file, which errors add to
/// their offsets. An error here is *positional*: the caller decides
/// whether it is a tolerable tail tear or mid-log corruption.
fn parse_frame(bytes: &[u8], offset: usize, base: usize) -> Result<(Record, usize), WalError> {
    let at = base + offset;
    let remaining = bytes.len() - offset;
    if remaining < 8 {
        return Err(WalError::TruncatedLength { offset: at });
    }
    let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4")) as usize;
    let stored = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().expect("4"));
    if remaining - 8 < len {
        return Err(WalError::TornRecord { offset: at, promised: len, present: remaining - 8 });
    }
    let payload = &bytes[offset + 8..offset + 8 + len];
    let computed = crc32(payload);
    if computed != stored {
        return Err(WalError::BadCrc { offset: at, stored, computed });
    }
    let record = Record::decode(payload, at)?;
    Ok((record, offset + 8 + len))
}

/// Parse frames from `offset` until end-of-file or the first frame that
/// does not parse. Returns the records, the offset where they end, and
/// the error that stopped them short of end-of-file, if one did.
fn parse_frames(
    bytes: &[u8],
    mut offset: usize,
    base: usize,
) -> (Vec<Record>, usize, Option<WalError>) {
    let mut records = Vec::new();
    while offset < bytes.len() {
        match parse_frame(bytes, offset, base) {
            Ok((record, next)) => {
                records.push(record);
                offset = next;
            }
            Err(e) => return (records, offset, Some(e)),
        }
    }
    (records, offset, None)
}

/// The offset past the frame at `offset` if it is a whole `Checkpoint`
/// frame whose CRC checks, else `offset` itself, leaving the frame to the
/// parse that follows, which reports a bad one. The image is checked,
/// never decoded.
fn skip_checkpoint(bytes: &[u8], offset: usize) -> usize {
    let Some(header) = bytes.get(offset..offset + 8) else { return offset };
    let len = u32::from_le_bytes(header[..4].try_into().expect("4")) as usize;
    let stored = u32::from_le_bytes(header[4..].try_into().expect("4"));
    match bytes.get(offset + 8..offset + 8 + len) {
        Some(payload) if payload.first() == Some(&TAG_CHECKPOINT) && crc32(payload) == stored => {
            offset + 8 + len
        }
        _ => offset,
    }
}

fn check_magic(bytes: &[u8]) -> Result<(), WalError> {
    if bytes.len() < MAGIC.len() {
        return Err(WalError::TruncatedMagic);
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(WalError::BadMagic);
    }
    Ok(())
}

/// Whether a positional frame error can be a crash artifact: every tear
/// class reaches end-of-file, and a CRC mismatch counts only when the
/// frame is the file's last (a torn buffered write), never mid-log.
fn is_tail_tear(e: &WalError, bytes: &[u8]) -> bool {
    match *e {
        WalError::TruncatedLength { .. } | WalError::TornRecord { .. } => true,
        WalError::BadCrc { offset, .. } => {
            let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4")) as usize;
            offset + 8 + len == bytes.len()
        }
        _ => false,
    }
}

/// Crash-recovery read: every intact record plus how the file ended.
///
/// A torn tail (see [`Tail::Torn`]) ends the log at the last good record;
/// corruption before the tail — a bad CRC or malformed record with valid
/// frames after it — is a hard error, as is a bad or truncated magic on a
/// non-empty file. An entirely empty byte string is a valid empty log.
pub fn scan(bytes: &[u8]) -> Result<(Vec<Record>, Tail), WalError> {
    if bytes.is_empty() {
        return Ok((Vec::new(), Tail::Clean));
    }
    if let Err(e) = check_magic(bytes) {
        // A file shorter than the magic is itself a torn creation.
        return match e {
            WalError::TruncatedMagic => Ok((Vec::new(), Tail::Torn(e))),
            other => Err(other),
        };
    }
    match parse_frames(bytes, MAGIC.len(), 0) {
        (records, _, None) => Ok((records, Tail::Clean)),
        (records, _, Some(e)) if is_tail_tear(&e, bytes) => Ok((records, Tail::Torn(e))),
        (.., Some(e)) => Err(e),
    }
}

/// Strict read: magic plus every frame must parse to end-of-file; any
/// anomaly — including a torn tail — is the typed [`WalError`] for its
/// corruption class. Format tests and fixtures use this mode.
pub fn decode_strict(bytes: &[u8]) -> Result<Vec<Record>, WalError> {
    check_magic(bytes)?;
    match parse_frames(bytes, MAGIC.len(), 0) {
        (records, _, None) => Ok(records),
        (.., Some(e)) => Err(e),
    }
}

/// The force side of a log: everything an fsync — or a read-back — needs
/// and nothing an append does, so the engine can force or read the file
/// **without** holding the lock that serializes appends. Cheap to clone;
/// every clone counts into the same total, which [`Wal::fsyncs`] reports.
#[derive(Clone)]
pub struct WalForce {
    vfs: Arc<dyn Vfs>,
    path: Arc<str>,
    fsyncs: Arc<AtomicU64>,
}

impl WalForce {
    /// Durably flush every append that completed before this call began.
    /// Appends racing the call may or may not be covered.
    pub fn fsync(&self) -> Result<(), WalError> {
        self.vfs.fsync(&self.path)?;
        // A statistic: publishes no other data.
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Read the log back, holding its appends off for as short a time as
    /// possible: the frames already in the file are read with no lock
    /// held, then `hold_appends` runs, and the frames appended before it
    /// returned are read under the guard it returns — strictly, since
    /// with appends held off a torn tail is corruption. Sound as long as
    /// nothing but appends changes the file meanwhile. Returns every
    /// record in log order but a leading `Checkpoint`, and the guard. That
    /// image is one the caller is about to replace, so it is CRC-checked
    /// and skipped, never decoded.
    pub fn read_back<G>(
        &self,
        hold_appends: impl FnOnce() -> G,
    ) -> Result<(Vec<Record>, G), WalError> {
        let bytes = self.vfs.read(&self.path)?;
        check_magic(&bytes)?;
        // Stops early at a frame still landing, or at corruption, which
        // the strict read below then reports.
        let start = skip_checkpoint(&bytes, MAGIC.len());
        let (mut records, end, _) = parse_frames(&bytes, start, 0);
        let guard = hold_appends();
        match parse_frames(&self.vfs.read_from(&self.path, end)?, 0, end) {
            (rest, _, None) => {
                records.extend(rest);
                Ok((records, guard))
            }
            (.., Some(e)) => Err(e),
        }
    }
}

/// The append handle on one log file: frames records onto the Vfs and
/// counts appends/fsyncs for the engine's stats. Appends need `&mut self`
/// (the engine keeps the handle under a mutex); forcing goes through
/// [`Wal::force_handle`] and does not.
pub struct Wal {
    force: WalForce,
    appends: u64,
    /// Frame buffer reused by every append.
    scratch: Vec<u8>,
}

impl Wal {
    /// Open `path` for appending, writing the magic header if the file is
    /// new. Existing contents are *not* validated here — recovery does
    /// that with [`scan`] before constructing a `Wal`.
    pub fn open(vfs: Arc<dyn Vfs>, path: &str) -> Result<Wal, WalError> {
        if !vfs.exists(path) {
            vfs.append(path, MAGIC)?;
        }
        let force = WalForce { vfs, path: path.into(), fsyncs: Arc::new(AtomicU64::new(0)) };
        Ok(Wal { force, appends: 0, scratch: Vec::new() })
    }

    /// Append one framed record (write-through: one `Vfs::append` each).
    pub fn append(&mut self, record: &Record) -> Result<(), WalError> {
        self.scratch.clear();
        frame_into(record, &mut self.scratch);
        self.force.vfs.append(&self.force.path, &self.scratch)?;
        self.appends += 1;
        Ok(())
    }

    /// The handle that forces this log — the only way to fsync it, and
    /// one that does not borrow the `Wal`.
    pub fn force_handle(&self) -> WalForce {
        self.force.clone()
    }

    /// Atomically rewrite the log as `records` (checkpoint truncation):
    /// the new contents are fsynced into place before this returns.
    pub fn rewrite(&mut self, records: &[Record]) -> Result<(), WalError> {
        let mut bytes = MAGIC.to_vec();
        for r in records {
            frame_into(r, &mut bytes);
        }
        self.force.vfs.replace(&self.force.path, &bytes)?;
        self.force.fsync()?;
        self.appends += records.len() as u64;
        Ok(())
    }

    /// Records appended through this handle (including rewrites).
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Fsyncs issued through this handle and its force handles.
    pub fn fsyncs(&self) -> u64 {
        self.force.fsyncs.load(Ordering::Relaxed)
    }

    /// The log's file path.
    pub fn path(&self) -> &str {
        &self.force.path
    }

    /// The Vfs this log writes through.
    pub fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.force.vfs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::INIT_ACTION;
    use crate::vfs::MemVfs;

    fn commit(action: u64, epoch: u64, key: u8, value: u8) -> Record {
        let writes = vec![(vec![key], vec![value])];
        Record::Commit { action, epoch, writes }
    }

    fn sample() -> Vec<Record> {
        vec![
            Record::Write { action: INIT_ACTION, key: vec![1], version: vec![0] },
            Record::Write { action: INIT_ACTION, key: vec![2], version: vec![0] },
            commit(0, 1, 1, 10),
            commit(1, 2, 2, 20),
            commit(2, 3, 1, 30),
            commit(3, 4, 2, 40),
        ]
    }

    fn bytes_of(records: &[Record]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        for r in records {
            bytes.extend_from_slice(&frame(r));
        }
        bytes
    }

    #[test]
    fn append_scan_roundtrip() {
        let vfs = Arc::new(MemVfs::new());
        let mut wal = Wal::open(vfs.clone(), "t.wal").unwrap();
        for r in sample() {
            wal.append(&r).unwrap();
        }
        wal.force_handle().fsync().unwrap();
        assert_eq!(wal.appends(), 6);
        assert_eq!(wal.fsyncs(), 1);
        let (records, tail) = scan(&vfs.snapshot("t.wal")).unwrap();
        assert_eq!(records, sample());
        assert_eq!(tail, Tail::Clean);
        assert_eq!(decode_strict(&vfs.snapshot("t.wal")).unwrap(), sample());
    }

    /// A read-back returns the frames already there and those appended
    /// while it was under way, in log order — including one that was
    /// only half written when the read began.
    #[test]
    fn read_back_joins_the_frames_appended_during_it() {
        let vfs = Arc::new(MemVfs::new());
        let mut wal = Wal::open(vfs.clone(), "t.wal").unwrap();
        let force = wal.force_handle();
        let records = sample();
        let (before, during) = records.split_at(3);
        before.iter().for_each(|r| wal.append(r).unwrap());
        let landing = frame(&during[0]);
        let (head, tail) = landing.split_at(landing.len() / 2);
        vfs.append("t.wal", head).unwrap();
        let hold_appends = || {
            vfs.append("t.wal", tail).unwrap();
            during[1..].iter().for_each(|r| wal.append(r).unwrap());
        };
        let (read, ()) = force.read_back(hold_appends).unwrap();
        assert_eq!(read, records);
    }

    /// A read-back CRC-checks a leading checkpoint but does not decode or
    /// return it: only the records after it come back. A flipped bit
    /// inside the image is still corruption, reported at its frame.
    #[test]
    fn read_back_checks_a_leading_checkpoint_without_returning_it() {
        let image = (0..1000u32).map(|k| (k.to_le_bytes().to_vec(), 1, vec![7; 16])).collect();
        let records = [Record::Checkpoint { epoch: 1, snapshot: image }, commit(5, 2, 1, 50)];
        let vfs = Arc::new(MemVfs::new());
        vfs.install("t.wal", bytes_of(&records));
        let force = Wal::open(vfs.clone(), "t.wal").unwrap().force_handle();
        let (read, ()) = force.read_back(|| ()).unwrap();
        assert_eq!(read, records[1..]);
        let mut bytes = vfs.snapshot("t.wal");
        bytes[MAGIC.len() + 8 + 100] ^= 1;
        vfs.install("t.wal", bytes);
        let err = force.read_back(|| ()).unwrap_err();
        assert!(matches!(err, WalError::BadCrc { offset: 8, .. }), "{err:?}");
    }

    /// Once appends are held off, an incomplete last frame is corruption,
    /// reported at its offset in the file, not a tail to drop.
    #[test]
    fn read_back_rejects_a_tail_torn_while_appends_are_held() {
        let vfs = Arc::new(MemVfs::new());
        let mut wal = Wal::open(vfs.clone(), "t.wal").unwrap();
        sample().iter().for_each(|r| wal.append(r).unwrap());
        let torn_at = vfs.snapshot("t.wal").len();
        vfs.append("t.wal", &frame(&commit(4, 5, 1, 50))[..5]).unwrap();
        let err = wal.force_handle().read_back(|| ()).unwrap_err();
        assert_eq!(err, WalError::TruncatedLength { offset: torn_at });
    }

    #[test]
    fn frame_into_appends_the_bytes_frame_returns() {
        let mut all = Vec::new();
        let mut scratch = b"kept".to_vec();
        for r in sample() {
            frame_into(&r, &mut all);
            scratch.truncate(4);
            frame_into(&r, &mut scratch);
            assert_eq!(&scratch[..4], b"kept", "frame_into appends, never overwrites");
            assert_eq!(&scratch[4..], frame(&r));
        }
        assert_eq!(all, bytes_of(&sample())[MAGIC.len()..]);
    }

    #[test]
    fn force_handle_fsyncs_without_the_wal_and_counts_into_it() {
        let vfs = Arc::new(MemVfs::new());
        let mut wal = Wal::open(vfs.clone(), "t.wal").unwrap();
        let force = wal.force_handle();
        wal.append(&commit(0, 1, 1, 1)).unwrap();
        force.fsync().unwrap();
        force.clone().fsync().unwrap();
        assert_eq!(wal.fsyncs(), 2);
        vfs.arm_fsync_error(0);
        assert!(force.fsync().is_err());
        assert_eq!(wal.fsyncs(), 2, "a failed force is not counted");
    }

    #[test]
    fn reopen_appends_after_existing() {
        let vfs = Arc::new(MemVfs::new());
        let mut wal = Wal::open(vfs.clone(), "t.wal").unwrap();
        wal.append(&commit(0, 1, 1, 1)).unwrap();
        drop(wal);
        let mut wal = Wal::open(vfs.clone(), "t.wal").unwrap();
        wal.append(&commit(1, 2, 1, 2)).unwrap();
        let (records, tail) = scan(&vfs.snapshot("t.wal")).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(tail, Tail::Clean);
    }

    #[test]
    fn torn_tail_is_tolerated_by_scan_only() {
        let full = bytes_of(&sample());
        // Every strict prefix that cuts into the last frame scans to the
        // first 5 records with a Torn tail.
        let last_frame = frame(sample().last().unwrap());
        for cut in (full.len() - last_frame.len() + 1)..full.len() {
            let prefix = &full[..cut];
            let (records, tail) = scan(prefix).unwrap();
            assert_eq!(records.len(), 5, "cut {cut}");
            assert!(matches!(tail, Tail::Torn(_)), "cut {cut}");
            assert!(decode_strict(prefix).is_err(), "strict must reject cut {cut}");
        }
    }

    #[test]
    fn every_byte_prefix_scans_or_fails_typed() {
        let full = bytes_of(&sample());
        for cut in 0..=full.len() {
            let prefix = &full[..cut];
            match scan(prefix) {
                Ok((records, _)) => assert!(records.len() <= 6),
                Err(e) => panic!("prefix cut {cut} must scan (got {e})"),
            }
        }
    }

    #[test]
    fn mid_log_bitflip_is_a_hard_error() {
        let full = bytes_of(&sample());
        // Flip a payload byte of the FIRST record: scan must fail (valid
        // frames follow, so this cannot be a torn tail).
        let mut corrupt = full.clone();
        corrupt[MAGIC.len() + 8] ^= 0x40;
        match scan(&corrupt) {
            Err(WalError::BadCrc { offset, .. }) => assert_eq!(offset, MAGIC.len()),
            other => panic!("expected mid-log BadCrc, got {other:?}"),
        }
    }

    #[test]
    fn tail_bitflip_is_a_torn_tail() {
        let full = bytes_of(&sample());
        let mut corrupt = full.clone();
        let last = full.len() - 1;
        corrupt[last] ^= 0x01;
        let (records, tail) = scan(&corrupt).unwrap();
        assert_eq!(records.len(), 5, "last record discarded");
        assert!(matches!(tail, Tail::Torn(WalError::BadCrc { .. })));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = bytes_of(&sample());
        bytes[0] = b'X';
        assert_eq!(scan(&bytes), Err(WalError::BadMagic));
        assert_eq!(decode_strict(&bytes), Err(WalError::BadMagic));
    }

    #[test]
    fn truncated_magic_is_torn_for_scan() {
        let (records, tail) = scan(b"RNTW").unwrap();
        assert!(records.is_empty());
        assert_eq!(tail, Tail::Torn(WalError::TruncatedMagic));
        assert_eq!(decode_strict(b"RNTW"), Err(WalError::TruncatedMagic));
    }

    #[test]
    fn empty_bytes_are_an_empty_log() {
        assert_eq!(scan(b"").unwrap(), (Vec::new(), Tail::Clean));
    }

    #[test]
    fn rewrite_truncates() {
        let vfs = Arc::new(MemVfs::new());
        let mut wal = Wal::open(vfs.clone(), "t.wal").unwrap();
        for r in sample() {
            wal.append(&r).unwrap();
        }
        let checkpoint = Record::Checkpoint { epoch: 1, snapshot: vec![(vec![1], 1, vec![20])] };
        wal.rewrite(std::slice::from_ref(&checkpoint)).unwrap();
        let (records, tail) = scan(&vfs.snapshot("t.wal")).unwrap();
        assert_eq!(records, vec![checkpoint]);
        assert_eq!(tail, Tail::Clean);
        // Appends continue after the rewritten contents.
        wal.append(&commit(9, 2, 1, 9)).unwrap();
        let (records, _) = scan(&vfs.snapshot("t.wal")).unwrap();
        assert_eq!(records.len(), 2);
    }
}
