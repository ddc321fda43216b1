//! The record vocabulary: redo-at-commit. The only event the paper's
//! resilience model makes durable is a top-level commit (Lemma 7), so a
//! commit is one record carrying its whole write set; the seeds and the
//! checkpoint are the other two.
//!
//! Payload layout (format 05). `v` is a canonical unsigned LEB128 varint,
//! `bytes` a `v` length (at most `u32::MAX`) followed by that many bytes:
//!
//! ```text
//! Write       [2] v(action + 1) bytes(key) bytes(version)
//! Commit      [3] v(n) n × ( v(action) v(epoch) v(w) w × ( bytes(key) bytes(version) ) )
//! Checkpoint  [5] v(epoch) v(n) n × ( bytes(key) v(last_epoch) bytes(value) )
//! ```
//!
//! A `Write`'s action is stored plus one (wrapping), so [`INIT_ACTION`],
//! the only action the engine seeds under, is the single byte `0`.
//! Decoding accepts each integer only in its shortest form, so a record
//! has exactly one encoding.

use crate::error::WalError;

/// The reserved action id tagging non-transactional initialization writes
/// (the paper's `init(x)`): a [`Record::Write`] with this action sets an
/// object's base value directly instead of pushing a version.
pub const INIT_ACTION: u64 = u64::MAX;

const TAG_WRITE: u8 = 2;
const TAG_COMMIT: u8 = 3;
pub(crate) const TAG_CHECKPOINT: u8 = 5;

/// One top-level commit inside a [`Record::Commit`] frame: everything
/// replay needs to redo it, with no reference to any other record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitEntry {
    /// The committing top-level action (the engine's `TxnId`). A label
    /// for error messages and oracles: replay needs no id, and a
    /// recovered engine numbers its transactions afresh.
    pub action: u64,
    /// The commit epoch: the monotonically increasing counter the MVCC
    /// store stamps on the versions this commit publishes.
    pub epoch: u64,
    /// `(key, version)` for every key whose committed value this commit
    /// changes, in key order. Empty for a read-only commit, which still
    /// takes an epoch.
    pub writes: Vec<(Vec<u8>, Vec<u8>)>,
}

/// One durable event. Keys and versions are opaque byte strings — the
/// engine encodes its `K`/`V` types via [`crate::WalCodec`] before
/// appending, so the log format is independent of the store's type
/// parameters.
///
/// Nothing below the top level is logged: a subtransaction's work reaches
/// the log only inside its top-level ancestor's commit, and an aborted or
/// in-flight tree leaves no bytes at all.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// A key written outside any commit. The engine appends only seeds
    /// (`action ==` [`INIT_ACTION`]), which set an object's base value;
    /// replay refuses any other action.
    Write {
        /// The writing action.
        action: u64,
        /// Encoded key.
        key: Vec<u8>,
        /// Encoded version (the value written).
        version: Vec<u8>,
    },
    /// Top-level commits made durable as one unit. The engine writes one
    /// commit per frame; a frame of several, in contiguous epochs, as
    /// earlier engines wrote for a group-committed batch, still decodes.
    /// The frame is atomic-in-log-or-absent — a crash tears the whole
    /// frame (discarded by [`crate::scan`]'s tail rule) or none of it, so
    /// no prefix of a multi-commit frame is ever replayed as committed.
    Commit {
        /// The commits in epoch order. Never empty.
        commits: Vec<CommitEntry>,
    },
    /// A full snapshot of the committed key space, written as the first
    /// record of a rewritten log so recovery cost stays bounded.
    Checkpoint {
        /// The MVCC watermark (highest published commit epoch) at the
        /// moment of the checkpoint; replay resumes epoch numbering here.
        epoch: u64,
        /// `(key, last_epoch, value)` triples of every committed object,
        /// where `last_epoch` is the commit epoch of the object's newest
        /// version — so recovery rebuilds chains identical to the
        /// pre-crash store, not merely value-equal.
        snapshot: Vec<(Vec<u8>, u64, Vec<u8>)>,
    },
}

/// Append `v` as a canonical unsigned LEB128 varint: seven bits a byte,
/// low group first, the high bit set on every byte but the last.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_varint(out, b.len() as u64);
    out.extend_from_slice(b);
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err(format!("need {n} bytes, {} left", self.buf.len() - self.pos));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// A varint in its one canonical form: at most 10 bytes, no bits past
    /// the 64th, and no trailing zero group (`[0x80, 0x00]` is not `0`).
    fn varint(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        for i in 0..10 {
            let b = self.u8()?;
            if i == 9 && b > 1 {
                return Err("varint overflows u64".to_string());
            }
            v |= u64::from(b & 0x7F) << (7 * i);
            if b & 0x80 == 0 {
                if b == 0 && i > 0 {
                    return Err("non-shortest varint".to_string());
                }
                return Ok(v);
            }
        }
        unreachable!("the 10th byte has no continuation bit")
    }

    /// A count or byte length: a varint no larger than a `u32`.
    fn len(&mut self) -> Result<usize, String> {
        let n = self.varint()?;
        u32::try_from(n).map(|n| n as usize).map_err(|_| format!("length {n} over u32"))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, String> {
        let n = self.len()?;
        Ok(self.take(n)?.to_vec())
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

impl Record {
    /// Serialize this record's payload (the bytes the frame CRC covers).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Append this record's payload to `out` (what [`Record::encode`]
    /// returns, without the allocation).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Record::Write { action, key, version } => {
                out.push(TAG_WRITE);
                put_varint(out, action.wrapping_add(1));
                put_bytes(out, key);
                put_bytes(out, version);
            }
            Record::Commit { commits } => {
                out.push(TAG_COMMIT);
                put_varint(out, commits.len() as u64);
                for c in commits {
                    put_varint(out, c.action);
                    put_varint(out, c.epoch);
                    put_varint(out, c.writes.len() as u64);
                    for (key, version) in &c.writes {
                        put_bytes(out, key);
                        put_bytes(out, version);
                    }
                }
            }
            Record::Checkpoint { epoch, snapshot } => {
                out.push(TAG_CHECKPOINT);
                put_varint(out, *epoch);
                put_varint(out, snapshot.len() as u64);
                for (k, e, v) in snapshot {
                    put_bytes(out, k);
                    put_varint(out, *e);
                    put_bytes(out, v);
                }
            }
        }
    }

    /// Parse a payload back into a record. `offset` is the frame's byte
    /// offset in the file, used only to label errors.
    pub fn decode(payload: &[u8], offset: usize) -> Result<Record, WalError> {
        let bad = |detail: String| WalError::BadRecord { offset, detail };
        let mut c = Cursor { buf: payload, pos: 0 };
        let record = (|| -> Result<Record, String> {
            let tag = c.u8()?;
            let record = match tag {
                TAG_WRITE => {
                    let action = c.varint()?.wrapping_sub(1);
                    let key = c.bytes()?;
                    let version = c.bytes()?;
                    Record::Write { action, key, version }
                }
                TAG_COMMIT => {
                    let n = c.len()?;
                    if n == 0 {
                        return Err("empty commit frame".to_string());
                    }
                    let mut commits = Vec::with_capacity(n.min(1 << 16));
                    for _ in 0..n {
                        let action = c.varint()?;
                        let epoch = c.varint()?;
                        let w = c.len()?;
                        let mut writes = Vec::with_capacity(w.min(1 << 16));
                        for _ in 0..w {
                            writes.push((c.bytes()?, c.bytes()?));
                        }
                        commits.push(CommitEntry { action, epoch, writes });
                    }
                    Record::Commit { commits }
                }
                TAG_CHECKPOINT => {
                    let epoch = c.varint()?;
                    let n = c.len()?;
                    let mut snapshot = Vec::with_capacity(n.min(1 << 16));
                    for _ in 0..n {
                        let k = c.bytes()?;
                        let e = c.varint()?;
                        let v = c.bytes()?;
                        snapshot.push((k, e, v));
                    }
                    Record::Checkpoint { epoch, snapshot }
                }
                other => return Err(format!("unknown record tag {other}")),
            };
            Ok(record)
        })()
        .map_err(&bad)?;
        if !c.done() {
            return Err(bad(format!("{} trailing bytes", payload.len() - c.pos)));
        }
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(r: Record) {
        let payload = r.encode();
        assert_eq!(Record::decode(&payload, 0).unwrap(), r);
    }

    fn entry(action: u64, epoch: u64, writes: &[(&[u8], &[u8])]) -> CommitEntry {
        let writes = writes.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        CommitEntry { action, epoch, writes }
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(Record::Write { action: 8, key: vec![1, 2], version: vec![] });
        roundtrip(Record::Write { action: INIT_ACTION, key: vec![0; 300], version: vec![9] });
        roundtrip(Record::Commit { commits: vec![entry(3, 11, &[])] });
        roundtrip(Record::Commit { commits: vec![entry(3, 11, &[(&[1], &[2, 3])])] });
        roundtrip(Record::Commit {
            commits: vec![
                entry(3, 11, &[(&[1], &[2]), (&[4, 5], &[])]),
                entry(9, 12, &[]),
                entry(1, 13, &[(&[], &[7; 40])]),
            ],
        });
        roundtrip(Record::Checkpoint { epoch: 0, snapshot: vec![] });
        roundtrip(Record::Checkpoint {
            epoch: 9,
            snapshot: vec![(vec![1], 4, vec![2, 3]), (vec![4, 5], 9, vec![])],
        });
    }

    #[test]
    fn unknown_tag_rejected() {
        let err = Record::decode(&[99], 16).unwrap_err();
        assert!(matches!(err, WalError::BadRecord { offset: 16, .. }), "{err:?}");
        // The retired tags of format 03 (begin, abort, batch commit).
        for tag in [1, 4, 6] {
            assert!(Record::decode(&[tag, 0], 0).is_err(), "tag {tag}");
        }
    }

    #[test]
    fn short_payload_rejected() {
        let mut payload = Record::Commit { commits: vec![entry(5, 1, &[(&[1], &[2])])] }.encode();
        payload.truncate(payload.len() - 1);
        assert!(matches!(Record::decode(&payload, 0), Err(WalError::BadRecord { .. })));
    }

    #[test]
    fn empty_commit_frame_rejected() {
        let err = Record::decode(&[TAG_COMMIT, 0], 0).unwrap_err();
        assert!(err.to_string().contains("empty commit frame"), "{err}");
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = Record::Commit { commits: vec![entry(5, 1, &[])] }.encode();
        payload.push(0);
        let err = Record::decode(&payload, 0).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    /// A `Write` payload whose action field is the varint `action`.
    fn write_with_action(action: &[u8]) -> Vec<u8> {
        [&[TAG_WRITE][..], action, &[0, 0]].concat()
    }

    fn rejected(payload: &[u8], what: &str) {
        let err = Record::decode(payload, 0).unwrap_err();
        assert!(err.to_string().contains(what), "{err}");
    }

    #[test]
    fn init_action_is_one_byte() {
        let seed = Record::Write { action: INIT_ACTION, key: vec![], version: vec![] };
        assert_eq!(seed.encode(), [TAG_WRITE, 0, 0, 0]);
        let last = Record::Write { action: u64::MAX - 1, key: vec![], version: vec![] };
        assert_eq!(last.encode().len(), 1 + 10 + 2, "u64::MAX needs all ten varint bytes");
    }

    /// Each framing integer has one encoding: a varint that is not the
    /// shortest, runs past 10 bytes or past 64 bits, or a length past
    /// `u32`, is a bad record.
    #[test]
    fn non_canonical_varints_rejected() {
        rejected(&write_with_action(&[0x80, 0x00]), "non-shortest");
        rejected(&write_with_action(&[0xFF, 0x80, 0x00]), "non-shortest");
        rejected(&write_with_action(&[[0x80; 10].as_slice(), &[0x01]].concat()), "overflows");
        rejected(&write_with_action(&[[0xFF; 9].as_slice(), &[0x02]].concat()), "overflows");
        // The 10th byte may hold the 64th bit and nothing more.
        let max = [[0xFF; 9].as_slice(), &[0x01]].concat();
        let decoded = Record::decode(&write_with_action(&max), 0).unwrap();
        assert!(matches!(decoded, Record::Write { action, .. } if action == u64::MAX - 1));
        // 2^32 as a key length.
        rejected(&[TAG_WRITE, 0, 0x80, 0x80, 0x80, 0x80, 0x10], "over u32");
        rejected(&[TAG_COMMIT, 0x80, 0x80, 0x80, 0x80, 0x10], "over u32");
        // u32::MAX itself is a length, just not one this payload holds.
        rejected(&[TAG_WRITE, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F], "need 4294967295 bytes");
    }
}
