//! The record vocabulary: redo-at-commit. The only event the paper's
//! resilience model makes durable is a top-level commit (Lemma 7), so a
//! commit is one record carrying its whole write set; the seeds and the
//! checkpoint are the other two.

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
    /// Top-level commits made durable as one unit: a lone commit, or a
    /// group-committed batch. The frame is atomic-in-log-or-absent — a
    /// crash tears the whole frame (discarded by [`crate::scan`]'s tail
    /// rule) or none of it, so no prefix of a batch is ever replayed as
    /// committed. A batch of one is byte-identical to an unbatched commit.
    Commit {
        /// The commits in epoch order — the contiguous run the sequencer
        /// allocated for the batch. Never empty.
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

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, n: usize) {
    out.extend_from_slice(&(n as u32).to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len());
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

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, String> {
        let n = self.u32()? as usize;
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
                put_u64(out, *action);
                put_bytes(out, key);
                put_bytes(out, version);
            }
            Record::Commit { commits } => {
                out.push(TAG_COMMIT);
                put_u32(out, commits.len());
                for c in commits {
                    put_u64(out, c.action);
                    put_u64(out, c.epoch);
                    put_u32(out, c.writes.len());
                    for (key, version) in &c.writes {
                        put_bytes(out, key);
                        put_bytes(out, version);
                    }
                }
            }
            Record::Checkpoint { epoch, snapshot } => {
                out.push(TAG_CHECKPOINT);
                put_u64(out, *epoch);
                put_u32(out, snapshot.len());
                for (k, e, v) in snapshot {
                    put_bytes(out, k);
                    put_u64(out, *e);
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
                    let action = c.u64()?;
                    let key = c.bytes()?;
                    let version = c.bytes()?;
                    Record::Write { action, key, version }
                }
                TAG_COMMIT => {
                    let n = c.u32()? as usize;
                    if n == 0 {
                        return Err("empty commit frame".to_string());
                    }
                    let mut commits = Vec::with_capacity(n.min(1 << 16));
                    for _ in 0..n {
                        let action = c.u64()?;
                        let epoch = c.u64()?;
                        let w = c.u32()? as usize;
                        let mut writes = Vec::with_capacity(w.min(1 << 16));
                        for _ in 0..w {
                            writes.push((c.bytes()?, c.bytes()?));
                        }
                        commits.push(CommitEntry { action, epoch, writes });
                    }
                    Record::Commit { commits }
                }
                TAG_CHECKPOINT => {
                    let epoch = c.u64()?;
                    let n = c.u32()? as usize;
                    let mut snapshot = Vec::with_capacity(n.min(1 << 16));
                    for _ in 0..n {
                        let k = c.bytes()?;
                        let e = c.u64()?;
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
            assert!(Record::decode(&[tag, 0, 0, 0, 0], 0).is_err(), "tag {tag}");
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
        let err = Record::decode(&[TAG_COMMIT, 0, 0, 0, 0], 0).unwrap_err();
        assert!(err.to_string().contains("empty commit frame"), "{err}");
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = Record::Commit { commits: vec![entry(5, 1, &[])] }.encode();
        payload.push(0);
        let err = Record::decode(&payload, 0).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }
}
