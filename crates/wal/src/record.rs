//! The record vocabulary: one variant per action-tree status transition
//! the paper's resilience model makes durable, plus the checkpoint.

use crate::error::WalError;

/// The reserved action id tagging non-transactional initialization writes
/// (the paper's `init(x)`): a [`Record::Write`] with this action sets an
/// object's base value directly instead of pushing a version.
pub const INIT_ACTION: u64 = u64::MAX;

const TAG_BEGIN: u8 = 1;
const TAG_WRITE: u8 = 2;
const TAG_COMMIT: u8 = 3;
const TAG_ABORT: u8 = 4;
const TAG_CHECKPOINT: u8 = 5;
const TAG_BATCH_COMMIT: u8 = 6;

/// One durable event. Keys and versions are opaque byte strings — the
/// engine encodes its `K`/`V` types via [`crate::WalCodec`] before
/// appending, so the log format is independent of the store's type
/// parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// An action entered the tree (`create(T)`): top-level iff `parent`
    /// is `None`.
    Begin {
        /// The action's id (the engine's `TxnId`).
        action: u64,
        /// The parent action, if nested.
        parent: Option<u64>,
    },
    /// An action wrote a version of a key. With `action ==`
    /// [`INIT_ACTION`] this is a base-value seed, not a transactional
    /// version.
    Write {
        /// The writing action.
        action: u64,
        /// Encoded key.
        key: Vec<u8>,
        /// Encoded version (the value written).
        version: Vec<u8>,
    },
    /// The action committed to its parent (top-level: permanently — the
    /// only record class that is a durability point).
    Commit {
        /// The committing action.
        action: u64,
        /// The commit epoch, present iff this is a top-level commit: the
        /// monotonically increasing counter the MVCC store stamps on the
        /// versions this commit publishes. Nested commits carry `None` —
        /// they publish to their parent, not to the committed state.
        epoch: Option<u64>,
    },
    /// The action aborted; its subtree's versions are discarded.
    Abort {
        /// The aborting action.
        action: u64,
    },
    /// A group-committed batch of top-level commits, durable as one unit.
    ///
    /// Semantically equivalent to the listed `Commit { action, epoch:
    /// Some(epoch) }` records applied in order, but framed as a *single*
    /// record so the batch is atomic-in-log-or-absent: a crash can only
    /// tear the whole frame (discarded by [`crate::scan`]'s tail rule),
    /// never leave a prefix of the batch replayable as committed.
    BatchCommit {
        /// `(action, epoch)` pairs in epoch order — epochs are the
        /// contiguous run the sequencer allocated for the batch.
        commits: Vec<(u64, u64)>,
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

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
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
            Record::Begin { action, parent } => {
                out.push(TAG_BEGIN);
                put_u64(out, *action);
                match parent {
                    None => out.push(0),
                    Some(p) => {
                        out.push(1);
                        put_u64(out, *p);
                    }
                }
            }
            Record::Write { action, key, version } => {
                out.push(TAG_WRITE);
                put_u64(out, *action);
                put_bytes(out, key);
                put_bytes(out, version);
            }
            Record::Commit { action, epoch } => {
                out.push(TAG_COMMIT);
                put_u64(out, *action);
                match epoch {
                    None => out.push(0),
                    Some(e) => {
                        out.push(1);
                        put_u64(out, *e);
                    }
                }
            }
            Record::Abort { action } => {
                out.push(TAG_ABORT);
                put_u64(out, *action);
            }
            Record::BatchCommit { commits } => {
                out.push(TAG_BATCH_COMMIT);
                out.extend_from_slice(&(commits.len() as u32).to_le_bytes());
                for (action, epoch) in commits {
                    put_u64(out, *action);
                    put_u64(out, *epoch);
                }
            }
            Record::Checkpoint { epoch, snapshot } => {
                out.push(TAG_CHECKPOINT);
                put_u64(out, *epoch);
                out.extend_from_slice(&(snapshot.len() as u32).to_le_bytes());
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
                TAG_BEGIN => {
                    let action = c.u64()?;
                    let parent = match c.u8()? {
                        0 => None,
                        1 => Some(c.u64()?),
                        other => return Err(format!("bad parent flag {other}")),
                    };
                    Record::Begin { action, parent }
                }
                TAG_WRITE => {
                    let action = c.u64()?;
                    let key = c.bytes()?;
                    let version = c.bytes()?;
                    Record::Write { action, key, version }
                }
                TAG_COMMIT => {
                    let action = c.u64()?;
                    let epoch = match c.u8()? {
                        0 => None,
                        1 => Some(c.u64()?),
                        other => return Err(format!("bad epoch flag {other}")),
                    };
                    Record::Commit { action, epoch }
                }
                TAG_ABORT => Record::Abort { action: c.u64()? },
                TAG_BATCH_COMMIT => {
                    let n = c.u32()? as usize;
                    if n == 0 {
                        return Err("empty batch commit".to_string());
                    }
                    let mut commits = Vec::with_capacity(n.min(1 << 16));
                    for _ in 0..n {
                        let action = c.u64()?;
                        let epoch = c.u64()?;
                        commits.push((action, epoch));
                    }
                    Record::BatchCommit { commits }
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

    /// The acting id, if this record names exactly one (`None` for
    /// checkpoints and batch commits, which name zero or many).
    pub fn action(&self) -> Option<u64> {
        match self {
            Record::Begin { action, .. }
            | Record::Write { action, .. }
            | Record::Commit { action, .. }
            | Record::Abort { action } => Some(*action),
            Record::Checkpoint { .. } | Record::BatchCommit { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(r: Record) {
        let payload = r.encode();
        assert_eq!(Record::decode(&payload, 0).unwrap(), r);
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(Record::Begin { action: 7, parent: None });
        roundtrip(Record::Begin { action: 8, parent: Some(7) });
        roundtrip(Record::Write { action: 8, key: vec![1, 2], version: vec![] });
        roundtrip(Record::Write { action: INIT_ACTION, key: vec![0; 300], version: vec![9] });
        roundtrip(Record::Commit { action: 8, epoch: None });
        roundtrip(Record::Commit { action: 8, epoch: Some(3) });
        roundtrip(Record::Abort { action: 7 });
        roundtrip(Record::BatchCommit { commits: vec![(3, 11)] });
        roundtrip(Record::BatchCommit { commits: vec![(3, 11), (9, 12), (1, 13)] });
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
    }

    #[test]
    fn short_payload_rejected() {
        let mut payload = Record::Commit { action: 5, epoch: None }.encode();
        payload.truncate(4);
        assert!(matches!(Record::decode(&payload, 0), Err(WalError::BadRecord { .. })));
    }

    #[test]
    fn empty_batch_commit_rejected() {
        let err = Record::decode(&[TAG_BATCH_COMMIT, 0, 0, 0, 0], 0).unwrap_err();
        assert!(err.to_string().contains("empty batch"), "{err}");
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = Record::Abort { action: 5 }.encode();
        payload.push(0);
        let err = Record::decode(&payload, 0).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }
}
