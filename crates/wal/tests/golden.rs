//! Golden-file format tests: the on-disk WAL byte format is a contract.
//!
//! Each fixture under `tests/golden/` is a committed byte-exact log. The
//! tests assert (a) encoding today's records reproduces the committed
//! bytes bit-for-bit, and (b) decoding the committed bytes reproduces the
//! records — so any accidental format change fails loudly.
//!
//! A deliberate format change bumps [`MAGIC`], copies the previous
//! `single_commit.wal` to `formatNN_single_commit.wal` (a fixture that
//! must then be refused at the magic), and regenerates the rest once,
//! locally and serially:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test -p rnt-wal --test golden -- --test-threads=1
//! ```
//!
//! Serially, so no fixture is read while another test is halfway through
//! writing it; the corruption tests read today's encoding, not the file,
//! while `REGEN_GOLDEN` is set. With `CI` set as well, `REGEN_GOLDEN`
//! panics: a CI run that rewrote the fixtures it checks would pass
//! whatever the encoder did.
//!
//! The committed fixtures are format **06** (`RNTWAL06`): redo at
//! commit. A top-level commit is ONE `Commit` frame holding its action
//! id, its epoch and the `(key, version)` of every key it changes, in
//! key order, and nothing else — a frame is exactly one commit; seeds are
//! `Write` records under `INIT_ACTION`; a rewritten log starts with a
//! `Checkpoint` of `(key, epoch, value)` triples plus the watermark.
//! Begins, nested commits and aborts are not logged. Every integer in a
//! payload is as short as its value: framing fields are canonical
//! varints, and integer keys and values go through `WalCodec`. Older-format
//! logs are rejected by the magic check — there is no cross-format
//! migration path. `format03_single_commit.wal`,
//! `format04_single_commit.wal` and `format05_single_commit.wal` are the
//! last fixtures of those formats, kept as committed for `rnt-core`'s
//! durability suite to prove it.

use rnt_wal::{
    decode_strict, encode_to_vec, faults, frame, scan, Record, Tail, WalError, INIT_ACTION, MAGIC,
};

fn golden_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn encode_log(records: &[Record]) -> Vec<u8> {
    let mut bytes = MAGIC.to_vec();
    for r in records {
        bytes.extend_from_slice(&frame(r));
    }
    bytes
}

fn check_golden(name: &str, records: &[Record]) {
    let path = golden_dir().join(name);
    let bytes = encode_log(records);
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        assert!(
            std::env::var_os("CI").is_none(),
            "REGEN_GOLDEN is set under CI: regenerate fixtures locally, never where they are checked"
        );
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, &bytes).unwrap();
    }
    let committed = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("missing fixture {path:?} ({e}); run with REGEN_GOLDEN=1"));
    assert_eq!(
        committed, bytes,
        "{name}: committed fixture bytes differ from today's encoding — \
         the WAL format changed; bump the magic or fix the regression"
    );
    assert_eq!(decode_strict(&committed).unwrap(), records, "{name}: decode mismatch");
    let (scanned, tail) = scan(&committed).unwrap();
    assert_eq!(scanned, records);
    assert_eq!(tail, Tail::Clean);
}

/// An empty log: just the magic.
#[test]
fn golden_empty() {
    check_golden("empty.wal", &[]);
}

fn seed(key: &[u8], version: &[u8]) -> Record {
    Record::Write { action: INIT_ACTION, key: key.to_vec(), version: version.to_vec() }
}

fn commit(action: u64, epoch: u64, writes: &[(&[u8], &[u8])]) -> Record {
    let writes = writes.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
    Record::Commit { action, epoch, writes }
}

/// One top-level action writing one key and committing.
#[test]
fn golden_single_commit() {
    check_golden(
        "single_commit.wal",
        &[seed(b"k0", &encode_to_vec(&0u64)), commit(0, 1, &[(b"k0", &encode_to_vec(&7u64))])],
    );
}

/// A 3-deep nested tree — a grandchild writes `x` and commits, its
/// parent's sibling writes `y` and aborts, the root commits — logs one
/// frame: the root's commit with the surviving write. The rest of the
/// tree leaves no bytes.
fn nested_records() -> Vec<Record> {
    vec![seed(b"x", &[1]), seed(b"y", &[2]), commit(0, 1, &[(b"x", &[10])])]
}

#[test]
fn golden_nested_tree() {
    check_golden("nested_tree.wal", &nested_records());
}

/// A checkpointed log: snapshot first, then post-checkpoint traffic.
#[test]
fn golden_checkpoint() {
    check_golden(
        "checkpoint.wal",
        &[
            Record::Checkpoint {
                epoch: 3,
                snapshot: vec![(b"a".to_vec(), 2, vec![1]), (b"b".to_vec(), 3, vec![2, 0, 2])],
            },
            commit(5, 4, &[(b"a", &[9])]),
        ],
    );
}

// ---- corruption-class rejection over a committed fixture ----

fn nested_fixture() -> Vec<u8> {
    // During a REGEN_GOLDEN run, and if the file is missing, use today's
    // encoding: the committed file may still be the previous format's,
    // whichever order the tests run in. golden_nested_tree pins the
    // committed bytes to the same encoding.
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        return encode_log(&nested_records());
    }
    std::fs::read(golden_dir().join("nested_tree.wal"))
        .unwrap_or_else(|_| encode_log(&nested_records()))
}

#[test]
fn rejects_bad_crc() {
    let bytes = nested_fixture();
    // Flip a payload bit of the first record (not the last frame, so the
    // tail rule cannot excuse it).
    let corrupt = faults::flip_bit(&bytes, (MAGIC.len() + 8) * 8);
    assert!(matches!(decode_strict(&corrupt), Err(WalError::BadCrc { .. })));
    assert!(matches!(scan(&corrupt), Err(WalError::BadCrc { .. })));
}

#[test]
fn rejects_truncated_length_prefix() {
    let bytes = nested_fixture();
    let offsets = faults::record_offsets(&bytes);
    // Cut 3 bytes into the final frame header: strict rejects, scan
    // treats it as a torn tail.
    let cut = faults::truncate_to(&bytes, offsets[offsets.len() - 2] + 3);
    assert!(matches!(decode_strict(&cut), Err(WalError::TruncatedLength { .. })));
    let (records, tail) = scan(&cut).unwrap();
    assert_eq!(records.len(), faults::record_count(&bytes) - 1);
    assert!(matches!(tail, Tail::Torn(WalError::TruncatedLength { .. })));
}

#[test]
fn rejects_torn_tail_payload() {
    let bytes = nested_fixture();
    let cut = faults::truncate_to(&bytes, bytes.len() - 2);
    assert!(matches!(decode_strict(&cut), Err(WalError::TornRecord { .. })));
    let (records, tail) = scan(&cut).unwrap();
    assert_eq!(records.len(), faults::record_count(&bytes) - 1);
    assert!(matches!(tail, Tail::Torn(WalError::TornRecord { .. })));
}

#[test]
fn rejects_bad_magic() {
    let mut bytes = nested_fixture();
    bytes[3] ^= 0xFF;
    assert_eq!(decode_strict(&bytes), Err(WalError::BadMagic));
}

// ---- commit atomicity at the torn tail ----

/// Pin the single-commit tail behavior: an INTACT `Commit` frame at the
/// end of the log is trusted by recovery — its fsync may or may not have
/// completed before the crash, but Lemma 7 only forbids *acking* before
/// the force; replaying an unacked durable commit is always sound.
#[test]
fn intact_tail_commit_is_replayed() {
    let records = nested_records();
    let bytes = encode_log(&records);
    let (scanned, tail) = scan(&bytes).unwrap();
    assert_eq!(tail, Tail::Clean);
    assert_eq!(scanned.last(), records.last());
}

/// Three seeds and one top-level commit that writes all three keys.
fn multi_write_records() -> Vec<Record> {
    vec![
        seed(b"a", &[0]),
        seed(b"b", &[0]),
        seed(b"c", &[0]),
        commit(0, 1, &[(b"a", &[10]), (b"b", &[20]), (b"c", &[30])]),
    ]
}

/// The all-or-nothing invariant at the byte level: cutting the log
/// ANYWHERE inside a commit's frame discards the whole commit — no prefix
/// of its write set ever scans as committed. (Contrast with a frame per
/// write: a cut between them would leave a prefix of the commit durable.)
#[test]
fn torn_multi_write_commit_is_all_or_nothing() {
    let records = multi_write_records();
    let bytes = encode_log(&records);
    let offsets = faults::record_offsets(&bytes);
    let start = offsets[offsets.len() - 2];
    for cut in (start + 1)..bytes.len() {
        let prefix = faults::truncate_to(&bytes, cut);
        let (scanned, tail) = scan(&prefix).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        assert!(matches!(tail, Tail::Torn(_)), "cut {cut} inside the commit frame must tear");
        assert!(
            !scanned.iter().any(|r| matches!(r, Record::Commit { .. })),
            "cut {cut}: a torn commit must vanish wholly, never partially"
        );
        assert_eq!(scanned.len(), records.len() - 1, "cut {cut}");
    }
    // And the intact frame at the tail carries every write.
    let (scanned, tail) = scan(&bytes).unwrap();
    assert_eq!(tail, Tail::Clean);
    match scanned.last() {
        Some(Record::Commit { writes, .. }) => assert_eq!(writes.len(), 3),
        other => panic!("expected the intact commit, got {other:?}"),
    }
}

/// A tail bitflip inside a multi-write commit frame also discards the
/// whole commit (the CRC covers its full write set).
#[test]
fn corrupt_tail_multi_write_commit_is_discarded_wholly() {
    let bytes = encode_log(&multi_write_records());
    for bit in [0, 37, 91] {
        let offsets = faults::record_offsets(&bytes);
        let payload_start = offsets[offsets.len() - 2] + 8;
        let corrupt = faults::flip_bit(&bytes, (payload_start + bit / 8) * 8 + bit % 8);
        let (scanned, tail) = scan(&corrupt).unwrap();
        assert!(matches!(tail, Tail::Torn(WalError::BadCrc { .. })), "bit {bit}");
        assert!(!scanned.iter().any(|r| matches!(r, Record::Commit { .. })), "bit {bit}");
    }
}

#[test]
fn every_truncation_point_scans() {
    // The recovery guarantee at the byte level: EVERY prefix of a valid
    // log scans without a hard error, yielding only whole records.
    let bytes = nested_fixture();
    let total = faults::record_count(&bytes);
    for cut in 0..=bytes.len() {
        let prefix = faults::truncate_to(&bytes, cut);
        let (records, tail) = scan(&prefix).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        assert!(records.len() <= total);
        if cut == bytes.len() {
            assert_eq!(tail, Tail::Clean);
            assert_eq!(records.len(), total);
        }
    }
}
