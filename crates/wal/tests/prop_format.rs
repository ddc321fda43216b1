//! Format-06 round trips: any record of any variant, with integers at
//! both ends of their range and keys from empty to longer than a
//! one-byte varint length, frames and reads back unchanged through both
//! readers — [`decode_strict`] and the crash-recovery [`scan`].

use proptest::prelude::*;
use rnt_wal::{decode_strict, frame, scan, Record, Tail, INIT_ACTION, MAGIC};

/// Action ids: the seed action, the largest id whose stored `action + 1`
/// does not wrap (ten varint bytes), and ordinary ones.
fn action() -> impl Strategy<Value = u64> {
    prop_oneof![
        1 => Just(INIT_ACTION),
        1 => Just(u64::MAX - 1),
        1 => Just(0u64),
        3 => 0u64..1 << 20,
        1 => 0u64..=u64::MAX,
    ]
}

/// Epochs, including both ends of the range.
fn epoch() -> impl Strategy<Value = u64> {
    prop_oneof![
        1 => Just(0u64),
        1 => Just(u64::MAX),
        3 => 0u64..1 << 20,
        1 => 0u64..=u64::MAX,
    ]
}

/// Byte strings: empty, short, and 300 bytes (a two-byte length).
fn bytes() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        1 => Just(Vec::new()),
        4 => prop::collection::vec(0u8..=255, 1..9),
        1 => prop::collection::vec(0u8..=255, 300),
    ]
}

fn record() -> impl Strategy<Value = Record> {
    prop_oneof![
        (action(), bytes(), bytes()).prop_map(|(action, key, version)| Record::Write {
            action,
            key,
            version
        }),
        (action(), epoch(), prop::collection::vec((bytes(), bytes()), 0..5))
            .prop_map(|(action, epoch, writes)| Record::Commit { action, epoch, writes }),
        (epoch(), prop::collection::vec((bytes(), epoch(), bytes()), 0..5))
            .prop_map(|(epoch, snapshot)| Record::Checkpoint { epoch, snapshot }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn records_round_trip_through_both_readers(
        records in prop::collection::vec(record(), 1..6),
    ) {
        let mut log = MAGIC.to_vec();
        for r in &records {
            let framed = frame(r);
            let payload = &framed[8..];
            let decoded = Record::decode(payload, 0);
            prop_assert_eq!(decoded.as_ref(), Ok(r));
            let encoded = r.encode();
            prop_assert_eq!(encoded.as_slice(), payload);
            log.extend_from_slice(&framed);
        }
        let strict = decode_strict(&log);
        prop_assert_eq!(strict.as_ref(), Ok(&records));
        let (scanned, tail) = scan(&log).expect("a whole log scans");
        prop_assert_eq!(&scanned, &records);
        prop_assert_eq!(tail, Tail::Clean);
    }
}
