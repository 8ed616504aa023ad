//! Property tests for the persistence formats: the WAL record codec
//! and the store snapshot must round-trip arbitrary values, reject
//! arbitrary corruption, and never decode past a torn tail.

use e2nvm_core::EngineState;
use e2nvm_persist::{
    crc32, decode_records, encode_record, replay_and_truncate, ShardState, StoreSnapshot, WalOp,
};
use e2nvm_sim::{ControllerState, LogicalSegment, PhysicalSegment, WearPolicy};
use proptest::prelude::*;

fn wal_op() -> impl Strategy<Value = WalOp> {
    prop_oneof![
        (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(key, value)| WalOp::Put { key, value }),
        any::<u64>().prop_map(|key| WalOp::Delete { key }),
    ]
}

fn wal_ops() -> impl Strategy<Value = Vec<WalOp>> {
    proptest::collection::vec(wal_op(), 0..16)
}

fn encode_all(ops: &[WalOp]) -> Vec<u8> {
    let mut buf = Vec::new();
    for op in ops {
        encode_record(op, &mut buf);
    }
    buf
}

fn wear_policy() -> impl Strategy<Value = WearPolicy> {
    prop_oneof![
        Just(WearPolicy::None),
        (any::<u64>(), any::<u64>(), 0usize..10_000).prop_map(|(psi, writes, gap)| {
            WearPolicy::StartGap {
                psi,
                writes,
                gap: PhysicalSegment(gap),
            }
        }),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(psi, seed, writes, draws)| WearPolicy::RandomSwap {
                psi,
                seed,
                writes,
                draws,
            }
        ),
    ]
}

fn controller_state() -> impl Strategy<Value = Option<ControllerState>> {
    (
        any::<bool>(),
        wear_policy(),
        proptest::collection::vec(0usize..10_000, 0..12),
        proptest::collection::vec(any::<bool>(), 0..12),
    )
        .prop_map(|(present, policy, remap, retired)| {
            present.then_some(ControllerState {
                policy,
                remap,
                retired,
            })
        })
}

fn shard_state() -> impl Strategy<Value = ShardState> {
    (
        proptest::collection::vec(any::<u8>(), 0..96),
        proptest::collection::vec(any::<u8>(), 0..64),
        proptest::collection::vec(0usize..10_000, 0..8),
        proptest::collection::vec(
            (any::<u64>(), 0usize..10_000, 0usize..4096, 0usize..4096),
            0..8,
        ),
        controller_state(),
    )
        .prop_map(
            |(device_image, model, retired, entries, controller)| ShardState {
                device_image,
                state: EngineState {
                    model,
                    retired: retired.into_iter().map(LogicalSegment).collect(),
                    entries: entries
                        .into_iter()
                        .map(|(key, seg, off, len)| (key, LogicalSegment(seg), off, len))
                        .collect(),
                },
                controller,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any sequence of ops decodes back verbatim, consuming every byte.
    #[test]
    fn wal_records_roundtrip(ops in wal_ops()) {
        let buf = encode_all(&ops);
        let (decoded, consumed) = decode_records(&buf);
        prop_assert_eq!(consumed, buf.len());
        prop_assert_eq!(decoded, ops);
    }

    /// Cutting the log anywhere yields a clean prefix of the original
    /// ops and never decodes into the torn region — the invariant the
    /// recovery path's torn-tail truncation relies on.
    #[test]
    fn torn_tail_decodes_to_a_prefix(ops in wal_ops(), cut_frac in 0.0f64..1.0) {
        let buf = encode_all(&ops);
        let cut = (buf.len() as f64 * cut_frac) as usize;
        let (decoded, consumed) = decode_records(&buf[..cut]);
        prop_assert!(consumed <= cut);
        prop_assert!(decoded.len() <= ops.len());
        prop_assert_eq!(&decoded[..], &ops[..decoded.len()]);
        // The consumed prefix is exactly the encoding of the decoded ops.
        prop_assert_eq!(consumed, encode_all(&decoded).len());
    }

    /// Flipping any single bit of a record's payload is caught by the
    /// CRC: the record (and everything after it) is rejected.
    #[test]
    fn payload_bit_flip_is_detected(op in wal_op(), bit in any::<u16>()) {
        let mut buf = Vec::new();
        encode_record(&op, &mut buf);
        let payload_start = 8; // [len u32][crc u32] header
        let payload_bits = (buf.len() - payload_start) * 8;
        let bit = bit as usize % payload_bits;
        buf[payload_start + bit / 8] ^= 1 << (bit % 8);
        let (decoded, consumed) = decode_records(&buf);
        prop_assert_eq!(decoded.len(), 0);
        prop_assert_eq!(consumed, 0);
    }

    /// `replay_and_truncate` on a log with a torn tail reports the torn
    /// bytes and rewrites the file to the clean prefix.
    #[test]
    fn replay_truncates_torn_files(ops in wal_ops(), torn in proptest::collection::vec(any::<u8>(), 1..7)) {
        let dir = std::env::temp_dir().join("e2nvm_prop_persist_wal");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("torn-{}.wal", ops.len()));
        let mut buf = encode_all(&ops);
        let clean = buf.len() as u64;
        // A tail shorter than a record header can never be a valid
        // record, whatever its bytes: always torn.
        buf.extend_from_slice(&torn);
        std::fs::write(&path, &buf).unwrap();
        let replay = replay_and_truncate(&path).unwrap();
        prop_assert_eq!(&replay.ops[..], &ops[..]);
        prop_assert_eq!(replay.valid_bytes, clean);
        prop_assert_eq!(replay.total_bytes, clean + torn.len() as u64);
        prop_assert!(replay.torn());
        prop_assert_eq!(std::fs::metadata(&path).unwrap().len(), clean);
        std::fs::remove_file(&path).ok();
    }

    /// Snapshots round-trip arbitrary shard states bit-exactly.
    #[test]
    fn snapshot_roundtrips(shards in proptest::collection::vec(shard_state(), 0..4)) {
        let snap = StoreSnapshot { shards };
        let bytes = snap.to_bytes();
        let back = StoreSnapshot::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, snap);
    }

    /// Any strict prefix of a snapshot fails to decode (the CRC trailer
    /// no longer matches), and decoding never panics on it.
    #[test]
    fn snapshot_rejects_truncation(shards in proptest::collection::vec(shard_state(), 1..3), cut_frac in 0.0f64..1.0) {
        let bytes = StoreSnapshot { shards }.to_bytes();
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(StoreSnapshot::from_bytes(&bytes[..cut]).is_err());
    }

    /// Flipping any single bit of a snapshot is caught by the CRC
    /// trailer.
    #[test]
    fn snapshot_rejects_bit_flips(shards in proptest::collection::vec(shard_state(), 0..3), bit in any::<u32>()) {
        let mut bytes = StoreSnapshot { shards }.to_bytes();
        let nbits = bytes.len() * 8;
        let bit = bit as usize % nbits;
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(StoreSnapshot::from_bytes(&bytes).is_err());
    }

    /// The slice-by-8 CRC agrees with a byte-at-a-time reference on
    /// arbitrary data — lengths straddling the 8-byte fast path, its
    /// remainder loop, and everything between.
    #[test]
    fn crc_agrees_with_bytewise_reference(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Independent reference: reflected CRC-32/ISO-HDLC, one bit at
        // a time, no tables shared with the implementation under test.
        let mut crc = u32::MAX;
        for &b in &data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
        }
        prop_assert_eq!(crc32(&data), crc ^ u32::MAX);
    }
}
