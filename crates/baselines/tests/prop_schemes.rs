//! Property tests across every in-place write scheme: (1) decode is the
//! inverse of encode over arbitrary write histories, (2) FNW's per-word
//! flip bound holds, (3) MinShift never loses to DCW, and (4) placement
//! schemes never hand out an address twice.

use e2nvm_baselines::{
    Captopril, Datacon, Dcw, FlipNWrite, HammingTree, InPlaceScheme, MinShift, PlacementScheme,
};
use e2nvm_ml::rng::seeded;
use e2nvm_sim::bitops::hamming;
use e2nvm_sim::LogicalSegment;
use proptest::prelude::*;
use std::collections::HashSet;

fn write_history(len: usize, writes: usize) -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), len), 1..writes)
}

fn check_roundtrip(scheme: &mut dyn InPlaceScheme, history: &[Vec<u8>]) -> Result<(), String> {
    let len = history[0].len();
    let mut stored = vec![0u8; len];
    for (i, new) in history.iter().enumerate() {
        let w = scheme.encode(42, &stored, new);
        if w.stored.len() != len {
            return Err(format!("{}: write {i} changed length", scheme.name()));
        }
        let decoded = scheme.decode(42, &w.stored);
        if &decoded != new {
            return Err(format!("{}: write {i} failed roundtrip", scheme.name()));
        }
        stored = w.stored;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_schemes_roundtrip(history in write_history(24, 12)) {
        check_roundtrip(&mut Dcw, &history).map_err(TestCaseError::fail)?;
        check_roundtrip(&mut FlipNWrite::default(), &history).map_err(TestCaseError::fail)?;
        check_roundtrip(&mut MinShift::default(), &history).map_err(TestCaseError::fail)?;
        check_roundtrip(&mut Captopril::default(), &history).map_err(TestCaseError::fail)?;
    }

    /// Odd lengths exercise the partial-tail paths.
    #[test]
    fn odd_length_roundtrip(history in write_history(13, 8)) {
        check_roundtrip(&mut FlipNWrite::new(4), &history).map_err(TestCaseError::fail)?;
        check_roundtrip(&mut MinShift::new(8), &history).map_err(TestCaseError::fail)?;
        check_roundtrip(&mut Captopril::new(3, 2.0), &history).map_err(TestCaseError::fail)?;
    }

    /// FNW guarantee: data flips per 32-bit word never exceed 17
    /// (W/2 + flag).
    #[test]
    fn fnw_flip_bound(history in write_history(16, 10)) {
        let mut s = FlipNWrite::new(4);
        let mut stored = vec![0u8; 16];
        for new in &history {
            let w = s.encode(0, &stored, new);
            for wd in 0..4 {
                let lo = wd * 4;
                let flips = hamming(&stored[lo..lo + 4], &w.stored[lo..lo + 4]);
                prop_assert!(flips <= 16, "word {wd}: {flips} data flips");
            }
            stored = w.stored;
        }
    }

    /// MinShift (data+aux) never flips more than DCW over a history.
    #[test]
    fn minshift_never_loses_to_dcw(history in write_history(32, 10)) {
        let mut ms = MinShift::default();
        let mut ms_stored = vec![0u8; 32];
        let mut dcw_stored = vec![0u8; 32];
        let mut ms_total = 0u64;
        let mut dcw_total = 0u64;
        for new in &history {
            let w = ms.encode(0, &ms_stored, new);
            ms_total += hamming(&ms_stored, &w.stored) + w.aux_bits_flipped;
            ms_stored = w.stored;
            dcw_total += hamming(&dcw_stored, new);
            dcw_stored = new.clone();
        }
        prop_assert!(ms_total <= dcw_total, "minshift {ms_total} > dcw {dcw_total}");
    }

    /// Placement schemes: no double allocation, and free_count is
    /// conserved across choose/recycle.
    #[test]
    fn placement_no_double_allocation(
        pool_contents in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 8), 4..24),
        queries in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 8), 1..40),
    ) {
        let free: Vec<(LogicalSegment, Vec<u8>)> = pool_contents
            .iter()
            .enumerate()
            .map(|(i, c)| (LogicalSegment(i), c.clone()))
            .collect();
        let mut rng = seeded(99);
        let schemes: Vec<Box<dyn PlacementScheme>> = vec![
            Box::new(Datacon::new(false)),
            Box::new(HammingTree::new()),
        ];
        for mut s in schemes {
            s.initialize(&free, &mut rng);
            prop_assert_eq!(s.free_count(), free.len());
            let mut handed_out: HashSet<usize> = HashSet::new();
            for q in &queries {
                match s.choose(q) {
                    Some(seg) => {
                        prop_assert!(
                            handed_out.insert(seg.index()),
                            "{} handed out {} twice", s.name(), seg.index()
                        );
                        prop_assert!(seg.index() < free.len());
                    }
                    None => {
                        prop_assert_eq!(s.free_count(), 0,
                            "{} returned None with free segments", s.name());
                        break;
                    }
                }
            }
            // Recycle everything; pool must be whole again.
            let taken: Vec<usize> = handed_out.iter().copied().collect();
            for idx in &taken {
                s.recycle(LogicalSegment(*idx), &pool_contents[*idx]);
            }
            prop_assert_eq!(s.free_count(), free.len());
        }
    }
}
