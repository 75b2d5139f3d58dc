//! Property tests for the persistent store's record codec (ISSUE 9
//! satellite): arbitrary persistable results round-trip losslessly
//! through `encode_record`/`decode_record`, and *any* single-byte
//! mutation of an encoded record is rejected by the header's checksum
//! chain — the framing leaves no undetected-corruption gap.

use proptest::prelude::*;

use crat_core::store::codec;
use crat_core::CratError;
use crat_sim::{CycleAttribution, SimError, SimStats, NUM_CAUSES};

/// Strings spanning the whole Latin-1 range: control characters,
/// quotes, and backslashes exercise the JSON escaper.
fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..24)
        .prop_map(|bytes| bytes.into_iter().map(|b| b as char).collect())
}

fn arb_attribution() -> impl Strategy<Value = CycleAttribution> {
    prop::collection::vec(
        prop::collection::vec(any::<u64>(), NUM_CAUSES..NUM_CAUSES + 1).prop_map(|v| {
            let mut row = [0u64; NUM_CAUSES];
            row.copy_from_slice(&v);
            row
        }),
        0..4,
    )
    .prop_map(|per_scheduler| CycleAttribution { per_scheduler })
}

/// Whole-domain [`SimStats`]: every counter of its table an arbitrary
/// `u64`, plus an arbitrary attribution shape.
fn arb_stats() -> impl Strategy<Value = SimStats> {
    let n = SimStats::default().counters().len();
    (
        prop::collection::vec(any::<u64>(), n..n + 1),
        arb_attribution(),
    )
        .prop_map(|(values, attribution)| {
            let mut stats = SimStats {
                attribution,
                ..SimStats::default()
            };
            for ((_, counter), v) in stats.counters_mut().into_iter().zip(values) {
                *counter = v;
            }
            stats
        })
}

/// Every persistable outcome: success plus the four deterministic
/// simulation errors.
fn arb_persistable() -> impl Strategy<Value = Result<SimStats, CratError>> {
    prop_oneof![
        arb_stats().prop_map(Ok),
        arb_string().prop_map(|p| Err(CratError::Sim(SimError::MissingParam(p)))),
        arb_string().prop_map(|m| Err(CratError::Sim(SimError::BadLaunch(m)))),
        (0u64..1).prop_map(|_| Err(CratError::Sim(SimError::Deadlock))),
        any::<u64>().prop_map(|cycles| Err(CratError::Sim(SimError::CycleLimit { cycles }))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Encode → decode is the identity on every persistable result.
    #[test]
    fn records_round_trip_losslessly(result in arb_persistable()) {
        prop_assert!(codec::persistable(&result));
        let record = codec::encode_record(&result)
            .ok_or_else(|| TestCaseError::fail("persistable result must encode"))?;
        let back = codec::decode_record(&record)
            .map_err(TestCaseError::fail)?;
        prop_assert_eq!(back, result);
    }

    /// Flipping any single bit of any byte — header or payload — is
    /// detected: `decode_record` refuses to return a value.
    #[test]
    fn any_single_byte_mutation_is_rejected(
        result in arb_persistable(),
        index_pick in any::<u64>(),
        bit in 0u8..8,
    ) {
        let record = codec::encode_record(&result)
            .ok_or_else(|| TestCaseError::fail("persistable result must encode"))?;
        let index = (index_pick % record.len() as u64) as usize;
        let mut damaged = record.clone();
        damaged[index] ^= 1 << bit;
        prop_assert!(
            codec::decode_record(&damaged).is_err(),
            "flip of bit {} at byte {}/{} went undetected",
            bit,
            index,
            record.len()
        );
    }

    /// Truncating a record at any point is detected.
    #[test]
    fn any_truncation_is_rejected(result in arb_persistable(), cut_pick in any::<u64>()) {
        let record = codec::encode_record(&result)
            .ok_or_else(|| TestCaseError::fail("persistable result must encode"))?;
        let cut = (cut_pick % record.len() as u64) as usize;
        prop_assert!(codec::decode_record(&record[..cut]).is_err());
    }
}
