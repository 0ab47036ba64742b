//! The pipeline memoizes each pair's reference-set fingerprint at
//! registration. Whatever sequence of registrations, in-place
//! replacements and rejected calls runs, the memo must equal a fresh
//! `fingerprint_references` walk of the current list, so cache keys and
//! the `prep/<fingerprint>/…` store keys already on disk never change.

use geoalign_core::{fingerprint_references, persist, CrosswalkKey, IntegrationPipeline};
use geoalign_core::{CoreError, ReferenceData};
use geoalign_partition::DisaggregationMatrix;
use proptest::prelude::*;

const PAIRS: [(&str, &str); 2] = [("zip", "county"), ("zip", "tract")];

fn pipeline() -> IntegrationPipeline {
    let mut p = IntegrationPipeline::new();
    p.register_system("zip", ["z1", "z2", "z3", "z4"]);
    p.register_system("county", ["A", "B"]);
    p.register_system("tract", ["t1", "t2", "t3"]);
    p
}

/// A reference for `(source, target)` whose name and values vary with
/// `salt`; `n_source` can be set wrong to provoke a rejected call.
fn reference(salt: u64, n_source: usize, n_target: usize) -> ReferenceData {
    let triples: Vec<(usize, usize, f64)> = (0..n_source)
        .map(|i| {
            let j = (i + salt as usize) % n_target;
            (i, j, 1.0 + ((salt * 7 + i as u64) % 11) as f64 / 4.0)
        })
        .collect();
    let name = format!("ref-{}", salt % 5);
    let dm = DisaggregationMatrix::from_triples(name.clone(), n_source, n_target, triples).unwrap();
    ReferenceData::from_dm(name, dm).unwrap()
}

/// The memo, the fresh walk and both store keys agree for every pair.
fn check(p: &IntegrationPipeline) -> Result<(), TestCaseError> {
    for (source, target) in PAIRS {
        let refs: Vec<&ReferenceData> = p.references(source, target).iter().collect();
        let memo = p.fingerprint(source, target);
        if refs.is_empty() {
            prop_assert_eq!(memo, None);
            continue;
        }
        prop_assert_eq!(memo, Some(fingerprint_references(&refs)));
        let walked = CrosswalkKey::new(source, target, &refs);
        let memoized = CrosswalkKey::with_fingerprint(source, target, memo.unwrap_or_default());
        prop_assert_eq!(
            persist::prepared_key(&memoized),
            persist::prepared_key(&walked)
        );
        prop_assert_eq!(memoized, walked);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn memoized_fingerprint_tracks_every_mutation(
        ops in prop::collection::vec((0usize..6, 0usize..2, 0usize..4, 0u64..1000), 1..24)
    ) {
        let mut p = pipeline();
        check(&p)?;
        for (kind, pair, position, salt) in ops {
            let (source, target) = PAIRS[pair];
            let n_target = if target == "county" { 2 } else { 3 };
            let before = p.fingerprint(source, target);
            let result = match kind {
                0 | 1 => p.register_reference(source, target, reference(salt, 4, n_target)),
                2 | 3 => p.replace_reference(source, target, position, reference(salt, 4, n_target)),
                // Rejected calls: wrong dimensions, unknown system.
                4 => p.replace_reference(source, target, position, reference(salt, 3, n_target)),
                _ => p.register_reference(source, "nowhere", reference(salt, 4, n_target)),
            };
            if result.is_err() {
                prop_assert_eq!(p.fingerprint(source, target), before);
            }
            // Re-registering a system leaves the reference lists alone.
            if salt % 7 == 0 {
                p.register_system("county", ["A", "B"]);
            }
            check(&p)?;
        }
    }
}

#[test]
fn rejected_replacement_keeps_the_memo() {
    let mut p = pipeline();
    p.register_reference("zip", "county", reference(1, 4, 2))
        .unwrap();
    let memo = p.fingerprint("zip", "county");
    assert!(matches!(
        p.replace_reference("zip", "county", 3, reference(2, 4, 2)),
        Err(CoreError::UnknownReference { .. })
    ));
    assert!(matches!(
        p.replace_reference("zip", "county", 0, reference(2, 3, 2)),
        Err(CoreError::SourceMismatch { .. })
    ));
    assert_eq!(p.fingerprint("zip", "county"), memo);
    assert_eq!(p.fingerprint("county", "zip"), None);
}

#[test]
fn fingerprint_stream_is_pinned() {
    // `prep/<fingerprint>/…` records on disk are keyed by these bits; a
    // change to the FNV-1a stream would orphan every one of them.
    let a = reference(1, 4, 2);
    let b = reference(8, 4, 2);
    assert_eq!(fingerprint_references(&[&a]), 545595281084760590);
    assert_eq!(fingerprint_references(&[&a, &b]), 7937082666394479217);
}
