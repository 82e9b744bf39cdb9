//! Property-based tests for the storage substrate: the B+-tree is checked
//! against `std::collections::BTreeMap` as a model, the key encoding against
//! the logical tuple order, and the external sorter against in-memory sort.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use fm_store::keycode;
use fm_store::{BTree, BufferPool, ExternalSorter, MemPager};
use proptest::prelude::*;

fn pool() -> Arc<BufferPool> {
    Arc::new(BufferPool::new(Box::new(MemPager::new()), 256))
}

/// Operations applied to both the real tree and the model.
#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    Get(Vec<u8>),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let key = prop::collection::vec(any::<u8>(), 0..24);
    let value = prop::collection::vec(any::<u8>(), 0..64);
    prop_oneof![
        3 => (key.clone(), value).prop_map(|(k, v)| Op::Insert(k, v)),
        1 => key.clone().prop_map(Op::Delete),
        1 => key.prop_map(Op::Get),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn btree_matches_btreemap_model(ops in prop::collection::vec(op_strategy(), 1..300)) {
        let tree = BTree::create(pool()).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let new = tree.insert(&k, &v).unwrap();
                    let model_new = model.insert(k, v).is_none();
                    prop_assert_eq!(new, model_new);
                }
                Op::Delete(k) => {
                    let removed = tree.delete(&k).unwrap();
                    prop_assert_eq!(removed, model.remove(&k).is_some());
                }
                Op::Get(k) => {
                    prop_assert_eq!(tree.get(&k).unwrap(), model.get(&k).cloned());
                }
            }
        }
        // Final full-scan equivalence (order AND content), plus a structural
        // audit: matching the model proves the answers, check_invariants
        // proves the pages.
        let check = tree.check_invariants().unwrap();
        prop_assert_eq!(check.entries, model.len());
        let scanned: Vec<(Vec<u8>, Vec<u8>)> = tree
            .range(Bound::Unbounded, Bound::Unbounded)
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        let expected: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(scanned, expected);
    }

    #[test]
    fn btree_range_matches_model_range(
        keys in prop::collection::btree_set(prop::collection::vec(any::<u8>(), 0..16), 0..120),
        lo in prop::collection::vec(any::<u8>(), 0..16),
        hi in prop::collection::vec(any::<u8>(), 0..16),
    ) {
        let tree = BTree::create(pool()).unwrap();
        let mut model = BTreeMap::new();
        for k in keys {
            tree.insert(&k, b"v").unwrap();
            model.insert(k, b"v".to_vec());
        }
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let got: Vec<Vec<u8>> = tree
            .range(Bound::Included(lo.as_slice()), Bound::Excluded(hi.as_slice()))
            .unwrap()
            .map(|r| r.unwrap().0)
            .collect();
        let want: Vec<Vec<u8>> = model
            .range::<[u8], _>((Bound::Included(lo.as_slice()), Bound::Excluded(hi.as_slice())))
            .map(|(k, _)| k.clone())
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn bulk_fill_then_ops_matches_model(
        base in prop::collection::btree_map(
            prop::collection::vec(any::<u8>(), 1..16),
            prop::collection::vec(any::<u8>(), 0..32),
            0..150,
        ),
        ops in prop::collection::vec(op_strategy(), 0..100),
    ) {
        let tree = BTree::create(pool()).unwrap();
        tree.bulk_fill(base.iter().map(|(k, v)| (k.clone(), v.clone()))).unwrap();
        let mut model = base;
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let new = tree.insert(&k, &v).unwrap();
                    prop_assert_eq!(new, model.insert(k, v).is_none());
                }
                Op::Delete(k) => {
                    prop_assert_eq!(tree.delete(&k).unwrap(), model.remove(&k).is_some());
                }
                Op::Get(k) => {
                    prop_assert_eq!(tree.get(&k).unwrap(), model.get(&k).cloned());
                }
            }
        }
        let check = tree.check_invariants().unwrap();
        prop_assert_eq!(check.entries, model.len());
        let scanned: Vec<(Vec<u8>, Vec<u8>)> = tree
            .range(Bound::Unbounded, Bound::Unbounded)
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        let expected: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(scanned, expected);
    }

    #[test]
    fn keycode_string_round_trip(s in "\\PC{0,32}") {
        let enc = keycode::KeyBuf::default().str(&s).into_bytes();
        let (dec, rest) = keycode::decode_str(&enc).unwrap();
        prop_assert_eq!(dec, s);
        prop_assert!(rest.is_empty());
    }

    #[test]
    fn keycode_bytes_order_preserving(a in prop::collection::vec(any::<u8>(), 0..24),
                                      b in prop::collection::vec(any::<u8>(), 0..24)) {
        let ea = keycode::KeyBuf::default().bytes(&a).into_bytes();
        let eb = keycode::KeyBuf::default().bytes(&b).into_bytes();
        prop_assert_eq!(a.cmp(&b), ea.cmp(&eb));
    }

    #[test]
    fn keycode_composite_order_preserving(
        s1 in "[a-z]{0,6}", c1 in any::<u8>(), n1 in any::<u32>(),
        s2 in "[a-z]{0,6}", c2 in any::<u8>(), n2 in any::<u32>(),
    ) {
        let encode = |s: &str, c: u8, n: u32| {
            keycode::KeyBuf::default().str(s).u8(c).u32(n).into_bytes()
        };
        let logical = (s1.as_str(), c1, n1).cmp(&(s2.as_str(), c2, n2));
        let encoded = encode(&s1, c1, n1).cmp(&encode(&s2, c2, n2));
        prop_assert_eq!(logical, encoded);
    }

    #[test]
    fn extsort_equals_std_sort(records in prop::collection::vec(
        prop::collection::vec(any::<u8>(), 0..32), 0..400,
    ), budget in 1usize..4096) {
        let mut sorter = ExternalSorter::with_budget(budget).unwrap();
        for r in &records {
            sorter.push(r).unwrap();
        }
        let got: Vec<Vec<u8>> = sorter.finish().unwrap().map(|r| r.unwrap()).collect();
        let mut want = records;
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }
}
