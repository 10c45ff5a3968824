//! Property-based tests of the UoI support algebra, the VAR
//! rearrangement, and the Granger-network extraction.

use proptest::prelude::*;
use uoi_core::support::{dedup_family, intersect, intersect_many, union, union_many};
use uoi_core::{flatten_coefficients, partition_coefficients, GrangerNetwork, VarRegression};
use uoi_linalg::Matrix;

fn support_strategy(p: usize) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::btree_set(0..p, 0..p).prop_map(|s| s.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn intersect_commutative_and_contained(a in support_strategy(24), b in support_strategy(24)) {
        let ab = intersect(&a, &b);
        let ba = intersect(&b, &a);
        prop_assert_eq!(&ab, &ba);
        for i in &ab {
            prop_assert!(a.contains(i) && b.contains(i));
        }
        // Intersection is idempotent.
        prop_assert_eq!(intersect(&ab, &a), ab.clone());
    }

    #[test]
    fn union_commutative_and_covering(a in support_strategy(24), b in support_strategy(24)) {
        let ab = union(&a, &b);
        prop_assert_eq!(&ab, &union(&b, &a));
        for i in a.iter().chain(&b) {
            prop_assert!(ab.contains(i));
        }
        prop_assert!(ab.len() <= a.len() + b.len());
        // Sorted, deduplicated.
        for w in ab.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn de_morgan_style_monotonicity(fam in prop::collection::vec(support_strategy(16), 1..6)) {
        // intersect_many(F) ⊆ every member ⊆ union_many(F).
        let inter = intersect_many(&fam);
        let uni = union_many(&fam);
        for member in &fam {
            for i in &inter {
                prop_assert!(member.contains(i));
            }
            for i in member {
                prop_assert!(uni.contains(i));
            }
        }
        // Adding a member can only shrink the intersection.
        let mut fam2 = fam.clone();
        fam2.push(vec![0, 1, 2]);
        let inter2 = intersect_many(&fam2);
        for i in &inter2 {
            prop_assert!(inter.contains(i));
        }
    }

    #[test]
    fn dedup_family_preserves_members(fam in prop::collection::vec(support_strategy(12), 0..8)) {
        let dd = dedup_family(fam.clone());
        // No duplicates, no empties, every member came from the input.
        for (i, a) in dd.iter().enumerate() {
            prop_assert!(!a.is_empty());
            prop_assert!(fam.contains(a));
            for b in &dd[i + 1..] {
                prop_assert_ne!(a, b);
            }
        }
        for s in fam.iter().filter(|s| !s.is_empty()) {
            prop_assert!(dd.contains(s));
        }
    }

    #[test]
    fn coefficients_roundtrip(p in 1usize..6, d in 1usize..4, seed in 0u64..100) {
        let mats: Vec<Matrix> = (0..d)
            .map(|l| Matrix::from_fn(p, p, |i, j| ((i * 7 + j * 3 + l + seed as usize) % 11) as f64 - 5.0))
            .collect();
        let flat = flatten_coefficients(&mats);
        prop_assert_eq!(flat.len(), d * p * p);
        let back = partition_coefficients(&flat, p, d);
        prop_assert_eq!(back, mats);
    }

    #[test]
    fn var_regression_shapes(n in 6usize..40, p in 1usize..6, d in 1usize..4) {
        prop_assume!(n > d + 1);
        let series = Matrix::from_fn(n, p, |i, j| ((i * 13 + j * 5) % 17) as f64);
        let reg = VarRegression::build(&series, d);
        prop_assert_eq!(reg.samples(), n - d);
        prop_assert_eq!(reg.x.cols(), d * p);
        prop_assert_eq!(reg.vec_y().len(), (n - d) * p);
        let (rows, cols) = reg.kron_design().shape();
        prop_assert_eq!(rows, (n - d) * p);
        prop_assert_eq!(cols, d * p * p);
    }

    #[test]
    fn network_edges_match_nonzeros(p in 2usize..8, seed in 0u64..200) {
        let a = Matrix::from_fn(p, p, |i, j| {
            let h = (i * 31 + j * 17 + seed as usize) % 7;
            if h == 0 { 0.5 } else { 0.0 }
        });
        let net = GrangerNetwork::from_coefficients(std::slice::from_ref(&a), 0.0);
        prop_assert_eq!(net.edge_count(), a.count_nonzero(0.0));
        // Degrees are consistent with the edge list.
        let total: usize = net.degrees().iter().sum();
        prop_assert_eq!(total, 2 * net.edge_count_no_loops());
        prop_assert_eq!(net.adjacency().count_nonzero(0.0), net.edge_count());
    }
}
