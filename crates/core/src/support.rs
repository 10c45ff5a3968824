//! Support algebra: the Intersection and Union "Reduce" operations of the
//! UoI Map-Solve-Reduce structure (paper eqs. 3–4, Fig 1b/1d).
//!
//! A support is a sorted, deduplicated list of feature indices. The model
//! selection step intersects supports across bootstrap resamples per
//! lambda (feature *compression*, eq. 3); the estimation step unions the
//! prediction-optimal supports through estimate averaging (feature
//! *expansion*, eq. 4).

/// Sorted intersection of two supports.
pub fn intersect(a: &[usize], b: &[usize]) -> Vec<usize> {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]));
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Sorted union of two supports.
pub fn union(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x == y => {
                i += 1;
                j += 1;
                x
            }
            (Some(&x), Some(&y)) if x < y => {
                i += 1;
                x
            }
            (Some(_), Some(&y)) => {
                j += 1;
                y
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => unreachable!(),
        };
        out.push(next);
    }
    out
}

/// Intersection across many supports (eq. 3: `S_j = ∩_k S_j^k`). An empty
/// family yields an empty support.
pub fn intersect_many(supports: &[Vec<usize>]) -> Vec<usize> {
    match supports.split_first() {
        None => Vec::new(),
        Some((first, rest)) => {
            let mut acc = first.clone();
            for s in rest {
                acc = intersect(&acc, s);
                if acc.is_empty() {
                    break;
                }
            }
            acc
        }
    }
}

/// Union across many supports (eq. 4 aggregate).
pub fn union_many(supports: &[Vec<usize>]) -> Vec<usize> {
    let mut acc = Vec::new();
    for s in supports {
        acc = union(&acc, s);
    }
    acc
}

/// Deduplicate a family of candidate supports, preserving first-seen
/// order and dropping empties — the "family of potential model supports
/// S = [S_1 ... S_q]" with redundant members removed.
pub fn dedup_family(family: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
    let mut seen: Vec<Vec<usize>> = Vec::new();
    for s in family {
        if !s.is_empty() && !seen.contains(&s) {
            seen.push(s);
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersect_basic() {
        assert_eq!(intersect(&[1, 3, 5, 7], &[3, 4, 5]), vec![3, 5]);
        assert_eq!(intersect(&[], &[1]), Vec::<usize>::new());
        assert_eq!(intersect(&[2, 4], &[1, 3]), Vec::<usize>::new());
    }

    #[test]
    fn union_basic() {
        assert_eq!(union(&[1, 3], &[2, 3, 9]), vec![1, 2, 3, 9]);
        assert_eq!(union(&[], &[]), Vec::<usize>::new());
        assert_eq!(union(&[5], &[]), vec![5]);
    }

    #[test]
    fn intersect_many_shrinks_monotonically() {
        // Adding more bootstrap supports can only shrink the intersection
        // — the false-positive-control property of eq. 3.
        let fam = vec![vec![1, 2, 3, 4, 5], vec![2, 3, 4, 5], vec![3, 4, 5, 9]];
        let s2 = intersect_many(&fam[..2]);
        let s3 = intersect_many(&fam);
        assert!(s3.iter().all(|i| s2.contains(i)), "S(B+1) ⊆ S(B)");
        assert_eq!(s3, vec![3, 4, 5]);
    }

    #[test]
    fn union_many_grows_monotonically() {
        let fam = vec![vec![1], vec![4], vec![1, 7]];
        let u2 = union_many(&fam[..2]);
        let u3 = union_many(&fam);
        assert!(u2.iter().all(|i| u3.contains(i)), "U(B) ⊆ U(B+1)");
        assert_eq!(u3, vec![1, 4, 7]);
    }

    #[test]
    fn empty_family_conventions() {
        assert_eq!(intersect_many(&[]), Vec::<usize>::new());
        assert_eq!(union_many(&[]), Vec::<usize>::new());
    }

    #[test]
    fn dedup_family_drops_repeats_and_empties() {
        let fam = vec![vec![1, 2], vec![], vec![1, 2], vec![3]];
        assert_eq!(dedup_family(fam), vec![vec![1, 2], vec![3]]);
    }
}
