//! Input validation for adversarial designs: non-finite entries,
//! constant and duplicate columns, zero-variance bootstrap resamples.
//!
//! Real unnormalized designs (neuroscience spike counts, genomics
//! matrices) arrive with NaN holes, dead channels, and exactly duplicated
//! probes. The pipelines run this pass before touching the solver stack
//! and either reject with a typed, coordinate-bearing [`DataError`]
//! ([`ValidationPolicy::Reject`]) or deterministically scrub the input
//! and record what was done ([`ValidationPolicy::Sanitize`]).
//!
//! Degenerate-but-representable inputs (constant or duplicated columns)
//! are never rejected: they are valid designs the solver stack can
//! handle via the jitter ladder, so both policies only *flag* them.
//! Corrupt values (NaN/Inf) are the reject/sanitize decision point.

use uoi_linalg::Matrix;

/// One defect found in an input design or response.
#[derive(Debug, Clone, PartialEq)]
pub enum DataIssue {
    /// `x[(row, col)]` is NaN or infinite.
    NonFinite {
        row: usize,
        col: usize,
        value_kind: NonFiniteKind,
    },
    /// `y[row]` is NaN or infinite.
    NonFiniteResponse {
        row: usize,
        value_kind: NonFiniteKind,
    },
    /// Column `col` holds a single repeated value (zero variance; a zero
    /// column after centring).
    ConstantColumn { col: usize, value: f64 },
    /// Columns `a < b` are bitwise identical — the Gram is exactly
    /// singular on any support containing both.
    DuplicateColumns { a: usize, b: usize },
    /// A bootstrap resample left at most one distinct row with nonzero
    /// weight — the resampled Gram has rank <= 1.
    DegenerateResample {
        bootstrap: usize,
        distinct_rows: usize,
    },
}

/// Which non-finite value was found (kept as an enum so `DataIssue` can
/// stay `Eq`-comparable without carrying the raw NaN payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NonFiniteKind {
    NaN,
    PosInf,
    NegInf,
}

impl NonFiniteKind {
    pub fn of(v: f64) -> Option<Self> {
        if v.is_nan() {
            Some(Self::NaN)
        } else if v == f64::INFINITY {
            Some(Self::PosInf)
        } else if v == f64::NEG_INFINITY {
            Some(Self::NegInf)
        } else {
            None
        }
    }

    pub fn as_str(&self) -> &'static str {
        match self {
            Self::NaN => "nan",
            Self::PosInf => "+inf",
            Self::NegInf => "-inf",
        }
    }
}

impl DataIssue {
    /// Short machine-readable kind tag (used by telemetry and reports).
    pub fn kind(&self) -> &'static str {
        match self {
            Self::NonFinite { .. } => "non_finite",
            Self::NonFiniteResponse { .. } => "non_finite_response",
            Self::ConstantColumn { .. } => "constant_column",
            Self::DuplicateColumns { .. } => "duplicate_columns",
            Self::DegenerateResample { .. } => "degenerate_resample",
        }
    }

    /// Is this corrupt data (rejectable) rather than a degenerate but
    /// representable design (flag-only)?
    pub fn is_corrupt(&self) -> bool {
        matches!(
            self,
            Self::NonFinite { .. } | Self::NonFiniteResponse { .. }
        )
    }
}

impl std::fmt::Display for DataIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NonFinite {
                row,
                col,
                value_kind,
            } => {
                write!(f, "design[({row}, {col})] is {}", value_kind.as_str())
            }
            Self::NonFiniteResponse { row, value_kind } => {
                write!(f, "response[{row}] is {}", value_kind.as_str())
            }
            Self::ConstantColumn { col, value } => {
                write!(f, "column {col} is constant ({value:.3e})")
            }
            Self::DuplicateColumns { a, b } => {
                write!(f, "columns {a} and {b} are bitwise identical")
            }
            Self::DegenerateResample {
                bootstrap,
                distinct_rows,
            } => write!(
                f,
                "bootstrap {bootstrap} resample has {distinct_rows} distinct row(s)"
            ),
        }
    }
}

/// Typed validation failure under [`ValidationPolicy::Reject`]: the
/// first corrupt value found, with coordinates, plus the total count.
#[derive(Debug, Clone, PartialEq)]
pub struct DataError {
    /// The first corrupt issue, in row-major scan order.
    pub first: DataIssue,
    /// Total corrupt values found.
    pub count: usize,
}

impl std::fmt::Display for DataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.count > 1 {
            write!(f, "{} (+{} more)", self.first, self.count - 1)
        } else {
            write!(f, "{}", self.first)
        }
    }
}

impl std::error::Error for DataError {}

/// What to do about corrupt (non-finite) values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValidationPolicy {
    /// Fail the fit with a typed [`DataError`] naming the first bad
    /// coordinate. The historical behaviour, now with coordinates.
    #[default]
    Reject,
    /// Replace every non-finite value with `0.0` (a centred design's
    /// neutral element), record each replacement, and proceed.
    Sanitize,
}

impl ValidationPolicy {
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::Reject => "reject",
            Self::Sanitize => "sanitize",
        }
    }
}

/// Outcome of a validation pass: every issue found (corrupt first, in
/// deterministic scan order) and how many cells were scrubbed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ValidationOutcome {
    /// All issues in deterministic order: design scan (row-major), then
    /// response scan, then column diagnostics (by column index).
    pub issues: Vec<DataIssue>,
    /// Cells replaced with `0.0` (only nonzero under `Sanitize`).
    pub sanitized_cells: usize,
}

impl ValidationOutcome {
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }

    pub fn corrupt_count(&self) -> usize {
        self.issues.iter().filter(|i| i.is_corrupt()).count()
    }
}

/// Validate (and under `Sanitize`, scrub in place) a design matrix and
/// response vector.
///
/// Under `Reject`, the first non-finite value aborts with a
/// [`DataError`]; the column diagnostics are still gathered for the
/// finite prefix is *not* guaranteed, so rejection is eager and cheap.
/// Under `Sanitize`, non-finite cells are zeroed in place and every
/// issue (corruption and degeneracy) is recorded.
///
/// Column diagnostics (constant / duplicate columns) are computed on the
/// post-scrub matrix, so a column that is constant *because* its NaNs
/// were zeroed is still flagged.
pub fn validate_xy(
    x: &mut Matrix,
    y: &mut [f64],
    policy: ValidationPolicy,
) -> Result<ValidationOutcome, DataError> {
    let (n, _p) = x.shape();
    assert_eq!(y.len(), n, "validate_xy: response length mismatch");
    let mut out = ValidationOutcome::default();

    // Pass 1: corrupt values, row-major over x then over y.
    for i in 0..n {
        let row = x.row_mut(i);
        for (j, v) in row.iter_mut().enumerate() {
            if let Some(kind) = NonFiniteKind::of(*v) {
                let issue = DataIssue::NonFinite {
                    row: i,
                    col: j,
                    value_kind: kind,
                };
                match policy {
                    ValidationPolicy::Reject => {
                        return Err(reject(x_corrupt_count(x, y), issue));
                    }
                    ValidationPolicy::Sanitize => {
                        *v = 0.0;
                        out.sanitized_cells += 1;
                        out.issues.push(issue);
                    }
                }
            }
        }
    }
    for (i, v) in y.iter_mut().enumerate() {
        if let Some(kind) = NonFiniteKind::of(*v) {
            let issue = DataIssue::NonFiniteResponse {
                row: i,
                value_kind: kind,
            };
            match policy {
                ValidationPolicy::Reject => {
                    return Err(reject(x_corrupt_count(x, y), issue));
                }
                ValidationPolicy::Sanitize => {
                    *v = 0.0;
                    out.sanitized_cells += 1;
                    out.issues.push(issue);
                }
            }
        }
    }

    // Pass 2: column diagnostics on the (now finite) design. Constant
    // columns by direct scan; duplicates by hashing column bit patterns
    // (O(n p) expected instead of O(n p^2) pairwise).
    let mut col_issues = column_diagnostics(x);
    out.issues.append(&mut col_issues);
    Ok(out)
}

fn reject(count: usize, first: DataIssue) -> DataError {
    DataError {
        first,
        count: count.max(1),
    }
}

fn x_corrupt_count(x: &Matrix, y: &[f64]) -> usize {
    x.as_slice().iter().filter(|v| !v.is_finite()).count()
        + y.iter().filter(|v| !v.is_finite()).count()
}

/// Constant- and duplicate-column diagnostics for a finite design.
pub fn column_diagnostics(x: &Matrix) -> Vec<DataIssue> {
    let (n, p) = x.shape();
    let mut issues = Vec::new();
    if n == 0 {
        return issues;
    }
    // Constant columns.
    for j in 0..p {
        let first = x[(0, j)];
        if (1..n).all(|i| x[(i, j)] == first) {
            issues.push(DataIssue::ConstantColumn {
                col: j,
                value: first,
            });
        }
    }
    // Duplicate columns: group by a 64-bit hash of the column's bit
    // pattern, confirm bitwise within buckets. Report each duplicate
    // column once, paired with the lowest earlier match.
    let mut buckets: std::collections::HashMap<u64, Vec<usize>> = std::collections::HashMap::new();
    for j in 0..p {
        let mut h = 0xcbf29ce484222325u64; // FNV-1a over the bit pattern
        for i in 0..n {
            h ^= x[(i, j)].to_bits();
            h = h.wrapping_mul(0x100000001b3);
        }
        buckets.entry(h).or_default().push(j);
    }
    let mut dups: Vec<(usize, usize)> = Vec::new();
    for cols in buckets.values() {
        if cols.len() < 2 {
            continue;
        }
        for (bi, &b) in cols.iter().enumerate() {
            for &a in &cols[..bi] {
                if (0..n).all(|i| x[(i, a)].to_bits() == x[(i, b)].to_bits()) {
                    dups.push((a.min(b), a.max(b)));
                    break; // report b once, against its first match
                }
            }
        }
    }
    dups.sort_unstable();
    issues.extend(
        dups.into_iter()
            .map(|(a, b)| DataIssue::DuplicateColumns { a, b }),
    );
    // Deterministic order: by column index, constants before duplicates
    // at equal index.
    issues.sort_by_key(|i| match i {
        DataIssue::ConstantColumn { col, .. } => (*col, 0usize, 0usize),
        DataIssue::DuplicateColumns { a, b } => (*a, 1, *b),
        _ => (usize::MAX, 2, 0),
    });
    issues
}

/// Check an integer resample-weight vector for degeneracy: a resample
/// whose mass sits on at most one distinct row yields a rank<=1 Gram.
pub fn check_resample_weights(bootstrap: usize, weights: &[u32]) -> Option<DataIssue> {
    let distinct = weights.iter().filter(|w| **w > 0).count();
    if distinct <= 1 {
        Some(DataIssue::DegenerateResample {
            bootstrap,
            distinct_rows: distinct,
        })
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design(n: usize, p: usize) -> Matrix {
        Matrix::from_fn(n, p, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0)
    }

    #[test]
    fn clean_input_is_clean() {
        let mut x = design(10, 4);
        let mut y = vec![1.0; 10];
        let out = validate_xy(&mut x, &mut y, ValidationPolicy::Reject).unwrap();
        assert!(out.is_clean());
        assert_eq!(out.sanitized_cells, 0);
    }

    #[test]
    fn reject_names_first_coordinate() {
        let mut x = design(6, 3);
        x[(2, 1)] = f64::NAN;
        x[(4, 0)] = f64::INFINITY;
        let mut y = vec![0.0; 6];
        let err = validate_xy(&mut x, &mut y, ValidationPolicy::Reject).unwrap_err();
        assert_eq!(
            err.first,
            DataIssue::NonFinite {
                row: 2,
                col: 1,
                value_kind: NonFiniteKind::NaN
            }
        );
        assert_eq!(err.count, 2);
    }

    #[test]
    fn reject_catches_response_corruption() {
        let mut x = design(5, 2);
        let mut y = vec![0.0; 5];
        y[3] = f64::NEG_INFINITY;
        let err = validate_xy(&mut x, &mut y, ValidationPolicy::Reject).unwrap_err();
        assert_eq!(
            err.first,
            DataIssue::NonFiniteResponse {
                row: 3,
                value_kind: NonFiniteKind::NegInf
            }
        );
    }

    #[test]
    fn sanitize_scrubs_and_records() {
        let mut x = design(6, 3);
        x[(2, 1)] = f64::NAN;
        x[(4, 0)] = f64::INFINITY;
        let mut y = vec![0.0; 6];
        y[1] = f64::NAN;
        let out = validate_xy(&mut x, &mut y, ValidationPolicy::Sanitize).unwrap();
        assert_eq!(out.sanitized_cells, 3);
        assert_eq!(out.corrupt_count(), 3);
        assert!(x.as_slice().iter().all(|v| v.is_finite()));
        assert!(y.iter().all(|v| v.is_finite()));
        assert_eq!(x[(2, 1)], 0.0);
        assert_eq!(y[1], 0.0);
    }

    #[test]
    fn sanitize_is_deterministic() {
        let mk = || {
            let mut x = design(8, 4);
            x[(1, 2)] = f64::NAN;
            x[(5, 3)] = f64::INFINITY;
            let mut y = vec![0.5; 8];
            let out = validate_xy(&mut x, &mut y, ValidationPolicy::Sanitize).unwrap();
            (x, out)
        };
        let (xa, oa) = mk();
        let (xb, ob) = mk();
        assert_eq!(oa, ob);
        for (a, b) in xa.as_slice().iter().zip(xb.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn constant_and_duplicate_columns_flagged_not_rejected() {
        let mut x = design(10, 5);
        x.set_col(1, &[3.5; 10]);
        let c = x.col(0);
        x.set_col(4, &c);
        let mut y = vec![0.0; 10];
        let out = validate_xy(&mut x, &mut y, ValidationPolicy::Reject).unwrap();
        assert_eq!(
            out.issues,
            vec![
                DataIssue::DuplicateColumns { a: 0, b: 4 },
                DataIssue::ConstantColumn { col: 1, value: 3.5 },
            ]
        );
    }

    #[test]
    fn degenerate_resample_detected() {
        assert!(check_resample_weights(0, &[0, 5, 0]).is_some());
        assert!(check_resample_weights(0, &[0, 0, 0]).is_some());
        assert!(check_resample_weights(0, &[1, 4, 0]).is_none());
        let issue = check_resample_weights(7, &[0, 3, 0]).unwrap();
        assert_eq!(
            issue,
            DataIssue::DegenerateResample {
                bootstrap: 7,
                distinct_rows: 1
            }
        );
    }

    #[test]
    fn issue_kinds_are_stable_tags() {
        assert_eq!(
            DataIssue::NonFinite {
                row: 0,
                col: 0,
                value_kind: NonFiniteKind::NaN
            }
            .kind(),
            "non_finite"
        );
        assert_eq!(
            DataIssue::DuplicateColumns { a: 0, b: 1 }.kind(),
            "duplicate_columns"
        );
    }
}
