//! # uoi-tieredio
//!
//! The parallel-I/O substrate: an HDF5 stand-in ([`shf`]) plus the paper's
//! two data-distribution strategies ([`distribution`]) — the conventional
//! single-reader baseline and the three-tier Randomized Data Distribution
//! (T0 source file → T1 parallel contiguous hyperslab reads → T2 one-sided
//! random shuffle). Table II of the paper compares exactly these two.
//!
//! The [`recovery`] module is the data plane of shrink-and-recover
//! execution: checksum-verified Tier-2 row exchange and loss-less
//! re-striping after a communicator shrink (failed ranks' shards re-read
//! from storage through the same retrying hyperslab path).

#![forbid(unsafe_code)]

pub mod distribution;
pub mod recovery;
pub mod retry;
pub mod shf;

pub use distribution::{
    block_owner, block_range, conventional, randomized, tier2_shuffle, ConventionalConfig,
    DistTiming,
};
pub use recovery::{
    checksummed_row_groups, checksummed_rows, restripe_after_shrink, row_checksum,
    verified_get_row, verified_tier2_shuffle, verify_row, RestripeError, DEFAULT_GET_ATTEMPTS,
    VERIFIED_GROUP_ROWS,
};
pub use retry::{read_rows_retrying, RetryPolicy, DEFAULT_JITTER_SEED};
pub use shf::{write_matrix, ShfDataset, ShfError};
