//! `UOI_WATCHDOG_MS` reaches every cluster: `Cluster::new` takes the
//! validated override, `with_watchdog` still wins, and an invalid value
//! falls back to the default. Its own test binary, because it sets the
//! process environment.

use std::time::Duration;
use uoi_mpisim::{Cluster, MachineModel, DEFAULT_WATCHDOG};

/// The watchdog every rank of `cluster` runs under.
fn effective(cluster: Cluster) -> Vec<Duration> {
    cluster.run(|ctx, _| ctx.watchdog()).results
}

#[test]
fn env_override_reaches_every_cluster() {
    let cluster = || Cluster::new(2, MachineModel::deterministic());
    std::env::set_var("UOI_WATCHDOG_MS", "1234");
    assert_eq!(effective(cluster()), vec![Duration::from_millis(1234); 2]);
    let pinned = cluster().with_watchdog(Duration::from_millis(50));
    assert_eq!(effective(pinned), vec![Duration::from_millis(50); 2]);
    std::env::set_var("UOI_WATCHDOG_MS", "0");
    assert_eq!(effective(cluster()), vec![DEFAULT_WATCHDOG; 2]);
    std::env::remove_var("UOI_WATCHDOG_MS");
    assert_eq!(effective(cluster()), vec![DEFAULT_WATCHDOG; 2]);
}
