//! The fig3/fig4/fig6 runner drives the real distributed `UoI_LASSO`
//! fit. At a tiny weak-scaling shape, two modeled core counts a factor
//! of 8 apart with the same per-core block must do the same computation
//! per core while the modeled collectives grow with the core count.

use uoi_bench::workload::{lasso_scaling_cfg, LassoScalingFit};
use uoi_core::ParallelLayout;
use uoi_mpisim::{MachineModel, Phase, PhaseLedger};
use uoi_telemetry::Telemetry;

fn point(modeled_cores: usize) -> PhaseLedger {
    LassoScalingFit {
        rows_per_core: 24,
        features: 300,
        modeled_cores,
        exec_ranks: 4,
        layout: ParallelLayout::admm_only(),
        cfg: lasso_scaling_cfg(2, 2, 3, 7),
        data_seed: 7,
        io_bytes: Some(1e9),
        model: MachineModel::deterministic(),
    }
    .execute(Telemetry::disabled())
    .phase_max()
}

#[test]
fn weak_scaling_keeps_compute_and_grows_communication() {
    let (small, large) = (point(64), point(512));
    let compute = |l: &PhaseLedger| l.get(Phase::Compute);
    let comm = |l: &PhaseLedger| l.get(Phase::Comm);
    assert!(compute(&small) > 0.0);
    assert_eq!(
        compute(&small).to_bits(),
        compute(&large).to_bits(),
        "per-core computation must not depend on the modeled core count"
    );
    assert!(
        comm(&large) > comm(&small),
        "communication must grow with the core count: {} -> {}",
        comm(&small),
        comm(&large)
    );
    assert!(
        small.get(Phase::DataIo) > 0.0,
        "the modeled read is charged"
    );
}
