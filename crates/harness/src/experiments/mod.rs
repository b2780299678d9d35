//! One module per paper artifact. Each experiment exposes a `run`
//! function returning structured data plus a `render` into the ASCII
//! rows/series the paper's table or figure reports, so the CLI and the
//! integration tests share one code path.

pub mod ablate;
pub mod failure;
pub mod fig1;
pub mod fig3;
pub mod fig56;
pub mod fig7;
pub mod fig8;
pub mod model_diff;
pub mod reliability;
pub mod table1;
pub mod wearout;

/// The canonical experiment ids accepted by `edm-exp`.
pub const EXPERIMENT_IDS: [&str; 17] = [
    "table1",
    "fig1",
    "fig3",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "reliability",
    "failure",
    "wearout",
    "ablate-sigma",
    "ablate-lambda",
    "ablate-groups",
    "ablate-continuous",
    "ablate-decay",
    "ablate-gc",
    "model-diff",
];
