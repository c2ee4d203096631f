//! The E1–E20 experiment drivers and the design-choice ablations, one
//! module per family of claims.  Each `eN_*` / `ablation_*` function runs one
//! experiment and returns a [`crate::table::Table`]; the runners the
//! scheduling and fault-tolerance experiments share are public so that the
//! examples and the integration tests drive the same code.  Which jobs exist
//! and how quick mode configures them is [`crate::runner::registry`]'s to say.

mod cash;
mod fault_tolerance;
mod federation;
mod mobility;
mod overload;
mod scale;
mod scheduling;

pub use cash::*;
pub use fault_tolerance::*;
pub use federation::*;
pub use mobility::*;
pub use overload::*;
pub use scale::*;
pub use scheduling::*;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunOpts;

    #[test]
    fn tables_render() {
        let quick = RunOpts::new(true);
        for table in [e4_folders(quick), e6_exchange(quick), e10_apps(quick)] {
            let rendered = table.render();
            assert!(rendered.contains("claim:"));
            assert!(!table.rows.is_empty());
        }
    }
}
