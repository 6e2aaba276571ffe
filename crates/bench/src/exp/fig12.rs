//! Figure 12: SAC vs GASPARD2 per operation group.

use super::table1::{table1, ProfileTable};
use super::table2::table2;
use super::Experiment;
use crate::record;
use crate::record::Record;

/// The `fig12` command.
pub const EXPERIMENT: Experiment = Experiment {
    name: "fig12",
    title: "Figure 12: kernel execution and data transfer time",
    run: |s| Ok(record! { "groups": fig12_record(&table1(s)?, &table2(s)?) }),
};

/// Figure 12's four groups from the Table I (GASPARD2) and Table II (SaC)
/// runs, in seconds.
pub(crate) fn fig12_record(gaspard: &ProfileTable, sac: &ProfileTable) -> Record {
    ["Horizontal Filter", "Vertical Filter", "Host2Device", "Device2Host"]
        .iter()
        .enumerate()
        .map(|(i, group)| {
            record! {
                "group": *group,
                "sac_s": sac.rows[i].time_us / 1e6,
                "gaspard_s": gaspard.rows[i].time_us / 1e6,
            }
        })
        .collect()
}
