//! Cross-crate integration: the experiment harness itself.  Every experiment table
//! builds, is non-empty, and all of its correctness cells report success — this is the
//! automated counterpart of the `EXPERIMENTS.md` record.

use qld_harness::experiments::{self, all_correctness_cells_pass, EXPERIMENTS};
use qld_harness::figure::{figure1_ascii, figure1_dot};

#[test]
fn every_experiment_produces_a_consistent_table() {
    for (id, _) in EXPERIMENTS {
        let table = experiments::run(id).unwrap_or_else(|| panic!("experiment {id} missing"));
        assert!(!table.is_empty(), "{id} produced no rows");
        assert!(
            all_correctness_cells_pass(&table),
            "{id} has failing correctness cells:\n{}",
            table.render()
        );
        // Rendering round-trips without panicking and includes every row.
        let text = table.render();
        assert!(text.lines().count() >= table.len() + 3);
        let tsv = table.to_tsv();
        assert_eq!(tsv.lines().count(), table.len() + 1);
    }
}

#[test]
fn figure1_renders_both_formats() {
    let ascii = figure1_ascii();
    assert!(ascii.contains("DSPACE[log²n]"));
    assert!(ascii.contains("GC(log²n, [[LOGSPACE_pol]]^log)"));
    let dot = figure1_dot();
    assert!(dot.contains("digraph figure1"));
}

#[test]
fn experiment_workloads_are_labelled_correctly() {
    // The E4 comparison relies on instance labels; cross-check a sample of them against
    // the brute-force assignment solver.
    for li in qld_harness::workloads::dual_instances()
        .into_iter()
        .chain(qld_harness::workloads::non_dual_instances())
        .filter(|li| li.g.num_vertices().max(li.h.num_vertices()) <= 12)
    {
        assert!(
            experiments::brute_force_agrees(&li),
            "label of {} is wrong",
            li.name
        );
    }
}
