//! Prints the experiment tables (E2–E9 and E12; the list is `experiments::EXPERIMENTS`).
//!
//! ```text
//! cargo run --release -p qld-harness --bin experiments            # all experiments
//! cargo run --release -p qld-harness --bin experiments -- --exp e3
//! cargo run --release -p qld-harness --bin experiments -- --tsv   # machine-readable
//! ```

use qld_harness::experiments::{run, run_all, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tsv = args.iter().any(|a| a == "--tsv");
    let selected: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--exp")
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect();

    let tables = if selected.is_empty() {
        run_all()
    } else {
        let mut out = Vec::new();
        for id in &selected {
            match run(id) {
                Some(t) => out.push(t),
                None => {
                    let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
                    eprintln!("unknown experiment `{id}`; available: {}", ids.join(", "));
                    std::process::exit(2);
                }
            }
        }
        out
    };

    for table in tables {
        if tsv {
            println!("# {} — {}", table.id, table.title);
            print!("{}", table.to_tsv());
            println!();
        } else {
            println!("{}", table.render());
        }
    }
}
