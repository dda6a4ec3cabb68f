//! Regenerates Table I: the examined scenario grid (GNN models × graph
//! structures × graph sparsity levels).

use ema_core::experiments::scenario_grid;
use ema_core::Json;

fn main() {
    // Table I is a pure enumeration, but it checks the flags every
    // binary accepts.
    let cli = ema_bench::Cli::from_args("table1");
    let _obs = ema_bench::ObsRun::begin(
        "table1",
        Json::obj(vec![("bin", Json::Str("table1".into()))]),
        cli.obs,
    );
    ema_obs::recorder().phase("report");
    println!("Table I: all examined scenarios\n");
    println!(
        "{:<12}{:<18}{:<10}",
        "GNN Model", "Graph Structure", "Sparsity"
    );
    println!("{}", "-".repeat(40));
    let grid = scenario_grid();
    for s in &grid {
        println!(
            "{:<12}{:<18}{:<10}",
            s.model.label(),
            s.graph,
            s.gdt.label()
        );
    }
    println!(
        "\n{} scenarios total (3 models × 6 graphs × 3 GDT levels)",
        grid.len()
    );
    println!("paper Table I lists the same axes: {{A3TGCN, ASTGCN, MTGNN}} ×");
    println!("{{Euclidean, kNN, DTW, Correlation, GNN-learned, Random}} × {{20%, 40%, 100%}}");
}
