//! Regenerate the paper's figures.
//!
//! ```text
//! experiments all --quick            # every figure, CI-sized
//! experiments fig10 fig12            # selected figures, full-sized
//! experiments all --out results/     # also write CSVs
//! ```

use e2nvm_bench::{figures, Scale, Table};
use std::path::PathBuf;
use std::time::Instant;

type FigFn = fn(Scale) -> Table;

const FIGURES: &[(&str, &str, FigFn)] = &[
    (
        "fig01",
        "device energy/latency vs content difference",
        figures::device::fig01,
    ),
    (
        "fig02",
        "bit updates vs wear-leveling period",
        figures::device::fig02,
    ),
    (
        "fig04",
        "clustering scalability (K-means/PCA/VAE)",
        figures::model::fig04,
    ),
    (
        "fig07",
        "DAP memory + energy vs #segments",
        figures::engine::fig07,
    ),
    (
        "fig08",
        "SSE elbow + energy valley vs K",
        figures::model::fig08,
    ),
    (
        "fig09",
        "VAE loss curves per dataset",
        figures::model::fig09,
    ),
    (
        "fig10",
        "write schemes vs k per dataset",
        figures::engine::fig10,
    ),
    (
        "fig11",
        "YCSB energy vs segment size and k",
        figures::engine::fig11,
    ),
    (
        "fig12",
        "index structures bare vs E2-plugged",
        figures::structures::fig12,
    ),
    ("fig13", "segment x pool size grid", figures::engine::fig13),
    (
        "fig14",
        "padding types x locations",
        figures::padding::fig14,
    ),
    (
        "fig15",
        "learned padding vs padded fraction",
        figures::padding::fig15,
    ),
    (
        "fig16",
        "energy over train/write/retrain phases",
        figures::structures::fig16,
    ),
    (
        "fig17",
        "dynamic scenarios over time",
        figures::engine::fig17,
    ),
    ("fig18", "training cost vs #segments", figures::model::fig18),
    ("fig19", "wear CDFs", figures::engine::fig19),
    (
        "abl01",
        "ablation: joint-training gamma",
        figures::ablations::abl01,
    ),
    (
        "abl02",
        "ablation: media DCW on/off",
        figures::ablations::abl02,
    ),
    (
        "abl03",
        "ablation: DAP first-fit vs search",
        figures::ablations::abl03,
    ),
    (
        "abl04",
        "ablation: placement model (VAE, PCA, arbitrary)",
        figures::ablations::abl04,
    ),
    (
        "life01",
        "writes to first segment death per scheme",
        figures::endurance::life01,
    ),
    (
        "life02",
        "E2-NVM graceful degradation past first death",
        figures::endurance::life02,
    ),
];

fn usage() -> ! {
    eprintln!("usage: experiments <all | fig01 fig02 ...> [--quick] [--out DIR]");
    eprintln!("available figures:");
    for (id, desc, _) in FIGURES {
        eprintln!("  {id}  {desc}");
    }
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut quick = false;
    let mut out: Option<PathBuf> = None;
    let mut selected: Vec<&str> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => {
                let dir = iter.next().unwrap_or_else(|| usage());
                out = Some(PathBuf::from(dir));
            }
            "all" => selected.extend(FIGURES.iter().map(|(id, _, _)| *id)),
            other => {
                if let Some((id, _, _)) = FIGURES.iter().find(|(id, _, _)| *id == other) {
                    selected.push(id);
                } else {
                    eprintln!("unknown figure: {other}");
                    usage();
                }
            }
        }
    }
    if selected.is_empty() {
        usage();
    }
    selected.dedup();

    let scale = Scale { quick };
    println!(
        "E2-NVM experiment harness — {} mode, {} figure(s)\n",
        if quick { "quick" } else { "full" },
        selected.len()
    );
    let total = Instant::now();
    for id in selected {
        let (_, _, f) = FIGURES
            .iter()
            .find(|(fid, _, _)| *fid == id)
            .expect("validated id");
        let t0 = Instant::now();
        let table = f(scale);
        table.print();
        println!("  [{} completed in {:.1?}]\n", id, t0.elapsed());
        if let Some(dir) = &out {
            if let Err(e) = table.write_csv(dir) {
                eprintln!("warning: failed to write {id}.csv: {e}");
            }
        }
    }
    println!("all done in {:.1?}", total.elapsed());
}
