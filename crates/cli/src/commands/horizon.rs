//! `ustream horizon` — cluster a stream, record pyramidal snapshots, and
//! report the clusters of one or more trailing windows (§II-D of the paper
//! from the command line).

use crate::args::{CliError, Flags};
use crate::commands::load_stream;
use umicro::{HorizonAnalyzer, UMicro, UMicroConfig};
use ustream_common::DataStream;
use ustream_snapshot::PyramidConfig;

/// Runs the command.
pub fn run(flags: &Flags) -> Result<(), CliError> {
    let input = flags.require("in")?;
    let n_micro: usize = flags.get("n-micro", 100)?;
    let k: usize = flags.get("k", 5)?;
    let seed: u64 = flags.get("seed", 42)?;
    let alpha: u64 = flags.get("alpha", 2)?;
    let l: u32 = flags.get("l", 6)?;
    let horizons: Vec<u64> = flags
        .get_str("horizons", "1000,10000")
        .split(',')
        .map(|s| s.trim().parse().map_err(|e| format!("bad horizon: {e}")))
        .collect::<Result<_, _>>()?;

    let stream = load_stream(input)?;
    let dims = stream.dims();
    let mut alg = UMicro::new(UMicroConfig::new(n_micro, dims)?);
    let mut hz = HorizonAnalyzer::new(PyramidConfig::new(alpha, l)?);

    let mut now = 0;
    for p in stream {
        alg.insert(&p);
        now = p.timestamp();
        hz.record(now, &mut alg);
    }
    eprintln!(
        "processed up to tick {now}; {} snapshots retained (alpha={alpha}, l={l})",
        hz.store().len()
    );

    for h in horizons {
        match hz.horizon_clusters(now, h) {
            Ok(window) => {
                println!(
                    "\nwindow (last {h} ticks): {} micro-clusters, {:.0} points",
                    window.len(),
                    window.total_count()
                );
                match hz.macro_cluster_horizon(now, h, k, seed) {
                    Ok(mac) => {
                        for (i, (c, w)) in mac.centroids.iter().zip(&mac.weights).enumerate() {
                            let head: Vec<String> =
                                c.iter().take(5).map(|v| format!("{v:.3}")).collect();
                            println!(
                                "  #{i}: weight {w:>9.1}  centroid [{}{}]",
                                head.join(", "),
                                if c.len() > 5 { ", …" } else { "" }
                            );
                        }
                    }
                    Err(e) => println!("  macro clustering failed: {e}"),
                }
            }
            Err(e) => println!("\nwindow (last {h} ticks): unavailable ({e})"),
        }
    }
    Ok(())
}
