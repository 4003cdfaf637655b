//! `ustream evolve` — evolution report between the two most recent windows
//! of a stream: which clusters emerged, faded, persisted, and how far the
//! persisted ones drifted.

use crate::args::{CliError, Flags};
use crate::commands::load_stream;
use umicro::{compare_windows, ClusterChange, HorizonAnalyzer, UMicro, UMicroConfig};
use ustream_common::DataStream;
use ustream_snapshot::PyramidConfig;

/// Runs the command.
pub fn run(flags: &Flags) -> Result<(), CliError> {
    let input = flags.require("in")?;
    let n_micro: usize = flags.get("n-micro", 100)?;
    let window: u64 = flags.get("window", 10_000)?;
    let min_weight: f64 = flags.get("min-weight", 5.0)?;

    let stream = load_stream(input)?;
    let dims = stream.dims();
    let mut alg = UMicro::new(UMicroConfig::new(n_micro, dims)?);
    let mut hz = HorizonAnalyzer::new(PyramidConfig::new(2, 6)?);
    let mut now = 0;
    for p in stream {
        alg.insert(&p);
        now = p.timestamp();
        hz.record(now, &mut alg);
    }

    let recent = hz
        .horizon_clusters(now, window)
        .map_err(|e| format!("recent window: {e}"))?;
    let earlier_end = now.saturating_sub(window);
    let earlier = match hz.horizon_clusters(earlier_end, window) {
        Ok(w) => w,
        Err(_) => hz
            .clusters_at(earlier_end)
            .cloned()
            .ok_or("nothing recorded before the earlier window")?,
    };

    let report = compare_windows(&earlier, &recent, min_weight);
    println!(
        "evolution between (t-{}..t-{window}] and (t-{window}..t] at t={now}:",
        2 * window
    );
    println!(
        "  emerged {}  faded {}  persisted {}  mean drift {:.4}  turbulence {:.2}",
        report.emerged(),
        report.faded(),
        report.persisted(),
        report.mean_drift,
        report.turbulence()
    );
    for change in report.changes.iter().take(30) {
        match change {
            ClusterChange::Emerged { id, weight } => {
                println!("  + cluster {id}: emerged with weight {weight:.1}")
            }
            ClusterChange::Faded { id, weight } => {
                println!("  - cluster {id}: faded (had weight {weight:.1})")
            }
            ClusterChange::Persisted {
                id,
                weight_before,
                weight_after,
                centroid_shift,
            } => println!(
                "  = cluster {id}: {weight_before:.1} -> {weight_after:.1}, drifted {centroid_shift:.4}"
            ),
        }
    }
    if report.changes.len() > 30 {
        println!("  … ({} more changes)", report.changes.len() - 30);
    }
    Ok(())
}
