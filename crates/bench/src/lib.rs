//! # rkd-bench — experiment harnesses for every table and figure
//!
//! Shared configuration and pretty-printing for the binaries that
//! regenerate the paper's evaluation:
//!
//! - `table1` — page prefetching (Linux readahead vs Leap vs RMT-ML);
//! - `table2` — CFS migration mimicry (full/lean MLP vs native CFS);
//! - `fig1_pipeline` — the Figure 1 program lifecycle
//!   (DSL → verify → install + optimize → fire);
//! - `ablation_*` — design-choice sweeps called out in DESIGN.md.
//!
//! Microbenchmarks live under `benches/`; they run on the in-repo
//! [`harness`] module (plain `std::time::Instant` timing) so the
//! build stays hermetic. The [`shard_replay`] module is the shared
//! multi-core replay harness behind the binaries' `--shards N` flag
//! and the `bench_parallel` scaling gate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod harness;
pub mod shard_replay;

use rkd_sim::mem::sim::MemSimConfig;
use rkd_workloads::mem::{MatrixConvParams, VideoResizeParams};

/// Canonical Table 1 workload scale: large enough that completion
/// times land in whole seconds, as in the paper.
pub fn table1_video_params() -> VideoResizeParams {
    VideoResizeParams {
        frames: 120,
        src_rows: 63,
        pages_per_row: 4,
    }
}

/// Canonical Table 1 matrix-convolution scale.
pub fn table1_matrix_params() -> MatrixConvParams {
    MatrixConvParams {
        rows: 512,
        tile: 8,
        passes: 10,
    }
}

/// Canonical Table 1 memory cost model: a remote-swap-class fault cost
/// against near-free prefetched hits.
pub fn table1_mem_config() -> MemSimConfig {
    MemSimConfig {
        cache_pages: 1024,
        hit_ns: 200,
        prefetch_hit_ns: 2_000,
        fault_ns: 2_500_000,
        prefetch_issue_ns: 1_000,
    }
}

/// Renders an aligned text table: a header row plus data rows. Column
/// widths adapt to content.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:<width$}", cell, width = widths[i]));
        }
        while line.ends_with(' ') {
            line.pop();
        }
        line.push('\n');
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Formats a float with one decimal, the paper's table style.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats a float with two decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_table_aligns_columns() {
        let out = render_table(
            &["Metric", "Linux", "Ours"],
            &[
                vec!["Accuracy".into(), "40.7".into(), "78.9".into()],
                vec!["Time (s)".into(), "24.6".into(), "17.8".into()],
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Metric"));
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    fn formatters() {
        assert_eq!(f1(1.26), "1.3");
        assert_eq!(f2(1.266), "1.27");
    }

    #[test]
    fn canonical_configs_are_sane() {
        assert!(table1_video_params().frames >= 100);
        assert!(table1_matrix_params().passes >= 2);
        let c = table1_mem_config();
        assert!(c.fault_ns > c.prefetch_hit_ns * 100);
    }
}
