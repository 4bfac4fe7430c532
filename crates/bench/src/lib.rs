//! # defcon-bench
//!
//! The reproduction harness: shared table formatting plus one `repro_*`
//! binary per table and figure of the paper (see DESIGN.md §5 for the
//! experiment index). Microbenchmarks live in `benches/`.
//!
//! Environment switches shared by the `repro_*` binaries:
//!
//! * `DEFCON_TINY=1` — swap the paper's layer sweep for two tiny shapes so
//!   a binary finishes in well under a second (smoke tests, CI);
//! * `DEFCON_JSON=1` — additionally emit the experiment's results as a
//!   single line of JSON (the last stdout line), for machine consumption.
//!
//! `DEFCON_THREADS=N` fans a binary's independent rows or cells out on `N`
//! workers (`defcon_support::par::map`), each on the serial engine, so
//! stdout is the same bytes at every thread count.

use defcon_gpusim::Gpu;
use defcon_kernels::op::synthetic_inputs;
use defcon_kernels::{paper_layer_sweep, DeformConvOp, DeformLayerShape, SamplingMethod};
use defcon_support::json::Json;
use defcon_support::par;
use std::fmt::Write as _;

/// True when `DEFCON_TINY=1`: sweep tiny layer shapes instead of the
/// paper's. A malformed value exits with a clear message rather than
/// being silently ignored.
pub fn tiny_mode() -> bool {
    defcon_support::env::or_die(defcon_support::env::flag(defcon_support::env::TINY))
}

/// True when `DEFCON_JSON=1`: emit a machine-readable report line.
pub fn json_mode() -> bool {
    defcon_support::env::or_die(defcon_support::env::flag(defcon_support::env::JSON))
}

/// True when `DEFCON_FAST=1`: shrink an example/repro training budget.
pub fn fast_mode() -> bool {
    defcon_support::env::or_die(defcon_support::env::flag(defcon_support::env::FAST))
}

/// Arms the observability layer from the environment. Every `repro_*`
/// binary calls this first: with `DEFCON_TRACE=<path>` set, the returned
/// guard records the run and writes a Chrome trace-event file to `path`
/// when it drops (bind it to a variable declared *before* any other work
/// so it drops last); `DEFCON_OBS_WALL=1` switches the span clock from
/// logical ticks to wall microseconds. `None` (and zero overhead) when
/// tracing is off; a malformed value exits with a clear message.
pub fn obs_scope() -> Option<defcon_support::obs::ObsGuard> {
    defcon_support::env::or_die(defcon_support::obs::arm_from_env())
}

/// The layer shapes a `repro_*` binary should sweep: the paper's Table II
/// set, or two tiny stand-ins under `DEFCON_TINY=1`.
pub fn layer_sweep() -> Vec<DeformLayerShape> {
    if tiny_mode() {
        vec![
            DeformLayerShape::same3x3(8, 8, 12, 12),
            DeformLayerShape::same3x3(16, 16, 9, 9),
        ]
    } else {
        paper_layer_sweep()
    }
}

/// The samplers of Tables II and IV, in column order: PyTorch, tex2D,
/// tex2D++.
pub const SAMPLERS: [SamplingMethod; 3] = [
    SamplingMethod::SoftwareBilinear,
    SamplingMethod::Tex2d,
    SamplingMethod::Tex2dPlusPlus,
];

/// The Table II / IV grid: total simulated ms (offset conv + sampling +
/// GEMM) of each of the [`SAMPLERS`] at every shape, on the inputs
/// `synthetic_inputs(shape, 4.0, 2024)`. Each shape's inputs, then each
/// (shape, sampler) cell, is one item of a `par::map` on
/// `gpu.policy().threads` workers.
pub fn sampler_grid_ms(gpu: &Gpu, shapes: &[DeformLayerShape]) -> Vec<[f64; 3]> {
    let threads = gpu.policy().threads;
    let inputs = par::map(shapes, threads, |shape| synthetic_inputs(shape, 4.0, 2024));
    let cells: Vec<(usize, SamplingMethod)> = (0..shapes.len())
        .flat_map(|i| SAMPLERS.map(|method| (i, method)))
        .collect();
    let ms = par::map(&cells, threads, |&(i, method)| {
        let (x, offsets) = &inputs[i];
        DeformConvOp {
            method,
            ..DeformConvOp::baseline(shapes[i])
        }
        .simulate_total(gpu, x, offsets)
        .0
    });
    ms.chunks(SAMPLERS.len())
        .map(|row| [row[0], row[1], row[2]])
        .collect()
}

/// Prints `report` as one line of JSON when [`json_mode`] is on. Call this
/// last so the JSON document is the final stdout line.
pub fn emit_json(report: &Json) {
    if json_mode() {
        println!("{report}");
    }
}

/// A minimal fixed-width table printer for harness output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "| {:>w$} ", c, w = widths[i]);
            }
            out.push_str("|\n");
        };
        line(&mut out, &self.headers);
        for (i, w) in widths.iter().enumerate() {
            let _ = write!(out, "|{:-<w$}", "", w = w + 2);
            if i == widths.len() - 1 {
                out.push_str("|\n");
            }
        }
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a float with 2 decimal places.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a speedup as `1.23x`.
pub fn speedup(v: f64) -> String {
    format!("{v:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "bbbb"]);
        t.row(&["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("| bbbb |"));
        assert!(s.lines().count() == 3);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_bad_rows() {
        let mut t = Table::new(&["a"]);
        t.row(&["1".into(), "2".into()]);
    }
}
