//! Tables and terminal plots for experiment output.
//!
//! The benchmark harness regenerates every figure and table of the paper
//! as (a) a TSV file suitable for gnuplot and (b) an ASCII rendering for
//! the terminal. This crate supplies the shared pieces:
//!
//! * [`table`] — fixed-width text tables and TSV writers.
//! * [`plot`] — ASCII line charts with linear or log-scaled y axes,
//!   visually comparable to the paper's gnuplot figures.
//! * [`costs`] — pricing a run's observed block traffic through the
//!   paper's §2.2.4 link-cost model, so two policies compare in
//!   link-seconds per peer per day rather than raw block counts.

pub mod costs;
pub mod plot;
pub mod table;

pub use costs::{ObservedTraffic, PricedTraffic};
pub use plot::{AsciiChart, Scale, Series};
pub use table::{render_table, tsv_text, write_tsv, TableBuilder};
